"""Packing a directory tree into a brick and getting it back out.

A brick is an ordinary directory: one payload file per source file at the
same relative path, plus a BRICK-MANIFEST index written last, so a brick
with a manifest is by construction a completely written brick.

Verification has two depths. The shallow pass proves the stored payloads
are the ones the manifest describes (existence, size, payload digest).
The deep pass additionally decodes every payload and proves the original
bytes are recoverable (authentication, decompression, plaintext digest).
"""

from __future__ import annotations

import contextlib
import errno
import functools
import os
import stat
import threading
import unicodedata
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import payload as payload_mod
from .errors import ConfigError, IntegrityError
from .manifest import (
    CODEC_DEFLATE,
    DEFAULT_KDF_ITERATIONS,
    MANIFEST_FILENAME,
    ChunkEntry,
    KdfParams,
    Manifest,
    check_header_value,
    check_relative_path,
    is_encrypted,
    parse_manifest,
    serialize_manifest,
    sorted_entries,
    validate_chain,
)

# Shallow findings, ordered by precedence; deep adds the last three.
KIND_MISSING = "missing-payload"
KIND_SIZE = "size-mismatch"
KIND_PAYLOAD_DIGEST = "payload-digest-mismatch"
KIND_EXTRA = "extra-file"
KIND_DECODE = "decode-failure"
KIND_PLAIN_SIZE = "plain-size-mismatch"
KIND_PLAIN_DIGEST = "plain-digest-mismatch"


@dataclass(frozen=True)
class PackResult:
    manifest: Manifest
    brick_dir: Path
    plain_bytes: int
    payload_bytes: int
    # Directories with no file below them; a v1 brick cannot record them.
    empty_dirs: tuple[str, ...]


@dataclass(frozen=True)
class Finding:
    """One defect found in one stored file."""

    path: str
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.path}: {self.detail}"


@dataclass(frozen=True)
class VerifyReport:
    brick_dir: Path
    entry_count: int
    bytes_checked: int
    deep: bool
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not self.findings


@dataclass(frozen=True)
class UnpackResult:
    dest_dir: Path
    file_count: int
    bytes_written: int


def _require_empty_dir(target: Path, what: str) -> None:
    if target.exists():
        if not target.is_dir():
            raise ConfigError(f"{what} {target} exists and is not a directory")
        if any(target.iterdir()):
            raise ConfigError(f"{what} {target} is not empty")


def _walk(root: str) -> Iterator[tuple[str, os.DirEntry]]:
    """(relative path, entry) for each entry below root, sorted; symlinks are not followed.

    A directory comes just before what it holds. The walk keeps its own
    stack, so no tree is too deep for it.
    """

    def listing(directory: str) -> Iterator[os.DirEntry]:
        with os.scandir(directory) as entries:
            return iter(sorted(entries, key=lambda child: child.name))

    stack = [("", listing(root))]
    while stack:
        prefix, children = stack[-1]
        for child in children:
            yield prefix + child.name, child
            if child.is_dir(follow_symlinks=False):
                stack.append((f"{prefix}{child.name}/", listing(child.path)))
                break  # descend; this directory's iterator resumes afterwards
        else:
            stack.pop()


def _not_regular(relative: str) -> ConfigError:
    return ConfigError(f"{relative}: only regular files can be packed")


def _collect_source(
    source_dir: Path,
) -> tuple[list[tuple[str, str, int, tuple[int, int]]], list[str]]:
    """Map the tree's files to (stored path, real path, size, identity), and list its directories.

    identity is the walk's (st_dev, st_ino), which pack checks against the file it opens.
    """
    found: list[tuple[str, str, int, tuple[int, int]]] = []
    directories: list[str] = []
    seen: dict[str, str] = {}
    for relative, child in _walk(str(source_dir)):
        try:
            relative.encode("utf-8")
        except UnicodeEncodeError:  # a manifest line is UTF-8, so the name cannot be stored
            shown = os.fsencode(relative).decode("utf-8", "backslashreplace")
            raise ConfigError(f"{shown}: name is not valid UTF-8") from None
        stored = unicodedata.normalize("NFC", relative)
        if child.is_dir(follow_symlinks=False):
            directories.append(stored)
            continue
        if not child.is_file(follow_symlinks=False):
            raise _not_regular(relative)
        try:
            check_relative_path(stored)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if stored == MANIFEST_FILENAME:
            raise ConfigError(f"source contains a file named {MANIFEST_FILENAME}")
        if stored in seen:
            raise ConfigError(
                f"{relative!r} and {seen[stored]!r} normalize to the same stored path"
            )
        seen[stored] = relative
        info = child.stat(follow_symlinks=False)
        found.append((stored, child.path, info.st_size, (info.st_dev, info.st_ino)))
    return found, directories


def _resolve_key(
    chain: tuple[str, ...], passphrase: str | None, kdf: KdfParams | None
) -> bytes | None:
    if not is_encrypted(chain):
        return None
    if passphrase is None:
        raise ConfigError("codec chain encrypts but no passphrase was provided")
    assert kdf is not None
    return payload_mod.derive_key(passphrase, kdf)


def _worker_count(workers: int | None) -> int:
    """None means one thread per core, up to 8; anything else must be at least 1."""
    if workers is None:
        return max(1, min(8, os.cpu_count() or 1))
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    return workers


def _run_entries(
    jobs: Sequence[Any], size: Callable[[Any], int], work: Callable[[Any], Any], workers: int
) -> list[Any]:
    """Run work(job) for every job and return the results in job order.

    Pack, verify and unpack share this rule: a job whose file is under
    payload.CHUNK_BYTES runs inline, where a hand-off costs more than the
    work; larger jobs go to a pool of `workers` threads, where hashing, zlib
    and file IO release the GIL. Once a job raises, no further job starts.
    This pool spreads files, not the work within one: under deflate, pack
    also hands the blocks of each file over payload.DEFLATE_BLOCK_BYTES,
    inline or pooled, to its block pool, so one large file uses every core,
    and a deep check or unpack inflates a pooled file on threads of its own.
    """
    stop = threading.Event()

    def run(job: Any) -> Any:
        if stop.is_set():
            return None
        try:
            return work(job)
        except BaseException:
            stop.set()
            raise

    results: list[Any] = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            for job in jobs:
                if stop.is_set():
                    break
                pooled = workers > 1 and size(job) >= payload_mod.CHUNK_BYTES
                results.append(pool.submit(run, job) if pooled else run(job))
            return [r.result() if isinstance(r, Future) else r for r in results]
        finally:
            stop.set()  # an interrupt must not leave queued jobs to start


def pack(
    source_dir: Path,
    brick_dir: Path,
    dataset_name: str | None = None,
    codec_chain: tuple[str, ...] = ("none",),
    passphrase: str | None = None,
    kdf_iterations: int = DEFAULT_KDF_ITERATIONS,
    workers: int | None = None,
) -> PackResult:
    """Pack source_dir into a new brick at brick_dir.

    Each source file is read once, in bounded chunks, and streamed through
    the codec chain into its payload. Under deflate, the blocks of a file
    over payload.DEFLATE_BLOCK_BYTES are deflated on one pool of `workers`
    threads that all entries share.
    """
    source_dir = Path(source_dir)
    brick_dir = Path(brick_dir)
    thread_count = _worker_count(workers)
    if not source_dir.is_dir():
        raise ConfigError(f"source {source_dir} is not a directory")
    dataset_name = dataset_name or source_dir.name
    try:
        check_header_value(dataset_name)
    except ValueError as exc:
        raise ConfigError(f"dataset name {dataset_name!r}: {exc}") from None
    _require_empty_dir(brick_dir, "destination")
    try:
        chain = validate_chain(codec_chain)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    kdf = None
    if is_encrypted(chain):
        try:
            kdf = KdfParams(iterations=kdf_iterations, salt=payload_mod.new_salt())
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    elif passphrase is not None:
        raise ConfigError("passphrase provided but the codec chain does not encrypt")
    key = _resolve_key(chain, passphrase, kdf)

    files, all_directories = _collect_source(source_dir)
    stored_paths = [stored for stored, *_ in files]
    directories = _directories(stored_paths)
    empty_dirs = tuple(sorted(set(all_directories) - set(directories)))
    made_brick_dir = not brick_dir.exists()
    brick_dir.mkdir(parents=True, exist_ok=True)

    def store(item: tuple[str, str, int, tuple[int, int]]) -> ChunkEntry:
        stored, real, _, identity = item
        try:
            # The tree may have changed since the walk: a FIFO in a file's place
            # must not block the open, nor a link be followed; fstat checks the rest.
            source = os.open(real, os.O_RDONLY | os.O_NONBLOCK | os.O_NOFOLLOW)
        except OSError as exc:
            if exc.errno != errno.ELOOP:
                raise
            raise _not_regular(stored) from None
        try:
            info = os.fstat(source)
            if not stat.S_ISREG(info.st_mode):
                raise _not_regular(stored)
            # O_NOFOLLOW guards only the last component: a directory on the
            # path may have become a link to another tree since the walk.
            if (info.st_dev, info.st_ino) != identity:
                raise ConfigError(f"{stored}: replaced after the source was walked")
            sink = os.open(f"{brick_dir}/{stored}", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
            try:
                write = functools.partial(_write_all, sink)
                encoded = payload_mod.encode_file(
                    source, info.st_size, write, chain, key, blocks, thread_count
                )
            except ConfigError as exc:
                raise ConfigError(f"{stored}: {exc}") from None
            finally:
                os.close(sink)
        finally:
            os.close(source)
        # _collect_source checked the path; the digests are hexdigest() output.
        return ChunkEntry._proven(stored, *encoded)

    # One pool of deflate threads for every entry; it starts its threads on
    # the first block handed to it, so a pack of small files starts none.
    # A pool per file held more blocks in flight: on four 16 MiB files under
    # deflate,aes-256-gcm it raised peak RSS from 34.4 to 35.8 MB (median
    # of 10 pairs).
    blocks = None
    if CODEC_DEFLATE in chain and thread_count > 1:
        blocks = ThreadPoolExecutor(max_workers=thread_count, thread_name_prefix="brick-deflate")
    try:
        for directory in directories:
            (brick_dir / directory).mkdir(exist_ok=True)
        entries = sorted_entries(_run_entries(files, lambda item: item[2], store, thread_count))

        manifest = Manifest(
            dataset_name=dataset_name,
            created_at=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            codec_chain=chain,
            entries=entries,
            kdf=kdf,
        )
        (brick_dir / MANIFEST_FILENAME).write_bytes(serialize_manifest(manifest))
    except BaseException:
        # The destination was empty, so every file and directory here is ours.
        _remove_partial(brick_dir, stored_paths + [MANIFEST_FILENAME], directories)
        if made_brick_dir:
            with contextlib.suppress(OSError):
                brick_dir.rmdir()
        raise
    finally:
        if blocks is not None:
            blocks.shutdown(cancel_futures=True)
    return PackResult(
        manifest=manifest,
        brick_dir=brick_dir,
        plain_bytes=sum(entry.plain_size for entry in entries),
        payload_bytes=sum(entry.payload_size for entry in entries),
        empty_dirs=empty_dirs,
    )


def load_manifest(brick_dir: Path) -> Manifest:
    path = Path(brick_dir) / MANIFEST_FILENAME
    if not path.is_file():
        raise IntegrityError(f"{brick_dir} has no {MANIFEST_FILENAME}; not a brick")
    return parse_manifest(path.read_bytes())


def _judge(entry: ChunkEntry, decoded: payload_mod.Decoded, deep: bool) -> Finding | None:
    """The most precise single finding for one read of a payload."""
    if decoded.payload_sha256 != entry.payload_sha256:
        return Finding(entry.path, KIND_PAYLOAD_DIGEST, "stored bytes do not match")
    if not deep:
        return None
    if decoded.error is not None:
        return Finding(entry.path, KIND_DECODE, decoded.error)
    if decoded.overflow:
        detail = f"decoded to more than the {entry.plain_size} bytes the manifest says"
        return Finding(entry.path, KIND_PLAIN_SIZE, detail)
    if decoded.plain_size != entry.plain_size:
        detail = f"decoded to {decoded.plain_size} bytes, manifest says {entry.plain_size}"
        return Finding(entry.path, KIND_PLAIN_SIZE, detail)
    if decoded.plain_sha256 != entry.plain_sha256:
        return Finding(entry.path, KIND_PLAIN_DIGEST, "decoded bytes do not match")
    return None


def _check_entry(
    root: str, entry: ChunkEntry, deep: bool, chain: tuple[str, ...], key: bytes | None,
    write: Callable[[bytes], object] | None = None, threads: int = 1,
) -> tuple[Finding | None, int]:
    """Most precise single finding for one entry, plus bytes read.

    A deep check hands the decoded bytes to write() as they appear; with
    threads > 1, a large deflate payload is inflated on threads of its own.
    """
    try:
        # A FIFO planted in a brick must not block the open; fstat then rejects it.
        fd = os.open(f"{root}/{entry.path}", os.O_RDONLY | os.O_NONBLOCK)
    except (FileNotFoundError, NotADirectoryError, IsADirectoryError):
        return Finding(entry.path, KIND_MISSING, "payload file not found"), 0
    try:
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode):
            return Finding(entry.path, KIND_MISSING, "payload file not found"), 0
        if info.st_size != entry.payload_size:
            detail = f"payload is {info.st_size} bytes, manifest says {entry.payload_size}"
            return Finding(entry.path, KIND_SIZE, detail), 0
        decoded = payload_mod.decode_file(
            fd, entry.payload_size, chain if deep else None, key, entry.plain_size, write, threads
        )
    finally:
        os.close(fd)
    return _judge(entry, decoded, deep), decoded.payload_size


def verify(
    brick_dir: Path, deep: bool = False, passphrase: str | None = None, workers: int | None = None
) -> VerifyReport:
    """Check a brick against its manifest; never raises for per-file defects.

    Each payload is read once, deep or not. A deep check of a deflate
    payload of payload.CHUNK_BYTES and up inflates it on threads of its own
    unless `workers` is 1.
    """
    brick_dir = Path(brick_dir)
    thread_count = _worker_count(workers)
    manifest = load_manifest(brick_dir)
    key = _resolve_key(manifest.codec_chain, passphrase, manifest.kdf) if deep else None
    root = str(brick_dir)
    check = functools.partial(
        _check_entry, root, deep=deep, chain=manifest.codec_chain, key=key, threads=thread_count
    )
    results = _run_entries(manifest.entries, lambda e: e.payload_size, check, thread_count)
    findings = [finding for finding, _ in results if finding is not None]
    bytes_checked = sum(size for _, size in results)
    known = {entry.path for entry in manifest.entries} | {MANIFEST_FILENAME}
    findings += [
        Finding(relative, KIND_EXTRA, "not listed in the manifest")
        for relative, child in _walk(root)
        if not child.is_dir(follow_symlinks=False) and relative not in known
    ]
    findings.sort(key=lambda finding: finding.path)
    return VerifyReport(
        brick_dir=brick_dir,
        entry_count=len(manifest.entries),
        bytes_checked=bytes_checked,
        deep=deep,
        findings=tuple(findings),
    )


def _directories(paths: Iterable[str]) -> list[str]:
    """Every directory the file paths need, each after its parent."""
    found: set[str] = set()
    for path in paths:
        parent = path.rpartition("/")[0]
        while parent and parent not in found:  # a known directory's parents are known too
            found.add(parent)
            parent = parent.rpartition("/")[0]
    return sorted(found)


def _remove_partial(root: Path, files: Iterable[str], directories: list[str]) -> None:
    """Remove the named files under root, then each directory left empty, deepest first."""
    for name in files:
        (root / name).unlink(missing_ok=True)
    for directory in reversed(directories):
        with contextlib.suppress(OSError):
            (root / directory).rmdir()  # only succeeds while empty


def _scratch_names(entries: tuple[ChunkEntry, ...], directories: list[str]) -> list[str]:
    """A name per entry, in the entry's directory, that no manifest path or directory uses."""
    taken = {entry.path for entry in entries} | set(directories)
    names = []
    for index, entry in enumerate(entries):
        parent, slash, _ = entry.path.rpartition("/")
        name = f"{parent}{slash}.brick-{index}.part"
        while name in taken:  # only a manifest that lists such names can force this
            name += ".part"
        names.append(name)
    return names


def _write_all(fd: int, data: bytes) -> None:
    """os.write until every byte is written; a short write is not an error."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _restore(
    root: str, dest: str, chain: tuple[str, ...], key: bytes | None, threads: int,
    job: tuple[ChunkEntry, str],
) -> int:
    """Decode one payload into its scratch file and give it its final name once it is proven."""
    entry, scratch = job[0], f"{dest}/{job[1]}"
    out = os.open(scratch, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            write = functools.partial(_write_all, out)
            finding, _ = _check_entry(root, entry, True, chain, key, write, threads)
        finally:
            os.close(out)  # closed before the file can get its name
        if finding is not None:
            raise IntegrityError(str(finding))
        os.rename(scratch, f"{dest}/{entry.path}")
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(scratch)
        raise
    return entry.plain_size


def unpack(
    brick_dir: Path, dest_dir: Path, passphrase: str | None = None, workers: int | None = None
) -> UnpackResult:
    """Restore the original tree, proving every file before it gets its name.

    Each payload is read once and decoded into a scratch file beside its
    final name; the rename happens only after the payload digest, the GCM
    tag and the plain digest all match. Fails fast on the first bad payload:
    no further file is started, its scratch file and any directory left
    empty are removed, and files already restored are left in place so a
    rerun after repair can be compared against them. Unless `workers` is 1,
    a deflate payload of payload.CHUNK_BYTES and up is inflated, and its
    plain bytes hashed and written, on two threads beside the one reading it.
    """
    brick_dir = Path(brick_dir)
    dest_dir = Path(dest_dir)
    thread_count = _worker_count(workers)
    manifest = load_manifest(brick_dir)
    _require_empty_dir(dest_dir, "destination")
    chain = manifest.codec_chain
    key = _resolve_key(chain, passphrase, manifest.kdf)
    dest_dir.mkdir(parents=True, exist_ok=True)
    directories = _directories(entry.path for entry in manifest.entries)
    jobs = list(zip(manifest.entries, _scratch_names(manifest.entries, directories)))
    restore = functools.partial(_restore, str(brick_dir), str(dest_dir), chain, key, thread_count)
    try:
        for directory in directories:
            (dest_dir / directory).mkdir(exist_ok=True)
        written = _run_entries(jobs, lambda job: job[0].payload_size, restore, thread_count)
    except BaseException:
        _remove_partial(dest_dir, (), directories)
        raise
    return UnpackResult(dest_dir=dest_dir, file_count=len(written), bytes_written=sum(written))
