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
import itertools
import os
import stat
import threading
import unicodedata
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
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
    validate_chain,
    write_manifest,
)

# Shallow findings, ordered by precedence; deep adds the last three.
KIND_MISSING = "missing-payload"
KIND_SIZE = "size-mismatch"
KIND_PAYLOAD_DIGEST = "payload-digest-mismatch"
KIND_EXTRA = "extra-file"
KIND_DECODE = "decode-failure"
KIND_PLAIN_SIZE = "plain-size-mismatch"
KIND_PLAIN_DIGEST = "plain-digest-mismatch"

# Open errors that mean no regular file is there; ELOOP is O_NOFOLLOW meeting a symlink.
_NOT_FOUND = (errno.ENOENT, errno.ENOTDIR, errno.EISDIR, errno.ELOOP)

# Up to `workers` large files share pack's deflate pool, each with at most
# threads + 1 blocks in flight: about (workers + 1)^2 blocks of 256 KiB plus
# their 32 KiB primers at the cap, 1.2 GiB at 64.
MAX_WORKERS = 64


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

    The files come in manifest order: by stored path, which the walk's
    order is not ("a-b" < "a/x", and a stored path is NFC). identity is the
    walk's (st_dev, st_ino), which pack checks against the file it opens.
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
    found.sort(key=lambda item: item[0])
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
    """None means one thread per CPU this process may run on, up to 8.

    Anything else must be in [1, MAX_WORKERS].
    """
    if workers is None:
        cores = (
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        )
        return max(1, min(8, cores or 1))
    if not 1 <= workers <= MAX_WORKERS:
        raise ConfigError(f"workers must be between 1 and {MAX_WORKERS}, got {workers}")
    return workers


def _run_entries(
    jobs: Sequence[Any], size: Callable[[Any], int], work: Callable[[Any, int], Any], workers: int
) -> list[Any]:
    """Run work(job, threads) for every job and return the results in job order.

    Pack, verify and unpack share this rule: a job whose file is under
    payload.CHUNK_BYTES (256 KiB) runs inline, where a hand-off costs more
    than the work; larger jobs go to a pool of `workers` threads, where
    hashing, zlib and file IO release the GIL. At most 2 * workers pooled
    jobs are submitted and unfinished at once: when the window is full,
    this thread waits for one to end and keeps only its result, so memory
    does not grow with the number of large files. Once a job raises, no
    further job starts; a pooled job's failure keeps its place and is
    raised in job order.

    `threads` is how many threads the job may use: 1 inline, and for a
    pooled job an even share of the `workers` slots. The calling thread
    takes one of them once the inline jobs add up to CHUNK_BYTES, since it
    runs those beside the pool. A read given two or more threads starts
    one helper (payload.decode_file), so for verify and unpack `workers` is
    the run's whole thread budget: a lone large payload, or two under four
    workers, is hashed, or under deflate written, beside its reader, and a
    busy pool starts no helper. Pack's deflate blocks draw on a pool of
    their own instead.

    Each job is sized once, and whether it is pooled decided once, before
    the first job runs.
    """
    stop = threading.Event()
    sizes = [size(job) for job in jobs]
    pooled = [workers > 1 and n >= payload_mod.CHUNK_BYTES for n in sizes]
    inline_bytes = sum(n for n, in_pool in zip(sizes, pooled) if not in_pool)
    slots = workers - (inline_bytes >= payload_mod.CHUNK_BYTES)
    share = max(1, slots // max(1, sum(pooled)))

    def run(job: Any, threads: int) -> Any:
        if stop.is_set():
            return None
        try:
            return work(job, threads)
        except BaseException:
            stop.set()
            raise

    results: list[Any] = []
    unfinished: dict[Future, int] = {}  # each pooled job's place in results
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            for job, in_pool in zip(jobs, pooled):
                if stop.is_set():
                    break
                if not in_pool:
                    results.append(run(job, 1))
                    continue
                if len(unfinished) == 2 * workers:
                    for future in wait(unfinished, return_when=FIRST_COMPLETED).done:
                        index = unfinished.pop(future)
                        if future.exception() is None:  # a failure stays, to be raised in order
                            results[index] = future.result()
                future = pool.submit(run, job, share)
                unfinished[future] = len(results)
                results.append(future)
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

    Each source file is read once, in chunks of at most payload.CHUNK_BYTES
    (256 KiB), and streamed through the codec chain into its payload, in
    manifest order. A file of one chunk and up is packed on a pool thread
    unless `workers` is 1. Under deflate, the blocks of a file over one
    chunk are deflated on one pool of `workers` threads that all entries
    share.
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
    directories = _directories(stored for stored, *_ in files)
    empty_dirs = tuple(sorted(set(all_directories) - set(directories)))
    made_files: list[str] = []  # the payloads written, removed again if pack fails

    # The deflate threads come from `blocks`, not from the entry's share of the budget.
    def store(item: tuple[str, str, int, tuple[int, int]], _threads: int) -> ChunkEntry:
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
            try:
                encoded = _write_new(
                    f"{brick_dir}/{stored}",
                    lambda write: payload_mod.encode_file(
                        source, info.st_size, write, chain, key, blocks, thread_count
                    ),
                )
            except ConfigError as exc:
                raise ConfigError(f"{stored}: {exc}") from None
            made_files.append(stored)
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
        with _new_tree(brick_dir, directories, made_files):
            entries = tuple(_run_entries(files, lambda job: job[2], store, thread_count))
            manifest = Manifest(
                dataset_name=dataset_name,
                created_at=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
                codec_chain=chain,
                entries=entries,
                kdf=kdf,
            )
            _write_new(
                f"{brick_dir}/{MANIFEST_FILENAME}",
                lambda write: write_manifest(manifest, write, payload_mod.CHUNK_BYTES),
            )
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


def _open_regular(path: str, consume: Callable[[int, os.stat_result], Any]) -> Any:
    """Return consume(fd, its stat) if a regular file is at path, else None; fd is closed after.

    A FIFO planted in a brick must not block the open, nor a symlink be
    followed; fstat then rejects whatever is not a regular file. The reader
    is a callback, as _write_new's writer is, so the descriptor never
    outlives this call. A generator context manager here cost about 1.7 µs
    per payload: 15% of verify on 2,000 small files (2 vCPU VM, Python 3.11).
    """
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK | os.O_NOFOLLOW)
    except OSError as exc:
        if exc.errno not in _NOT_FOUND:
            raise
        return None
    try:
        info = os.fstat(fd)
        return consume(fd, info) if stat.S_ISREG(info.st_mode) else None
    finally:
        os.close(fd)


def load_manifest(brick_dir: Path) -> Manifest:
    """Parse brick_dir's manifest; a symlink, FIFO or directory in its place is no manifest.

    The file is read as a payload is, with os.read in pieces of at most
    CHUNK_BYTES, into one buffer sized by fstat, and parsed where it lies:
    beside the entries, the run holds one copy of the manifest and one piece.
    """

    def parse(fd: int, info: os.stat_result) -> Manifest:
        data = bytearray(info.st_size)
        size = 0
        while part := os.read(fd, payload_mod.CHUNK_BYTES):
            data[size : size + len(part)] = part  # past the end, if the file grew, this appends
            size += len(part)
        del data[size:]  # shorter, if the file shrank since fstat
        return parse_manifest(data)

    manifest = _open_regular(f"{brick_dir}/{MANIFEST_FILENAME}", parse)
    if manifest is None:
        raise IntegrityError(f"{brick_dir} has no {MANIFEST_FILENAME}; not a brick")
    return manifest


def _judge(entry: ChunkEntry, decoded: payload_mod.Decoded, deep: bool) -> Finding | None:
    """The most precise single finding for one read of a payload."""
    if decoded.payload_sha256 != entry.payload_sha256:
        return Finding(entry.path, KIND_PAYLOAD_DIGEST, "stored bytes do not match")
    if not deep:
        return None
    if decoded.error is not None:
        return Finding(entry.path, KIND_DECODE, decoded.error)
    if decoded.plain_size > entry.plain_size:
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

    A symlink, FIFO or directory in the payload's place is a missing payload:
    the shipped brick would not hold those bytes. A deep check hands the
    decoded bytes to write() as they appear, each valid only until write()
    returns. `threads` is how many threads the read may use, as
    payload.decode_file takes it.
    """

    def check(fd: int, info: os.stat_result) -> tuple[Finding | None, int]:
        if info.st_size != entry.payload_size:
            detail = f"payload is {info.st_size} bytes, manifest says {entry.payload_size}"
            return Finding(entry.path, KIND_SIZE, detail), 0
        decoded = payload_mod.decode_file(
            fd, entry.payload_size, chain if deep else None, key, entry.plain_size, write, threads
        )
        return _judge(entry, decoded, deep), decoded.payload_size

    checked = _open_regular(f"{root}/{entry.path}", check)  # None: no regular file there
    return checked or (Finding(entry.path, KIND_MISSING, "payload file not found"), 0)


def verify(
    brick_dir: Path, deep: bool = False, passphrase: str | None = None, workers: int | None = None
) -> VerifyReport:
    """Check a brick against its manifest; never raises for per-file defects.

    Each payload is read once, deep or not, and never through a symlink in
    its place. Unless `workers` is 1, a payload of payload.CHUNK_BYTES
    (256 KiB) and up is checked on a pool thread. Such a payload gets a
    helper thread only if its even share of `workers` is two threads or
    more, where the calling thread takes one once the smaller payloads add
    up to CHUNK_BYTES, so a busy pool starts none. The helper takes the
    payload's SHA-256 in a shallow check, and hashes the plain bytes of a
    deflate payload in a deep one, while the pool thread reads (and, deep,
    decrypts and inflates) it. A smaller payload that the check decodes
    nothing of, shallow or under codec none, is read in one call
    (payload.decode_file).
    """
    brick_dir = Path(brick_dir)
    thread_count = _worker_count(workers)
    manifest = load_manifest(brick_dir)
    key = _resolve_key(manifest.codec_chain, passphrase, manifest.kdf) if deep else None
    root = str(brick_dir)

    def check(entry: ChunkEntry, threads: int) -> tuple[Finding | None, int]:
        return _check_entry(root, entry, deep, manifest.codec_chain, key, None, threads)

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


@contextlib.contextmanager
def _new_tree(root: Path, directories: list[str], files: Iterable[str] = ()) -> Iterator[None]:
    """Create root, if need be, and each directory below it anew, parents first, then run the body.

    A directory already there is an error. If the body raises, what this
    call made is removed: the body's own files, listed in `files` as it
    creates them, then each directory left empty, deepest first, and root
    last if this call made it. Nothing else is removed, so a name planted
    meanwhile stays, and nothing is removed through it.
    """
    made = [] if root.exists() else [""]  # "" is root itself
    root.mkdir(parents=True, exist_ok=True)
    try:
        for directory in directories:
            os.mkdir(root / directory)
            made.append(directory)
        yield
    except BaseException:
        for name in files:
            (root / name).unlink(missing_ok=True)
        for directory in reversed(made):
            with contextlib.suppress(OSError):
                os.rmdir(root / directory)  # only succeeds while empty
        raise


def _write_all(fd: int, data: bytes) -> None:
    """os.write until every byte is written; a short write is not an error."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _write_new(path: str, produce: Callable[[Callable[[bytes], None]], Any]) -> Any:
    """Create path, which must not exist yet, and return produce(write) once the file is closed.

    O_EXCL makes any name already there an error, a symlink included, so no
    write ever lands outside the tree through a planted name. If produce
    raises, the file is removed: this call created it, and it removes no
    other name.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            return produce(functools.partial(_write_all, fd))
        finally:
            os.close(fd)
    except BaseException:
        os.unlink(path)
        raise


def unpack(
    brick_dir: Path, dest_dir: Path, passphrase: str | None = None, workers: int | None = None
) -> UnpackResult:
    """Restore the original tree, proving every file before it gets its name.

    Each payload is read once and decoded into a scratch file in a directory
    of this run's own at the top of the destination, .brick-unpack (with
    .part appended while a manifest path or directory uses that name). The
    file gets its final name as a hard link only after the payload digest,
    the GCM tag and the plain digest all match; the directory is removed
    once the last file has its name. A link never replaces a name: one
    already there fails the run with FileExistsError and stays.
    Fails fast on the first bad payload: no further file is started, its
    scratch file, the scratch directory and any directory left empty are
    removed, and files already restored are left in place so a rerun after
    repair can be compared against them. A symlink in a payload's place is
    a missing payload, never followed. Unless `workers` is 1, a payload of
    payload.CHUNK_BYTES (256 KiB) and up is restored on a pool thread. A
    deflate payload that size gets a helper thread, which hashes and writes
    its plain bytes while the pool thread reads, decrypts and inflates it,
    only if its even share of `workers` is two threads or more, where the
    calling thread takes one once the smaller payloads add up to
    CHUNK_BYTES, so a busy pool starts none.
    """
    brick_dir = Path(brick_dir)
    dest_dir = Path(dest_dir)
    thread_count = _worker_count(workers)
    manifest = load_manifest(brick_dir)
    _require_empty_dir(dest_dir, "destination")
    chain = manifest.codec_chain
    key = _resolve_key(chain, passphrase, manifest.kdf)
    root, dest = str(brick_dir), str(dest_dir)
    directories = _directories(entry.path for entry in manifest.entries)
    scratch_dir = ".brick-unpack"
    # Only a manifest that lists such a name can force this.
    while scratch_dir in directories or any(e.path == scratch_dir for e in manifest.entries):
        scratch_dir += ".part"
    numbers = itertools.count()  # next() is one call under the GIL: no two threads share a number
    scratch_left: set[str] = set()

    def restore(entry: ChunkEntry, threads: int) -> int:
        """Decode one payload into a scratch file and give it its final name once it is proven.

        The scratch name, relative to dest, is in scratch_left from its
        creation until it is removed, so that a failed run can remove it if
        its own unlink failed.
        """
        relative = f"{scratch_dir}/{next(numbers)}"
        scratch = f"{dest}/{relative}"
        decode = functools.partial(_check_entry, root, entry, True, chain, key)
        # The scratch file is closed once _write_new returns, and not yet named.
        finding, _ = _write_new(scratch, lambda write: decode(write, threads))
        scratch_left.add(relative)
        try:
            if finding is not None:
                raise IntegrityError(str(finding))
            # A link, unlike a rename, never replaces a name that appeared meanwhile.
            os.link(scratch, f"{dest}/{entry.path}")
        finally:
            os.unlink(scratch)
            scratch_left.discard(relative)
        return entry.plain_size

    # The scratch directory is made last, so a failed run removes it first.
    with _new_tree(dest_dir, [*directories, scratch_dir], scratch_left):
        written = _run_entries(manifest.entries, lambda e: e.payload_size, restore, thread_count)
        os.rmdir(f"{dest}/{scratch_dir}")
    return UnpackResult(dest_dir=dest_dir, file_count=len(written), bytes_written=sum(written))
