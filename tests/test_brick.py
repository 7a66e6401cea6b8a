from __future__ import annotations

import ast
import contextlib
import hashlib
import os
import random
import tracemalloc
from dataclasses import replace
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brickkit import brick as brick_mod
from brickkit import payload
from brickkit.brick import (
    KIND_DECODE,
    KIND_EXTRA,
    KIND_MISSING,
    KIND_PAYLOAD_DIGEST,
    KIND_PLAIN_DIGEST,
    KIND_SIZE,
    MAX_WORKERS,
    load_manifest,
    pack,
    unpack,
    verify,
)
from brickkit.errors import ConfigError, IntegrityError
from brickkit.manifest import (
    MANIFEST_FILENAME,
    MAX_KDF_ITERATIONS,
    ChunkEntry,
    Manifest,
    parse_manifest,
    serialize_manifest,
)
from conftest import (
    FAST_KDF_ITERATIONS,
    PLANTED,
    PLANTED_FILES,
    cap_reads,
    plant_after_the_check,
    read_tree,
    write_random_tree,
)

CHAINS = [
    ("none",),
    ("deflate",),
    ("aes-256-gcm",),
    ("deflate", "aes-256-gcm"),
]


def make_source(tmp_path: Path) -> Path:
    source = tmp_path / "src"
    files = {
        "readme.txt": b"hello brick\n",
        "empty": b"",
        "sub/dir/blob.bin": bytes(range(256)) * 40,
        "café/naïve.txt": b"unicode paths",
        "odd %41 100%.txt": b"percent bait",
        "zeros.bin": b"\x00" * 5000,
    }
    for relative, body in files.items():
        target = source / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(body)
    return source


def do_pack(source, brick_dir, chain, **kwargs):
    passphrase = "sesame" if "aes-256-gcm" in chain else None
    return pack(
        source, brick_dir, codec_chain=chain, passphrase=passphrase,
        kdf_iterations=FAST_KDF_ITERATIONS, **kwargs,
    )


@pytest.mark.parametrize("chain", CHAINS, ids=[",".join(c) for c in CHAINS])
def test_round_trip_all_chains(tmp_path, chain):
    source = make_source(tmp_path)
    brick_dir = tmp_path / "brick"
    result = do_pack(source, brick_dir, chain)
    assert result.plain_bytes == sum(len(p.read_bytes()) for p in source.rglob("*") if p.is_file())

    passphrase = "sesame" if "aes-256-gcm" in chain else None
    report = verify(brick_dir, deep=True, passphrase=passphrase)
    assert report.ok and report.entry_count == 6

    dest = tmp_path / "out"
    restored = unpack(brick_dir, dest, passphrase=passphrase)
    assert restored.file_count == 6
    assert read_tree(dest) == read_tree(source)


def test_deflate_actually_compresses(tmp_path):
    source = make_source(tmp_path)
    result = do_pack(source, tmp_path / "brick", ("deflate",))
    zeros = result.manifest.entry_map()["zeros.bin"]
    assert zeros.payload_size < zeros.plain_size / 10


def test_encrypted_payloads_differ_across_packs(tmp_path):
    source = make_source(tmp_path)
    first = do_pack(source, tmp_path / "b1", ("aes-256-gcm",))
    second = do_pack(source, tmp_path / "b2", ("aes-256-gcm",))
    by_path = second.manifest.entry_map()
    for entry in first.manifest.entries:
        twin = by_path[entry.path]
        assert entry.plain_sha256 == twin.plain_sha256
        assert entry.payload_sha256 != twin.payload_sha256  # fresh nonce and salt


def test_pack_is_deterministic_modulo_timestamp(tmp_path):
    source = make_source(tmp_path)
    first = do_pack(source, tmp_path / "b1", ("deflate",))
    second = do_pack(source, tmp_path / "b2", ("deflate",))
    assert first.manifest.entries == second.manifest.entries


def test_nfd_source_name_is_stored_nfc(tmp_path):
    source = tmp_path / "src"
    source.mkdir()
    (source / "café.txt").write_bytes(b"x")  # decomposed on disk
    result = do_pack(source, tmp_path / "brick", ("none",))
    assert [e.path for e in result.manifest.entries] == ["café.txt"]


def test_pack_rejects_bad_destinations_and_sources(tmp_path):
    source = make_source(tmp_path)
    occupied = tmp_path / "occupied"
    occupied.mkdir()
    (occupied / "junk").write_text("x")
    with pytest.raises(ConfigError, match="not empty"):
        pack(source, occupied)
    with pytest.raises(ConfigError, match="not a directory"):
        pack(tmp_path / "nowhere", tmp_path / "b")
    afile = tmp_path / "afile"
    afile.write_text("x")
    with pytest.raises(ConfigError):
        pack(source, afile)


def test_pack_rejects_symlinks(tmp_path):
    source = tmp_path / "src"
    source.mkdir()
    (source / "real.txt").write_text("x")
    (source / "link.txt").symlink_to(source / "real.txt")
    with pytest.raises(ConfigError, match="regular files"):
        pack(source, tmp_path / "brick")


def test_pack_names_the_empty_directories_it_cannot_store(tmp_path):
    source = tmp_path / "src"
    (source / "empty").mkdir(parents=True)
    (source / "full").mkdir()
    (source / "full" / "a").write_bytes(b"a")
    (source / "hollow" / "inner").mkdir(parents=True)
    brick_dir = tmp_path / "brick"
    result = pack(source, brick_dir)
    assert result.empty_dirs == ("empty", "hollow", "hollow/inner")
    assert [entry.path for entry in result.manifest.entries] == ["full/a"]
    assert sorted(p.name for p in brick_dir.iterdir()) == [MANIFEST_FILENAME, "full"]
    assert pack(source / "full", tmp_path / "b2").empty_dirs == ()


def test_pack_rejects_manifest_name_collision(tmp_path):
    source = tmp_path / "src"
    source.mkdir()
    (source / MANIFEST_FILENAME).write_text("impostor")
    with pytest.raises(ConfigError, match=MANIFEST_FILENAME):
        pack(source, tmp_path / "brick")


def test_pack_passphrase_pairing(tmp_path):
    source = make_source(tmp_path)
    with pytest.raises(ConfigError, match="passphrase"):
        pack(source, tmp_path / "b1", codec_chain=("aes-256-gcm",))
    with pytest.raises(ConfigError, match="does not encrypt"):
        pack(source, tmp_path / "b2", codec_chain=("none",), passphrase="pointless")


@pytest.mark.parametrize("workers", [0, -1, MAX_WORKERS + 1])  # and above the cap
def test_workers_below_one_is_a_config_error(tmp_path, workers):
    brick_dir, _ = packed_brick(tmp_path)
    with pytest.raises(ConfigError, match="workers"):
        pack(tmp_path / "src", tmp_path / "b2", workers=workers)
    with pytest.raises(ConfigError, match="workers"):
        verify(brick_dir, workers=workers)
    with pytest.raises(ConfigError, match="workers"):
        unpack(brick_dir, tmp_path / "out", workers=workers)
    assert not (tmp_path / "b2").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("iterations", [0, MAX_KDF_ITERATIONS + 1])
def test_pack_refuses_iterations_a_manifest_may_not_carry(tmp_path, iterations):
    with pytest.raises(ConfigError, match="iterations"):
        pack(
            make_source(tmp_path), tmp_path / "b", codec_chain=("aes-256-gcm",),
            passphrase="sesame", kdf_iterations=iterations,
        )


def test_pack_rejects_unknown_chain(tmp_path):
    with pytest.raises(ConfigError, match="codec chain"):
        pack(make_source(tmp_path), tmp_path / "b", codec_chain=("zstd",))


# ---------- verify findings ----------

def packed_brick(tmp_path, chain=("none",)):
    source = make_source(tmp_path)
    brick_dir = tmp_path / "brick"
    result = do_pack(source, brick_dir, chain)
    return brick_dir, result


def test_verify_missing_payload(tmp_path):
    brick_dir, _ = packed_brick(tmp_path)
    (brick_dir / "readme.txt").unlink()
    report = verify(brick_dir)
    assert [(f.path, f.kind) for f in report.findings] == [("readme.txt", KIND_MISSING)]


def test_verify_size_mismatch(tmp_path):
    brick_dir, _ = packed_brick(tmp_path)
    target = brick_dir / "sub/dir/blob.bin"
    target.write_bytes(target.read_bytes()[:-1])
    report = verify(brick_dir)
    assert [(f.path, f.kind) for f in report.findings] == [("sub/dir/blob.bin", KIND_SIZE)]


def test_verify_payload_digest_mismatch(tmp_path):
    brick_dir, _ = packed_brick(tmp_path)
    target = brick_dir / "zeros.bin"
    body = bytearray(target.read_bytes())
    body[100] ^= 0x10
    target.write_bytes(bytes(body))
    report = verify(brick_dir)
    assert [(f.path, f.kind) for f in report.findings] == [("zeros.bin", KIND_PAYLOAD_DIGEST)]


def test_verify_extra_file(tmp_path):
    brick_dir, _ = packed_brick(tmp_path)
    (brick_dir / "stowaway.bin").write_bytes(b"?")
    report = verify(brick_dir)
    assert [(f.path, f.kind) for f in report.findings] == [("stowaway.bin", KIND_EXTRA)]
    assert not report.ok


def test_verify_reports_planted_symlinks_to_a_directory_and_a_file(tmp_path):
    brick_dir, _ = packed_brick(tmp_path)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    (elsewhere / "inside").write_bytes(b"?")
    (brick_dir / "sublink").symlink_to(elsewhere)
    (brick_dir / "sub" / "filelink").symlink_to(brick_dir / "readme.txt")
    for deep in (False, True):
        report = verify(brick_dir, deep=deep)
        assert [(f.path, f.kind) for f in report.findings] == [
            ("sub/filelink", KIND_EXTRA),
            ("sublink", KIND_EXTRA),
        ]


def test_verify_wrong_passphrase_fails_every_entry(tmp_path):
    brick_dir, result = packed_brick(tmp_path, ("deflate", "aes-256-gcm"))
    report = verify(brick_dir, deep=True, passphrase="not sesame")
    assert len(report.findings) == len(result.manifest.entries)
    assert {f.kind for f in report.findings} == {KIND_DECODE}
    assert all("authentication" in f.detail for f in report.findings)


def test_verify_deep_requires_passphrase(tmp_path):
    brick_dir, _ = packed_brick(tmp_path, ("aes-256-gcm",))
    with pytest.raises(ConfigError, match="passphrase"):
        verify(brick_dir, deep=True)
    assert verify(brick_dir).ok  # shallow never needs the key


def test_verify_deep_catches_stale_plain_digest(tmp_path):
    # Forge a brick whose payload fields are self-consistent but whose
    # plaintext digest lies; only the deep pass can notice.
    brick_dir, result = packed_brick(tmp_path)
    body = bytearray((brick_dir / "readme.txt").read_bytes())
    body[0] ^= 0x20  # same length, different content
    forged = bytes(body)
    (brick_dir / "readme.txt").write_bytes(forged)
    entries = []
    for entry in result.manifest.entries:
        if entry.path == "readme.txt":
            entry = replace(entry, payload_sha256=hashlib.sha256(forged).hexdigest())
        entries.append(entry)
    doctored = replace(result.manifest, entries=tuple(entries))
    (brick_dir / MANIFEST_FILENAME).write_bytes(serialize_manifest(doctored))

    assert verify(brick_dir).ok
    report = verify(brick_dir, deep=True)
    assert [(f.path, f.kind) for f in report.findings] == [("readme.txt", KIND_PLAIN_DIGEST)]


def test_verify_missing_manifest(tmp_path):
    empty = tmp_path / "not_a_brick"
    empty.mkdir()
    with pytest.raises(IntegrityError, match="not a brick"):
        verify(empty)


def test_verify_corrupt_manifest(tmp_path):
    brick_dir, _ = packed_brick(tmp_path)
    manifest_path = brick_dir / MANIFEST_FILENAME
    manifest_path.write_bytes(manifest_path.read_bytes()[:40])
    with pytest.raises(IntegrityError):
        verify(brick_dir)


def test_load_manifest_round_trip(tmp_path):
    brick_dir, result = packed_brick(tmp_path)
    assert load_manifest(brick_dir) == result.manifest


# ---------- the manifest is read and written in pieces ----------

def many_entries(count: int) -> tuple[ChunkEntry, ...]:
    """`count` sorted entries of one-byte files in 100 directories."""
    digest = hashlib.sha256(b"x").hexdigest()
    paths = sorted(f"d{i % 100:02d}/file-{i:06d}.bin" for i in range(count))
    return tuple(ChunkEntry._proven(path, 1, digest, 1, digest) for path in paths)


@pytest.mark.parametrize("chain", [CHAINS[0], CHAINS[3]], ids=",".join)
def test_pack_writes_the_manifest_in_pieces_that_lines_straddle(tmp_path, monkeypatch, chain):
    monkeypatch.setattr(payload, "CHUNK_BYTES", 64)  # shorter than any entry line
    pieces = []
    real_write_manifest = brick_mod.write_manifest

    def spy(manifest, write, size):
        def record(piece):
            pieces.append(bytes(piece))
            write(piece)

        real_write_manifest(manifest, record, size)

    monkeypatch.setattr(brick_mod, "write_manifest", spy)
    brick_dir, result = packed_brick(tmp_path, chain)
    data = (brick_dir / MANIFEST_FILENAME).read_bytes()
    assert data == b"".join(pieces) == serialize_manifest(result.manifest)
    assert {len(piece) for piece in pieces[:-1]} == {64} and 0 < len(pieces[-1]) <= 64
    # Every entry line has a piece boundary inside it.
    boundaries = {64 * n for n in range(1, len(pieces))}
    start = data.index(b"\n\n") + 2
    for _ in result.manifest.entries:
        end = data.index(b"\n", start) + 1
        assert boundaries & set(range(start + 1, end)), data[start:end]
        start = end
    assert parse_manifest(data) == result.manifest
    assert load_manifest(brick_dir) == result.manifest  # read in pieces of 64 bytes
    assert verify(brick_dir, deep=True, passphrase="sesame" if len(chain) > 1 else None).ok


@pytest.mark.parametrize("error", [-100, 100], ids=["shrank", "grew"])
def test_load_manifest_reads_to_the_end_whatever_fstat_said(tmp_path, monkeypatch, error):
    brick_dir, result = packed_brick(tmp_path)
    real_fstat = os.fstat

    def stale_fstat(fd):
        info = real_fstat(fd)
        return os.stat_result((*info[:6], info.st_size + error, *info[7:]))

    monkeypatch.setattr(os, "fstat", stale_fstat)
    assert load_manifest(brick_dir) == result.manifest


def test_load_manifest_holds_one_copy_of_the_manifest(tmp_path):
    manifest = Manifest("many", "2026-01-01T00:00:00Z", ("none",), many_entries(10_000))
    data = serialize_manifest(manifest)
    (tmp_path / MANIFEST_FILENAME).write_bytes(data)
    tracemalloc.start()
    try:
        loaded = load_manifest(tmp_path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == manifest
    # The bytes read, the entries parsed from them, and some working room:
    # a whole copy of the lines, or of the bytes, is more than that.
    assert peak <= kept + len(data) + payload.CHUNK_BYTES


def test_pack_holds_about_one_piece_of_the_manifest(tmp_path, monkeypatch):
    source = tmp_path / "src"
    source.mkdir()
    (source / "a").write_bytes(b"x")
    entries = many_entries(20_000)
    monkeypatch.setattr(brick_mod, "sorted_entries", lambda found: tuple(found) + entries)
    tracemalloc.start()
    try:
        result = pack(source, tmp_path / "brick", workers=1)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    data = (tmp_path / "brick" / MANIFEST_FILENAME).read_bytes()
    assert len(data) > 10 * payload.CHUNK_BYTES
    assert data == serialize_manifest(result.manifest)
    # One piece being filled, with the growth room of a bytearray, and the rest of pack.
    assert peak - kept <= payload.CHUNK_BYTES * 3 // 2


# ---------- unpack failure modes ----------

def test_unpack_refuses_bad_destination(tmp_path):
    brick_dir, _ = packed_brick(tmp_path)
    occupied = tmp_path / "occupied"
    occupied.mkdir()
    (occupied / "junk").write_text("x")
    with pytest.raises(ConfigError, match="not empty"):
        unpack(brick_dir, occupied)


def test_unpack_fails_on_tampered_payload(tmp_path):
    brick_dir, _ = packed_brick(tmp_path)
    target = brick_dir / "zeros.bin"
    body = bytearray(target.read_bytes())
    body[0] ^= 1
    target.write_bytes(bytes(body))
    with pytest.raises(IntegrityError, match="zeros.bin"):
        unpack(brick_dir, tmp_path / "out")


def test_unpack_wrong_passphrase_restores_nothing(tmp_path):
    brick_dir, _ = packed_brick(tmp_path, ("aes-256-gcm",))
    dest = tmp_path / "out"
    with pytest.raises(IntegrityError):
        unpack(brick_dir, dest, passphrase="wrong")
    assert read_tree(dest) == {}


@pytest.mark.parametrize("precreated", [False, True], ids=["new-dest", "empty-dest"])
def test_a_failed_unpack_leaves_no_directory_it_made(tmp_path, precreated):
    brick_dir, _ = packed_brick(tmp_path, ("aes-256-gcm",))
    dest = tmp_path / "out"
    if precreated:
        dest.mkdir()
    with pytest.raises(IntegrityError):
        unpack(brick_dir, dest, passphrase="wrong")
    assert dest.exists() == precreated
    if precreated:
        assert list(dest.iterdir()) == []


def test_empty_tree_round_trips(tmp_path):
    source = tmp_path / "src"
    source.mkdir()
    brick_dir = tmp_path / "brick"
    result = pack(source, brick_dir)
    assert result.manifest.entries == ()
    assert verify(brick_dir, deep=True).ok
    restored = unpack(brick_dir, tmp_path / "out")
    assert restored.file_count == 0


# ---------- property: random trees round trip ----------

@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_trees_round_trip(tmp_path_factory, seed):
    rng = random.Random(seed)
    base = tmp_path_factory.mktemp(f"tree{seed % 1000}")
    source = base / "src"
    source.mkdir()
    expected = write_random_tree(source, rng)
    chain = CHAINS[seed % len(CHAINS)]
    brick_dir = base / "brick"
    do_pack(source, brick_dir, chain)
    passphrase = "sesame" if "aes-256-gcm" in chain else None
    assert verify(brick_dir, deep=True, passphrase=passphrase).ok
    dest = base / "out"
    unpack(brick_dir, dest, passphrase=passphrase)
    assert read_tree(dest) == expected



@given(st.lists(st.lists(st.sampled_from(["a", "b", "a b"]), min_size=1, max_size=5).map("/".join)))
def test_directories_are_every_proper_prefix_of_every_path(paths):
    expected = {
        "/".join(path.split("/")[:depth])
        for path in paths
        for depth in range(1, path.count("/") + 1)
    }
    assert brick_mod._directories(paths) == sorted(expected)


# ---------- pinned v1 bytes ----------

# SHA-256 of BRICK-MANIFEST for make_source's tree, packed with a frozen
# clock and a fixed os.urandom. The manifest records every payload digest,
# so this pins the payload bytes too.
PINNED_MANIFEST_SHA256 = {
    ("none",): "a6dd5ddb83288de9fa766c4ef2e6c39fe056244243b6fbae6f3d2a9622894a1c",
    ("deflate",): "9ac3eab55e41e4e2166386baf3fcccb2b4a664cc6c41246de1c3fa1b9429eda7",
    ("aes-256-gcm",): "6b9a792e70cf8b445be2c7a9b9781022fe6e51bf81e4f01462f9b2d18d52183d",
    ("deflate", "aes-256-gcm"): "fe0a0f281dfc84bbe5d0feb4c2f86ad763c13928cc48b34ce6e8883b04d9bf36",
}


class FrozenClock(datetime):
    @classmethod
    def now(cls, tz=None):
        return datetime(2026, 1, 2, 3, 4, 5, tzinfo=tz)


# chunk1M: whole reads of CHUNK_BYTES (256 KiB); chunk7: every read comes back short, at 7 bytes.
@pytest.mark.parametrize("read_cap", [None, 7], ids=["chunk1M", "chunk7"])
@pytest.mark.parametrize("chain", CHAINS, ids=[",".join(c) for c in CHAINS])
def test_v1_bytes_are_pinned(tmp_path, monkeypatch, chain, read_cap):
    monkeypatch.setattr(brick_mod, "datetime", FrozenClock)
    monkeypatch.setattr(os, "urandom", lambda n: bytes(range(n)))
    if read_cap is not None:
        cap_reads(monkeypatch, read_cap)
    brick_dir = tmp_path / "brick"
    result = do_pack(make_source(tmp_path), brick_dir, chain, workers=1)
    data = (brick_dir / MANIFEST_FILENAME).read_bytes()
    assert hashlib.sha256(data).hexdigest() == PINNED_MANIFEST_SHA256[chain]
    for entry in result.manifest.entries:
        stored = (brick_dir / entry.path).read_bytes()
        assert hashlib.sha256(stored).hexdigest() == entry.payload_sha256


# ---------- deep trees ----------

DEEP = 1_100  # past Python's default recursion limit of 1,000; the path is about 2.2 KB


def plant_deep_chain(root: Path, body: bytes) -> str:
    """Make DEEP nested directories named d under root, with a file at the bottom.

    Built through dir_fd opens, because os.makedirs recurses once per level.
    Returns the file's path relative to root.
    """
    fd = os.open(root, os.O_RDONLY | os.O_DIRECTORY)
    try:
        for _ in range(DEEP):
            os.mkdir("d", dir_fd=fd)
            inner = os.open("d", os.O_RDONLY | os.O_DIRECTORY, dir_fd=fd)
            os.close(fd)
            fd = inner
        leaf = os.open("leaf", os.O_WRONLY | os.O_CREAT, 0o644, dir_fd=fd)
        os.write(leaf, body)
        os.close(leaf)
    finally:
        os.close(fd)
    return "d/" * DEEP + "leaf"


def remove_deep_chain(root: Path) -> None:
    """Remove a chain plant_deep_chain made, bottom up; shutil.rmtree recurses too."""
    for depth in range(DEEP, 0, -1):
        level = f"{root}/" + "/".join(["d"] * depth)
        with contextlib.suppress(FileNotFoundError):
            for name in os.listdir(level):
                if name != "d":
                    os.unlink(f"{level}/{name}")
            os.rmdir(level)


@pytest.mark.parametrize("chain", [("none",), ("deflate", "aes-256-gcm")], ids=["none", "sealed"])
def test_a_tree_deeper_than_the_recursion_limit_round_trips(tmp_path, chain):
    source, brick_dir, out = tmp_path / "src", tmp_path / "brick", tmp_path / "out"
    source.mkdir()
    (source / "top.txt").write_bytes(b"top")
    try:
        relative = plant_deep_chain(source, b"at the bottom")
        result = do_pack(source, brick_dir, chain)
        assert [e.path for e in result.manifest.entries] == [relative, "top.txt"]
        passphrase = "sesame" if "aes-256-gcm" in chain else None
        assert verify(brick_dir, deep=True, passphrase=passphrase).ok
        unpack(brick_dir, out, passphrase=passphrase)
        assert (out / relative).read_bytes() == b"at the bottom"
        assert (out / "top.txt").read_bytes() == b"top"
    finally:
        for root in (source, brick_dir, out):
            remove_deep_chain(root)


def test_verify_reports_a_planted_deep_directory(tmp_path):
    brick_dir, _ = packed_brick(tmp_path)
    try:
        relative = plant_deep_chain(brick_dir, b"stowaway")
        report = verify(brick_dir)
        assert [(f.path, f.kind) for f in report.findings] == [(relative, KIND_EXTRA)]
    finally:
        remove_deep_chain(brick_dir)


# ---------- a name that appears meanwhile is refused, never written through ----------

@pytest.mark.parametrize("case", [case for case in PLANTED if case not in PLANTED_FILES])
def test_a_link_planted_after_the_check_is_refused(tmp_path, monkeypatch, case):
    planted = plant_after_the_check(tmp_path, monkeypatch, case)
    before = read_tree(planted.outside)
    command = pack if planted.command == "pack" else unpack
    with pytest.raises(FileExistsError):
        command(planted.given, planted.made)
    assert read_tree(planted.outside) == before
    # Nothing the failed run made is left, and the link it did not make stays.
    assert os.listdir(planted.made) == [planted.name]
    assert (planted.made / planted.name).is_symlink()


@pytest.mark.parametrize("case", PLANTED_FILES)
def test_a_file_planted_after_the_check_fails_unpack_and_stays(tmp_path, monkeypatch, case):
    planted = plant_after_the_check(tmp_path, monkeypatch, case)
    with pytest.raises(FileExistsError):
        unpack(planted.given, planted.made)
    # No scratch file is left, and the sub/ that unpack made is removed again.
    assert os.listdir(planted.made) == [planted.name]
    assert (planted.made / planted.name).read_bytes() == b"planted"


# Every call that opens or creates a file or directory, by enclosing function.
# A new one is a new spelling of "open a trusted file" or "create a name":
# route it through _open_regular, _write_new or _new_tree, or add it here.
EXPECTED_OPENS_AND_CREATES = [
    ("_new_tree", ".mkdir"),
    ("_new_tree", "os.mkdir"),
    ("_open_regular", "os.open"),
    ("_restore", "os.link"),  # the final name: a link never replaces one that is there
    ("_write_new", "os.open"),
    ("pack.store", "os.open"),  # the source file: a missing one is an IO error, not a finding
]


def opens_and_creates(source: str) -> list[tuple[str, str]]:
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope += (node.name,)
        if isinstance(node, ast.Call):
            function = node.func
            if isinstance(function, ast.Name) and function.id == "open":
                found.append((".".join(scope), "open"))
            elif isinstance(function, ast.Attribute):
                on_os = isinstance(function.value, ast.Name) and function.value.id == "os"
                if on_os and function.attr in (
                    "open", "mkdir", "makedirs", "fdopen", "link", "rename", "replace"
                ):
                    found.append((".".join(scope), f"os.{function.attr}"))
                elif not on_os and function.attr in (
                    "mkdir", "write_bytes", "write_text", "open", "touch"
                ):
                    found.append((".".join(scope), f".{function.attr}"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return sorted(found)


def test_brick_opens_and_creates_files_in_one_place_each():
    source = Path(brick_mod.__file__).read_text(encoding="utf-8")
    assert opens_and_creates(source) == sorted(EXPECTED_OPENS_AND_CREATES)


def test_the_open_and_create_listing_sees_every_spelling():
    source = """
def f(path):
    os.open(path, 0)
    path.write_bytes(b"")
    def g():
        open(path)
        path.parent.mkdir()
    os.mkdir(path)
    os.link(path, path)
    os.rename(path, path)
    os.replace(path, path)
"""
    assert opens_and_creates(source) == [
        ("f", ".write_bytes"), ("f", "os.link"), ("f", "os.mkdir"), ("f", "os.open"),
        ("f", "os.rename"), ("f", "os.replace"), ("f.g", ".mkdir"), ("f.g", "open"),
    ]
