"""The single-pass entry pipeline: chunk boundaries, tamper findings, scratch files.

The chunk size, which is also deflate's block size, is patched down so that
every boundary case (a read ending inside the nonce, the tag or the deflate
stream, a flip in the marker between two deflate blocks) occurs with small
files. Findings are compared with a whole-buffer reference decoder kept here.
Deflate's 4 KiB probes and 32 KiB pieces, each stored, Huffman-coded or
deflated, are tested at the real chunk size, against a whole-buffer
reference encoder, `block_reference`, kept here too.
"""

from __future__ import annotations

import collections
import errno
import hashlib
import os
import re
import resource
import shutil
import sys
import threading
import time
import tracemalloc
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from brickkit import brick as brick_mod
from brickkit import payload
from brickkit.brick import (
    KIND_DECODE,
    KIND_EXTRA,
    KIND_MISSING,
    KIND_PAYLOAD_DIGEST,
    KIND_PLAIN_DIGEST,
    KIND_PLAIN_SIZE,
    KIND_SIZE,
    load_manifest,
    pack,
    unpack,
    verify,
)
from brickkit.cli import main
from brickkit.errors import EXIT_IO, ConfigError, IntegrityError
from brickkit.manifest import MANIFEST_FILENAME, ChunkEntry, parse_manifest, serialize_manifest
from conftest import FAST_KDF_ITERATIONS, cap_reads, read_tree

CHAINS = [
    ("none",),
    ("deflate",),
    ("aes-256-gcm",),
    ("deflate", "aes-256-gcm"),
]
CHAIN_IDS = [",".join(chain) for chain in CHAINS]
PASSPHRASE = "sesame"


def passphrase_for(chain):
    return PASSPHRASE if "aes-256-gcm" in chain else None


def do_pack(source, brick_dir, chain):
    return pack(
        source, brick_dir, codec_chain=chain, passphrase=passphrase_for(chain),
        kdf_iterations=FAST_KDF_ITERATIONS,
    )


def body(size: int, seed: int) -> bytes:
    """Half random, half repetitive, so deflate has real work at any size."""
    noise = hashlib.shake_256(seed.to_bytes(4, "big")).digest(size // 2)
    return noise + bytes(i % 7 for i in range(size - len(noise)))


def one_shot_decode(data: bytes, chain, key) -> bytes:
    """Whole-buffer v1 decoding of a sound payload."""
    if "aes-256-gcm" in chain:
        data = AESGCM(key).decrypt(data[: payload.NONCE_BYTES], data[payload.NONCE_BYTES :], None)
    if "deflate" in chain:
        data = zlib.decompress(data, -zlib.MAX_WBITS)
    return data


def reference_kind(data: bytes, entry, chain, key) -> str | None:
    """The finding whole-buffer checks give, in the order the brick ranks them.

    Two rules are newer than the whole-buffer decoder: inflating stops once
    the output passes the manifest's plain size, and bytes after the end of
    the deflate stream are a decode failure.
    """
    if hashlib.sha256(data).hexdigest() != entry.payload_sha256:
        return KIND_PAYLOAD_DIGEST
    if "aes-256-gcm" in chain:
        if len(data) < payload.NONCE_BYTES + payload.TAG_BYTES:
            return KIND_DECODE
        try:
            data = AESGCM(key).decrypt(data[: payload.NONCE_BYTES], data[payload.NONCE_BYTES :], None)
        except InvalidTag:
            return KIND_DECODE
    if "deflate" in chain:
        decompressor = zlib.decompressobj(-zlib.MAX_WBITS)
        try:
            data = decompressor.decompress(data, entry.plain_size + 1)
        except zlib.error:
            return KIND_DECODE
        if len(data) <= entry.plain_size and (not decompressor.eof or decompressor.unused_data):
            return KIND_DECODE
    if len(data) != entry.plain_size:
        return KIND_PLAIN_SIZE
    if hashlib.sha256(data).hexdigest() != entry.plain_sha256:
        return KIND_PLAIN_DIGEST
    return None


def reseal(brick_dir: Path, path: str, data: bytes, **fields) -> None:
    """Store data as path's payload and make the manifest vouch for it."""
    (brick_dir / path).write_bytes(data)
    manifest = load_manifest(brick_dir)
    entries = tuple(
        replace(e, payload_size=len(data), payload_sha256=hashlib.sha256(data).hexdigest(), **fields)
        if e.path == path else e
        for e in manifest.entries
    )
    (brick_dir / MANIFEST_FILENAME).write_bytes(
        serialize_manifest(replace(manifest, entries=entries))
    )


def kinds(report):
    return [(f.path, f.kind) for f in report.findings]


@pytest.fixture(params=[7, 4096], ids=["chunk7", "chunk4K"])
def chunk(request, monkeypatch):
    monkeypatch.setattr(payload, "CHUNK_BYTES", request.param)
    return request.param


TINY_BLOCK = 40
DEFLATE_CHAINS = [chain for chain in CHAINS if "deflate" in chain]
# Every chain at the real block size, then the deflate chains again with
# blocks so small that reads, flips and cuts land in the sync-flush markers
# (00 00 ff ff) and in blocks primed with the bytes before them.
BLOCK_CASES = [(chain, None) for chain in CHAINS] + [(c, TINY_BLOCK) for c in DEFLATE_CHAINS]
BLOCK_CASE_IDS = CHAIN_IDS + [f"{','.join(c)}-block{TINY_BLOCK}" for c in DEFLATE_CHAINS]


@pytest.fixture
def deflate_block(request, monkeypatch):
    """CHUNK_BYTES, the deflate block, for the test: the param, or as it was if it is None."""
    if request.param is not None:
        monkeypatch.setattr(payload, "CHUNK_BYTES", request.param)
    return payload.CHUNK_BYTES


# The decode helpers, at most one per payload: the writer hashes and writes a
# deflate payload's plain bytes, the hasher hashes the payload in a shallow read.
WRITER, HASHER = "brick-write", "brick-hash"
DECODE_STAGES = (WRITER, HASHER)


@pytest.fixture
def stage_starts(monkeypatch):
    """The names of the decode helper threads started while the test runs, in order."""
    started = []
    real_start = threading.Thread.start

    def start(thread):
        if thread.name in DECODE_STAGES:
            started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


def decode_with(path: Path, size: int, chain, key, plain_limit: int, threads: int):
    """decode_file of the file at path, and the plain bytes it wrote.

    Each piece is copied: under aes-256-gcm it is a view of a buffer the
    next piece is decrypted into.
    """
    written = []

    def write(piece) -> None:
        written.append(bytes(piece))

    fd = os.open(path, os.O_RDONLY)
    try:
        decoded = payload.decode_file(fd, size, chain, key, plain_limit, write, threads)
    finally:
        os.close(fd)
    return decoded, b"".join(written)


@pytest.mark.parametrize(
    "chain, deflate_block", BLOCK_CASES, ids=BLOCK_CASE_IDS, indirect=["deflate_block"]
)
def test_round_trip_at_chunk_boundaries(tmp_path, chunk, chain, deflate_block):
    sizes = [0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5]
    if deflate_block == TINY_BLOCK:  # and at block boundaries
        sizes += [TINY_BLOCK - 1, TINY_BLOCK, TINY_BLOCK + 1, 3 * TINY_BLOCK + 5]
    source = tmp_path / "src"
    source.mkdir()
    for size in sizes:
        (source / f"f{size:06d}").write_bytes(body(size, size))
    brick_dir = tmp_path / "brick"
    result = do_pack(source, brick_dir, chain)

    key = None
    if "aes-256-gcm" in chain:
        key = payload.derive_key(PASSPHRASE, result.manifest.kdf)
    for entry in result.manifest.entries:
        stored = (brick_dir / entry.path).read_bytes()
        assert one_shot_decode(stored, chain, key) == (source / entry.path).read_bytes()
    passphrase = passphrase_for(chain)
    report = verify(brick_dir, deep=True, passphrase=passphrase)
    assert report.ok and report.bytes_checked == result.payload_bytes
    restored = unpack(brick_dir, tmp_path / "out", passphrase=passphrase)
    assert restored.bytes_written == sum(sizes)
    assert read_tree(tmp_path / "out") == read_tree(source)


def test_deflate_payload_does_not_depend_on_read_size(tmp_path, monkeypatch):
    source = tmp_path / "src"
    source.mkdir()
    plain = body(50_000, 1)
    (source / "f").write_bytes(plain)
    for size in (7, 4096, 12_345, 1 << 20):
        cap_reads(monkeypatch, size)
        brick_dir = tmp_path / f"brick{size}"
        do_pack(source, brick_dir, ("deflate",))
        monkeypatch.undo()
        assert (brick_dir / "f").read_bytes() == block_reference(plain, payload.CHUNK_BYTES)


# ---------- deflate in primed blocks ----------

PROBE = 4 << 10  # the bytes deflate tries at the start of each piece
PIECE = 32 << 10  # the pieces a block is walked in, one deflate window each


def zlib_stream(data: bytes, primer: bytes, end: int) -> bytes:
    """One zlib raw deflate of data, primed, ended by `end`."""
    compressor = zlib.compressobj(
        payload.DEFLATE_LEVEL, zlib.DEFLATED, -zlib.MAX_WBITS, zdict=primer
    )
    return compressor.compress(data) + compressor.flush(end)


def huffman_coder():
    """A raw deflate compressor that codes literals only, never a match."""
    return zlib.compressobj(
        payload.DEFLATE_LEVEL, zlib.DEFLATED, -zlib.MAX_WBITS, 8, zlib.Z_HUFFMAN_ONLY
    )


def stored_block(data: bytes, final: bool) -> bytes:
    """An RFC 1951 stored block, from a byte boundary: header, LEN, NLEN, data."""
    size = len(data).to_bytes(2, "little")
    return bytes([final]) + size + bytes(b ^ 0xFF for b in size) + data


def probed_block(block: bytes, primer: bytes, end: int) -> bytes:
    """The probe rule on one block, whole-buffer.

    Each PIECE starts with a PROBE deflated alone (primed as the block is,
    for the first piece) and sync-flushed, and Huffman-coded alone and
    sync-flushed. A probe that deflates smaller than itself, and that
    Huffman coding codes in no more bytes, is followed by the rest of the
    piece from the same Huffman coder. Any other probe that shrinks, or
    that reaches the end of the block, starts one zlib stream over the rest
    of the block. Otherwise the piece is the deflated probe followed by the
    rest of the piece stored. Each piece but the last ends on a sync flush.
    """
    stream = b""
    start = 0
    while True:
        head_primer = primer if start == 0 else b""
        probe = block[start : start + PROBE]
        rest = block[start + PROBE : start + PIECE]
        last = start + PIECE >= len(block)
        flushed = zlib_stream(probe, head_primer, zlib.Z_SYNC_FLUSH)
        huffman = huffman_coder()
        coded = huffman.compress(probe) + huffman.flush(zlib.Z_SYNC_FLUSH)
        if len(flushed) < len(probe) and len(coded) <= len(flushed):
            stream += coded + huffman.compress(rest)
            stream += huffman.flush(end if last else zlib.Z_SYNC_FLUSH)
        elif len(flushed) < len(probe) or start + PROBE >= len(block):
            return stream + zlib_stream(block[start:], head_primer, end)
        else:
            stream += flushed + stored_block(rest, last and end == zlib.Z_FINISH)
        start += PIECE
        if last:
            return stream


def block_reference(plain: bytes, block_bytes: int, deflate=probed_block) -> bytes:
    """pigz-style raw deflate, whole-buffer: each block primed with the 32 KiB before it.

    `deflate` makes each block's bytes: the probe rule, or zlib_stream for
    the whole block deflated, as before there was a probe.
    """
    blocks = [plain[i : i + block_bytes] for i in range(0, len(plain), block_bytes)] or [b""]
    stream = b""
    for index, block in enumerate(blocks):
        primer = blocks[index - 1][-32 * 1024 :] if index else b""
        last = index == len(blocks) - 1
        stream += deflate(block, primer, zlib.Z_FINISH if last else zlib.Z_SYNC_FLUSH)
    return stream


@pytest.mark.parametrize("chain", DEFLATE_CHAINS, ids=str)
def test_a_file_of_many_blocks_is_one_v1_deflate_stream(tmp_path, monkeypatch, chain):
    block = payload.CHUNK_BYTES
    source = tmp_path / "src"
    source.mkdir()
    plain = body(3 * block + 12_345, 11)
    text = words(block, 11)
    (source / "f").write_bytes(plain)
    (source / "one-block").write_bytes(plain[:block])
    (source / "one-block-text").write_bytes(text)
    passphrase = passphrase_for(chain)
    payloads = set()
    for read_cap in (7, 4096, 1 << 20):
        for workers in (1, 2, 4, None):
            cap_reads(monkeypatch, read_cap)
            brick_dir = tmp_path / f"brick-{read_cap}-{workers}"
            result = pack(
                source, brick_dir, codec_chain=chain, passphrase=passphrase,
                kdf_iterations=FAST_KDF_ITERATIONS, workers=workers,
            )
            monkeypatch.undo()
            key = payload.derive_key(PASSPHRASE, result.manifest.kdf) if passphrase else None
            names = ("f", "one-block", "one-block-text")
            stored = {name: (brick_dir / name).read_bytes() for name in names}
            # An unchanged v1 reader: whole-buffer GCM, then zlib.decompress(data, -15).
            assert one_shot_decode(stored["f"], chain, key) == plain
            assert one_shot_decode(stored["one-block"], chain, key) == plain[:block]
            assert one_shot_decode(stored["one-block-text"], chain, key) == text
            deflated = {
                name: one_shot_decode(data, ("aes-256-gcm",), key) if key else data
                for name, data in stored.items()
            }
            payloads.add((deflated["f"], deflated["one-block"], deflated["one-block-text"]))
            assert verify(brick_dir, deep=True, passphrase=passphrase).ok
    assert payloads == {(
        block_reference(plain, block), block_reference(plain[:block], block),
        block_reference(text, block),
    )}
    # A file of one block that favours matching is deflated exactly as one zlib stream.
    assert block_reference(text, block) == zlib_stream(text, b"", zlib.Z_FINISH)
    restored = unpack(brick_dir, tmp_path / "out", passphrase=passphrase)
    assert restored.bytes_written == len(plain) + 2 * block
    assert read_tree(tmp_path / "out") == read_tree(source)


def test_compressible_blocks_are_deflated_as_before_the_probe(tmp_path):
    block = payload.CHUNK_BYTES
    source = tmp_path / "src"
    source.mkdir()
    plain = words(3 * block + 12_345, 14)
    (source / "f").write_bytes(plain)
    pack(source, tmp_path / "brick", codec_chain=("deflate",), workers=2)
    assert (tmp_path / "brick" / "f").read_bytes() == block_reference(plain, block, zlib_stream)


TILE = 4 << 10
PROBE_BOUNDS = (
    0, 1, PROBE - 1, PROBE, PROBE + 1, PIECE - 1, PIECE, PIECE + 1,
    payload.CHUNK_BYTES - 1, payload.CHUNK_BYTES, payload.CHUNK_BYTES + 1,
    3 * payload.CHUNK_BYTES + 12_345,
)


@st.composite
def tiled_files(draw, size: int) -> bytes:
    """`size` bytes cut from a row of 4 KiB tiles, each noise, nibbles or words.

    Probes of the three tiles are stored, Huffman-coded and deflated. The
    cut starts `phase` bytes into the first tile, so tiles need not line up
    with probes.
    """
    phase = draw(st.integers(0, TILE - 1))
    count = -(-(phase + size) // TILE)
    kinds = draw(st.lists(st.integers(0, 2), min_size=count, max_size=count))
    seed = draw(st.integers(0, 2**32 - 1))
    noise = hashlib.shake_256(seed.to_bytes(4, "big")).digest(count * TILE)
    tiles = (noise, nibbles(count * TILE, seed), words(count * TILE, seed))
    row = b"".join(tiles[kind][i * TILE : (i + 1) * TILE] for i, kind in enumerate(kinds))
    return row[phase : phase + size]


@pytest.mark.parametrize("size", PROBE_BOUNDS)
# No shrink phase: shrinking a failure at these sizes takes minutes.
@settings(max_examples=3, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(data=st.data())
def test_probed_payload_matches_the_reference_at_the_real_size(tmp_path_factory, size, data):
    plain = data.draw(tiled_files(size))
    base = tmp_path_factory.mktemp("probe")
    source = base / "src"
    source.mkdir()
    (source / "f").write_bytes(plain)
    expected = block_reference(plain, payload.CHUNK_BYTES)
    for chain in DEFLATE_CHAINS:
        passphrase = passphrase_for(chain)
        for read_cap in (7, 4096):
            for workers in (1, 2, None):
                brick_dir = base / f"brick-{'-'.join(chain)}-{read_cap}-{workers}"
                with pytest.MonkeyPatch.context() as monkeypatch:
                    cap_reads(monkeypatch, read_cap)
                    result = pack(
                        source, brick_dir, codec_chain=chain, passphrase=passphrase,
                        kdf_iterations=FAST_KDF_ITERATIONS, workers=workers,
                    )
                stored = (brick_dir / "f").read_bytes()
                if passphrase:
                    key = payload.derive_key(PASSPHRASE, result.manifest.kdf)
                    stored = one_shot_decode(stored, ("aes-256-gcm",), key)
                assert stored == expected
                assert zlib.decompress(stored, -zlib.MAX_WBITS) == plain
                shutil.rmtree(brick_dir)


def test_a_probe_is_deflated_only_if_it_shrinks(tmp_path):
    # Each zero byte ahead of noise saves about a byte of deflate output,
    # so some run of zeros makes a probe deflate to exactly its own size.
    noise = hashlib.shake_256(b"edge").digest(2 * PIECE)
    sizes = {
        zeros: len(zlib_stream(bytes(zeros) + noise[zeros:PROBE], b"", zlib.Z_SYNC_FLUSH))
        for zeros in range(200)
    }
    even = [zeros for zeros, size in sizes.items() if size == PROBE]
    if not even:
        pytest.skip("this zlib deflates none of these probes to exactly its own size")
    plain = bytes(even[0]) + noise[even[0] :]
    source = tmp_path / "src"
    source.mkdir()
    (source / "f").write_bytes(plain)
    pack(source, tmp_path / "brick", codec_chain=("deflate",))
    stored = (tmp_path / "brick" / "f").read_bytes()
    assert stored == block_reference(plain, payload.CHUNK_BYTES)
    assert len(stored) > len(plain)  # stored, zeros and all


def test_a_probe_huffman_codes_as_small_as_deflate_is_huffman_coded(tmp_path):
    # Each zero byte ahead of nibbles saves more deflate output than Huffman
    # output, so some run of zeros makes the two codings of a probe equal.
    text = nibbles(2 * PIECE, 24)

    def codings(zeros):
        probe = bytes(zeros) + text[zeros:PROBE]
        huffman = huffman_coder()
        coded = huffman.compress(probe) + huffman.flush(zlib.Z_SYNC_FLUSH)
        return zlib_stream(probe, b"", zlib.Z_SYNC_FLUSH), coded

    even = next((z for z in range(1000) if len({len(c) for c in codings(z)}) == 1), None)
    if even is None:
        pytest.skip("this zlib codes none of these probes to the same size both ways")
    plain = bytes(even) + text[even:]
    source = tmp_path / "src"
    source.mkdir()
    (source / "f").write_bytes(plain)
    pack(source, tmp_path / "brick", codec_chain=("deflate",))
    stored = (tmp_path / "brick" / "f").read_bytes()
    assert stored == block_reference(plain, payload.CHUNK_BYTES)
    assert stored.startswith(codings(even)[1])  # Huffman-coded, as no larger


def test_noise_reaches_deflate_only_as_probes(tmp_path, monkeypatch):
    block = payload.CHUNK_BYTES
    source = tmp_path / "src"
    source.mkdir()
    noise = hashlib.shake_256(b"incompressible").digest(3 * block + 12_345)
    (source / "f").write_bytes(noise)
    deflated = []  # bytes fed to a compressor at DEFLATE_LEVEL, per call
    copies = []  # compressors copied
    real_compressobj = zlib.compressobj

    class Spy:
        def __init__(self, level, *args, **kwargs):
            self._compressor = real_compressobj(level, *args, **kwargs)
            self._counted = level == payload.DEFLATE_LEVEL

        def compress(self, data):
            if self._counted:
                deflated.append(len(data))
            return self._compressor.compress(data)

        def flush(self, *args):
            return self._compressor.flush(*args)

        def copy(self):
            copies.append(self)
            return self._compressor.copy()

    monkeypatch.setattr(zlib, "compressobj", Spy)
    payload._deflate_block(noise[:block], b"", False)
    assert 0 < sum(deflated) <= block // 8
    assert len(copies) <= 1  # only the primed first probe is sized on a copy
    deflated.clear()
    copies.clear()
    pack(source, tmp_path / "brick", codec_chain=("deflate",), workers=1)
    monkeypatch.undo()
    assert 0 < sum(deflated) <= 4 * block // 8  # three blocks and a short one
    assert len(copies) <= 4  # one per block at most
    stored = (tmp_path / "brick" / "f").read_bytes()
    assert zlib.decompress(stored, -zlib.MAX_WBITS) == noise
    assert len(stored) <= len(noise) * 1.001


def spy_on_strategies(monkeypatch) -> collections.Counter:
    """Count the bytes fed to zlib compressors, by deflate strategy, from here on.

    The compressors copied are counted under "copies". The counts are not
    locked: compress on one thread while they are kept.
    """
    fed = collections.Counter()
    real_compressobj = zlib.compressobj

    class Spy:
        def __init__(self, level, method=zlib.DEFLATED, wbits=zlib.MAX_WBITS, mem_level=8,
                     strategy=zlib.Z_DEFAULT_STRATEGY, **kwargs):
            self._compressor = real_compressobj(level, method, wbits, mem_level, strategy, **kwargs)
            self._strategy = strategy

        def compress(self, data):
            fed[self._strategy] += len(data)
            return self._compressor.compress(data)

        def flush(self, *args):
            return self._compressor.flush(*args)

        def copy(self):
            fed["copies"] += 1
            return self._compressor.copy()

    monkeypatch.setattr(zlib, "compressobj", Spy)
    return fed


def test_nibbles_reach_matching_only_as_probes(tmp_path, monkeypatch):
    block = payload.CHUNK_BYTES
    source = tmp_path / "src"
    source.mkdir()
    plain = nibbles(3 * block + 12_345, 22)
    (source / "f").write_bytes(plain)
    fed = spy_on_strategies(monkeypatch)
    payload._deflate_block(plain[:block], b"", False)
    assert 0 < fed[zlib.Z_DEFAULT_STRATEGY] <= block // 8
    assert fed[zlib.Z_HUFFMAN_ONLY] == block
    assert fed["copies"] <= 1  # only the primed first probe is sized on a copy
    fed.clear()
    pack(source, tmp_path / "brick", codec_chain=("deflate",), workers=1)
    monkeypatch.undo()
    assert 0 < fed[zlib.Z_DEFAULT_STRATEGY] <= 4 * block // 8  # three blocks and a short one
    assert fed[zlib.Z_HUFFMAN_ONLY] == len(plain)
    assert fed["copies"] <= 4  # one per block at most
    stored = (tmp_path / "brick" / "f").read_bytes()
    assert zlib.decompress(stored, -zlib.MAX_WBITS) == plain
    assert len(stored) <= 0.52 * len(plain)  # level-6 deflate of every byte gives about 0.57


# Each 32 KiB piece by the coding its probe picks: stored, Huffman-only, LZ77.
# LZ77 deflates the rest of its block, so it changes coding only at a block's end.
# The last block ends the stream with a short Huffman-only piece.
CODED_BLOCKS = ("SHHSSHLL", "HSLLLLLL", "SSSSSSSH", "HHHHHHHS", "SH")


def test_every_coding_and_change_of_coding_matches_the_reference(tmp_path, monkeypatch):
    tiles = {
        "S": lambda seed: hashlib.shake_256(seed.to_bytes(4, "big")).digest(PIECE),
        "H": lambda seed: nibbles(PIECE, seed),
        "L": lambda seed: words(PIECE, seed),
    }
    codings = "".join(CODED_BLOCKS)
    cut = 12_345  # off the last piece
    plain = b"".join(tiles[coding](seed) for seed, coding in enumerate(codings))[:-cut]
    source = tmp_path / "src"
    source.mkdir()
    (source / "f").write_bytes(plain)
    fed = spy_on_strategies(monkeypatch)
    pack(source, tmp_path / "brick", codec_chain=("deflate",), workers=1)
    monkeypatch.undo()
    stored = (tmp_path / "brick" / "f").read_bytes()
    assert stored == block_reference(plain, payload.CHUNK_BYTES)
    assert zlib.decompress(stored, -zlib.MAX_WBITS) == plain
    # Stored and Huffman-only pieces feed LZ77 their probes; each run of LZ77
    # pieces is fed whole, and its first probe is also Huffman-coded. A run
    # that starts after its block's first piece is fed its probe once more:
    # the compressor that sized the probe was flushed, so a fresh one starts.
    late_runs = sum(block.find("L") > 0 for block in CODED_BLOCKS)
    matched = codings.count("L") * PIECE + (codings.count("S") + codings.count("H")) * PROBE
    assert fed[zlib.Z_DEFAULT_STRATEGY] == matched + late_runs * PROBE
    runs = sum(block.count("L") > 0 for block in CODED_BLOCKS)
    assert fed[zlib.Z_HUFFMAN_ONLY] == codings.count("H") * PIECE - cut + runs * PROBE


def test_small_deflate_files_and_other_codecs_start_no_block_thread(tmp_path, monkeypatch):
    source = tmp_path / "src"
    source.mkdir()
    for seed, size in enumerate((0, 1, 5000, payload.CHUNK_BYTES)):
        (source / f"f{size}").write_bytes(body(size, seed))
    (source / "large").write_bytes(body(3 * payload.CHUNK_BYTES, 9))
    deflated_on = []
    real_deflate = payload._deflate_block

    def spy(block, primer, final):
        pooled = threading.current_thread().name.startswith("brick-deflate")
        deflated_on.append((len(block), pooled))
        return real_deflate(block, primer, final)

    monkeypatch.setattr(payload, "_deflate_block", spy)
    pools = []
    real_pool = brick_mod.ThreadPoolExecutor

    def counting_pool(*args, **kwargs):
        pools.append(kwargs.get("thread_name_prefix", ""))
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(brick_mod, "ThreadPoolExecutor", counting_pool)
    for chain in (("none",), ("aes-256-gcm",)):
        do_pack(source, tmp_path / ",".join(chain), chain)
    assert deflated_on == [] and "brick-deflate" not in pools
    pools.clear()
    do_pack(source, tmp_path / "deflate", ("deflate",))
    assert pools.count("brick-deflate") == 1
    # Only the first blocks of the large file leave the entry's thread.
    pooled = sorted(size for size, on_pool in deflated_on if on_pool)
    assert pooled == [payload.CHUNK_BYTES] * 2
    assert len(deflated_on) == 4 + 3


@pytest.mark.parametrize("failure", ["read", "gcm-ceiling"])
def test_a_failure_mid_file_stops_the_block_pool(tmp_path, monkeypatch, failure):
    block = payload.CHUNK_BYTES
    source = tmp_path / "src"
    source.mkdir()
    noise = hashlib.shake_256(b"incompressible").digest(6 * block + 5)
    (source / "f").write_bytes(noise)
    started = []
    real_deflate = payload._deflate_block

    def spy(data, primer, final):
        started.append(noise.index(data[:64]) // block)
        return real_deflate(data, primer, final)

    monkeypatch.setattr(payload, "_deflate_block", spy)
    chain = ("deflate", "aes-256-gcm")
    if failure == "read":
        real_read, reads = os.read, []

        def failing_read(fd, count):
            reads.append(count)
            if len(reads) == 3:  # the third block
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return real_read(fd, count)

        monkeypatch.setattr(os, "read", failing_read)
        text = re.escape(str(OSError(errno.EIO, os.strerror(errno.EIO))))
        expected = pytest.raises(OSError, match=f"^{text}$")
        last_started = 1  # blocks 0 and 1 were handed out before the read failed
    else:
        # Sealing block 2 crosses the ceiling while blocks 3 and 4 are in flight.
        monkeypatch.setattr(payload, "GCM_MAX_BYTES", 5 * block // 2)
        expected = pytest.raises(ConfigError, match="^f: ciphertext over .* single-nonce limit$")
        last_started = 2 + 2
    threads_before = threading.active_count()
    destination = tmp_path / "brick"
    with expected:
        pack(
            source, destination, codec_chain=chain, passphrase=PASSPHRASE,
            kdf_iterations=FAST_KDF_ITERATIONS, workers=2,
        )
    assert threading.active_count() == threads_before
    assert not destination.exists()
    assert max(started, default=-1) <= last_started
    monkeypatch.undo()
    do_pack(source, destination, chain)  # the same tree packs once nothing fails
    assert verify(destination, deep=True, passphrase=PASSPHRASE).ok


# Every block case on one thread, then the deflate ones again with their
# plain bytes written beside the thread that reads and inflates them.
INFLATED = [index for index, (chain, _) in enumerate(BLOCK_CASES) if "deflate" in chain]
THREAD_CASES = [(*case, 1) for case in BLOCK_CASES] + [(*BLOCK_CASES[i], 2) for i in INFLATED]
THREAD_CASE_IDS = BLOCK_CASE_IDS + [f"{BLOCK_CASE_IDS[i]}-threads2" for i in INFLATED]


@pytest.mark.parametrize(
    "chain, deflate_block, threads", THREAD_CASES, ids=THREAD_CASE_IDS, indirect=["deflate_block"]
)
def test_every_byte_flip_gives_the_reference_finding(
    tmp_path, chunk, chain, deflate_block, threads, stage_starts
):
    source = tmp_path / "src"
    source.mkdir()
    (source / "f").write_bytes(body(120, 3))
    brick_dir = tmp_path / "brick"
    result = do_pack(source, brick_dir, chain)
    passphrase = passphrase_for(chain)
    key = payload.derive_key(PASSPHRASE, result.manifest.kdf) if passphrase else None
    pristine = (brick_dir / "f").read_bytes()

    # Payload digest first: every flip is caught before any decoding.
    for position in range(0, len(pristine), 37):
        flipped = bytearray(pristine)
        flipped[position] ^= 0x04
        (brick_dir / "f").write_bytes(bytes(flipped))
        assert kinds(verify(brick_dir, deep=True, passphrase=passphrase, workers=threads)) == [
            ("f", KIND_PAYLOAD_DIGEST)
        ]

    # With the manifest resealed over the flipped bytes, decoding has to
    # find the damage: nonce, ciphertext, tag or deflate stream.
    expected_kinds = set()
    for position in range(len(pristine)):
        flipped = bytearray(pristine)
        flipped[position] ^= 0x04
        reseal(brick_dir, "f", bytes(flipped))
        sealed = load_manifest(brick_dir).entries[0]
        expected = reference_kind(bytes(flipped), sealed, chain, key)
        expected_kinds.add(expected)
        report = verify(brick_dir, deep=True, passphrase=passphrase, workers=threads)
        assert kinds(report) == ([("f", expected)] if expected else []), f"flip at {position}"
        if threads > 1:  # the stages decode exactly what one thread does
            decoded = [
                decode_with(brick_dir / "f", sealed.payload_size, chain, key, sealed.plain_size, n)
                for n in (1, threads)
            ]
            assert decoded[1] == decoded[0], f"flip at {position}"
    # Only a payload of at least one chunk, the block size in force, is worth the stage threads.
    pipelined = threads > 1 and len(pristine) >= payload.CHUNK_BYTES
    assert bool(stage_starts) == pipelined
    # Deflate can shrug off a flip in the padding after its last block.
    if "aes-256-gcm" in chain:
        assert expected_kinds == {KIND_DECODE}
    else:
        assert KIND_DECODE in expected_kinds or chain == ("none",)
        assert KIND_PLAIN_DIGEST in expected_kinds


@pytest.mark.parametrize("chain", [("deflate",), ("deflate", "aes-256-gcm")], ids=str)
def test_bytes_after_the_deflate_end_are_a_decode_failure(tmp_path, chunk, chain):
    source = tmp_path / "src"
    source.mkdir()
    plain = body(500, 4)
    (source / "f").write_bytes(plain)
    brick_dir = tmp_path / "brick"
    result = do_pack(source, brick_dir, chain)
    compressor = zlib.compressobj(payload.DEFLATE_LEVEL, zlib.DEFLATED, -zlib.MAX_WBITS)
    stream = compressor.compress(plain) + compressor.flush() + b"trailing"
    if "aes-256-gcm" in chain:
        key = payload.derive_key(PASSPHRASE, result.manifest.kdf)
        nonce = os.urandom(payload.NONCE_BYTES)
        stream = nonce + AESGCM(key).encrypt(nonce, stream, None)
    reseal(brick_dir, "f", stream)
    report = verify(brick_dir, deep=True, passphrase=passphrase_for(chain))
    assert kinds(report) == [("f", KIND_DECODE)]
    assert "after the end of the deflate stream" in report.findings[0].detail


def test_inflate_stops_once_output_passes_the_manifest_size(tmp_path, chunk):
    source = tmp_path / "src"
    source.mkdir()
    (source / "f").write_bytes(bytes(200_000))
    brick_dir = tmp_path / "brick"
    do_pack(source, brick_dir, ("deflate",))
    reseal(brick_dir, "f", (brick_dir / "f").read_bytes(), plain_size=1000)
    report = verify(brick_dir, deep=True)
    assert kinds(report) == [("f", KIND_PLAIN_SIZE)]
    assert "more than the 1000 bytes" in report.findings[0].detail
    with pytest.raises(IntegrityError, match=KIND_PLAIN_SIZE):
        unpack(brick_dir, tmp_path / "out")


def test_damage_past_the_manifest_size_is_never_decoded(tmp_path, chunk):
    source = tmp_path / "src"
    source.mkdir()
    plain = body(2000, 8)
    (source / "f").write_bytes(plain)
    brick_dir = tmp_path / "brick"
    do_pack(source, brick_dir, ("deflate",))
    compressor = zlib.compressobj(payload.DEFLATE_LEVEL, zlib.DEFLATED, -zlib.MAX_WBITS)
    # A final block of the reserved type 3 follows 2000 good bytes.
    forged = compressor.compress(plain) + compressor.flush(zlib.Z_FULL_FLUSH) + b"\xff\xff"
    reseal(brick_dir, "f", forged, plain_size=100)
    assert kinds(verify(brick_dir, deep=True)) == [("f", KIND_PLAIN_SIZE)]
    reseal(brick_dir, "f", forged, plain_size=2000)
    report = verify(brick_dir, deep=True)
    assert kinds(report) == [("f", KIND_DECODE)]
    assert "invalid block type" in report.findings[0].detail


def test_wrong_key_beats_a_deflate_error(tmp_path, chunk):
    source = tmp_path / "src"
    source.mkdir()
    (source / "f").write_bytes(body(5000, 5))
    brick_dir = tmp_path / "brick"
    do_pack(source, brick_dir, ("deflate", "aes-256-gcm"))
    report = verify(brick_dir, deep=True, passphrase="not sesame")
    assert kinds(report) == [("f", KIND_DECODE)]
    assert "authentication failed" in report.findings[0].detail


# ---------- unpack names a file only once it is proven ----------

def leftovers(dest: Path) -> list[str]:
    return sorted(p.relative_to(dest).as_posix() for p in dest.rglob("*"))


@pytest.mark.parametrize(
    "damage",
    ["wrong-passphrase", "payload-digest", "plain-digest"],
)
def test_failed_unpack_leaves_no_scratch_file(tmp_path, chunk, damage):
    source = tmp_path / "src"
    (source / "deep" / "er").mkdir(parents=True)
    (source / "deep" / "er" / "f").write_bytes(body(3000, 6))
    chain = ("aes-256-gcm",) if damage == "wrong-passphrase" else ("none",)
    brick_dir = tmp_path / "brick"
    do_pack(source, brick_dir, chain)
    passphrase = passphrase_for(chain)
    stored = brick_dir / "deep" / "er" / "f"
    if damage == "wrong-passphrase":
        passphrase = "wrong"
    elif damage == "payload-digest":
        stored.write_bytes(b"X" + stored.read_bytes()[1:])
    else:  # the payload is what the manifest says, the plaintext is not
        reseal(brick_dir, "deep/er/f", b"X" + stored.read_bytes()[1:])
    dest = tmp_path / "out"
    with pytest.raises(IntegrityError, match="deep/er/f"):
        unpack(brick_dir, dest, passphrase=passphrase)
    assert leftovers(dest) == []


def test_scratch_names_never_collide_with_the_tree(tmp_path, chunk):
    source = tmp_path / "src"
    # Unpack's scratch directory is .brick-unpack, with .part appended while
    # the manifest uses the name: here a file and a directory hold the first
    # two choices. The other .part names are shaped like scratch names too.
    files = {
        ".brick-3.part": b"shaped like a scratch name",
        ".brick-4.part/inner": b"a directory shaped like one",
        ".brick-unpack": b"the scratch directory's name",
        ".brick-unpack.part/inner": b"its next choice",
        "a": b"a",
        "b": b"b",
        "c": b"c",
        "d/.brick-6.part": b"in a subdirectory",
        "d/y": b"beside it",
        "x": b"the file",
        "x.part": b"its namesake",
    }
    for relative, data in files.items():
        (source / relative).parent.mkdir(parents=True, exist_ok=True)
        (source / relative).write_bytes(data)
    brick_dir = tmp_path / "brick"
    do_pack(source, brick_dir, ("deflate",))
    unpack(brick_dir, tmp_path / "out")
    assert read_tree(tmp_path / "out") == files
    directories = {".brick-4.part", ".brick-unpack.part", "d"}
    assert leftovers(tmp_path / "out") == sorted(set(files) | directories)


def test_a_fifo_in_place_of_a_payload_is_missing_not_a_hang(tmp_path):
    source = tmp_path / "src"
    source.mkdir()
    (source / "f").write_bytes(b"data")
    brick_dir = tmp_path / "brick"
    do_pack(source, brick_dir, ("none",))
    (brick_dir / "f").unlink()
    os.mkfifo(brick_dir / "f")
    assert kinds(verify(brick_dir, deep=True)) == [("f", KIND_MISSING)]
    with pytest.raises(IntegrityError, match=KIND_MISSING):
        unpack(brick_dir, tmp_path / "out")


def test_a_symlink_in_place_of_a_payload_is_missing_not_followed(tmp_path, capsys):
    source = tmp_path / "src"
    (source / "sub").mkdir(parents=True)
    (source / "sub" / "a.txt").write_bytes(b"first file")
    (source / "b.txt").write_bytes(b"second file")
    brick_dir = tmp_path / "brick"
    do_pack(source, brick_dir, ("none",))
    # An identical copy outside the brick: the shipped brick would not hold its bytes.
    outside = tmp_path / "outside.txt"
    outside.write_bytes(b"first file")
    (brick_dir / "sub" / "a.txt").unlink()
    (brick_dir / "sub" / "a.txt").symlink_to(outside)
    finding = f"{KIND_MISSING}: sub/a.txt: payload file not found"
    for deep in (False, True):
        assert [str(f) for f in verify(brick_dir, deep=deep).findings] == [finding]
    with pytest.raises(IntegrityError, match=f"^{re.escape(finding)}$"):
        unpack(brick_dir, tmp_path / "out")
    assert not (tmp_path / "out" / "sub" / "a.txt").exists()
    for argv in (
        ["verify", str(brick_dir)],
        ["verify", str(brick_dir), "--deep"],
        ["unpack", str(brick_dir), str(tmp_path / "cli-out")],
    ):
        capsys.readouterr()
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert finding in captured.out + captured.err, argv
    assert outside.read_bytes() == b"first file"


def test_a_symlink_in_place_of_the_manifest_is_not_a_brick(tmp_path, capsys):
    source = tmp_path / "src"
    source.mkdir()
    (source / "f").write_bytes(b"data")
    brick_dir = tmp_path / "brick"
    do_pack(source, brick_dir, ("none",))
    outside = tmp_path / "outside-manifest"
    (brick_dir / MANIFEST_FILENAME).rename(outside)
    (brick_dir / MANIFEST_FILENAME).symlink_to(outside)
    with pytest.raises(IntegrityError, match="not a brick"):
        verify(brick_dir)
    with pytest.raises(IntegrityError, match="not a brick"):
        unpack(brick_dir, tmp_path / "out")
    assert main(["verify", str(brick_dir)]) == 1
    assert "not a brick" in capsys.readouterr().err


# ---------- one scheduling rule: small entries inline, large ones pooled ----------

SPLIT = 64  # CHUNK_BYTES in these tests, so that entries fall on both sides of the rule


def test_hostile_brick_gives_the_same_findings_inline_and_pooled(tmp_path, monkeypatch):
    monkeypatch.setattr(payload, "CHUNK_BYTES", SPLIT)
    source = tmp_path / "src"
    defects = ["fine", "missing", "short", "long", "flipped", "fifo", "dir", "plain"]
    names = [f"d{i % 2}/{defect}-{size}" for i, defect in enumerate(defects) for size in (20, 2000)]
    for seed, name in enumerate(names):
        (source / name).parent.mkdir(parents=True, exist_ok=True)
        (source / name).write_bytes(body(int(name.rpartition("-")[2]), seed))
    brick_dir = tmp_path / "brick"
    do_pack(source, brick_dir, ("none",))

    shallow, deep_only = [], []
    for name in names:
        stored = brick_dir / name
        defect = name.split("/")[1].split("-")[0]
        if defect == "missing":
            stored.unlink()
            shallow.append((name, KIND_MISSING))
        elif defect == "short":
            stored.write_bytes(stored.read_bytes()[:-1])
            shallow.append((name, KIND_SIZE))
        elif defect == "long":
            stored.write_bytes(stored.read_bytes() + b"X")
            shallow.append((name, KIND_SIZE))
        elif defect == "flipped":
            stored.write_bytes(b"X" + stored.read_bytes()[1:])
            shallow.append((name, KIND_PAYLOAD_DIGEST))
        elif defect == "fifo":
            stored.unlink()
            os.mkfifo(stored)
            shallow.append((name, KIND_MISSING))
        elif defect == "dir":
            stored.unlink()
            stored.mkdir()
            (stored / "stowaway").write_bytes(b"?")
            shallow += [(name, KIND_MISSING), (f"{name}/stowaway", KIND_EXTRA)]
        elif defect == "plain":
            reseal(brick_dir, name, b"X" + stored.read_bytes()[1:])
            deep_only.append((name, KIND_PLAIN_DIGEST))
    (brick_dir / "extra" / "deeper").mkdir(parents=True)
    (brick_dir / "extra" / "deeper" / "x").write_bytes(b"?")
    (brick_dir / "d0" / "extra").write_bytes(b"?")
    (brick_dir / "link-dir").symlink_to(tmp_path)
    (brick_dir / "d1" / "link-file").symlink_to(brick_dir / "d0" / "fine-20")
    shallow += [(path, KIND_EXTRA) for path in ("extra/deeper/x", "d0/extra", "link-dir")]
    shallow.append(("d1/link-file", KIND_EXTRA))

    sizes = [entry.payload_size for entry in load_manifest(brick_dir).entries]
    assert min(sizes) < SPLIT <= max(sizes)
    for deep, expected in ((False, shallow), (True, shallow + deep_only)):
        reports = [verify(brick_dir, deep=deep, workers=workers) for workers in (1, 2, None)]
        assert reports[0].findings == reports[1].findings == reports[2].findings
        assert reports[0].bytes_checked == reports[1].bytes_checked == reports[2].bytes_checked
        assert kinds(reports[0]) == sorted(expected)


@pytest.mark.parametrize("bad", ["a", "big/c"])
def test_unpack_starts_nothing_after_the_first_bad_entry(tmp_path, monkeypatch, bad):
    monkeypatch.setattr(payload, "CHUNK_BYTES", SPLIT)
    source = tmp_path / "src"
    (source / "big").mkdir(parents=True)
    (source / "a").write_bytes(b"small, sorted first")
    for seed, name in enumerate(["b", "c", "d", "e"]):
        (source / "big" / name).write_bytes(body(4000, seed))
    (source / "small").write_bytes(b"small, sorted last")
    brick_dir = tmp_path / "brick"
    do_pack(source, brick_dir, ("none",))
    stored = brick_dir / bad
    stored.write_bytes(b"X" + stored.read_bytes()[1:])
    started = []
    check = brick_mod._check_entry

    def spy(root, entry, *args):
        started.append(entry.path)
        return check(root, entry, *args)

    monkeypatch.setattr(brick_mod, "_check_entry", spy)
    dest = tmp_path / "out"
    with pytest.raises(IntegrityError, match=f"^{KIND_PAYLOAD_DIGEST}: {bad}:"):
        unpack(brick_dir, dest, workers=2)
    if bad == "a":  # inline, and sorted before every large entry
        assert started == ["a"] and leftovers(dest) == []
    assert not [path for path in leftovers(dest) if path.startswith(".brick-unpack")]
    for path, data in read_tree(dest).items():
        assert data == (source / path).read_bytes()


def test_run_entries_keeps_at_most_two_pooled_jobs_per_worker_unfinished(monkeypatch):
    workers, submitted = 2, []
    real_pool = brick_mod.ThreadPoolExecutor

    class CountingPool(real_pool):
        def submit(self, fn, *args, **kwargs):
            submitted.append(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(brick_mod, "ThreadPoolExecutor", CountingPool)
    release, running = threading.Event(), threading.Semaphore(0)

    def work(job, threads):
        running.release()
        assert release.wait(60)
        return job * 10

    jobs = list(range(100))
    outcome = {}
    runner = threading.Thread(target=lambda: outcome.update(
        results=brick_mod._run_entries(jobs, lambda job: payload.CHUNK_BYTES, work, workers)
    ))
    runner.start()
    try:
        for _ in range(workers):
            assert running.acquire(timeout=10)
        time.sleep(0.2)  # ample time to submit every job, were there no window
        held = len(submitted)
    finally:
        release.set()
        runner.join(60)
    assert held <= 2 * workers
    assert outcome["results"] == [job * 10 for job in jobs]


def test_run_entries_raises_the_first_pooled_failure_in_job_order():
    def work(job, threads):
        if job == 0:
            time.sleep(0.2)  # fails after job 1 has failed and left the window
        if job < 2:
            raise ValueError(f"job {job}")
        return job

    jobs = list(range(10))
    with pytest.raises(ValueError, match="^job 0$"):
        brick_mod._run_entries(jobs, lambda job: payload.CHUNK_BYTES, work, 2)


@pytest.mark.parametrize("cores, workers", [(1, 1), (2, 2), (16, 8)])
def test_default_workers_count_the_cores_this_process_may_run_on(monkeypatch, cores, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert brick_mod._worker_count(None) == workers
    monkeypatch.delattr(os, "sched_getaffinity")  # a platform without it
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    assert brick_mod._worker_count(None) == workers


@pytest.mark.parametrize(
    "workers, large, small, share",
    [
        (1, 2, 0, 1),  # one worker pools nothing
        (2, 1, 0, 2),
        (2, 1, 1, 2),  # half a chunk of inline jobs leaves the calling thread's slot free
        (2, 1, 2, 1),  # a chunk's worth takes it
        (2, 2, 0, 1),
        (4, 1, 2, 3),
        (4, 2, 0, 2),
        (4, 2, 2, 1),
        (4, 3, 0, 1),
        (8, 1, 0, 8),
    ],
)
def test_each_pooled_job_gets_an_even_share_of_the_workers(workers, large, small, share):
    jobs = [payload.CHUNK_BYTES] * large + [payload.CHUNK_BYTES // 2] * small
    given = brick_mod._run_entries(jobs, lambda job: job, lambda job, threads: threads, workers)
    assert given == [share] * large + [1] * small


@pytest.mark.parametrize("chain", CHAINS, ids=CHAIN_IDS)
def test_a_lone_large_payload_gets_one_helper_per_read(tmp_path, stage_starts, chain):
    source = tmp_path / "src"
    source.mkdir()
    (source / "big").write_bytes(nibbles(4 * payload.CHUNK_BYTES, 23))
    (source / "small").write_bytes(b"runs inline, beside the pool")
    brick_dir = tmp_path / "brick"
    entries = do_pack(source, brick_dir, chain).manifest.entries
    assert max(entry.payload_size for entry in entries) >= payload.CHUNK_BYTES
    passphrase = passphrase_for(chain)

    def started_by(call) -> list[str]:
        stage_starts.clear()
        assert call()
        return list(stage_starts)

    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        started = {
            "verify": started_by(
                lambda: verify(brick_dir, passphrase=passphrase, workers=workers).ok
            ),
            "verify --deep": started_by(
                lambda: verify(brick_dir, deep=True, passphrase=passphrase, workers=workers).ok
            ),
            "unpack": started_by(lambda: unpack(brick_dir, out, passphrase, workers)),
        }
        assert read_tree(out) == read_tree(source)
        helped = workers > 1
        writer = [WRITER] * (helped and "deflate" in chain)
        assert started == {
            "verify": [HASHER] * helped, "verify --deep": writer, "unpack": writer
        }, workers


@pytest.mark.parametrize("deep", [False, True], ids=["shallow", "deep"])
def test_a_payload_in_a_busy_pool_gets_no_helper(tmp_path, monkeypatch, stage_starts, deep):
    source = tmp_path / "src"
    source.mkdir()
    for seed, name in enumerate(["a", "b"]):
        (source / name).write_bytes(nibbles(4 * payload.CHUNK_BYTES, 24 + seed))
    brick_dir = tmp_path / "brick"
    entries = do_pack(source, brick_dir, ("deflate",)).manifest.entries
    assert min(entry.payload_size for entry in entries) >= payload.CHUNK_BYTES
    # "a" stays unfinished until "b" has been read, so both are read at once,
    # and two payloads under two workers leave no room for a helper.
    b_done, given = threading.Event(), {}
    real_check = brick_mod._check_entry

    def check(root, entry, deep, chain, key, write, threads):
        given[entry.path] = threads
        if entry.path == "a":
            assert b_done.wait(60)
            return None, entry.payload_size
        try:
            return real_check(root, entry, deep, chain, key, write, threads)
        finally:
            b_done.set()

    monkeypatch.setattr(brick_mod, "_check_entry", check)
    report = bounded(lambda: verify(brick_dir, deep=deep, workers=2))
    assert report.ok and report.bytes_checked == sum(entry.payload_size for entry in entries)
    assert given == {"a": 1, "b": 1}
    assert stage_starts == []


def test_a_hasher_that_fails_to_start_leaves_no_thread(tmp_path, monkeypatch):
    source = tmp_path / "src"
    source.mkdir()
    (source / "f").write_bytes(nibbles(4 * payload.CHUNK_BYTES, 26))
    brick_dir = tmp_path / "brick"
    entry = do_pack(source, brick_dir, ("none",)).manifest.entries[0]
    real_start = threading.Thread.start

    def start(thread):
        if thread.name == HASHER:
            raise RuntimeError("can't start new thread")
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    threads_before = threading.active_count()
    fd = os.open(brick_dir / "f", os.O_RDONLY)
    try:
        with pytest.raises(RuntimeError, match="can't start new thread"):
            bounded(lambda: payload.decode_file(fd, entry.payload_size, None, None, threads=2))
    finally:
        os.close(fd)
    assert threading.active_count() == threads_before


@pytest.mark.parametrize("chain", [("none",), ("deflate", "aes-256-gcm")], ids=str)
def test_a_file_of_one_chunk_gets_threads_at_the_real_size(
    tmp_path, monkeypatch, stage_starts, chain
):
    chunk = 256 << 10  # payload.CHUNK_BYTES, as the README and the --workers help give it
    source = tmp_path / "src"
    source.mkdir()
    # Half repetitive, so its deflate payload stays under one chunk; the
    # other is noise, so its payload is at least one chunk under every chain.
    (source / "below").write_bytes(body(chunk - 1, 1))
    (source / "one-chunk").write_bytes(hashlib.shake_256(b"noise").digest(chunk))
    ran_on = []
    real_encode, real_decode = payload.encode_file, payload.decode_file

    def encode(fd, size, *args):
        ran_on.append(("encode", size, threading.current_thread().name))
        return real_encode(fd, size, *args)

    def decode(fd, size, *args):
        ran_on.append(("decode", size, threading.current_thread().name))
        return real_decode(fd, size, *args)

    monkeypatch.setattr(payload, "encode_file", encode)
    monkeypatch.setattr(payload, "decode_file", decode)
    passphrase = passphrase_for(chain)
    brick_dir = tmp_path / "brick"
    entries = pack(
        source, brick_dir, codec_chain=chain, passphrase=passphrase,
        kdf_iterations=FAST_KDF_ITERATIONS, workers=2,
    ).manifest.entries
    assert verify(brick_dir, deep=True, passphrase=passphrase, workers=2).ok
    unpack(brick_dir, tmp_path / "out", passphrase=passphrase, workers=2)
    assert read_tree(tmp_path / "out") == read_tree(source)
    size = {entry.path: entry.payload_size for entry in entries}
    assert size["below"] < chunk <= size["one-chunk"]
    on_pool = sorted(
        (step, size, name.startswith("ThreadPoolExecutor")) for step, size, name in ran_on
    )
    assert on_pool == sorted([
        ("encode", chunk - 1, False), ("encode", chunk, True),
        *[("decode", size["below"], False), ("decode", size["one-chunk"], True)] * 2,
    ])
    # Only the deflate payload of one chunk starts the stages: in verify --deep and in unpack.
    assert stage_starts == [WRITER] * 2 * ("deflate" in chain)


def test_a_lone_large_file_keeps_one_block_per_worker_plus_one_in_flight(tmp_path, monkeypatch):
    """No block is deflated until the file's entry waits on its window of blocks.

    A lone file under 4 workers then has 4 + 1 blocks on the block pool.
    """
    source = tmp_path / "src"
    source.mkdir()
    (source / "f").write_bytes(nibbles(8 * payload.CHUNK_BYTES, 50))
    state = {"out": 0, "most": 0}  # blocks submitted and not taken back
    lock, gate = threading.Lock(), threading.Event()

    class Held:
        """A block's future; the entry that asks for its result waits on its window."""

        def __init__(self, future):
            self.future = future

        def result(self):
            gate.set()
            value = self.future.result()
            with lock:
                state["out"] -= 1
            return value

        def cancel(self):
            return self.future.cancel()

    real_pool = brick_mod.ThreadPoolExecutor

    class GatedBlocks(real_pool):
        def submit(self, fn, *args):
            with lock:
                state["out"] += 1
                state["most"] = max(state["most"], state["out"])

            def gated():
                assert gate.wait(60), "the entry never waited on its window"
                return fn(*args)

            return Held(super().submit(gated))

    def pool(*args, **kwargs):
        blocks = kwargs.get("thread_name_prefix") == "brick-deflate"
        return (GatedBlocks if blocks else real_pool)(*args, **kwargs)

    monkeypatch.setattr(brick_mod, "ThreadPoolExecutor", pool)
    bounded(lambda: pack(source, tmp_path / "brick", codec_chain=("deflate",), workers=4))
    assert state["most"] == 4 + 1
    monkeypatch.undo()
    assert verify(tmp_path / "brick", deep=True).ok


# ---------- the GCM size ceiling ----------

@pytest.mark.parametrize("chain", [("aes-256-gcm",), ("deflate", "aes-256-gcm")], ids=str)
def test_gcm_ceiling_is_a_config_error(tmp_path, monkeypatch, chain):
    source = tmp_path / "src"
    source.mkdir()
    noise = hashlib.shake_256(b"incompressible").digest(4000)
    (source / "f").write_bytes(noise)
    monkeypatch.setattr(payload, "CHUNK_BYTES", 512)
    monkeypatch.setattr(payload, "GCM_MAX_BYTES", 3000)
    with pytest.raises(ConfigError, match="^f: ciphertext over 3,000 bytes .* single-nonce limit"):
        do_pack(source, tmp_path / "over", chain)
    monkeypatch.setattr(payload, "GCM_MAX_BYTES", 5000)
    do_pack(source, tmp_path / "under", chain)
    assert verify(tmp_path / "under", deep=True, passphrase=PASSPHRASE).ok


@pytest.mark.parametrize("precreated", [False, True], ids=["new-dest", "empty-dest"])
def test_failed_pack_leaves_no_half_written_brick(tmp_path, monkeypatch, precreated):
    source = tmp_path / "src"
    (source / "deep" / "er").mkdir(parents=True)
    (source / "a.txt").write_bytes(b"small")
    (source / "deep" / "er" / "b.txt").write_bytes(b"also small")
    (source / "deep" / "z.bin").write_bytes(hashlib.shake_256(b"incompressible").digest(4000))
    destination = tmp_path / "brick"
    if precreated:
        destination.mkdir()
    chain = ("aes-256-gcm",)
    monkeypatch.setattr(payload, "CHUNK_BYTES", 512)
    monkeypatch.setattr(payload, "GCM_MAX_BYTES", 3000)
    with pytest.raises(ConfigError, match="^deep/z.bin: ciphertext over"):
        do_pack(source, destination, chain)
    assert destination.exists() == precreated
    if precreated:
        assert list(destination.iterdir()) == []
    monkeypatch.setattr(payload, "GCM_MAX_BYTES", 5000)
    do_pack(source, destination, chain)
    assert verify(destination, deep=True, passphrase=PASSPHRASE).ok


@pytest.mark.parametrize("chain", CHAINS, ids=CHAIN_IDS)
def test_files_named_like_the_digest_line_round_trip(tmp_path, chain):
    source = tmp_path / "src"
    (source / "digest: y").mkdir(parents=True)
    (source / "digest: x").write_bytes(b"first")
    (source / "digest: y" / "digest: z").write_bytes(b"second")
    do_pack(source, tmp_path / "brick", chain)
    assert verify(tmp_path / "brick", deep=True, passphrase=passphrase_for(chain)).ok
    unpack(tmp_path / "brick", tmp_path / "out", passphrase=passphrase_for(chain))
    assert read_tree(tmp_path / "out") == read_tree(source)


def test_gcm_ceiling_matches_the_standard():
    assert payload.GCM_MAX_BYTES * 8 == 2**39 - 256


# ---------- opt-in: one file past 2 GiB ----------

@pytest.mark.skipif(os.environ.get("BRICKKIT_SLOW") != "1", reason="set BRICKKIT_SLOW=1")
def test_sparse_file_past_2_gib_round_trips_in_flat_memory(tmp_path):
    source = tmp_path / "src"
    source.mkdir()
    size = 2**31 + 4097
    with open(source / "sparse.bin", "wb") as handle:
        handle.write(b"head")
        handle.truncate(size - 4)
        handle.seek(size - 4)
        handle.write(b"tail")
    chain = ("deflate", "aes-256-gcm")
    result = do_pack(source, tmp_path / "brick", chain)
    assert result.plain_bytes == size
    restored = unpack(tmp_path / "brick", tmp_path / "out", passphrase=PASSPHRASE)
    assert restored.bytes_written == size
    assert (tmp_path / "out" / "sparse.bin").stat().st_size == size
    # A whole-buffer pipeline would hold at least the 2 GiB plaintext.
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 < 2**30


# ---------- codec none: payload and plaintext are the same bytes ----------

# name: (plain size minus payload size, plain digest wrong, payload byte flipped)
IDENTITY_LIES = {
    "fine": (0, False, False),
    "longer": (1, False, False),
    "shorter": (-1, False, False),
    "digest": (0, True, False),
    "longer-digest": (1, True, False),
    "shorter-digest": (-1, True, False),
    "flipped-shorter": (-1, False, True),
    "flipped-digest": (0, True, True),
}


def identity_finding(name: str) -> tuple[str, str, bool] | None:
    """(kind, detail, shallow too) for one lie; sizes are in the file name."""
    lie, size = name.rsplit("-", 1)
    size_change, digest_wrong, flipped = IDENTITY_LIES[lie.split("/")[-1]]
    plain_size = int(size) + size_change
    if flipped:
        return KIND_PAYLOAD_DIGEST, "stored bytes do not match", True
    if size_change > 0:
        return KIND_PLAIN_SIZE, f"decoded to {size} bytes, manifest says {plain_size}", False
    if size_change < 0:
        return KIND_PLAIN_SIZE, f"decoded to more than the {plain_size} bytes the manifest says", False
    if digest_wrong:
        return KIND_PLAIN_DIGEST, "decoded bytes do not match", False
    return None


def tell_lies(brick_dir: Path, original: bytes, names) -> None:
    """Rewrite the manifest so that only the named entries lie."""
    manifest = parse_manifest(original)
    entries = []
    for entry in manifest.entries:
        if entry.path in names:
            size_change, digest_wrong, _ = IDENTITY_LIES[entry.path.split("/")[-1].rsplit("-", 1)[0]]
            entry = replace(
                entry,
                plain_size=entry.plain_size + size_change,
                plain_sha256=hashlib.sha256(b"other").hexdigest() if digest_wrong else entry.plain_sha256,
            )
        entries.append(entry)
    (brick_dir / MANIFEST_FILENAME).write_bytes(
        serialize_manifest(replace(manifest, entries=tuple(entries)))
    )


@pytest.mark.parametrize("chunk_bytes", [None, SPLIT], ids=["chunk1M", f"chunk{SPLIT}"])
def test_identity_codec_lies_give_the_same_findings_in_the_same_order(
    tmp_path, monkeypatch, chunk_bytes
):
    if chunk_bytes is not None:
        monkeypatch.setattr(payload, "CHUNK_BYTES", chunk_bytes)
    source = tmp_path / "src"
    names = [f"d{seed % 3}/{lie}-{size}" for seed, lie in enumerate(IDENTITY_LIES) for size in (1, 2000)]
    for seed, name in enumerate(names):
        (source / name).parent.mkdir(parents=True, exist_ok=True)
        (source / name).write_bytes(body(int(name.rsplit("-", 1)[1]), seed))
    brick_dir = tmp_path / "brick"
    do_pack(source, brick_dir, ("none",))
    original = (brick_dir / MANIFEST_FILENAME).read_bytes()
    flipped = [name for name in names if IDENTITY_LIES[name.split("/")[1].rsplit("-", 1)[0]][2]]

    def flip(name):
        stored = brick_dir / name
        stored.write_bytes(bytes([stored.read_bytes()[0] ^ 1]) + stored.read_bytes()[1:])

    for name in flipped:
        flip(name)
    tell_lies(brick_dir, original, set(names))
    expected = {name: identity_finding(name) for name in names}
    for deep in (False, True):
        want = sorted(
            (name, kind, detail)
            for name, found in expected.items() if found is not None
            for kind, detail, shallow in [found] if deep or shallow
        )
        for workers in (1, None):
            report = verify(brick_dir, deep=deep, workers=workers)
            assert [(f.path, f.kind, f.detail) for f in report.findings] == want
            assert report.bytes_checked == sum(int(name.rsplit("-", 1)[1]) for name in names)

    for name in flipped:
        flip(name)
    for name in names:
        tell_lies(brick_dir, original, {name})
        if name in flipped:
            flip(name)
        for workers in (1, None):
            dest = tmp_path / f"out-{workers}-{name.replace('/', '-')}"
            found = expected[name]
            if found is None:
                unpack(brick_dir, dest, workers=workers)
                assert (dest / name).read_bytes() == (source / name).read_bytes()
            else:
                with pytest.raises(IntegrityError, match=f"^{found[0]}: {name}: {re.escape(found[1])}$"):
                    unpack(brick_dir, dest, workers=workers)
                assert not (dest / name).exists()
            assert not [path for path in leftovers(dest) if path.startswith(".brick-unpack")]
        if name in flipped:
            flip(name)


# ---------- raw-descriptor writes ----------

def short_tree(tmp_path: Path) -> Path:
    source = tmp_path / "src"
    for seed, (name, size) in enumerate([("a", 3000), ("d/b", 100), ("d/e/c", 1), ("z", 70_000)]):
        (source / name).parent.mkdir(parents=True, exist_ok=True)
        (source / name).write_bytes(body(size, seed))
    return source


@pytest.mark.parametrize("chain", CHAINS, ids=CHAIN_IDS)
def test_short_writes_round_trip(tmp_path, monkeypatch, chain):
    source = short_tree(tmp_path)
    (source / "empty").write_bytes(b"")
    real_write = os.write
    written = []

    def at_most_7(fd, data):
        count = real_write(fd, memoryview(data)[:7])
        written.append(count)
        return count

    monkeypatch.setattr(os, "write", at_most_7)
    brick_dir = tmp_path / "brick"
    do_pack(source, brick_dir, chain)
    unpack(brick_dir, tmp_path / "out", passphrase=passphrase_for(chain))
    monkeypatch.undo()
    assert written and max(written) == 7
    assert read_tree(tmp_path / "out") == read_tree(source)
    assert verify(brick_dir, deep=True, passphrase=passphrase_for(chain)).ok


def test_a_full_disk_during_unpack_leaves_no_scratch_file(tmp_path, monkeypatch, capsys):
    source = short_tree(tmp_path)
    brick_dir = tmp_path / "brick"
    do_pack(source, brick_dir, ("deflate",))

    def full(fd, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "write", full)
    with pytest.raises(OSError) as raised:
        unpack(brick_dir, tmp_path / "out")
    assert raised.value.errno == errno.ENOSPC
    assert leftovers(tmp_path / "out") == []
    assert main(["unpack", str(brick_dir), str(tmp_path / "cli-out")]) == EXIT_IO
    assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
    assert leftovers(tmp_path / "cli-out") == []


@pytest.mark.parametrize("chain", [c for c in CHAINS if "aes-256-gcm" in c], ids=CHAIN_IDS[2:])
@pytest.mark.parametrize("size", [0, payload.NONCE_BYTES + payload.TAG_BYTES - 1])
def test_an_encrypted_payload_shorter_than_nonce_plus_tag(
    tmp_path, capsys, monkeypatch, chain, size
):
    source = short_tree(tmp_path)
    brick_dir = tmp_path / "brick"
    do_pack(source, brick_dir, chain)
    reseal(brick_dir, "d/b", bytes(size))
    assert verify(brick_dir).ok  # the stored bytes are the ones the manifest vouches for
    report = verify(brick_dir, deep=True, passphrase=PASSPHRASE)
    assert [(f.path, f.kind, f.detail) for f in report.findings] == [
        ("d/b", KIND_DECODE, "ciphertext shorter than nonce plus tag")
    ]
    monkeypatch.setenv("BRICK_TEST_PASS", PASSPHRASE)
    out = tmp_path / "out"
    assert main(["unpack", str(brick_dir), str(out), "--passphrase-env", "BRICK_TEST_PASS"]) == 1
    assert "ciphertext shorter than nonce plus tag" in capsys.readouterr().err
    assert not [name for name in leftovers(out) if name.startswith(".brick-unpack")]


# ---------- one SHA-256 pass per payload byte ----------

def test_codec_none_feeds_each_byte_to_sha256_once(tmp_path, monkeypatch):
    monkeypatch.setattr(payload, "CHUNK_BYTES", SPLIT)
    source = short_tree(tmp_path)
    payload_bytes = sum(p.stat().st_size for p in source.rglob("*") if p.is_file())
    fed, made = [], []
    real_sha256 = hashlib.sha256

    class CountingSha256:
        def __init__(self, data=b""):
            made.append(1)
            self._hash = real_sha256()
            self.update(data)

        def update(self, data):
            fed.append(len(data))
            self._hash.update(data)

        def hexdigest(self):
            return self._hash.hexdigest()

    rendered = []
    real_line = ChunkEntry.line

    def line(entry):
        rendered.append(entry.path)
        return real_line(entry)

    monkeypatch.setattr(hashlib, "sha256", CountingSha256)
    monkeypatch.setattr(ChunkEntry, "line", line)
    brick_dir = tmp_path / "brick"
    entries = do_pack(source, brick_dir, ("none",)).manifest.entries
    entry_bytes = sum(len(real_line(entry)) for entry in entries)
    assert sorted(rendered) == sorted(entry.path for entry in entries)
    assert sum(fed) == payload_bytes + entry_bytes
    assert len(made) == len(entries) + 1  # one per payload, one for the manifest
    for operation in (
        lambda: verify(brick_dir),
        lambda: verify(brick_dir, deep=True),
        lambda: unpack(brick_dir, tmp_path / "out"),
    ):
        fed.clear()
        made.clear()
        operation()
        assert sum(fed) == payload_bytes + entry_bytes
        assert len(made) == len(entries) + 1


# ---------- each payload byte is read once ----------

@pytest.mark.parametrize("chain", CHAINS, ids=CHAIN_IDS)
def test_each_payload_byte_is_read_once(tmp_path, monkeypatch, chunk, chain):
    source = tmp_path / "src"
    source.mkdir()
    for size in (0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5, 40_000):
        (source / f"f{size:06d}").write_bytes(body(size, size))
    brick_dir = tmp_path / "brick"
    payload_bytes = do_pack(source, brick_dir, chain).payload_bytes
    manifest_bytes = (brick_dir / MANIFEST_FILENAME).stat().st_size  # load_manifest reads it too
    passphrase = passphrase_for(chain)
    real_read = os.read
    asked, got = [], []

    def counting_read(fd, count):
        asked.append(count)
        data = real_read(fd, count)
        got.append(len(data))
        return data

    monkeypatch.setattr(os, "read", counting_read)
    for operation in (
        lambda: verify(brick_dir),
        lambda: verify(brick_dir, deep=True, passphrase=passphrase),
        lambda: unpack(brick_dir, tmp_path / "out", passphrase=passphrase),
    ):
        asked.clear()
        got.clear()
        operation()
        assert sum(got) == manifest_bytes + payload_bytes
        assert max(asked) <= payload.CHUNK_BYTES


# ---------- a payload cut short after its size was checked ----------

TRUNCATED = "payload ended before its tag"


def truncated_reference(data: bytes, size: int, chain, key) -> payload.Decoded:
    """What decoding the first len(data) of a `size`-byte payload shows, whole-buffer.

    The ciphertext is decrypted as AES-CTR from GCM's first counter block, so
    no GCM code is shared with the decoder under test.
    """
    plain, error = data, None
    if "aes-256-gcm" in chain:
        plain, error = b"", TRUNCATED
        if len(data) >= payload.NONCE_BYTES:
            nonce = data[: payload.NONCE_BYTES]
            body_end = size - payload.TAG_BYTES
            counter = modes.CTR(nonce + (2).to_bytes(4, "big"))
            plain = Cipher(algorithms.AES(key), counter).decryptor().update(
                data[payload.NONCE_BYTES : body_end]
            )
    if "deflate" in chain:
        decompressor = zlib.decompressobj(-zlib.MAX_WBITS)
        plain = decompressor.decompress(plain)
        if error is None and not decompressor.eof:
            error = "deflate stream is truncated"
    digest, plain_digest = hashlib.sha256(data).hexdigest(), hashlib.sha256(plain).hexdigest()
    return payload.Decoded(len(data), digest, len(plain), plain_digest, error)


THREADED_CHAINS = [("none",), *DEFLATE_CHAINS]


@pytest.mark.parametrize(
    "chain, threads",
    [(chain, 1) for chain in CHAINS] + [(chain, 2) for chain in THREADED_CHAINS],
    ids=CHAIN_IDS + [f"{','.join(chain)}-threads2" for chain in THREADED_CHAINS],
)
def test_a_payload_shorter_than_its_size_decodes_without_raising(
    tmp_path, chunk, chain, threads, stage_starts
):
    # Under the 4 KiB chunk the payload is under CHUNK_BYTES, so a shallow
    # read, or a deep one under none, takes decode_file's one-piece read.
    source = tmp_path / "src"
    source.mkdir()
    (source / "f").write_bytes(body(3000, 9))
    brick_dir = tmp_path / "brick"
    result = do_pack(source, brick_dir, chain)
    entry = result.manifest.entries[0]
    key = payload.derive_key(PASSPHRASE, result.manifest.kdf) if passphrase_for(chain) else None
    stored = (brick_dir / "f").read_bytes()
    size = len(stored)
    nonce, tag = payload.NONCE_BYTES, payload.TAG_BYTES
    # In the nonce, at its end, in the ciphertext, at its end, in the tag.
    cuts = [0, 5, nonce, nonce + 3, size // 2, size - tag, size - 5, size - 1]
    for cut in cuts:
        data = stored[:cut]
        (brick_dir / "f").write_bytes(data)
        decoded, written = decode_with(brick_dir / "f", size, chain, key, entry.plain_size, threads)
        assert decoded == truncated_reference(data, size, chain, key), f"cut at {cut}"
        assert len(written) == decoded.plain_size
        # A shallow read hashes the bytes that are there and decodes none.
        shallow = decode_with(brick_dir / "f", size, None, None, 0, threads)
        digest, empty = hashlib.sha256(data).hexdigest(), hashlib.sha256(b"").hexdigest()
        assert shallow == (payload.Decoded(cut, digest, 0, empty, None), b""), f"cut at {cut}"
        # Reads that come back with at most 7 bytes each give the same results.
        with pytest.MonkeyPatch.context() as capped:
            cap_reads(capped, 7)
            again = decode_with(brick_dir / "f", size, chain, key, entry.plain_size, threads)
            assert again == (decoded, written), f"cut at {cut}"
            assert decode_with(brick_dir / "f", size, None, None, 0, threads) == shallow
        if threads > 1:
            serial = decode_with(brick_dir / "f", size, chain, key, entry.plain_size, 1)
            assert (decoded, written) == serial, f"cut at {cut}"
            assert decode_with(brick_dir / "f", size, None, None, 0, 1) == shallow, f"cut at {cut}"
    assert bool(stage_starts) == (threads > 1 and size >= chunk)


# ---------- one large deflate payload inflated beside its reader ----------

def bounded(call):
    """call() on a helper thread that must end within a minute, so a hang fails the test."""
    outcome = {}

    def run():
        try:
            outcome["value"] = call()
        except BaseException as exc:  # handed back to the test's thread
            outcome["error"] = exc

    helper = threading.Thread(target=run)
    helper.start()
    helper.join(60)
    assert not helper.is_alive(), "decode did not end"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def nibbles(size: int, seed: int) -> bytes:
    """Random bytes of 16 values: about half their size Huffman-coded, and no repeats to match."""
    noise = hashlib.shake_256(seed.to_bytes(4, "big")).digest(size)
    return noise.translate(bytes(0x40 | (i & 0x0F) for i in range(256)))


WORDS = (
    b"a an and are as at be by for from has he in is it its of on that the to was were "
    b"will with brick block disk drive file data byte sneaker net tera scale"
).split()


def words(size: int, seed: int) -> bytes:
    """Random words of a small vocabulary: repeats that LZ77 matching codes better."""
    picks = hashlib.shake_256(seed.to_bytes(4, "big")).digest(size // 2 + 1)
    return b" ".join(WORDS[pick % len(WORDS)] for pick in picks)[:size]


def corrupting_flip(data: bytes, start: int) -> bytes:
    """data with one bit flipped past start so that inflating it raises.

    The bit is in the block type of a deflate block that follows a sync
    flush (00 00 ff ff): a dynamic block read as a stored one has lengths
    that do not check.
    """
    marker = data.find(b"\x00\x00\xff\xff", start)
    while marker != -1:
        at = marker + 4
        flipped = data[:at] + bytes([data[at] ^ 0x04]) + data[at + 1 :]
        try:
            zlib.decompress(flipped, -zlib.MAX_WBITS)
        except zlib.error:
            return flipped
        marker = data.find(b"\x00\x00\xff\xff", marker + 1)
    raise AssertionError("no block after the start to corrupt")


@pytest.mark.parametrize("failure", ["write", "inflate", "passphrase", "cut"])
def test_a_failing_stage_gives_what_one_thread_gives(
    tmp_path, monkeypatch, capsys, stage_starts, failure
):
    """A failure in each step: the writer, inflate, and the read (twice)."""
    source = tmp_path / "src"
    source.mkdir()
    (source / "f").write_bytes(nibbles(16 * payload.CHUNK_BYTES, 12))
    chain = ("deflate",) if failure in ("write", "inflate") else ("deflate", "aes-256-gcm")
    brick_dir = tmp_path / "brick"
    do_pack(source, brick_dir, chain)
    stored = (brick_dir / "f").read_bytes()
    assert len(stored) > 4 * payload.CHUNK_BYTES
    passphrase = passphrase_for(chain)
    if failure == "inflate":  # a flip past the middle, vouched for by the manifest
        stored = corrupting_flip(stored, len(stored) // 2)
        reseal(brick_dir, "f", stored)
    elif failure == "passphrase":
        passphrase = "not sesame"
    elif failure == "write":
        real_write, writes = os.write, []

        def failing_write(fd, data):
            writes.append(len(data))
            if len(writes) % 3 == 0:  # the third write of each restored file
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", failing_write)
    else:  # the payload is cut in half once its size has been checked
        real_read = os.read

        def cutting_read(fd, count):
            if os.fstat(fd).st_size == len(stored):
                os.truncate(brick_dir / "f", len(stored) // 2)
            return real_read(fd, count)

        monkeypatch.setattr(os, "read", cutting_read)
    monkeypatch.setenv("BRICK_TEST_PASS", passphrase or "")
    secret = ["--passphrase-env", "BRICK_TEST_PASS"] if passphrase else []

    def outcomes(workers: int):
        stage_starts.clear()
        threads_before = threading.active_count()
        (brick_dir / "f").write_bytes(stored)
        report = bounded(
            lambda: verify(brick_dir, deep=True, passphrase=passphrase, workers=workers)
        )
        (brick_dir / "f").write_bytes(stored)
        dest = tmp_path / f"out{workers}"
        with pytest.raises((OSError, IntegrityError)) as raised:
            bounded(lambda: unpack(brick_dir, dest, passphrase=passphrase, workers=workers))
        assert leftovers(dest) == []
        (brick_dir / "f").write_bytes(stored)
        cli_dest = tmp_path / f"cli-out{workers}"
        argv = ["unpack", str(brick_dir), str(cli_dest), "--workers", str(workers), *secret]
        capsys.readouterr()
        code = bounded(lambda: main(argv))
        err = capsys.readouterr().err.replace(str(cli_dest), "<dest>")
        assert leftovers(cli_dest) == []
        assert threading.active_count() == threads_before
        findings = [str(finding) for finding in report.findings]
        return findings, (raised.type, str(raised.value)), code, err, list(stage_starts)

    serial, pipelined = outcomes(1), outcomes(2)
    assert pipelined[:4] == serial[:4]
    # verify --deep and both unpacks wrote the file beside its reader.
    assert serial[4] == [] and pipelined[4] == [WRITER] * 3
    findings, raised, code, err, _ = serial
    if failure == "write":
        assert findings == []
        assert raised == (OSError, str(OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))))
        assert code == EXIT_IO
    else:
        expected = {
            "inflate": KIND_DECODE, "passphrase": KIND_DECODE, "cut": KIND_PAYLOAD_DIGEST
        }[failure]
        assert len(findings) == 1 and findings[0].startswith(f"{expected}: f: ")
        assert raised == (IntegrityError, findings[0])
        assert code == 1 and findings[0] in err


def test_only_large_deflate_payloads_start_decode_threads(tmp_path, monkeypatch, stage_starts):
    chunk = payload.CHUNK_BYTES
    real_read, real_write, sizes = os.read, os.write, []

    def read(fd, count):
        data = real_read(fd, count)
        sizes.append(len(data))
        return data

    def write(fd, data):
        sizes.append(len(data))
        return real_write(fd, data)

    monkeypatch.setattr(os, "read", read)
    monkeypatch.setattr(os, "write", write)
    source = tmp_path / "src"
    source.mkdir()
    (source / "big").write_bytes(nibbles(2 * chunk, 13))
    (source / "small").write_bytes(nibbles(chunk // 2, 14))
    for chain in CHAINS:
        brick_dir = tmp_path / ",".join(chain)
        entries = do_pack(source, brick_dir, chain).manifest.entries
        large = [entry.path for entry in entries if entry.payload_size >= chunk]
        assert large == ["big"]
        passphrase = passphrase_for(chain)
        for workers in (1, 2):
            stage_starts.clear()
            sizes.clear()
            assert verify(brick_dir, deep=True, passphrase=passphrase, workers=workers).ok
            unpack(brick_dir, tmp_path / f"out-{brick_dir.name}-{workers}", passphrase=passphrase,
                   workers=workers)
            pipelined = "deflate" in chain and workers > 1
            # Once for verify --deep and once for unpack, and only for the large payload.
            assert stage_starts == [WRITER] * 2 * pipelined, (chain, workers)
            # One thread and the stages alike read and write in pieces.
            assert max(sizes) == chunk, (chain, workers)
            assert read_tree(tmp_path / f"out-{brick_dir.name}-{workers}") == read_tree(source)
    # A shallow verify decodes nothing; it hashes the one large payload beside its reader.
    stage_starts.clear()
    assert verify(tmp_path / "deflate", workers=2).ok
    assert stage_starts == [HASHER]


@pytest.mark.parametrize("chunk_bytes", [None, 4096], ids=["chunk1M", "chunk4K"])
@pytest.mark.parametrize("chain", CHAINS, ids=CHAIN_IDS)
def test_no_read_or_write_exceeds_one_piece(tmp_path, monkeypatch, chain, chunk_bytes):
    if chunk_bytes is not None:
        monkeypatch.setattr(payload, "CHUNK_BYTES", chunk_bytes)
    piece = payload.CHUNK_BYTES
    real_read, real_write, reads, writes = os.read, os.write, [], []

    def read(fd, count):
        reads.append(count)
        return real_read(fd, count)

    def write(fd, data):
        writes.append(len(data))
        return real_write(fd, data)

    monkeypatch.setattr(os, "read", read)
    monkeypatch.setattr(os, "write", write)
    source = tmp_path / "src"
    source.mkdir()
    (source / "large").write_bytes(nibbles(3 * payload.CHUNK_BYTES, 16))
    (source / "small").write_bytes(nibbles(piece // 2, 17))
    passphrase = passphrase_for(chain)
    for workers in (1, 2):
        brick_dir = tmp_path / f"brick{workers}"
        reads.clear()
        pack(
            source, brick_dir, codec_chain=chain, passphrase=passphrase,
            kdf_iterations=FAST_KDF_ITERATIONS, workers=workers,
        )
        assert max(reads) == piece, ("pack", workers)
        for name, operation in (
            ("verify --deep", lambda: verify(brick_dir, True, passphrase, workers)),
            ("unpack", lambda: unpack(brick_dir, tmp_path / f"out{workers}", passphrase, workers)),
        ):
            reads.clear()
            writes.clear()
            operation()
            assert max(reads + writes) == piece, (name, workers)
        assert read_tree(tmp_path / f"out{workers}") == read_tree(source)


def test_an_earlier_write_failure_is_raised_ahead_of_a_later_read_failure(tmp_path, monkeypatch):
    source = tmp_path / "src"
    source.mkdir()
    (source / "f").write_bytes(nibbles(4 * payload.CHUNK_BYTES, 15))
    brick_dir = tmp_path / "brick"
    entry = do_pack(source, brick_dir, ("deflate",)).manifest.entries[0]
    wrote = threading.Event()
    real_read, reads = os.read, []

    def write(data):
        wrote.set()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def read(fd, count):
        reads.append(count)
        if len(reads) == 3:  # fails only once the first write has failed
            assert wrote.wait(10)
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return real_read(fd, count)

    monkeypatch.setattr(os, "read", read)
    for threads in (1, 2):
        reads.clear()
        wrote.clear()
        fd = os.open(brick_dir / "f", os.O_RDONLY)
        try:
            with pytest.raises(OSError) as raised:
                bounded(lambda: payload.decode_file(
                    fd, entry.payload_size, ("deflate",), None, entry.plain_size, write, threads
                ))
        finally:
            os.close(fd)
        assert raised.value.errno == errno.ENOSPC, threads


def test_a_writer_that_fails_to_start_leaves_no_thread_and_writes_nothing(tmp_path, monkeypatch):
    source = tmp_path / "src"
    source.mkdir()
    (source / "f").write_bytes(nibbles(4 * payload.CHUNK_BYTES, 18))
    brick_dir = tmp_path / "brick"
    entry = do_pack(source, brick_dir, ("deflate",)).manifest.entries[0]
    real_start = threading.Thread.start

    def start(thread):
        if thread.name == WRITER:
            raise RuntimeError("can't start new thread")
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    threads_before = threading.active_count()
    written = []
    fd = os.open(brick_dir / "f", os.O_RDONLY)
    try:
        with pytest.raises(RuntimeError, match="can't start new thread"):
            bounded(lambda: payload.decode_file(
                fd, entry.payload_size, ("deflate",), None, entry.plain_size, written.append, 2
            ))
    finally:
        os.close(fd)
    assert threading.active_count() == threads_before
    assert written == []


@pytest.mark.parametrize("threads", [1, 2])
def test_inflate_runs_on_the_thread_that_decodes(tmp_path, monkeypatch, stage_starts, threads):
    source = tmp_path / "src"
    source.mkdir()
    (source / "f").write_bytes(nibbles(4 * payload.CHUNK_BYTES, 19))
    chain = ("deflate", "aes-256-gcm")
    brick_dir = tmp_path / "brick"
    result = do_pack(source, brick_dir, chain)
    entry = result.manifest.entries[0]
    key = payload.derive_key(PASSPHRASE, result.manifest.kdf)
    fed_on = []
    real_feed = payload._Inflate.feed

    def feed(self, data):
        fed_on.append(threading.get_ident())
        return real_feed(self, data)

    monkeypatch.setattr(payload._Inflate, "feed", feed)
    decoded, written = decode_with(
        brick_dir / "f", entry.payload_size, chain, key, entry.plain_size, threads
    )
    assert (decoded.error, decoded.plain_sha256) == (None, entry.plain_sha256)
    assert written == (source / "f").read_bytes()
    assert len(fed_on) > 1 and set(fed_on) == {threading.get_ident()}
    assert stage_starts == [WRITER] * (threads > 1)


def test_a_small_encrypted_payload_decrypts_into_a_small_buffer(tmp_path):
    source = tmp_path / "src"
    source.mkdir()
    (source / "f").write_bytes(nibbles(1000 - payload.NONCE_BYTES - payload.TAG_BYTES, 21))
    chain = ("aes-256-gcm",)
    brick_dir = tmp_path / "brick"
    result = do_pack(source, brick_dir, chain)
    entry = result.manifest.entries[0]
    assert entry.payload_size == 1000
    key = payload.derive_key(PASSPHRASE, result.manifest.kdf)
    fd = os.open(brick_dir / "f", os.O_RDONLY)
    tracemalloc.start()
    try:
        decoded = payload.decode_file(fd, 1000, chain, key, entry.plain_size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        os.close(fd)
    assert (decoded.error, decoded.plain_sha256) == (None, entry.plain_sha256)
    # The decrypt buffer is sized to the payload, not to a whole chunk.
    assert peak < payload.CHUNK_BYTES // 4


@pytest.mark.parametrize("threads", [1, 2])
def test_a_writer_that_copies_each_piece_gets_the_plain_bytes(tmp_path, threads):
    """A piece is valid until write() returns; under aes-256-gcm alone it is a reused buffer."""
    source = tmp_path / "src"
    source.mkdir()
    plain = nibbles(3 * payload.CHUNK_BYTES - 100, 22)
    (source / "f").write_bytes(plain)
    chain = ("aes-256-gcm",)
    brick_dir = tmp_path / "brick"
    result = do_pack(source, brick_dir, chain)
    entry = result.manifest.entries[0]
    key = payload.derive_key(PASSPHRASE, result.manifest.kdf)
    kept = []
    fd = os.open(brick_dir / "f", os.O_RDONLY)
    try:
        decoded = payload.decode_file(
            fd, entry.payload_size, chain, key, entry.plain_size,
            lambda piece: kept.append(bytes(piece)), threads,
        )
    finally:
        os.close(fd)
    assert len([piece for piece in kept if piece]) == 3
    assert b"".join(kept) == plain
    assert decoded == (
        entry.payload_size, entry.payload_sha256, len(plain), hashlib.sha256(plain).hexdigest(),
        None,
    )


def test_many_pipelines_at_once_on_a_busy_interpreter(tmp_path, monkeypatch, stage_starts):
    # Reads of 4 KiB let every 64 KiB file take a helper; four workers
    # on fewer cores, switching threads every few microseconds.
    monkeypatch.setattr(payload, "CHUNK_BYTES", 4096)
    source = tmp_path / "src"
    source.mkdir()
    for index in range(8):
        (source / f"f{index}").write_bytes(nibbles(64 << 10, 20 + index))
    brick_dir = tmp_path / "brick"
    chain = ("deflate", "aes-256-gcm")
    result = do_pack(source, brick_dir, chain)
    key = payload.derive_key(PASSPHRASE, result.manifest.kdf)
    stored = (brick_dir / "f5").read_bytes()

    def decode(entry):
        return decode_with(
            brick_dir / entry.path, entry.payload_size, chain, key, entry.plain_size, 2
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(3):
            bounded(lambda: unpack(brick_dir, tmp_path / f"out{round_}", PASSPHRASE, workers=4))
            assert read_tree(tmp_path / f"out{round_}") == read_tree(source)
            assert bounded(lambda: verify(brick_dir, workers=4)).ok
        # Eight payloads, each read with a helper, all at once.
        stage_starts.clear()
        with ThreadPoolExecutor(max_workers=8) as pool:
            decoded = bounded(lambda: list(pool.map(decode, result.manifest.entries)))
        assert stage_starts == [WRITER] * 8
        for entry, (outcome, written) in zip(result.manifest.entries, decoded):
            assert outcome.plain_sha256 == entry.plain_sha256 and outcome.error is None
            assert written == (source / entry.path).read_bytes()
        middle = len(stored) // 2
        reseal(brick_dir, "f5", stored[:middle] + bytes([stored[middle] ^ 1]) + stored[middle + 1 :])
        report = bounded(lambda: verify(brick_dir, deep=True, passphrase=PASSPHRASE, workers=4))
    finally:
        sys.setswitchinterval(interval)
    assert kinds(report) == [("f5", KIND_DECODE)]


def test_an_inflated_payload_never_piles_up_in_memory(tmp_path, monkeypatch, stage_starts):
    # A read of 64 KiB lets the 70 KB deflate payload of 64 MiB of zeros take the stages.
    monkeypatch.setattr(payload, "CHUNK_BYTES", 64 << 10)
    piece = payload.CHUNK_BYTES
    source = tmp_path / "src"
    source.mkdir()
    with open(source / "f", "wb") as handle:
        handle.truncate(64 << 20)
    brick_dir = tmp_path / "brick"
    do_pack(source, brick_dir, ("deflate",))
    assert (brick_dir / "f").stat().st_size >= payload.CHUNK_BYTES
    tracemalloc.start()
    try:
        unpack(brick_dir, tmp_path / "out", workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stage_starts == [WRITER]
    # The hand-offs, the piece each stage holds and zlib's window: a few pieces, not 64 MiB.
    assert peak < 12 * piece
    assert (tmp_path / "out" / "f").stat().st_size == 64 << 20
    # Inflating in the stages still stops one byte past the size the manifest lists.
    reseal(brick_dir, "f", (brick_dir / "f").read_bytes(), plain_size=1000)
    report = verify(brick_dir, deep=True, workers=2)
    assert [(f.kind, f.detail) for f in report.findings] == [
        (KIND_PLAIN_SIZE, "decoded to more than the 1000 bytes the manifest says")
    ]
    with pytest.raises(IntegrityError, match="more than the 1000 bytes"):
        unpack(brick_dir, tmp_path / "bomb", workers=2)
    assert leftovers(tmp_path / "bomb") == []
    assert stage_starts == [WRITER] * 3


# ---------- pack encrypts into one reused buffer ----------

def watch_encrypt_buffers(monkeypatch) -> list[int]:
    """Record, from here on, the room each update_into call of pack's encryptor is given."""
    rooms = []
    real_cipher = payload._cryptography().Cipher

    class Encryptor:
        def __init__(self, encryptor):
            self._encryptor = encryptor
            self.finalize = encryptor.finalize

        def update_into(self, data, buffer):
            rooms.append(len(buffer))
            return self._encryptor.update_into(data, buffer)

        @property
        def tag(self):
            return self._encryptor.tag

    class Spy:
        def __init__(self, *args):
            self._cipher = real_cipher(*args)

        def encryptor(self):
            return Encryptor(self._cipher.encryptor())

    monkeypatch.setattr(payload._cryptography(), "Cipher", Spy)
    return rooms


@pytest.mark.parametrize("workers", [1, 2])
def test_a_deflate_block_larger_than_a_chunk_grows_the_encrypt_buffer(
    tmp_path, monkeypatch, workers
):
    source = tmp_path / "src"
    source.mkdir()
    # A block of noise comes out of deflate a little larger than it went in.
    text = words(payload.CHUNK_BYTES, 31)
    noise = hashlib.shake_256(b"final block").digest(payload.CHUNK_BYTES)
    plain = text + noise
    (source / "f").write_bytes(plain)
    assert len(payload._deflate_block(noise, text[-PIECE:], True)) > payload.CHUNK_BYTES
    rooms = watch_encrypt_buffers(monkeypatch)
    brick_dir = tmp_path / "brick"
    chain = ("deflate", "aes-256-gcm")
    pack(
        source, brick_dir, codec_chain=chain, passphrase=PASSPHRASE,
        kdf_iterations=FAST_KDF_ITERATIONS, workers=workers,
    )
    monkeypatch.undo()
    # One buffer for the first block's output, one grown for the second's.
    assert len(rooms) == 2
    assert rooms[0] < payload.CHUNK_BYTES + 15 < rooms[1]
    assert verify(brick_dir, deep=True, passphrase=PASSPHRASE).ok
    unpack(brick_dir, tmp_path / "out", passphrase=PASSPHRASE)
    assert (tmp_path / "out" / "f").read_bytes() == plain


def test_a_small_file_encrypts_into_a_small_buffer(tmp_path):
    path = tmp_path / "f"
    path.write_bytes(nibbles(1000, 32))
    written = []
    fd = os.open(path, os.O_RDONLY)
    tracemalloc.start()
    try:
        encoded = payload.encode_file(fd, 1000, written.append, ("aes-256-gcm",), bytes(32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        os.close(fd)
    assert encoded.payload_size == 1000 + payload.NONCE_BYTES + payload.TAG_BYTES
    # The encrypt buffer is sized to the pieces, not to a whole chunk.
    assert peak < payload.CHUNK_BYTES // 4


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chain", [("aes-256-gcm",), ("deflate", "aes-256-gcm")], ids=str)
def test_a_writer_that_copies_each_piece_gets_the_packed_payload(
    tmp_path, monkeypatch, chain, workers
):
    """A piece is valid until write() returns; under aes-256-gcm it is a reused buffer."""
    source = tmp_path / "src"
    source.mkdir()
    noise = hashlib.shake_256(b"middle block").digest(payload.CHUNK_BYTES)
    plain = words(payload.CHUNK_BYTES, 33) + noise + nibbles(payload.CHUNK_BYTES - 100, 34)
    (source / "f").write_bytes(plain)
    # The same salt and nonce for both encodings, so their bytes can be compared.
    monkeypatch.setattr(os, "urandom", lambda size: bytes(range(size)))
    result = pack(
        source, tmp_path / "brick", codec_chain=chain, passphrase=PASSPHRASE,
        kdf_iterations=FAST_KDF_ITERATIONS, workers=workers,
    )
    key = payload.derive_key(PASSPHRASE, result.manifest.kdf)
    kept = []
    fd = os.open(source / "f", os.O_RDONLY)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            encoded = payload.encode_file(
                fd, len(plain), lambda piece: kept.append(bytes(piece)), chain, key,
                pool if workers > 1 else None, workers,
            )
    finally:
        os.close(fd)
    monkeypatch.undo()
    assert len(kept) == 5  # the nonce, three pieces and the tag
    assert b"".join(kept) == (tmp_path / "brick" / "f").read_bytes()
    entry = result.manifest.entries[0]
    assert encoded == (
        entry.plain_size, entry.plain_sha256, entry.payload_size, entry.payload_sha256
    )
