"""Per-file payload transforms: compression, encryption, digests.

A payload is the stored form of one file, produced by applying the brick's
codec chain in order. Chains always place encryption last, so the ciphertext
layout is uniform: 12-byte random nonce, then ciphertext with the 16-byte
GCM tag appended.

Both directions stream: a file is read once, in pieces of at most
min(CHUNK_BYTES, DEFLATE_BLOCK_BYTES), and every digest and codec is fed
from that one read, so memory stays flat whatever the file size. Inflate
output comes in pieces of the same bound. An encrypted payload is read as
its three parts in turn: the nonce, the ciphertext, then the tag.

Deflate runs in blocks of DEFLATE_BLOCK_BYTES, in the manner of pigz: each
block is primed with the 32 KiB of input before it and ends with a sync
flush, the last with the stream's end. The blocks join into one ordinary
raw deflate stream, so a v1 reader inflates it as it always has, while the
blocks of one file can be deflated on several threads at once. A file of
at most one block is deflated exactly as one zlib stream of the whole file.

A v1 stream cannot itself be inflated in parallel, so decode overlaps its
stages instead, as pigz does when it decompresses. Given more than one
thread, a deflate payload of at least CHUNK_BYTES is inflated on a thread
of its own, and its plain bytes are hashed and written on a third, while
the calling thread reads, hashes and decrypts the payload. The stages hand
each other their pieces through one-piece hand-offs, so memory stays flat
here too. With one thread, every stage runs on the calling thread, on the
same pieces.
"""

from __future__ import annotations

import collections
import hashlib
import os
import queue
import threading
import zlib
from concurrent.futures import Executor, Future
from typing import Callable, Iterator, NamedTuple

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.kdf.pbkdf2 import PBKDF2HMAC

from .errors import ConfigError
from .manifest import CODEC_DEFLATE, CODEC_NONE, SALT_BYTES, KdfParams, is_encrypted

KEY_BYTES = 32
NONCE_BYTES = 12
TAG_BYTES = 16
DEFLATE_LEVEL = 6

# A file of this size and up gets threads: a pooled entry, decode stages. It also caps the piece.
CHUNK_BYTES = 1 << 20

# Deflate's unit of parallel work. Each block in flight holds its input and
# its output, so this size, not CHUNK_BYTES, sets pack's memory per thread.
DEFLATE_BLOCK_BYTES = 256 << 10
_DEFLATE_WINDOW = 32 << 10

# GCM encrypts at most 2^39 - 256 bits under one nonce (NIST SP 800-38D).
GCM_MAX_BYTES = 2**36 - 32

# Fixed test vector; refuse to run if the hash primitive is miscompiled.
_SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
_SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def self_test() -> None:
    if hashlib.sha256(b"abc").hexdigest() != _SHA256_ABC:
        raise RuntimeError("sha256 known-answer test failed; refusing to run")


self_test()


def derive_key(passphrase: str, kdf: KdfParams) -> bytes:
    """Stretch a passphrase into the 32-byte content key."""
    return PBKDF2HMAC(
        algorithm=hashes.SHA256(),
        length=KEY_BYTES,
        salt=kdf.salt,
        iterations=kdf.iterations,
    ).derive(passphrase.encode("utf-8"))


def new_salt() -> bytes:
    return os.urandom(SALT_BYTES)


class _Sink:
    """Counts bytes, hashes them unless told not to, then hands them to `write` if there is one.

    With a limit, the bytes that pass it set `overflow` and go no further.
    Without a hash the caller's payload digest already covers these bytes.
    """

    def __init__(
        self,
        write: Callable[[bytes], object] | None = None,
        hashed: bool = True,
        limit: int | None = None,
    ) -> None:
        self.size = 0
        self.hash = hashlib.sha256() if hashed else None
        self.limit = limit
        self.overflow = False
        self._write = write

    def feed(self, data: bytes) -> None:
        self.size += len(data)
        if self.limit is not None and self.size > self.limit:
            self.overflow = True
            return
        if self.hash is not None:
            self.hash.update(data)
        if self._write is not None:
            self._write(data)


def _read_chunks(fd: int, size: int, sink: _Sink) -> Iterator[bytes]:
    """Yield the next `size` bytes of fd in reads of at most one piece, each fed to sink first.

    The piece, min(CHUNK_BYTES, DEFLATE_BLOCK_BYTES), is looked up on each
    call. Stops early if the file ends first; the caller's digests then show it.
    """
    most = min(CHUNK_BYTES, DEFLATE_BLOCK_BYTES)
    left = size
    while left > 0:
        chunk = os.read(fd, min(most, left))
        if not chunk:
            return
        left -= len(chunk)
        sink.feed(chunk)
        yield chunk


# ---------- encode ----------

class Encoded(NamedTuple):
    """Sizes and digests of one packed file, in ChunkEntry's field order."""

    plain_size: int
    plain_sha256: str
    payload_size: int
    payload_sha256: str


def _deflate_block(block: bytes, primer: bytes, final: bool) -> bytes:
    """Raw deflate of one block, primed with the input just before it.

    A block that is not final ends with a sync flush, on a byte boundary,
    so the next block's output can follow it directly.
    """
    compressor = zlib.compressobj(DEFLATE_LEVEL, zlib.DEFLATED, -zlib.MAX_WBITS, zdict=primer)
    end = zlib.Z_FINISH if final else zlib.Z_SYNC_FLUSH
    return compressor.compress(block) + compressor.flush(end)


def _blocks(fd: int, size: int, plain: _Sink) -> Iterator[tuple[bytes, bytes, bool]]:
    """Yield (block, primer, final) over the next `size` bytes of fd, in DEFLATE_BLOCK_BYTES blocks.

    The primer is the last 32 KiB of the block before, empty for the first.
    A block that comes up short ends the file and is final, as is the last
    one `size` promised; there is always at least one.
    """
    left = size
    primer = b""
    while True:
        want = min(DEFLATE_BLOCK_BYTES, left)
        block = b"".join(_read_chunks(fd, want, plain))
        left -= len(block)
        final = left == 0 or len(block) < want
        yield block, primer, final
        if final:
            return
        primer = block[-_DEFLATE_WINDOW:]


def encode_file(
    fd: int,
    size: int,
    write: Callable[[bytes], object],
    chain: tuple[str, ...],
    key: bytes | None,
    pool: Executor | None = None,
    threads: int = 1,
) -> Encoded:
    """Stream `size` bytes of fd through the codec chain into write().

    Under codec none the payload is the input itself, so one digest serves
    both. Deflate works block by block: every block but the last goes to
    `pool`, whose `threads` threads deflate it, or runs here if there is no
    pool, and at most threads + 1 blocks are in flight. This thread reads
    and hashes the input, and encrypts, hashes and writes the output in
    block order. The payload bytes depend only on the input, never on the
    pool or the read size. If anything here fails, blocks not yet started
    are cancelled.
    """
    out = _Sink(write)
    if chain == (CODEC_NONE,):
        for _ in _read_chunks(fd, size, out):
            pass
        digest = out.hash.hexdigest()
        return Encoded(out.size, digest, out.size, digest)
    encryptor = None
    if is_encrypted(chain):
        if key is None:
            raise ValueError("codec chain encrypts but no key was derived")
        nonce = os.urandom(NONCE_BYTES)
        encryptor = Cipher(algorithms.AES(key), modes.GCM(nonce)).encryptor()
        out.feed(nonce)

    def seal(data: bytes) -> None:
        if encryptor is not None:
            if out.size - NONCE_BYTES + len(data) > GCM_MAX_BYTES:
                raise ConfigError(
                    f"ciphertext over {GCM_MAX_BYTES:,} bytes exceeds AES-GCM's single-nonce limit"
                )
            data = encryptor.update(data)
        out.feed(data)

    plain = _Sink()
    if CODEC_DEFLATE in chain:
        pending: collections.deque[Future] = collections.deque()
        try:
            for block, primer, final in _blocks(fd, size, plain):
                # With no pool, or for the last block, this thread would only wait.
                if pool is None or final:
                    deflated = _deflate_block(block, primer, final)
                    while pending:
                        seal(pending.popleft().result())
                    seal(deflated)
                    continue
                pending.append(pool.submit(_deflate_block, block, primer, final))
                if len(pending) > threads:
                    seal(pending.popleft().result())
        finally:
            for future in pending:
                future.cancel()
    else:
        for chunk in _read_chunks(fd, size, plain):
            seal(chunk)
    if encryptor is not None:
        out.feed(encryptor.finalize() + encryptor.tag)
    return Encoded(plain.size, plain.hash.hexdigest(), out.size, out.hash.hexdigest())


# ---------- decode ----------

class Decoded(NamedTuple):
    """What one read of a payload showed; the caller ranks the findings.

    plain_size is exact unless overflow is set, in which case decoding
    stopped as soon as the output passed the expected size, plain_size is
    one more than that size and plain_sha256 is the digest of no bytes. A
    shallow read decodes nothing: plain_size is 0 and plain_sha256 the
    digest of no bytes.
    """

    payload_size: int
    payload_sha256: str
    plain_size: int
    plain_sha256: str
    error: str | None
    overflow: bool


class _Inflate:
    """Deflate decoding stage.

    Each output is bounded by one piece, min(CHUNK_BYTES, DEFLATE_BLOCK_BYTES),
    and by one byte past the expected size, so a forged stream cannot make it
    allocate or work without limit.
    """

    def __init__(self, plain: _Sink) -> None:
        self._decompressor = zlib.decompressobj(-zlib.MAX_WBITS)
        self._plain = plain
        self.error: str | None = None

    def feed(self, data: bytes) -> None:
        z = self._decompressor
        plain = self._plain
        try:
            while self.error is None and not plain.overflow:
                room = min(CHUNK_BYTES, DEFLATE_BLOCK_BYTES, plain.limit + 1 - plain.size)
                out = z.decompress(data, room)
                if z.unused_data:
                    self.error = "data after the end of the deflate stream"
                    return
                plain.feed(out)
                data = z.unconsumed_tail
                if z.eof or (not data and len(out) < room):
                    return
        except zlib.error as exc:
            self.error = f"deflate stream corrupt: {exc}"

    def finish(self) -> None:
        if self.error is None and not self._plain.overflow and not self._decompressor.eof:
            self.error = "deflate stream is truncated"


class _Stage:
    """One decode stage on a thread of its own, fed pieces through a one-piece hand-off.

    The thread starts when the stage is built; close() ends it. work() gets
    each piece in order. Once it raises, the stage keeps taking pieces and
    drops them, so the stage feeding it never blocks; `failure` holds the
    exception, and put() raises it to tell that stage to stop.
    """

    def __init__(self, name: str, work: Callable[[bytes], object]) -> None:
        self.failure: BaseException | None = None
        self._work = work
        self._pieces: queue.Queue[bytes | None] = queue.Queue(maxsize=1)
        # A daemon, so that an interrupt during close() cannot keep the process alive.
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while (piece := self._pieces.get()) is not None:
            if self.failure is None:
                try:
                    self._work(piece)
                except BaseException as exc:
                    self.failure = exc

    def put(self, piece: bytes) -> None:
        if self.failure is not None:
            raise self.failure
        self._pieces.put(piece)

    def close(self) -> None:
        """Wait until the stage has worked through every piece put to it, then end its thread."""
        self._pieces.put(None)
        self._thread.join()


def _decrypt(
    fd: int, size: int, key: bytes, payload: _Sink, feed: Callable[[bytes], None]
) -> str | None:
    """Read an AES-256-GCM payload as its nonce, ciphertext and tag, handing feed() the plaintext.

    The ciphertext is read, and fed on, a piece at a time. Returns the
    GCM error, if any. A payload declared too short for nonce and tag is
    left unread; one that ends early is read up to its end.
    """
    if size < NONCE_BYTES + TAG_BYTES:
        return "ciphertext shorter than nonce plus tag"
    nonce = b"".join(_read_chunks(fd, NONCE_BYTES, payload))
    if len(nonce) < NONCE_BYTES:
        return "payload ended before its tag"
    decryptor = Cipher(algorithms.AES(key), modes.GCM(nonce)).decryptor()
    for chunk in _read_chunks(fd, size - NONCE_BYTES - TAG_BYTES, payload):
        feed(decryptor.update(chunk))
    tag = b"".join(_read_chunks(fd, TAG_BYTES, payload))
    if len(tag) < TAG_BYTES:
        return "payload ended before its tag"
    try:
        feed(decryptor.finalize_with_tag(tag))
    except InvalidTag:
        return "authentication failed: wrong passphrase or corrupt payload"
    return None


def decode_file(
    fd: int,
    size: int,
    chain: tuple[str, ...] | None,
    key: bytes | None,
    plain_limit: int = 0,
    write: Callable[[bytes], object] | None = None,
    threads: int = 1,
) -> Decoded:
    """Read `size` bytes of fd once: hash them and, unless chain is None, decode them.

    Decoded bytes go to write() as they appear, before the tag and the
    digests are checked; the caller must not trust them until it has read
    the result. A GCM error is reported ahead of a deflate error, because
    deflate saw unauthenticated bytes.

    With threads > 1, a deflate payload of at least CHUNK_BYTES is decoded
    in three stages: this thread reads, hashes and decrypts it (AES-GCM
    holds the GIL, so a thread of its own would not help), one thread
    inflates it, and another hashes and writes the plain bytes. Each stage's
    thread starts as the stage is built, and every stage built has ended
    before this returns or raises, even if the other failed to build. An
    exception in a later stage is raised ahead of one in an earlier stage,
    since it comes from earlier in the stream. The result is the same as
    with one thread.
    """
    payload = _Sink()
    plain = out = None
    error = None
    if chain is not None:
        encrypted = is_encrypted(chain)
        if encrypted and key is None:
            raise ValueError("codec chain encrypts but no key was derived")
        # Under codec none the plaintext is the payload: one digest serves both.
        # `out` hashes and writes the plain bytes, `plain` counts them; on
        # one thread they are the same sink.
        plain = out = _Sink(write, hashed=chain != (CODEC_NONE,), limit=plain_limit)
        stages: list[_Stage] = []
        try:
            if CODEC_DEFLATE in chain and threads > 1 and size >= CHUNK_BYTES:
                stages.append(_Stage("brick-write", out.feed))
                # The inflating thread counts the plain bytes and stops at the limit.
                plain = _Sink(stages[0].put, hashed=False, limit=plain_limit)
            inflate = _Inflate(plain) if CODEC_DEFLATE in chain else None
            feed = inflate.feed if inflate is not None else plain.feed
            if stages:
                stages.insert(0, _Stage("brick-inflate", feed))
                feed = stages[0].put
            if encrypted:
                error = _decrypt(fd, size, key, payload, feed)
            else:
                for chunk in _read_chunks(fd, size, payload):
                    feed(chunk)
        finally:
            for stage in stages:
                stage.close()
            for stage in reversed(stages):
                if stage.failure is not None:
                    raise stage.failure
        if inflate is not None:
            inflate.finish()
            error = error or inflate.error
    for _ in _read_chunks(fd, size - payload.size, payload):
        pass  # a shallow read, or the rest of a payload too short for nonce and tag
    payload_sha256 = payload.hash.hexdigest()
    if plain is None:
        return Decoded(payload.size, payload_sha256, 0, _SHA256_EMPTY, None, False)
    if plain.overflow:
        plain_sha256 = _SHA256_EMPTY  # only a prefix was hashed, cut where a piece ended
    elif out.hash is not None:
        plain_sha256 = out.hash.hexdigest()
    else:
        plain_sha256 = payload_sha256
    return Decoded(payload.size, payload_sha256, plain.size, plain_sha256, error, plain.overflow)
