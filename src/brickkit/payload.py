"""Per-file payload transforms: compression, encryption, digests.

A payload is the stored form of one file, produced by applying the brick's
codec chain in order. Chains always place encryption last, so the ciphertext
layout is uniform: 12-byte random nonce, then ciphertext with the 16-byte
GCM tag appended.

Both directions stream: a file is read once, in pieces of at most
CHUNK_BYTES, and every digest and codec is fed from that one read, so
memory stays flat whatever the file size. Inflate output comes in pieces
of the same bound. An encrypted payload is read as its three parts in
turn: the nonce, the ciphertext, then the tag.

Deflate runs in blocks of CHUNK_BYTES, in the manner of pigz: each block
is primed with the 32 KiB of input before it and ends on a byte boundary,
the last with the stream's end. The blocks join into one ordinary raw
deflate stream, so a v1 reader inflates it as it always has, while the
blocks of one file can be deflated on several threads at once. Within a
block, each 32 KiB piece is probed first: deflate tries its first 4 KiB.
A piece whose probe does not shrink is stored, so data that is compressed
already costs a probe per piece. A piece whose probe Huffman coding alone
(Z_HUFFMAN_ONLY) codes in no more bytes than LZ77 matching is coded
Huffman-only, which is faster and smaller on high-entropy text over a small
alphabet. Anything else starts an ordinary deflate of the rest of the
block. A file of at most one block whose start favours matching is
deflated exactly as one zlib stream of the whole file. Only a block's first
probe is sized on a copy of its compressor, which that deflate may go on
with; a later probe's compressor is flushed itself, and the piece deflated
again from a fresh one if it comes to that.

A v1 stream cannot itself be inflated in parallel, so decode overlaps its
stages instead, as pigz does when it decompresses. brick gives a read a
second thread only if its even share of the `--workers` budget is two
threads or more, and a payload of at least CHUNK_BYTES given one gets one
helper on it, beside the calling thread that reads the payload. In a
shallow read, the helper hashes the payload pieces the caller reads; in a
deep read under deflate, it hashes and writes the plain bytes while the
caller hashes, decrypts and inflates the payload. The two hand each other pieces
through a one-piece hand-off, so memory stays flat here too. With one
thread, every step runs on the calling thread, on the same pieces.
Decryption writes every piece of a payload into one reused buffer. That is
safe because a decrypted piece never leaves the calling thread: it is
inflated, or written, before the next piece is read. Encryption does the
same, into a buffer grown for a deflate block that comes out larger.

cryptography is imported the first time a chain encrypts or decrypts, by
_cryptography(): a run of any other chain, or a shallow verify, never
loads it.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import os
import queue
import struct
import threading
import zlib
from concurrent.futures import Executor, Future
from types import SimpleNamespace
from typing import Callable, Iterator, NamedTuple

from .errors import ConfigError
from .manifest import CODEC_DEFLATE, CODEC_NONE, SALT_BYTES, KdfParams, is_encrypted

KEY_BYTES = 32
NONCE_BYTES = 12
TAG_BYTES = 16
DEFLATE_LEVEL = 6

# The codec's one size. It caps every read, deflate block, inflate output,
# decrypt buffer and hand-off, and a file of this size and up gets threads:
# a pooled entry and, in a pool with room for it, a decode helper. Each
# deflate block in flight holds its input and its output, so it also sets
# pack's memory per thread.
CHUNK_BYTES = 256 << 10
# Deflate's window: the primer of each block, and the pieces it is probed in.
_DEFLATE_WINDOW = 32 << 10
# The bytes at the start of each piece that decide whether it is deflated or stored.
_DEFLATE_PROBE = 4 << 10

# GCM encrypts at most 2^39 - 256 bits under one nonce (NIST SP 800-38D).
GCM_MAX_BYTES = 2**36 - 32

# Fixed test vector; refuse to run if the hash primitive is miscompiled.
_SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
_SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def self_test() -> None:
    if hashlib.sha256(b"abc").hexdigest() != _SHA256_ABC:
        raise RuntimeError("sha256 known-answer test failed; refusing to run")


self_test()


@functools.cache
def _cryptography() -> SimpleNamespace:
    """The names this module takes from cryptography, imported on the first call.

    Only an aes-256-gcm chain calls this, in derive_key, encode_file and
    _decrypt, so a run of any other chain, or a shallow verify, never loads
    cryptography: about 6 MB of peak RSS and 10 ms of import. AES and GCM
    are taken out of their modules here, once: cryptography's module
    wrapper resolves each attribute read in Python, about 1.8 µs apiece,
    which per payload was a tenth of verify --deep on 2,000 small files.
    """
    from cryptography.exceptions import InvalidTag
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
    from cryptography.hazmat.primitives.hashes import SHA256
    from cryptography.hazmat.primitives.kdf.pbkdf2 import PBKDF2HMAC

    return SimpleNamespace(
        AES=algorithms.AES, Cipher=Cipher, GCM=modes.GCM, InvalidTag=InvalidTag,
        PBKDF2HMAC=PBKDF2HMAC, SHA256=SHA256,
    )


def derive_key(passphrase: str, kdf: KdfParams) -> bytes:
    """Stretch a passphrase into the 32-byte content key."""
    crypto = _cryptography()
    return crypto.PBKDF2HMAC(
        algorithm=crypto.SHA256(),
        length=KEY_BYTES,
        salt=kdf.salt,
        iterations=kdf.iterations,
    ).derive(passphrase.encode("utf-8"))


def new_salt() -> bytes:
    return os.urandom(SALT_BYTES)


class _Sink:
    """Counts bytes, hashes them unless told not to, then hands them to `write` if there is one.

    It takes every byte it is fed: only _Inflate stops at a size. Without a
    hash the caller's payload digest already covers these bytes.
    """

    def __init__(self, write: Callable[[bytes], object] | None = None, hashed: bool = True) -> None:
        self.size = 0
        self.hash = hashlib.sha256() if hashed else None
        self._write = write

    def feed(self, data: bytes) -> None:
        self.size += len(data)
        if self.hash is not None:
            self.hash.update(data)
        if self._write is not None:
            self._write(data)


def _read_chunks(fd: int, size: int, sink: _Sink) -> Iterator[bytes]:
    """Yield the next `size` bytes of fd in reads of at most CHUNK_BYTES, each fed to sink first.

    A read may come back short; the next one asks for the rest. Stops early
    if the file ends first; the caller's digests then show it.
    """
    left = size
    while left > 0:
        chunk = os.read(fd, min(CHUNK_BYTES, left))
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

    The block is walked in pieces of _DEFLATE_WINDOW, and each piece gets
    one of three codings, chosen from its first _DEFLATE_PROBE bytes. The
    probe is deflated at DEFLATE_LEVEL and sync-flushed to show its size.
    The first piece's compressor is primed, and LZ77 may go on with it, so
    a copy of it is flushed; a later piece's compressor is fresh and is
    flushed itself, so LZ77 from there deflates the piece again from
    another fresh compressor, which gives the same bytes.

    - Stored, if the probe did not shrink: the probe is sync-flushed and
      the rest of the piece follows as one stored block (RFC 1951, 3.2.4).
      Data that does not shrink thus costs a probe per piece, and about 15
      bytes of framing.
    - Huffman-only, if the probe shrank but a fresh Z_HUFFMAN_ONLY
      compressor codes it, sync-flushed, in no more bytes: that compressor
      codes the whole piece. High-entropy text over a small alphabet (hex,
      base64, DNA) lands here; LZ77's short matches cost it more bits than
      the literals they replace, and the search costs most of the time.
    - LZ77, otherwise, or if the probe reaches the end of the block without
      shrinking: the compressor deflates the rest of the block, so a block
      whose start favours matching is deflated exactly as if it were fed
      whole.

    After a stored or Huffman-only piece the next piece is probed afresh.
    A piece ends with a sync flush, the last of a final block with the
    stream's end, so a block that is not final ends on a byte boundary and
    the next block's output can follow it directly.
    """
    end = zlib.Z_FINISH if final else zlib.Z_SYNC_FLUSH
    view = memoryview(block)
    out = []
    compressor = zlib.compressobj(DEFLATE_LEVEL, zlib.DEFLATED, -zlib.MAX_WBITS, zdict=primer)
    start = 0
    while True:
        probe = view[start : start + _DEFLATE_PROBE]
        probed = compressor.compress(probe)
        rest = view[start + len(probe) :]
        piece = rest[: _DEFLATE_WINDOW - len(probe)]
        last = start + _DEFLATE_WINDOW >= len(block)
        # Only the first piece's compressor is primed and worth going on
        # with, so only it is copied to be flushed.
        flushed = (compressor.copy() if start == 0 else compressor).flush(zlib.Z_SYNC_FLUSH)
        matched = len(probed) + len(flushed)
        shrank = matched < len(probe)
        if shrank:
            huffman = zlib.compressobj(
                DEFLATE_LEVEL, zlib.DEFLATED, -zlib.MAX_WBITS, 8, zlib.Z_HUFFMAN_ONLY
            )
            coded = huffman.compress(probe) + huffman.flush(zlib.Z_SYNC_FLUSH)
        # LZ77 deflates the rest of the block if Huffman coding does not beat
        # it on the probe, or if a probe that did not shrink ends the block.
        if shrank and len(coded) > matched or not (shrank or rest):
            if start:
                # The flush ended this compressor's block: deflate the probe again.
                compressor = zlib.compressobj(DEFLATE_LEVEL, zlib.DEFLATED, -zlib.MAX_WBITS)
                probed, rest = b"", view[start:]
            out += (probed, compressor.compress(rest), compressor.flush(end))
            return b"".join(out)
        if shrank:
            ending = end if last else zlib.Z_SYNC_FLUSH
            out += (coded, huffman.compress(piece), huffman.flush(ending))
        else:
            # A stored block's header: BFINAL with BTYPE 00, then LEN and NLEN.
            header = struct.pack("<BHH", final and last, len(piece), len(piece) ^ 0xFFFF)
            out += (probed, flushed, header, piece)
        if last:
            return b"".join(out)
        start += _DEFLATE_WINDOW
        compressor = zlib.compressobj(DEFLATE_LEVEL, zlib.DEFLATED, -zlib.MAX_WBITS)


def _blocks(fd: int, size: int, plain: _Sink) -> Iterator[tuple[bytes, bytes, bool]]:
    """Yield (block, primer, final) over the next `size` bytes of fd, in CHUNK_BYTES blocks.

    Short reads are joined until a block is whole, so the blocks, and the
    deflate bytes, never depend on how the reads come back. The primer is
    the last 32 KiB of the block before, empty for the first. A block that
    comes up short ends the file and is final, as is the last one `size`
    promised; there is always at least one.
    """
    left = size
    primer = b""
    while True:
        want = min(CHUNK_BYTES, left)
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

    A piece is valid only until write() returns: under aes-256-gcm it is a
    view of the buffer that the next piece is encrypted into, so a writer
    that keeps it must copy it.
    """
    out = _Sink(write)
    if chain == (CODEC_NONE,):
        for _ in _read_chunks(fd, size, out):
            pass
        digest = out.hash.hexdigest()
        return Encoded(out.size, digest, out.size, digest)
    encryptor = None
    if is_encrypted(chain):
        nonce = os.urandom(NONCE_BYTES)
        crypto = _cryptography()
        encryptor = crypto.Cipher(crypto.AES(key), crypto.GCM(nonce)).encryptor()
        out.feed(nonce)
    buffer = memoryview(bytearray())  # sized by the first piece, grown for a larger one

    def seal(data: bytes) -> None:
        nonlocal buffer
        if encryptor is not None:
            if out.size - NONCE_BYTES + len(data) > GCM_MAX_BYTES:
                raise ConfigError(
                    f"ciphertext over {GCM_MAX_BYTES:,} bytes exceeds AES-GCM's single-nonce limit"
                )
            # update_into asks for room past its input: one AES block less a
            # byte. A deflate block that does not shrink is over CHUNK_BYTES.
            if len(buffer) < len(data) + 15:
                buffer = memoryview(bytearray(len(data) + 15))
            data = buffer[: encryptor.update_into(data, buffer)]
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

    plain_size and plain_sha256 cover every plain byte decoded. Inflate
    stops one byte past the expected size, so a plain_size over that size
    means the payload decodes to more than it, and the digest is of a
    prefix. Under none and aes-256-gcm the plain bytes end where the
    payload ends. A shallow read decodes nothing: plain_size is 0 and
    plain_sha256 the digest of no bytes.
    """

    payload_size: int
    payload_sha256: str
    plain_size: int
    plain_sha256: str
    error: str | None


class _Inflate:
    """Deflate decoding stage, and the one place a read stops at the expected size.

    Each output is bounded by CHUNK_BYTES and by one byte past `limit`,
    the expected size, and once `plain` has passed it no more is inflated,
    so a forged stream cannot make it allocate or work without limit.
    """

    def __init__(self, plain: _Sink, limit: int) -> None:
        self._decompressor = zlib.decompressobj(-zlib.MAX_WBITS)
        self._plain = plain
        self._limit = limit
        self.error: str | None = None

    def feed(self, data: bytes) -> None:
        z = self._decompressor
        plain = self._plain
        try:
            while self.error is None and plain.size <= self._limit:
                room = min(CHUNK_BYTES, self._limit + 1 - plain.size)
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
        if self.error is None and self._plain.size <= self._limit and not self._decompressor.eof:
            self.error = "deflate stream is truncated"


class _Stage:
    """A decode helper: a thread of its own, fed pieces through a one-piece hand-off.

    The thread, named `name`, starts when the stage is built; close() ends
    it. work() gets each piece in order. Once it raises, the stage keeps
    taking pieces and drops them, so the thread feeding it never blocks;
    `failure` holds the exception, and put() raises it to tell that thread
    to stop. decode_file builds one only for a read that was given a
    second thread, which brick gives only if the read's even share of the
    `--workers` budget is two threads or more.
    """

    def __init__(self, work: Callable[[bytes], object], name: str) -> None:
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

    The ciphertext is read, and fed on, a piece at a time. Each piece is
    decrypted into one buffer, sized to the ciphertext up to CHUNK_BYTES and
    reused for the next, so feed() gets a view that is valid only until it
    returns. Returns the GCM error, if any. A payload declared too short for
    nonce and tag is left unread; one that ends early is read up to its end.
    """
    if size < NONCE_BYTES + TAG_BYTES:
        return "ciphertext shorter than nonce plus tag"
    nonce = b"".join(_read_chunks(fd, NONCE_BYTES, payload))
    if len(nonce) < NONCE_BYTES:
        return "payload ended before its tag"
    crypto = _cryptography()
    decryptor = crypto.Cipher(crypto.AES(key), crypto.GCM(nonce)).decryptor()
    ciphertext = size - NONCE_BYTES - TAG_BYTES
    # update_into asks for room past its input: one AES block less a byte.
    buffer = memoryview(bytearray(min(CHUNK_BYTES, ciphertext) + 15))
    for chunk in _read_chunks(fd, ciphertext, payload):
        feed(buffer[: decryptor.update_into(chunk, buffer)])
    tag = b"".join(_read_chunks(fd, TAG_BYTES, payload))
    if len(tag) < TAG_BYTES:
        return "payload ended before its tag"
    try:
        feed(decryptor.finalize_with_tag(tag))
    except crypto.InvalidTag:
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
    the result. A piece is valid only until write() returns: under
    aes-256-gcm alone it is a view of the buffer that the next piece is
    decrypted into, so a writer that keeps it must copy it. A GCM error is
    reported ahead of a deflate error, because deflate saw unauthenticated
    bytes. A chain that encrypts needs `key`; brick refuses to start
    without one.

    Inflate stops one byte past `plain_limit`, the expected plain size, so
    a deflate bomb costs no more than that. Under none and aes-256-gcm the
    plain bytes end where the payload ends, so they are all hashed and
    written, at most `size` of them.

    `threads` is how many threads this read may use. With more than one, a
    payload of at least CHUNK_BYTES, one piece, gets one helper thread. In
    a shallow read (chain None) the helper, brick-hash, takes the SHA-256
    of each piece this thread reads; os.read gives each piece fresh bytes,
    so none is copied. In a deep read under deflate the helper,
    brick-write, hashes and writes the plain bytes, while this thread
    reads, hashes, decrypts and inflates (so the decrypt buffer stays on
    one thread). A deep read of any other chain gets no helper. The helper
    has ended before this returns or raises. An exception in it is raised
    ahead of one here, since it comes from earlier in the stream. The
    result is the same as with one thread.
    """
    # `payload` counts the stored bytes and `digest` hashes them; on one
    # thread they are the same sink.
    payload = digest = _Sink()
    plain = out = inflate = None
    error = None
    helped = threads > 1 and size >= CHUNK_BYTES
    stage = None
    try:
        if chain is None:
            if helped:
                stage = _Stage(digest.hash.update, "brick-hash")
                payload = _Sink(stage.put, hashed=False)
        else:
            # Under codec none the plaintext is the payload: one digest serves both.
            # `out` hashes and writes the plain bytes, `plain` counts them; on
            # one thread they are the same sink.
            plain = out = _Sink(write, hashed=chain != (CODEC_NONE,))
            if CODEC_DEFLATE in chain and helped:
                stage = _Stage(out.feed, "brick-write")
                # This thread counts the plain bytes, for inflate to stop at the limit.
                plain = _Sink(stage.put, hashed=False)
            inflate = _Inflate(plain, plain_limit) if CODEC_DEFLATE in chain else None
            feed = inflate.feed if inflate is not None else plain.feed
            if is_encrypted(chain):
                error = _decrypt(fd, size, key, payload, feed)
            else:
                for chunk in _read_chunks(fd, size, payload):
                    feed(chunk)
        for _ in _read_chunks(fd, size - payload.size, payload):
            pass  # a shallow read, or the rest of a payload too short for nonce and tag
    finally:
        if stage is not None:
            stage.close()
            if stage.failure is not None:
                raise stage.failure
    payload_sha256 = digest.hash.hexdigest()
    if plain is None:
        return Decoded(payload.size, payload_sha256, 0, _SHA256_EMPTY, None)
    if inflate is not None:
        inflate.finish()
        error = error or inflate.error
    plain_sha256 = out.hash.hexdigest() if out.hash is not None else payload_sha256
    return Decoded(payload.size, payload_sha256, plain.size, plain_sha256, error)
