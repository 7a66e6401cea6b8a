"""Per-file payload transforms: compression, encryption, digests.

A payload is the stored form of one file, produced by applying the brick's
codec chain in order. Chains always place encryption last, so the ciphertext
layout is uniform: 12-byte random nonce, then ciphertext with the 16-byte
GCM tag appended.

Both directions stream: a file is read once, in reads of at most
CHUNK_BYTES, and every digest and codec is fed from that one read, so
memory stays flat whatever the file size.
"""

from __future__ import annotations

import hashlib
import os
import zlib
from typing import Callable, Iterator, NamedTuple

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.kdf.pbkdf2 import PBKDF2HMAC

from .errors import ConfigError
from .manifest import CODEC_DEFLATE, CODEC_NONE, KdfParams, is_encrypted

KEY_BYTES = 32
NONCE_BYTES = 12
TAG_BYTES = 16
DEFLATE_LEVEL = 6

CHUNK_BYTES = 1 << 20

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
    return os.urandom(16)


def _read_chunks(fd: int, size: int) -> Iterator[bytes]:
    """Yield the first `size` bytes of fd, each read capped at CHUNK_BYTES and at what is left.

    Stops early if the file ends first; the caller's digests then show it.
    """
    left = size
    while left > 0:
        chunk = os.read(fd, min(CHUNK_BYTES, left))
        if not chunk:
            return
        left -= len(chunk)
        yield chunk


class _Counted:
    """Counts and hashes bytes, then hands them to `write` if there is one."""

    def __init__(self, write: Callable[[bytes], object] | None = None) -> None:
        self.size = 0
        self.hash = hashlib.sha256()
        self._write = write

    def feed(self, data: bytes) -> None:
        self.size += len(data)
        self.hash.update(data)
        if self._write is not None:
            self._write(data)


# ---------- encode ----------

class Encoded(NamedTuple):
    """Sizes and digests of one packed file, in ChunkEntry's field order."""

    plain_size: int
    plain_sha256: str
    payload_size: int
    payload_sha256: str


class _Seal:
    """AES-256-GCM encryption stage: nonce, then ciphertext, then tag."""

    def __init__(self, key: bytes, out: _Counted) -> None:
        nonce = os.urandom(NONCE_BYTES)
        self._encryptor = Cipher(algorithms.AES(key), modes.GCM(nonce)).encryptor()
        self._sealed = 0
        self._out = out
        out.feed(nonce)

    def feed(self, data: bytes) -> None:
        self._sealed += len(data)
        if self._sealed > GCM_MAX_BYTES:
            raise ConfigError(
                f"ciphertext over {GCM_MAX_BYTES:,} bytes exceeds AES-GCM's single-nonce limit"
            )
        self._out.feed(self._encryptor.update(data))

    def finish(self) -> None:
        self._out.feed(self._encryptor.finalize() + self._encryptor.tag)


def encode_file(
    fd: int,
    size: int,
    write: Callable[[bytes], object],
    chain: tuple[str, ...],
    key: bytes | None,
) -> Encoded:
    """Stream `size` bytes of fd through the codec chain into write().

    The payload bytes equal the one-shot v1 transform of the same input:
    deflate output does not depend on how its input is split. Under codec
    none they are the input itself, so one digest serves both.
    """
    out = _Counted(write)
    seal = None
    if is_encrypted(chain):
        if key is None:
            raise ValueError("codec chain encrypts but no key was derived")
        seal = _Seal(key, out)
    stage = seal.feed if seal is not None else out.feed
    compressor = None
    if CODEC_DEFLATE in chain:
        compressor = zlib.compressobj(DEFLATE_LEVEL, zlib.DEFLATED, -zlib.MAX_WBITS)
    plain = out if chain == (CODEC_NONE,) else _Counted()
    for chunk in _read_chunks(fd, size):
        if plain is not out:
            plain.feed(chunk)
        stage(compressor.compress(chunk) if compressor is not None else chunk)
    if compressor is not None:
        stage(compressor.flush())
    if seal is not None:
        seal.finish()
    payload_sha256 = out.hash.hexdigest()
    plain_sha256 = payload_sha256 if plain is out else plain.hash.hexdigest()
    return Encoded(plain.size, plain_sha256, out.size, payload_sha256)


# ---------- decode ----------

class Decoded(NamedTuple):
    """What one read of a payload showed; the caller ranks the findings.

    plain_size is exact unless overflow is set, in which case decoding
    stopped as soon as the output passed the expected size and plain_sha256
    means nothing. A shallow read decodes nothing: plain_size is 0 and
    plain_sha256 the digest of no bytes.
    """

    payload_size: int
    payload_sha256: str
    plain_size: int
    plain_sha256: str
    error: str | None
    overflow: bool


class _Plain:
    """The decoded output: counted, and hashed and written until it passes `limit`.

    Without a hash the caller's payload digest already covers these bytes.
    """

    def __init__(
        self, limit: int, write: Callable[[bytes], object] | None, hashed: bool
    ) -> None:
        self.limit = limit
        self.overflow = False
        self.size = 0
        self.hash = hashlib.sha256() if hashed else None
        self._write = write

    def room(self) -> int:
        """Bytes that may still arrive before the output has passed the limit."""
        return self.limit + 1 - self.size

    def feed(self, data: bytes) -> None:
        self.size += len(data)
        if self.size > self.limit:
            self.overflow = True
            return
        if self.hash is not None:
            self.hash.update(data)
        if self._write is not None:
            self._write(data)


class _Inflate:
    """Deflate decoding stage.

    Each output is bounded by CHUNK_BYTES and by one byte past the expected
    size, so a forged stream cannot make it allocate or work without limit.
    """

    def __init__(self, plain: _Plain) -> None:
        self._decompressor = zlib.decompressobj(-zlib.MAX_WBITS)
        self._plain = plain
        self.error: str | None = None

    def feed(self, data: bytes) -> None:
        z = self._decompressor
        try:
            while self.error is None and not self._plain.overflow:
                room = min(CHUNK_BYTES, self._plain.room())
                out = z.decompress(data, room)
                if z.unused_data:
                    self.error = "data after the end of the deflate stream"
                    return
                self._plain.feed(out)
                data = z.unconsumed_tail
                if z.eof or (not data and len(out) < room):
                    return
        except zlib.error as exc:
            self.error = f"deflate stream corrupt: {exc}"

    def finish(self) -> None:
        if self.error is None and not self._plain.overflow and not self._decompressor.eof:
            self.error = "deflate stream is truncated"


class _Open:
    """AES-256-GCM decryption stage over a payload of known size.

    Bytes are routed by offset, so any read size works: the first
    NONCE_BYTES are the nonce, the last TAG_BYTES the tag, the rest ciphertext.
    """

    def __init__(self, key: bytes, size: int, feed: Callable[[bytes], None]) -> None:
        self._key = key
        self._body_end = size - TAG_BYTES
        self._offset = 0
        self._nonce = bytearray()
        self._tag = bytearray()
        self._decryptor = None
        self._feed = feed
        self.error: str | None = None
        if size < NONCE_BYTES + TAG_BYTES:
            self.error = "ciphertext shorter than nonce plus tag"

    def feed(self, data: bytes) -> None:
        if self.error is not None:
            return
        start = self._offset
        self._offset += len(data)
        view = memoryview(data)

        def part(first: int, end: int) -> memoryview:
            return view[max(first - start, 0) : max(end - start, 0)]

        self._nonce += part(0, NONCE_BYTES)
        if self._decryptor is None and len(self._nonce) == NONCE_BYTES:
            cipher = Cipher(algorithms.AES(self._key), modes.GCM(bytes(self._nonce)))
            self._decryptor = cipher.decryptor()
        body = part(NONCE_BYTES, self._body_end)
        if body:
            self._feed(self._decryptor.update(body))
        self._tag += part(self._body_end, self._body_end + TAG_BYTES)

    def finish(self) -> None:
        if self.error is not None:
            return
        if len(self._tag) != TAG_BYTES:
            self.error = "payload ended before its tag"
            return
        try:
            self._feed(self._decryptor.finalize_with_tag(bytes(self._tag)))
        except InvalidTag:
            self.error = "authentication failed: wrong passphrase or corrupt payload"


def decode_file(
    fd: int,
    size: int,
    chain: tuple[str, ...] | None,
    key: bytes | None,
    plain_limit: int = 0,
    write: Callable[[bytes], object] | None = None,
) -> Decoded:
    """Read `size` bytes of fd once: hash them and, unless chain is None, decode them.

    Decoded bytes go to write() as they appear, before the tag and the
    digests are checked; the caller must not trust them until it has read
    the result. A GCM error is reported ahead of a deflate error, because
    deflate saw unauthenticated bytes.
    """
    payload = _Counted()
    plain = None
    stages: list[_Inflate | _Open] = []  # outermost last
    head = None
    if chain is not None:
        # Under codec none the plaintext is the payload: one digest serves both.
        plain = _Plain(plain_limit, write, hashed=chain != (CODEC_NONE,))
        head = plain.feed
        if CODEC_DEFLATE in chain:
            stages.append(_Inflate(plain))
            head = stages[-1].feed
        if is_encrypted(chain):
            if key is None:
                raise ValueError("codec chain encrypts but no key was derived")
            stages.append(_Open(key, size, head))
            head = stages[-1].feed

    for chunk in _read_chunks(fd, size):
        payload.feed(chunk)
        if head is not None:
            head(chunk)
    stages.reverse()
    for stage in stages:
        stage.finish()
    errors = [stage.error for stage in stages if stage.error is not None]
    payload_sha256 = payload.hash.hexdigest()
    if plain is None:
        return Decoded(payload.size, payload_sha256, 0, _SHA256_EMPTY, None, False)
    return Decoded(
        payload_size=payload.size,
        payload_sha256=payload_sha256,
        plain_size=plain.size,
        plain_sha256=plain.hash.hexdigest() if plain.hash is not None else payload_sha256,
        error=errors[0] if errors else None,
        overflow=plain.overflow,
    )
