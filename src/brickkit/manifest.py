"""The self-describing index a brick carries: BRICK-MANIFEST files.

Line-oriented UTF-8 text, chosen over a binary layout so a brick remains
readable decades from now with nothing but a text editor:

    BRICK-MANIFEST v1
    dataset: <label>
    created: <UTC timestamp>
    codec: <comma-separated codec chain>
    kdf: pbkdf2-hmac-sha256          (encrypted bricks only)
    iterations: <count>              (encrypted bricks only)
    salt: <16 bytes as hex>          (encrypted bricks only)
    <blank line>
    <path>TAB<plain_size>TAB<plain_sha256>TAB<payload_size>TAB<payload_sha256>
    ...
    digest: <sha256 hex of all entry-line bytes including the LFs>

Entry paths are NFC-normalized, '/'-separated, with '%', control bytes, and
bytes above 0x7E percent-encoded so the file stays printable ASCII.
"""

from __future__ import annotations

import hashlib
import itertools
import re
import unicodedata
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import ManifestError, UnsupportedVersionError

MANIFEST_FILENAME = "BRICK-MANIFEST"
FORMAT_VERSION = "1"

CODEC_NONE = "none"
CODEC_DEFLATE = "deflate"
CODEC_AES_256_GCM = "aes-256-gcm"

VALID_CHAINS = (
    (CODEC_NONE,),
    (CODEC_DEFLATE,),
    (CODEC_AES_256_GCM,),
    (CODEC_DEFLATE, CODEC_AES_256_GCM),
)

KDF_ALGORITHM = "pbkdf2-hmac-sha256"
DEFAULT_KDF_ITERATIONS = 210_000
# Far above any sane setting; bounds what a hostile manifest can make
# verify --deep spend in PBKDF2 (about 2 s per brick on one current x86 core).
MAX_KDF_ITERATIONS = 10_000_000
SALT_BYTES = 16

# The header keys, in the order serialize_manifest writes them and parse_manifest reads
# them; the kdf keys follow the codec line only when the chain encrypts.
_HEADER_KEYS = ("dataset", "created", "codec")
_KDF_KEYS = ("kdf", "iterations", "salt")
# serialize_manifest's piece size; pieces of any size join to the same bytes.
_SERIALIZE_PIECE_BYTES = 256 << 10

_HEX_DIGEST_RE = re.compile(r"[0-9a-f]{64}")
_DECIMAL_RE = re.compile(r"0|[1-9][0-9]*")
# Printable ASCII without '%': a path made only of these encodes to itself.
_PLAIN_PATH_RE = re.compile(r"[\x20-\x24\x26-\x7e]*")
# An entry line, from its start to its LF, with such a path, canonical sizes
# and well-formed digests; only check_relative_path is left to prove.
_PLAIN_ENTRY_RE = re.compile(
    r"^([\x20-\x24\x26-\x7e]*)\t(0|[1-9][0-9]*)\t([0-9a-f]{64})\t(0|[1-9][0-9]*)\t([0-9a-f]{64})\n",
    re.MULTILINE,
)
# How many entry-section bytes parse_manifest decodes to text at once, and
# then to the end of the line. load_manifest allows CHUNK_BYTES of working
# room beside the bytes it read; parsing 10,000 entries used 88 KB of it
# with 64 KiB windows, and 238 KB with 256 KiB ones.
_WINDOW_BYTES = 64 << 10


def validate_chain(chain: tuple[str, ...]) -> tuple[str, ...]:
    """Check a codec chain against the four supported combinations."""
    chain = tuple(chain)
    if chain not in VALID_CHAINS:
        supported = ", ".join("[" + ",".join(c) + "]" for c in VALID_CHAINS)
        raise ValueError(f"unsupported codec chain {list(chain)}; supported: {supported}")
    return chain


def is_encrypted(chain: tuple[str, ...]) -> bool:
    return CODEC_AES_256_GCM in chain


def check_header_value(value: str) -> None:
    """Reject a header value that would not stay on its one manifest line as UTF-8."""
    if any(ord(c) < 0x20 for c in value):
        raise ValueError("header values must not contain control characters")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, as from an undecodable directory name
        raise ValueError("header values must be valid UTF-8") from None


def check_relative_path(path: str) -> str:
    """Reject absolute paths, '..' escapes, and unstorable names."""
    if path == "":
        raise ValueError("empty path")
    if path.startswith("/"):
        raise ValueError(f"absolute path not allowed: {path!r}")
    if "\x00" in path:
        raise ValueError(f"path contains NUL: {path!r}")
    for segment in path.split("/"):
        if segment in ("", ".", ".."):
            raise ValueError(f"path has a {segment!r} segment: {path!r}")
    return path


def encode_path(path: str) -> str:
    """NFC-normalize and percent-encode a path for its manifest line."""
    if _PLAIN_PATH_RE.fullmatch(path):
        return path
    raw = unicodedata.normalize("NFC", path).encode("utf-8")
    out = []
    for byte in raw:
        if byte <= 0x1F or byte == 0x25 or byte > 0x7E:  # controls, '%', DEL and up
            out.append(f"%{byte:02X}")
        else:
            out.append(chr(byte))
    return "".join(out)


def decode_path(text: str) -> str:
    """Invert encode_path; an escaped separator or NUL is always an error."""
    if _PLAIN_PATH_RE.fullmatch(text):
        return check_relative_path(text)
    out = bytearray()
    i = 0
    while i < len(text):
        char = text[i]
        if char == "%":
            pair = text[i + 1 : i + 3]
            if len(pair) != 2 or not re.fullmatch(r"[0-9A-Fa-f]{2}", pair):
                raise ValueError(f"bad percent escape in path: {text!r}")
            byte = int(pair, 16)
            if byte == 0x2F:
                raise ValueError(f"escaped '/' in path: {text!r}")
            out.append(byte)
            i += 3
        else:
            if ord(char) > 0x7E or ord(char) <= 0x1F:
                raise ValueError(f"unescaped byte in path: {text!r}")
            out.append(ord(char))
            i += 1
    try:
        path = out.decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"path is not valid UTF-8: {text!r}") from None
    return check_relative_path(path)


@dataclass(frozen=True)
class KdfParams:
    """How to turn the passphrase into the content key."""

    algorithm: str = KDF_ALGORITHM
    iterations: int = DEFAULT_KDF_ITERATIONS
    salt: bytes = b""

    def __post_init__(self) -> None:
        if self.algorithm != KDF_ALGORITHM:
            raise ValueError(f"unsupported kdf {self.algorithm!r}")
        if not 1 <= self.iterations <= MAX_KDF_ITERATIONS:
            raise ValueError(f"kdf iterations must be between 1 and {MAX_KDF_ITERATIONS:,}")
        if len(self.salt) != SALT_BYTES:
            raise ValueError(f"salt must be {SALT_BYTES} bytes")


@dataclass(frozen=True, slots=True)
class ChunkEntry:
    """One stored file: where it lives and the digests that prove it."""

    path: str
    plain_size: int
    plain_sha256: str
    payload_size: int
    payload_sha256: str

    def __post_init__(self) -> None:
        check_relative_path(self.path)
        if self.plain_size < 0 or self.payload_size < 0:
            raise ValueError(f"negative size for {self.path!r}")
        for digest in (self.plain_sha256, self.payload_sha256):
            if not _HEX_DIGEST_RE.fullmatch(digest):
                raise ValueError(f"malformed sha256 digest {digest!r} for {self.path!r}")

    @classmethod
    def _proven(
        cls, path: str, plain_size: int, plain_sha256: str, payload_size: int, payload_sha256: str
    ) -> ChunkEntry:
        """An entry whose fields the caller has already checked, built without __post_init__.

        For parse_manifest's entry pattern and for pack, whose paths passed
        check_relative_path and whose digests come from hexdigest().
        """
        entry = object.__new__(cls)
        store = object.__setattr__
        store(entry, "path", path)
        store(entry, "plain_size", plain_size)
        store(entry, "plain_sha256", plain_sha256)
        store(entry, "payload_size", payload_size)
        store(entry, "payload_sha256", payload_sha256)
        return entry

    def line(self) -> bytes:
        """The entry's manifest line, LF included."""
        return (
            f"{encode_path(self.path)}\t{self.plain_size}\t{self.plain_sha256}"
            f"\t{self.payload_size}\t{self.payload_sha256}\n"
        ).encode("ascii")


@dataclass(frozen=True)
class Manifest:
    """Complete description of a packed brick."""

    dataset_name: str
    created_at: str
    codec_chain: tuple[str, ...]
    entries: tuple[ChunkEntry, ...]
    kdf: KdfParams | None = None

    def __post_init__(self) -> None:
        validate_chain(self.codec_chain)
        if is_encrypted(self.codec_chain) != (self.kdf is not None):
            raise ValueError("kdf parameters must be present exactly when the chain encrypts")
        check_header_value(self.dataset_name)
        check_header_value(self.created_at)
        previous = None
        for entry in self.entries:
            if previous is not None and not (previous < entry.path):
                raise ValueError(
                    f"entries not strictly ascending: {previous!r} then {entry.path!r}"
                )
            previous = entry.path


def write_manifest(manifest: Manifest, write: Callable[[bytes], object], size: int) -> None:
    """Hand write() the manifest's bytes in pieces of `size` bytes, the last one shorter.

    Each entry line is hashed as it is written, and a line may straddle two
    pieces, so beyond the entries this holds about one piece, whatever the
    entry count. write() may keep a piece: none is changed once handed over.
    """
    keys = _HEADER_KEYS
    values = [manifest.dataset_name, manifest.created_at, ",".join(manifest.codec_chain)]
    if manifest.kdf is not None:
        keys += _KDF_KEYS
        values += [manifest.kdf.algorithm, str(manifest.kdf.iterations), manifest.kdf.salt.hex()]
    head = f"{MANIFEST_FILENAME} v{FORMAT_VERSION}\n"
    head += "".join(f"{key}: {value}\n" for key, value in zip(keys, values)) + "\n"
    digest = hashlib.sha256()

    def lines() -> Iterator[bytes]:
        yield head.encode("utf-8")
        for entry in manifest.entries:
            line = entry.line()
            digest.update(line)
            yield line
        yield f"digest: {digest.hexdigest()}\n".encode("ascii")

    piece = bytearray()
    for line in lines():
        piece += line
        while len(piece) >= size:
            rest = piece[size:]
            del piece[size:]
            write(piece)
            piece = rest
    if piece:
        write(piece)


def serialize_manifest(manifest: Manifest) -> bytes:
    """The manifest's bytes, as the join of write_manifest's pieces.

    The entries section is deterministic per tree. Pack writes the same
    pieces straight to the file, without the whole.
    """
    pieces: list[bytes] = []
    write_manifest(manifest, pieces.append, _SERIALIZE_PIECE_BYTES)
    return b"".join(pieces)


def _fail(line_number: int, message: str) -> ManifestError:
    return ManifestError(message, line=line_number)


def _decimal(text: str, what: str, line_number: int) -> int:
    """Parse the one spelling serialize_manifest writes: no sign, padding or separators."""
    if not _DECIMAL_RE.fullmatch(text):
        raise _fail(line_number, f"{what} {text!r} is not a canonical decimal")
    return int(text)


def _misplaced(line: str, line_number: int, keys: tuple[str, ...], read: int) -> ManifestError:
    """The error for a header line that is not the one serialize_manifest writes there."""
    key = line.partition(": ")[0]
    if key in keys[:read]:
        return _fail(line_number, f"duplicate header {key!r}")
    if key in _KDF_KEYS and read == len(keys):  # an encrypting chain lists them in keys[:read]
        return _fail(line_number, "kdf headers present but the chain does not encrypt")
    expected = f"the {keys[read]!r} header" if read < len(keys) else "a blank line"
    return _fail(line_number, f"expected {expected}; headers go in the order {', '.join(keys)}")


def _parse_entry(line: str, line_number: int) -> ChunkEntry:
    """One entry line, checked field by field so a defect gets a precise message."""
    fields = line.split("\t")
    if len(fields) != 5:
        raise _fail(line_number, f"expected 5 tab-separated fields, got {len(fields)}")
    path = decode_path(fields[0])
    if encode_path(path) != fields[0]:
        raise ValueError(f"path {fields[0]!r} is not in canonical form")
    return ChunkEntry(
        path=path,
        plain_size=_decimal(fields[1], "plain size", line_number),
        plain_sha256=fields[2],
        payload_size=_decimal(fields[3], "payload size", line_number),
        payload_sha256=fields[4],
    )


def _lines(data: bytes | bytearray) -> Iterator[tuple[int, int, str]]:
    """(number, start, text) of each LF-ended line of data, numbered from 1, without its LF."""
    number, start = 1, 0
    find = data.find
    while (end := find(b"\n", start)) >= 0:
        try:
            yield number, start, data[start:end].decode("utf-8")
        except UnicodeDecodeError:
            raise _fail(number, "not valid UTF-8") from None
        number, start = number + 1, end + 1


def _entry_lines(
    data: bytes | bytearray, start: int, number: int
) -> tuple[list[ChunkEntry], str | None, int]:
    """Parse the entry lines from `start`, whose number is `number`, through the digest line.

    Returns the entries, the digest the digest line declares and where that
    line starts; the digest is None when the data ends first. The lines are
    decoded in windows of _WINDOW_BYTES, each run on to the end of the line
    it stops in, so no whole copy of them is made. A window is decoded as
    ASCII up to the first line that holds another byte; that line is a
    window of its own, decoded as UTF-8. A window's plain lines, those
    _PLAIN_ENTRY_RE matches, are found in one finditer pass, and
    check_relative_path runs only on a path that could fail it. Each line
    between them is the digest line or is parsed by itself (_parse_entry).
    An error names the line it was found on.
    """
    entries: list[ChunkEntry] = []
    previous = None
    with memoryview(data) as view:
        while start < len(data):
            # The window runs to the end of the line its last byte falls in.
            end = data.find(b"\n", start + _WINDOW_BYTES - 1) + 1 or len(data)
            try:
                text = str(view[start:end], "ascii")
            except UnicodeDecodeError as exc:  # cut before the line that holds the other byte
                end = data.rfind(b"\n", start, start + exc.start) + 1 or data.find(b"\n", start) + 1
                try:
                    text = str(view[start:end], "utf-8")
                except UnicodeDecodeError:
                    raise _fail(number, "not valid UTF-8") from None
            taken = 0
            for match in itertools.chain(_PLAIN_ENTRY_RE.finditer(text), [None]):
                # The lines before the match, or before the window's end, are not plain.
                while taken < (len(text) if match is None else match.start()):
                    line_end = text.index("\n", taken)
                    line = text[taken:line_end]
                    # Entry lines carry four tabs and a path never holds a raw tab, so
                    # an entry for a file named "digest: x" is not the digest line.
                    if line.startswith("digest: ") and "\t" not in line:
                        if end != len(data) or line_end != len(text) - 1:
                            raise _fail(number + 1, "content after the digest line")
                        return entries, line.removeprefix("digest: "), start + taken
                    try:
                        entry = _parse_entry(line, number)
                    except ValueError as exc:
                        raise _fail(number, str(exc)) from None
                    if previous is not None and not previous < entry.path:
                        raise _fail(number, f"entries not strictly ascending at {entry.path!r}")
                    entries.append(entry)
                    previous, taken, number = entry.path, line_end + 1, number + 1
                if match is None:
                    break
                path, plain_size, plain_sha256, payload_size, payload_sha256 = match.groups()
                # No control byte matches, so only an empty, '.' or '..' segment can fail.
                if not path or path[0] in "./" or path[-1] == "/" or "//" in path or "/." in path:
                    try:
                        check_relative_path(path)
                    except ValueError as exc:
                        raise _fail(number, str(exc)) from None
                if previous is not None and not previous < path:
                    raise _fail(number, f"entries not strictly ascending at {path!r}")
                entries.append(ChunkEntry._proven(
                    path, int(plain_size), plain_sha256, int(payload_size), payload_sha256
                ))
                previous, taken, number = path, match.end(), number + 1
            start = end
    return entries, None, start


def parse_manifest(data: bytes | bytearray) -> Manifest:
    """Parse and fully validate manifest bytes.

    Any structural defect raises with the line it was found on; a digest
    mismatch or truncation never yields a partial manifest. Only the bytes
    serialize_manifest would write are accepted, so each manifest has one
    encoding. The bytes are read where they lie: the header a line at a
    time, the entry lines in windows of about _WINDOW_BYTES (_entry_lines):
    one regex pass per window takes the plain lines, and each line between
    them (an escaped path, a defect, the digest line) is parsed by itself.
    The entry lines are hashed through a memoryview, so beside the bytes
    parsing holds at most one window's text.
    """
    if not data.endswith(b"\n"):
        raise ManifestError("truncated: missing final newline")
    lines = _lines(data)

    def text() -> str:
        """The next header line; the header must end before the manifest does."""
        nonlocal number, start
        try:
            number, start, line = next(lines)
        except StopIteration:
            raise ManifestError("truncated: header never ends") from None
        return line

    number = start = 0
    first = text()
    if first != f"{MANIFEST_FILENAME} v{FORMAT_VERSION}":
        if first.startswith(f"{MANIFEST_FILENAME} v"):
            raise UnsupportedVersionError(
                f"unsupported version {first.removeprefix(MANIFEST_FILENAME + ' v')!r}", line=1
            )
        raise _fail(1, f"not a {MANIFEST_FILENAME} file")

    # Header line k holds the k-th key; the codec line decides whether the kdf keys follow.
    keys, values = _HEADER_KEYS, []
    while len(values) < len(keys):
        key, line = keys[len(values)], text()
        if not line.startswith(f"{key}: "):
            raise _misplaced(line, number, keys, len(values))
        values.append(line[len(key) + 2 :])
        if key == "codec":
            try:
                chain = validate_chain(tuple(values[-1].split(",")))
            except ValueError as exc:
                raise _fail(number, str(exc)) from None
            if is_encrypted(chain):
                keys += _KDF_KEYS
    if line := text():  # the blank line that ends the header
        raise _misplaced(line, number, keys, len(values))

    kdf = None
    if is_encrypted(chain):
        algorithm, iterations, salt = values[len(_HEADER_KEYS) :]
        try:
            count = _decimal(iterations, "iterations", number)
            kdf = KdfParams(algorithm=algorithm, iterations=count, salt=bytes.fromhex(salt))
        except ValueError as exc:
            raise _fail(number, f"bad kdf parameters: {exc}") from None
        if kdf.salt.hex() != salt:
            raise _fail(number, "salt must be lowercase hex without spaces")

    first_entry = start + 1  # past the blank line's LF
    entries, declared_digest, start = _entry_lines(data, first_entry, number + 1)
    if declared_digest is None:
        raise ManifestError("truncated: missing digest line")
    # The entry lines, each with its LF, run from the first entry to the digest line.
    if declared_digest != hashlib.sha256(memoryview(data)[first_entry:start]).hexdigest():
        raise ManifestError("entries digest mismatch: manifest is corrupt")

    try:
        return Manifest(
            dataset_name=values[0],
            created_at=values[1],
            codec_chain=chain,
            entries=tuple(entries),
            kdf=kdf,
        )
    except ValueError as exc:
        raise ManifestError(str(exc)) from None
