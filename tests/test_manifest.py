from __future__ import annotations

import contextlib
import hashlib
import re
import unicodedata
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import brickkit.manifest as manifest_module
from brickkit.errors import ManifestError, UnsupportedVersionError
from brickkit.manifest import (
    MAX_KDF_ITERATIONS,
    ChunkEntry,
    KdfParams,
    Manifest,
    check_relative_path,
    decode_path,
    encode_path,
    is_encrypted,
    parse_manifest,
    serialize_manifest,
    validate_chain,
    write_manifest,
)

SHA_EMPTY = hashlib.sha256(b"").hexdigest()


def entry(path: str, payload: bytes = b"x") -> ChunkEntry:
    return ChunkEntry(
        path=path,
        plain_size=len(payload),
        plain_sha256=hashlib.sha256(payload).hexdigest(),
        payload_size=len(payload),
        payload_sha256=hashlib.sha256(payload).hexdigest(),
    )


def manifest(entries, chain=("none",), kdf=None) -> Manifest:
    return Manifest(
        dataset_name="set",
        created_at="2026-01-01T00:00:00Z",
        codec_chain=chain,
        entries=tuple(entries),
        kdf=kdf,
    )


# ---------- codec chains ----------

def test_valid_chains():
    for chain in [("none",), ("deflate",), ("aes-256-gcm",), ("deflate", "aes-256-gcm")]:
        assert validate_chain(chain) == chain
    assert not is_encrypted(("deflate",))
    assert is_encrypted(("deflate", "aes-256-gcm"))


@pytest.mark.parametrize(
    "chain",
    [(), ("gzip",), ("none", "deflate"), ("aes-256-gcm", "deflate"),
     ("deflate", "deflate"), ("none", "none")],
)
def test_invalid_chains(chain):
    with pytest.raises(ValueError):
        validate_chain(chain)


# ---------- path codec ----------

@pytest.mark.parametrize(
    "raw,encoded",
    [
        ("plain/file.txt", "plain/file.txt"),
        ("has space.txt", "has space.txt"),
        ("pct%41.txt", "pct%2541.txt"),  # literal '%' must itself escape
        ("tab\there", "tab%09here"),
        ("café", "caf%C3%A9"),
        ("del\x7f", "del%7F"),
    ],
)
def test_encode_path(raw, encoded):
    assert encode_path(raw) == encoded
    assert decode_path(encoded) == unicodedata.normalize("NFC", raw)


def test_encode_path_normalizes_to_nfc():
    decomposed = "café"  # e + combining acute
    assert encode_path(decomposed) == "caf%C3%A9"
    assert decode_path("caf%C3%A9") == "café"


@pytest.mark.parametrize(
    "text",
    ["%2F", "a%2fb", "%00", "bad%GG", "trunc%4", "café", "new\nline", "%", "%C3", "a%FF"],
)
def test_decode_path_rejects(text):
    with pytest.raises(ValueError):
        decode_path(text)


@pytest.mark.parametrize("path", ["", "/abs", "a//b", "a/./b", "a/../b", "..", "nul\x00"])
def test_check_relative_path_rejects(path):
    with pytest.raises(ValueError):
        check_relative_path(path)


@given(
    st.lists(
        st.text(
            alphabet=st.characters(
                blacklist_categories=("Cs",), blacklist_characters="/\x00"
            ),
            min_size=1,
            max_size=12,
        ).filter(lambda s: s not in (".", "..")),
        min_size=1,
        max_size=4,
    )
)
def test_path_codec_round_trips(segments):
    path = "/".join(segments)
    nfc = unicodedata.normalize("NFC", path)
    try:
        check_relative_path(nfc)
    except ValueError:
        return  # NFC can in principle create a rejected segment; not round-trippable
    assert decode_path(encode_path(path)) == nfc
    assert all(0x20 <= ord(c) <= 0x7E for c in encode_path(path))


def reference_encode_path(path: str) -> str:
    """The byte loop alone, as encode_path ran before it had a fast path."""
    raw = unicodedata.normalize("NFC", path).encode("utf-8")
    return "".join(f"%{b:02X}" if b <= 0x1F or b == 0x25 or b > 0x7E else chr(b) for b in raw)


def reference_decode_path(text: str) -> str:
    """The byte loop alone, as decode_path ran before it had a fast path."""
    out = bytearray()
    i = 0
    while i < len(text):
        if text[i] == "%":
            pair = text[i + 1 : i + 3]
            if len(pair) != 2 or not re.fullmatch(r"[0-9A-Fa-f]{2}", pair):
                raise ValueError(f"bad percent escape in path: {text!r}")
            if int(pair, 16) == 0x2F:
                raise ValueError(f"escaped '/' in path: {text!r}")
            out.append(int(pair, 16))
            i += 3
        else:
            if ord(text[i]) > 0x7E or ord(text[i]) <= 0x1F:
                raise ValueError(f"unescaped byte in path: {text!r}")
            out.append(ord(text[i]))
            i += 1
    try:
        path = out.decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"path is not valid UTF-8: {text!r}") from None
    return check_relative_path(path)


def outcome(function, text: str) -> tuple[str, str]:
    try:
        return "returned", function(text)
    except ValueError as exc:
        return "raised", str(exc)


PATH_PIECES = [
    "a", "Z", "0", " ", "~", "$", "&", ".", "..", "/", "%", "%25", "%2F", "%2f", "%00",
    "%41", "%C3%A9", "%CC%81", "%C3", "%zz", "%4", "\x00", "\x01", "\x1f", "\t", "\x7f", "\x80",
    "é", "e\u0301", "Å", "\U0001F600", "digest: ",
]


@given(
    st.one_of(
        st.lists(st.sampled_from(PATH_PIECES), max_size=8).map("".join),
        st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12),
    )
)
@example("plain/printable name.txt")
def test_path_codec_fast_path_agrees_with_the_byte_loop(text):
    assert outcome(encode_path, text) == outcome(reference_encode_path, text)
    assert outcome(decode_path, text) == outcome(reference_decode_path, text)
    if re.fullmatch(r"[\x20-\x24\x26-\x7e]*", text):  # printable ASCII without '%'
        # The fast path hands such a path back as it is, without a byte loop.
        assert encode_path(text) is text
        if outcome(decode_path, text)[0] == "returned":
            assert decode_path(text) is text


# ---------- entries and manifest objects ----------

def test_chunk_entry_validation():
    with pytest.raises(ValueError):
        entry("/abs")
    with pytest.raises(ValueError):
        ChunkEntry("ok", -1, SHA_EMPTY, 0, SHA_EMPTY)
    with pytest.raises(ValueError):
        ChunkEntry("ok", 0, "not-a-digest", 0, SHA_EMPTY)
    with pytest.raises(ValueError):
        ChunkEntry("ok", 0, SHA_EMPTY.upper(), 0, SHA_EMPTY)


@pytest.mark.parametrize("field", ["plain_sha256", "payload_sha256"])
def test_chunk_entry_rejects_a_digest_with_a_trailing_newline(field):
    fields = dict(path="f", plain_size=1, plain_sha256=SHA_EMPTY, payload_size=1, payload_sha256=SHA_EMPTY)
    fields[field] += "\n"
    with pytest.raises(ValueError, match="malformed sha256 digest"):
        ChunkEntry(**fields)


def test_manifest_requires_sorted_unique_entries():
    with pytest.raises(ValueError):
        manifest([entry("b"), entry("a")])
    with pytest.raises(ValueError):
        manifest([entry("a"), entry("a")])


def test_manifest_kdf_pairing_rules():
    kdf = KdfParams(salt=b"\x00" * 16)
    with pytest.raises(ValueError):
        manifest([entry("a")], chain=("aes-256-gcm",), kdf=None)
    with pytest.raises(ValueError):
        manifest([entry("a")], chain=("none",), kdf=kdf)
    ok = manifest([entry("a")], chain=("aes-256-gcm",), kdf=kdf)
    assert ok.kdf is not None


def test_kdf_params_validation():
    with pytest.raises(ValueError):
        KdfParams(algorithm="scrypt", salt=b"\x00" * 16)
    with pytest.raises(ValueError):
        KdfParams(iterations=0, salt=b"\x00" * 16)
    with pytest.raises(ValueError):
        KdfParams(salt=b"short")


def test_empty_manifest_digest_is_sha_of_nothing():
    assert serialize_manifest(manifest([])).endswith(f"\n\ndigest: {SHA_EMPTY}\n".encode())


# ---------- serialization ----------

def test_serialize_layout():
    m = manifest([entry("a.txt"), entry("b/c.bin")])
    text = serialize_manifest(m).decode("utf-8")
    lines = text.split("\n")
    assert lines[0] == "BRICK-MANIFEST v1"
    assert lines[1] == "dataset: set"
    assert lines[2] == "created: 2026-01-01T00:00:00Z"
    assert lines[3] == "codec: none"
    assert lines[4] == ""
    assert lines[5].startswith("a.txt\t1\t")
    assert lines[6].startswith("b/c.bin\t1\t")
    entry_lines = b"".join(e.line() for e in m.entries)
    assert lines[7] == f"digest: {hashlib.sha256(entry_lines).hexdigest()}"
    assert text.endswith("\n")


def test_round_trip_plain():
    m = manifest([entry("a.txt"), entry("z/é.bin", b"abc")])
    assert parse_manifest(serialize_manifest(m)) == m


def test_round_trip_encrypted_headers():
    kdf = KdfParams(iterations=1234, salt=bytes(range(16)))
    m = manifest([entry("a")], chain=("deflate", "aes-256-gcm"), kdf=kdf)
    data = serialize_manifest(m)
    assert b"kdf: pbkdf2-hmac-sha256\n" in data
    assert b"iterations: 1234\n" in data
    assert b"salt: 000102030405060708090a0b0c0d0e0f\n" in data
    assert parse_manifest(data) == m


@given(
    st.integers(min_value=0, max_value=50),
    st.randoms(use_true_random=False),
    st.integers(min_value=1, max_value=500),
)
def test_round_trip_random_manifests(count, rng, piece_bytes):
    entries = sorted(
        (entry(f"d{rng.randrange(10)}/f{i}", bytes([i % 256]) * (i % 7)) for i in range(count)),
        key=lambda e: e.path,
    )
    m = manifest(entries)
    data = serialize_manifest(m)
    assert parse_manifest(data) == parse_manifest(bytearray(data)) == m
    # Windows shorter than an entry line: each window runs on to its line's end.
    with mock.patch.object(manifest_module, "_WINDOW_BYTES", 64):
        assert parse_manifest(data) == m
    # Pieces of any size join to the same bytes; only the last may be shorter.
    pieces = []
    write_manifest(m, pieces.append, piece_bytes)
    assert b"".join(pieces) == data
    assert all(len(piece) == piece_bytes for piece in pieces[:-1])
    assert 0 < len(pieces[-1]) <= piece_bytes


# ---------- strict parsing ----------

def corrupt(data: bytes, old: bytes, new: bytes) -> bytes:
    assert old in data
    return data.replace(old, new, 1)


def test_parse_rejects_wrong_magic():
    with pytest.raises(ManifestError):
        parse_manifest(b"TARBALL v1\n\ndigest: x\n")


def test_parse_future_version_is_distinct():
    m = serialize_manifest(manifest([entry("a")]))
    with pytest.raises(UnsupportedVersionError):
        parse_manifest(corrupt(m, b"BRICK-MANIFEST v1", b"BRICK-MANIFEST v2"))


def test_parse_rejects_missing_final_newline():
    data = serialize_manifest(manifest([entry("a")]))
    with pytest.raises(ManifestError, match="newline"):
        parse_manifest(data[:-1])


def test_parse_rejects_truncation_everywhere():
    data = serialize_manifest(manifest([entry("aaa"), entry("bbb")]))
    for cut in range(1, len(data)):
        with pytest.raises(ManifestError):
            parse_manifest(data[:cut])


def test_parse_detects_entry_tampering():
    data = serialize_manifest(manifest([entry("aaa")]))
    with pytest.raises(ManifestError, match="digest mismatch"):
        parse_manifest(corrupt(data, b"aaa\t1\t", b"aab\t1\t"))


def test_parse_rejects_unknown_and_duplicate_headers():
    data = serialize_manifest(manifest([entry("a")]))
    with pytest.raises(ManifestError, match="line 2"):
        parse_manifest(corrupt(data, b"dataset: set\n", b"flavor: salty\n"))
    with pytest.raises(ManifestError, match="duplicate"):
        parse_manifest(corrupt(data, b"created:", b"dataset: again\ncreated:"))


def test_parse_requires_mandatory_headers():
    data = serialize_manifest(manifest([entry("a")]))
    with pytest.raises(ManifestError, match="codec"):
        parse_manifest(corrupt(data, b"codec: none\n", b""))


def test_parse_rejects_kdf_without_encryption():
    data = serialize_manifest(manifest([entry("a")]))
    with pytest.raises(ManifestError, match="does not encrypt"):
        parse_manifest(corrupt(data, b"codec: none\n", b"codec: none\nsalt: 00\n"))


def test_parse_requires_kdf_when_encrypted():
    kdf = KdfParams(salt=b"\x01" * 16)
    data = serialize_manifest(manifest([entry("a")], chain=("aes-256-gcm",), kdf=kdf))
    with pytest.raises(ManifestError, match="iterations"):
        parse_manifest(corrupt(data, b"iterations: 210000\n", b""))


# Each path that check_relative_path refuses, or that must be escaped, and its error.
BAD_PATHS = {
    "a/": "path has a '' segment: 'a/'",
    "./a": "path has a '.' segment: './a'",
    "a/../b": "path has a '..' segment: 'a/../b'",
    "a//b": "path has a '' segment: 'a//b'",
    "a/.": "path has a '.' segment: 'a/.'",
    "/a": "absolute path not allowed: '/a'",
    "caf\u00e9": "unescaped byte in path: 'caf\u00e9'",
}


def test_parse_rejects_bad_entry_lines():
    base = manifest([entry("aaa")])
    data = serialize_manifest(base)
    bad_fields = corrupt(data, b"aaa\t1\t", b"aaa\t1\textra\t")
    with pytest.raises(ManifestError):
        parse_manifest(bad_fields)
    # A bad path fails on its own line: first, after plain lines, or after
    # an escaped one, in windows of one line and of many. Line 6 is the
    # first entry line.
    headers = ["dataset: set", "created: 2026-01-01T00:00:00Z", "codec: none"]
    for window in (64, manifest_module._WINDOW_BYTES):
        for before in ([], ["0", "1"], ["0", "1/caf%C3%A9", "2"]):
            with mock.patch.object(manifest_module, "_WINDOW_BYTES", window):
                for path, error in BAD_PATHS.items():
                    data = assemble(headers, [entry_line(p) for p in (*before, path, "z")])
                    with pytest.raises(ManifestError) as excinfo:
                        parse_manifest(data)
                    assert str(excinfo.value) == f"line {6 + len(before)}: {error}", window
                lines = [entry_line(p) for p in (*before, "z")]
                parsed = parse_manifest(assemble(headers, lines))
                # A byte that is not UTF-8 fails on its line too.
                data = corrupt(assemble(headers, lines), b"\nz\t", b"\n\xff\t")
                with pytest.raises(ManifestError) as excinfo:
                    parse_manifest(data)
                assert str(excinfo.value) == f"line {6 + len(before)}: not valid UTF-8"
            assert [e.path for e in parsed.entries] == [decode_path(p) for p in (*before, "z")]


def test_parse_rejects_unsorted_entries():
    first, second = entry("aaa"), entry("bbb")
    m = manifest([first, second])
    data = serialize_manifest(m)
    swapped = (
        data.replace(first.line() + second.line(), second.line() + first.line())
    )
    # fix the digest so ordering is the only defect
    digest = hashlib.sha256(second.line() + first.line()).hexdigest()
    in_order = hashlib.sha256(first.line() + second.line()).hexdigest()
    swapped = corrupt(swapped, in_order.encode(), digest.encode())
    with pytest.raises(ManifestError, match="^line 7: entries not strictly ascending at 'aaa'$"):
        parse_manifest(swapped)
    # An escaped path is ordered against the plain ones on either side of it.
    headers = ["dataset: set", "created: 2026-01-01T00:00:00Z", "codec: none"]
    cases = [(["b", "a%25"], "a%"), (["c%25", "b"], "b"), (["a", "c%25", "c%25"], "c%")]
    for paths, at in cases:
        with pytest.raises(ManifestError) as excinfo:
            parse_manifest(assemble(headers, [entry_line(p) for p in paths]))
        line = 5 + len(paths)
        assert str(excinfo.value) == f"line {line}: entries not strictly ascending at {at!r}"


def test_parse_rejects_content_after_digest():
    data = serialize_manifest(manifest([entry("a")]))
    with pytest.raises(ManifestError, match="after the digest"):
        parse_manifest(data + b"trailing\n")


def test_entry_named_like_the_digest_line_round_trips():
    m = manifest([entry("digest: x"), entry("digest: y/digest: z")])
    data = serialize_manifest(m)
    assert b"\ndigest: x\t" in data
    assert parse_manifest(data) == m
    with pytest.raises(ManifestError, match="after the digest"):
        parse_manifest(data + b"digest: x\n")


def test_parse_error_carries_line_number():
    data = serialize_manifest(manifest([entry("a")]))
    broken = corrupt(data, b"created: 2026-01-01T00:00:00Z\n", b"created \n")
    with pytest.raises(ManifestError) as excinfo:
        parse_manifest(broken)
    assert excinfo.value.line == 3
    assert "line 3" in str(excinfo.value)


def test_parse_rejects_non_utf8():
    data = serialize_manifest(manifest([entry("a")]))
    with pytest.raises(ManifestError):
        parse_manifest(corrupt(data, b"dataset: set", b"dataset: s\xff"))


# ---------- one encoding per manifest ----------

SHA_X = hashlib.sha256(b"x").hexdigest()
SALT_HEX = bytes(range(16)).hex()


def assemble(headers: list[str], entry_lines: list[str]) -> bytes:
    """Manifest bytes with a correct entries digest, so only the spelling is on trial."""
    head = "".join(f"{line}\n" for line in ["BRICK-MANIFEST v1", *headers, ""])
    entries = "".join(f"{line}\n" for line in entry_lines).encode("utf-8")
    digest = hashlib.sha256(entries).hexdigest()
    return head.encode("utf-8") + entries + f"digest: {digest}\n".encode("ascii")


def encrypted_headers(iterations: str = "1234", salt: str = SALT_HEX) -> list[str]:
    return [
        "dataset: set", "created: 2026-01-01T00:00:00Z", "codec: aes-256-gcm",
        "kdf: pbkdf2-hmac-sha256", f"iterations: {iterations}", f"salt: {salt}",
    ]


def entry_line(path: str = "a", plain: str = "1", payload: str = "1") -> str:
    return f"{path}\t{plain}\t{SHA_X}\t{payload}\t{SHA_X}"


def test_assembled_canonical_manifest_round_trips():
    data = assemble(encrypted_headers(), [entry_line("a"), entry_line("caf%C3%A9", "0", "10")])
    assert serialize_manifest(parse_manifest(data)) == data


NON_CANONICAL_DECIMALS = ["+1", "01", "00", "1_0", " 1", "1 ", "١", "-0", "0x1", ""]


@pytest.mark.parametrize("spelling", NON_CANONICAL_DECIMALS)
@pytest.mark.parametrize("field", ["plain", "payload"])
def test_parse_rejects_non_canonical_sizes(spelling, field):
    data = assemble(encrypted_headers(), [entry_line(**{field: spelling})])
    with pytest.raises(ManifestError, match="canonical"):
        parse_manifest(data)


def parse_outcome(data: bytes) -> tuple:
    try:
        return "returned", parse_manifest(data)
    except ManifestError as exc:
        return "raised", type(exc), str(exc)


@given(
    st.lists(st.sampled_from(PATH_PIECES), max_size=6).map("".join),
    st.sampled_from(["0", "1", "10", *NON_CANONICAL_DECIMALS]),
    st.sampled_from(["0", "7", "01"]),
    st.sampled_from([SHA_X, SHA_X.upper(), SHA_X[1:], "", "x" * 64, SHA_X + "\t" + SHA_X]),
)
def test_entry_line_fast_path_agrees_with_the_field_by_field_parse(path, plain, payload, digest):
    data = assemble(
        ["dataset: set", "created: 2026-01-01T00:00:00Z", "codec: none"],
        [f"{path}\t{plain}\t{digest}\t{payload}\t{SHA_X}"],
    )
    fast = parse_outcome(data)
    with mock.patch.object(manifest_module, "_PLAIN_ENTRY_RE", re.compile(r"(?!)")):
        assert parse_outcome(data) == fast


@pytest.mark.parametrize("lane", ["fast", "field-by-field"])
def test_parse_rejects_the_bytes_a_digest_with_a_trailing_newline_would_give(lane):
    data = assemble(
        ["dataset: set", "created: 2026-01-01T00:00:00Z", "codec: none"],
        [f"f\t1\t{SHA_X}\n\t1\t{SHA_X}", f"g\t1\t{SHA_X}\t1\t{SHA_X}"],
    )
    forced = mock.patch.object(manifest_module, "_PLAIN_ENTRY_RE", re.compile(r"(?!)"))
    with forced if lane == "field-by-field" else contextlib.nullcontext():
        with pytest.raises(ManifestError, match="^line 6: expected 5 tab-separated fields, got 3$"):
            parse_manifest(data)


@pytest.mark.parametrize("spelling", NON_CANONICAL_DECIMALS)
def test_parse_rejects_non_canonical_iterations(spelling):
    with pytest.raises(ManifestError, match="canonical"):
        parse_manifest(assemble(encrypted_headers(iterations=spelling), [entry_line()]))


def test_parse_bounds_iterations():
    accepted = parse_manifest(
        assemble(encrypted_headers(iterations=str(MAX_KDF_ITERATIONS)), [entry_line()])
    )
    assert accepted.kdf.iterations == MAX_KDF_ITERATIONS
    for iterations in (MAX_KDF_ITERATIONS + 1, 10**30, 0):
        with pytest.raises(ManifestError, match="iterations"):
            parse_manifest(assemble(encrypted_headers(iterations=str(iterations)), [entry_line()]))


@pytest.mark.parametrize("salt", [SALT_HEX.upper(), SALT_HEX[:-2] + " 0f", SALT_HEX[:-2], SALT_HEX + "00"])
def test_parse_rejects_non_canonical_salt(salt):
    with pytest.raises(ManifestError, match="salt"):
        parse_manifest(assemble(encrypted_headers(salt=salt), [entry_line()]))


@pytest.mark.parametrize("path", ["%61", "caf%c3%a9", "cafe%CC%81", "x%2Ey"])
def test_parse_rejects_non_canonical_paths(path):
    with pytest.raises(ManifestError, match="canonical"):
        parse_manifest(assemble(encrypted_headers(), [entry_line(path)]))


def test_parse_rejects_a_path_that_is_not_utf8():
    data = assemble(
        ["dataset: set", "created: 2026-01-01T00:00:00Z", "codec: none"], [entry_line("a%FF")]
    )
    with pytest.raises(ManifestError, match="^line 6: path is not valid UTF-8: 'a%FF'$") as excinfo:
        parse_manifest(data)
    assert excinfo.value.line == 6


def test_parse_requires_the_serialized_header_order():
    headers = encrypted_headers()
    for first, second in [(0, 1), (3, 5), (2, 4)]:
        swapped = list(headers)
        swapped[first], swapped[second] = swapped[second], swapped[first]
        with pytest.raises(ManifestError, match="order"):
            parse_manifest(assemble(swapped, [entry_line()]))


_SPELLED_INTS = st.sampled_from(["0", "1", "7", "10", "1234", *NON_CANONICAL_DECIMALS])
_SPELLED_PATHS = st.sampled_from(
    ["a", "b/c", "caf%C3%A9", "caf%c3%a9", "cafe%CC%81", "%61", "x%25y", "x%y", "sp ace", "d/%2E"]
)
_SPELLED_SALTS = st.sampled_from([SALT_HEX, SALT_HEX.upper(), "00" * 16, "0" * 31, SALT_HEX + " "])


@given(st.data())
def test_accepted_manifest_bytes_are_canonical(data):
    encrypted = data.draw(st.booleans())
    label = data.draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=6))
    headers = [f"dataset: {label}", "created: 2026-01-01T00:00:00Z"]
    if encrypted:
        headers += [
            "codec: aes-256-gcm", "kdf: pbkdf2-hmac-sha256",
            f"iterations: {data.draw(_SPELLED_INTS)}", f"salt: {data.draw(_SPELLED_SALTS)}",
        ]
    else:
        headers.append(f"codec: {data.draw(st.sampled_from(['none', 'deflate', 'none ']))}")
    if data.draw(st.booleans()):
        headers = data.draw(st.permutations(headers))
    paths = sorted(set(data.draw(st.lists(_SPELLED_PATHS, max_size=4))))
    lines = [entry_line(p, data.draw(_SPELLED_INTS), data.draw(_SPELLED_INTS)) for p in paths]
    raw = assemble(headers, lines)
    try:
        parsed = parse_manifest(raw)
    except ManifestError:
        return
    assert serialize_manifest(parsed) == raw
