from __future__ import annotations

import os
import random
from pathlib import Path
from typing import NamedTuple

from hypothesis import HealthCheck, settings

from brickkit import brick as brick_mod
from brickkit.manifest import MANIFEST_FILENAME

settings.register_profile(
    "bulk", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("bulk")

# Only ever used to make KDF-heavy tests quick; never the library default.
FAST_KDF_ITERATIONS = 600


def write_random_tree(
    root: Path,
    rng: random.Random,
    max_files: int = 30,
    max_file_bytes: int = 4096,
    max_depth: int = 3,
) -> dict[str, bytes]:
    """Create a random file tree under root; returns {relative path: bytes}."""
    names = ("alpha", "beta", "data", "x", "readme.txt", "b.bin", "café", "01")
    contents: dict[str, bytes] = {}
    for _ in range(rng.randint(1, max_files)):
        depth = rng.randint(0, max_depth)
        parts = [rng.choice(names) + str(rng.randint(0, 99)) for _ in range(depth)]
        parts.append(rng.choice(names) + str(rng.randint(0, 9999)))
        relative = "/".join(parts)
        collides = relative in contents or any(
            relative.startswith(p + "/") or p.startswith(relative + "/") for p in contents
        )
        if collides:
            continue
        body = rng.randbytes(rng.randint(0, max_file_bytes))
        target = root / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(body)
        contents[relative] = body
    return contents


def cap_reads(monkeypatch, most: int) -> None:
    """Make every os.read return at most `most` bytes, as a pipe or a network filesystem may."""
    real_read = os.read
    monkeypatch.setattr(os, "read", lambda fd, count: real_read(fd, min(count, most)))


def read_tree(root: Path) -> dict[str, bytes]:
    """Read every regular file under root as {relative path: bytes}."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


# The name each case plants, where a link or file appears once the command
# has found its output directory empty and before it creates that name.
PLANTED = {
    "payload": "a.txt",
    "manifest": MANIFEST_FILENAME,
    "brick-subdirectory": "sub",
    "destination-subdirectory": "sub",
    "scratch": ".brick-unpack",  # the directory unpack decodes every file into
    "destination-file": "a.txt",  # the final name entry 0 is restored to
}
# The cases that plant a regular file holding b"planted"; the others plant a symlink.
PLANTED_FILES = ("scratch", "destination-file")


class Planted(NamedTuple):
    command: str  # "pack" or "unpack"
    given: Path  # the source tree or the brick
    made: Path  # the output directory, empty when the command checks it
    name: str  # what is planted there, relative to made
    outside: Path  # a tree outside both, which no command may change


def plant_after_the_check(tmp_path: Path, monkeypatch, case: str) -> Planted:
    """Set up `case`: its name is planted when pack or unpack resolves its key.

    Both resolve it after checking that the output directory is empty and
    before they create anything in it. The PLANTED_FILES cases get a
    regular file; every other name a symlink into `outside`, whose a.txt and
    b.bin share names with the tree's files.
    """
    source = tmp_path / "src"
    (source / "sub").mkdir(parents=True)
    (source / "a.txt").write_bytes(b"alpha")
    (source / "sub" / "b.bin").write_bytes(bytes(range(100)) * 10)
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "a.txt").write_bytes(b"outside a")
    (outside / "b.bin").write_bytes(b"outside b")
    if case in ("destination-subdirectory", *PLANTED_FILES):
        brick_mod.pack(source, tmp_path / "brick")
        planted = Planted("unpack", tmp_path / "brick", tmp_path / "out", PLANTED[case], outside)
    else:
        planted = Planted("pack", source, tmp_path / "brick", PLANTED[case], outside)
    planted.made.mkdir()
    at = planted.made / planted.name
    resolve = brick_mod._resolve_key

    def plant_then_resolve(*args):
        if case in PLANTED_FILES:
            at.write_bytes(b"planted")
        else:
            at.symlink_to(outside if at.name == "sub" else outside / "a.txt")
        return resolve(*args)

    monkeypatch.setattr(brick_mod, "_resolve_key", plant_then_resolve)
    return planted
