from __future__ import annotations

import os
import random
from pathlib import Path

from hypothesis import HealthCheck, settings

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
