"""Seeded input generation for the benchmark workloads.

Every input is a function of the workload parameters and the seed alone.
The seed moves content and placement; the amounts that set the cost of an
operation (file count, the multiset of file sizes, directory count, the
share of compressible blocks) are fixed by the parameters, so runs with
different seeds do the same amount of work.

The benchmark hashes what it writes here with hashlib, apart from the
program under test, and later checks the program's outputs against it.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

# Compressible blocks map random bytes onto a 16-letter alphabet: about four
# bits of entropy per byte, so deflate does real work at a ratio that does
# not depend on the seed.
_ALPHABET16 = bytes(b"etaoinshrdlucmfw"[i % 16] for i in range(256))


@dataclass(frozen=True)
class SourceTree:
    """What the benchmark wrote: {relative path: (size, sha256 hex)} and its directories."""

    root: Path
    files: dict[str, tuple[int, str]]
    dirs: frozenset[str]
    marker: bytes | None = None

    @property
    def plain_bytes(self) -> int:
        return sum(size for size, _ in self.files.values())


def make_tree(root: Path, seed: int, file_count: int, max_file_bytes: int, top_dirs: int,
              sub_dirs: int) -> SourceTree:
    """Many small files, 1 B to max_file_bytes, log-spaced, over a two-level tree.

    Every leaf directory gets at least one file, so the tree has no empty
    directory (pack drops those; see the FOUND line in CHANGES.md).
    """
    rng = random.Random(seed)
    sizes = [round(max_file_bytes ** (i / (file_count - 1))) for i in range(file_count)]
    rng.shuffle(sizes)
    leaves = [f"d{t:02d}/s{s:02d}" for t in range(top_dirs) for s in range(sub_dirs)]
    places = [""] + [f"d{t:02d}" for t in range(top_dirs)] + leaves
    homes = leaves + [rng.choice(places) for _ in range(file_count - len(leaves))]
    rng.shuffle(homes)

    files: dict[str, tuple[int, str]] = {}
    dirs: set[str] = set()
    root.mkdir(parents=True)
    for index, (home, size) in enumerate(zip(homes, sizes)):
        relative = f"{home}/f{index:05d}.dat" if home else f"f{index:05d}.dat"
        body = rng.randbytes(size)
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(body)
        files[relative] = (size, hashlib.sha256(body).hexdigest())
        parts = relative.split("/")[:-1]
        dirs.update("/".join(parts[: depth + 1]) for depth in range(len(parts)))
    return SourceTree(root=root, files=files, dirs=frozenset(dirs))


def make_large_file(root: Path, seed: int, block_count: int, block_bytes: int) -> SourceTree:
    """One file of block_count blocks, exactly half of them compressible.

    The seed chooses which blocks compress and their content. A marker
    string opens every block so a later check can prove no payload holds
    plaintext.
    """
    rng = random.Random(seed)
    compressible = [True] * (block_count // 2) + [False] * (block_count - block_count // 2)
    rng.shuffle(compressible)
    marker = f"BRICKKIT-BENCH-PLAINTEXT-MARKER-{seed:010d}".encode()
    digest = hashlib.sha256()
    root.mkdir(parents=True)
    with open(root / "large.dat", "wb") as handle:
        for squeeze in compressible:
            block = rng.randbytes(block_bytes)
            if squeeze:
                block = block.translate(_ALPHABET16)
            block = marker + block[len(marker):]
            digest.update(block)
            handle.write(block)
    size = block_count * block_bytes
    return SourceTree(
        root=root, files={"large.dat": (size, digest.hexdigest())}, dirs=frozenset(), marker=marker
    )
