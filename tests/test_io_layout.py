"""Disk bench address layout: which (target, offset) each IO touches.

The pinned digest below is the SHA-256 of the offsets and target file
sizes that plain and striped runs produced before the two layouts were
folded into one chunk map; any change to the offset stream, the random
draw order or the target-size rule changes it.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from brickkit.io_bench import BenchSpec, StripeSet, run_io_bench, run_stripe_bench

KB = 1024
PINNED_BLOCK = 8 * KB
PINNED_TARGET_BYTES = 100_000  # 12 blocks and 1,696 bytes: not a multiple of the block
PINNED_DIGEST = "d1af944a16843ed1c5a7c965d9ffe41252806c8937b2a4e318817b792c9817c8"


def _run(kind, targets, **fields):
    spec = BenchSpec(targets=targets, cache_bypass=False, **fields)
    if kind == "plain":
        return run_io_bench(spec, record_offsets=True)
    stripe = StripeSet(targets=targets, stripe_unit_bytes=spec.block_bytes)
    return run_stripe_bench(spec, stripe, record_offsets=True)


def _layout_record(root: Path) -> list:
    """Offsets of a write and a verified read, and the sizes the write left."""
    record = []
    for kind in ("plain", "striped"):
        for width in (1, 3, 7):
            for pattern in ("sequential", "random"):
                folder = root / f"{kind}-{width}-{pattern}"
                folder.mkdir()
                targets = tuple(folder / f"t{i}.bin" for i in range(width))
                fields = dict(
                    pattern=pattern, block_bytes=PINNED_BLOCK,
                    target_bytes=PINNED_TARGET_BYTES, queue_depth=3,
                    pass_count=2, rng_seed=7,
                )
                write = _run(kind, targets, op="write", **fields)
                sizes = [target.stat().st_size for target in targets]
                read = _run(kind, targets, op="read", verify_pattern=True, **fields)
                record.append((kind, width, pattern, write.offsets, sizes, read.offsets))
    return record


def test_offsets_and_target_sizes_match_pinned_layout(tmp_path):
    record = _layout_record(tmp_path)
    assert hashlib.sha256(repr(record).encode()).hexdigest() == PINNED_DIGEST


@settings(max_examples=40)
@given(
    striped=st.booleans(),
    width=st.integers(min_value=1, max_value=5),
    block=st.sampled_from([512, 1024, 4096]),
    blocks=st.integers(min_value=1, max_value=24),
    tail=st.integers(min_value=0, max_value=511),
)
def test_one_pass_is_a_bijection_that_fits_the_targets(striped, width, block, blocks, tail):
    with tempfile.TemporaryDirectory() as scratch:
        targets = tuple(Path(scratch) / f"t{i}.bin" for i in range(width))
        report = _run(
            "striped" if striped else "plain", targets, pattern="sequential",
            op="write", block_bytes=block, target_bytes=blocks * block + tail,
            queue_depth=2, pass_count=1,
        )
        sizes = [target.stat().st_size for target in targets]
    chunks = blocks if striped else blocks * width
    assert report.io_count == chunks
    assert len(set(report.offsets)) == chunks
    for target, offset in report.offsets:
        assert offset % block == 0
        assert offset + block <= sizes[target]
    if striped:  # members stay equal in size so a striped read accepts them
        assert len(set(sizes)) == 1
