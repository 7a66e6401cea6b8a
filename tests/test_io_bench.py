from __future__ import annotations

import errno
import fcntl
import hashlib
import itertools
import math
import os
import random
import re
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brickkit import io_bench
from brickkit.errors import ConfigError, IntegrityError
from brickkit.io_bench import (
    IO_CSV_HEADER,
    BenchSpec,
    StripeSet,
    fill_block,
    run_io_bench,
    run_stripe_bench,
    stripe_map,
    _Reservoir,
)

KB = 1024
MB = 1024 * 1024


def spec_for(tmp_path: Path, name="disk.bin", **overrides) -> BenchSpec:
    defaults = dict(
        pattern="sequential",
        op="write",
        block_bytes=64 * KB,
        targets=(tmp_path / name,),
        target_bytes=4 * MB,
        queue_depth=2,
        pass_count=1,
        cache_bypass=False,
    )
    defaults.update(overrides)
    return BenchSpec(**defaults)


# ---------- spec validation ----------

@pytest.mark.parametrize(
    "overrides",
    [
        {"pattern": "zigzag"},
        {"op": "trim"},
        {"block_bytes": 100_000},       # not a power of two
        {"block_bytes": 256},           # below floor
        {"block_bytes": 16 * MB},       # above ceiling
        {"queue_depth": 0},
        {"queue_depth": 257},
        {"targets": ()},
        {"target_bytes": 4 * KB},       # smaller than block
        {"pass_count": None},           # neither stop rule
        {"pass_count": 1, "duration_seconds": 1.0},  # both stop rules
        {"pass_count": 0},
        {"pass_count": None, "duration_seconds": 0.0},
        {"pass_count": None, "duration_seconds": math.nan},  # never reaches its deadline
        {"pass_count": None, "duration_seconds": math.inf},
        {"rng_seed": -1},
        {"verify_pattern": True},       # verify is read-only
    ],
)
def test_spec_rejects_bad_values(tmp_path, overrides):
    with pytest.raises(ConfigError):
        spec_for(tmp_path, **overrides)


def test_spec_block_may_equal_target(tmp_path):
    spec = spec_for(tmp_path, block_bytes=64 * KB, target_bytes=64 * KB)
    assert spec.slots_per_target == 1


def test_stripe_set_validation():
    with pytest.raises(ConfigError):
        StripeSet(targets=())
    with pytest.raises(ConfigError):
        StripeSet(targets=(Path("a"),), stripe_unit_bytes=100)


def test_spec_seed_must_fit_in_64_bits(tmp_path):
    with pytest.raises(ConfigError, match="64 bits"):
        spec_for(tmp_path, rng_seed=2**64)
    assert spec_for(tmp_path, rng_seed=2**64 - 1).rng_seed == 2**64 - 1


# ---------- pattern block ----------

def pattern_block(seed: int, target: int, offset: int, size: int) -> bytes:
    buffer = bytearray(size)
    fill_block(io_bench._Pattern(seed, target + 1, size), target, offset, buffer)
    return bytes(buffer)


def test_pattern_is_a_function_of_the_absolute_offset():
    a = pattern_block(7, 0, 0, 8 * KB)
    assert a == pattern_block(7, 0, 0, 8 * KB)
    # Blocks of any size agree wherever they overlap.
    assert a == pattern_block(7, 0, 0, 4 * KB) + pattern_block(7, 0, 4 * KB, 4 * KB)
    assert a[1000:1512] == pattern_block(7, 0, 1000, 512)
    distinct = {
        pattern_block(7, 0, 0, 512),
        pattern_block(8, 0, 0, 512),
        pattern_block(7, 1, 0, 512),
        pattern_block(7, 0, 512, 512),
    }
    assert len(distinct) == 4
    # Only a shift by a whole period reads the same bytes.
    period = io_bench.PATTERN_PERIOD
    assert pattern_block(7, 0, period - 100, 512) == pattern_block(7, 0, 2 * period - 100, 512)
    assert pattern_block(7, 0, 0, 512) != pattern_block(7, 0, period - 1, 512)


def test_pattern_period_is_a_prime_above_every_block_size():
    period = io_bench.PATTERN_PERIOD
    assert period > io_bench.MAX_BLOCK
    assert all(period % divisor for divisor in range(2, math.isqrt(period) + 1))


@pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1])
def test_written_content_is_pinned_for_every_valid_seed(tmp_path, seed):
    # Byte o of target 0 is byte (phase + o) mod the period of SHAKE-256(tag,
    # seed), where the phase is SHA-256(tag, seed, target)'s first 8 bytes.
    run_io_bench(spec_for(tmp_path, rng_seed=seed, target_bytes=256 * KB))
    tag = b"brickkit-io" + seed.to_bytes(8, "big")
    period = hashlib.shake_256(tag).digest(8_388_617)
    phase = int.from_bytes(hashlib.sha256(tag + bytes(4)).digest()[:8], "big") % len(period)
    expected = (period + period)[phase : phase + 256 * KB]
    assert (tmp_path / "disk.bin").read_bytes() == expected


# ---------- accounting ----------

def test_write_pass_accounting_is_exact(tmp_path):
    report = run_io_bench(spec_for(tmp_path))
    assert report.io_count == 64                       # 4 MiB / 64 KiB
    assert report.bytes_transferred == 4 * MB
    assert report.spec.targets[0].stat().st_size == 4 * MB
    assert report.depth_high_water <= 2
    assert report.elapsed_seconds > 0
    assert report.latency.p50_us <= report.latency.max_us


def test_three_passes_triple_the_io_count(tmp_path):
    report = run_io_bench(spec_for(tmp_path, pass_count=3))
    assert report.io_count == 192
    assert report.bytes_transferred == 12 * MB


def test_multi_target_covers_every_target(tmp_path):
    targets = (tmp_path / "a.bin", tmp_path / "b.bin", tmp_path / "c.bin")
    report = run_io_bench(spec_for(tmp_path, targets=targets, target_bytes=MB))
    assert report.io_count == 3 * 16
    for target in targets:
        assert target.stat().st_size == MB


def test_duration_mode_runs_and_stops(tmp_path):
    spec = spec_for(tmp_path, pass_count=None, duration_seconds=0.05)
    report = run_io_bench(spec)
    assert report.io_count >= 1
    assert report.elapsed_seconds < 10.0


@pytest.mark.parametrize("pattern", ["sequential", "random"])
def test_a_duration_run_claims_the_pass_mode_sequence(tmp_path, pattern):
    fields = dict(block_bytes=8 * KB, target_bytes=256 * KB, rng_seed=11)
    run_io_bench(spec_for(tmp_path, **fields))  # provide bytes to read
    read = spec_for(tmp_path, op="read", pattern=pattern, **fields)
    timed = run_io_bench(
        replace(read, pass_count=None, duration_seconds=0.1), record_offsets=True
    )
    assert timed.io_count > 32  # past the end of the first pass
    counted = run_io_bench(replace(read, pass_count=timed.io_count // 32 + 1), record_offsets=True)
    assert timed.offsets == counted.offsets[: timed.io_count]


@pytest.mark.parametrize("where", ["on-disk", "in-one-read"])
def test_a_failed_duration_run_stops_at_once(tmp_path, monkeypatch, where):
    fields = dict(block_bytes=8 * KB, target_bytes=MB, rng_seed=7)
    run_io_bench(spec_for(tmp_path, **fields))
    if where == "on-disk":  # every worker that draws this block fails
        with open(tmp_path / "disk.bin", "r+b") as handle:
            handle.seek(500_000)
            original = handle.read(1)
            handle.seek(500_000)
            handle.write(bytes([original[0] ^ 0x01]))
        expected = "at byte 500000$"
    else:  # one worker fails once; only poison() stops the other
        reads, real_preadv = itertools.count(), os.preadv

        def flip_the_first_read(fd, buffers, offset):
            moved = real_preadv(fd, buffers, offset)
            if next(reads) == 0:
                buffers[0][17] ^= 0x01
            return moved

        monkeypatch.setattr(os, "preadv", flip_the_first_read)
        expected = "pattern mismatch"
    read = spec_for(
        tmp_path, op="read", pattern="random", verify_pattern=True,
        pass_count=None, duration_seconds=30, **fields,
    )
    started = time.perf_counter()
    with pytest.raises(IntegrityError, match=expected):
        run_io_bench(read)
    assert time.perf_counter() - started < 10


def test_depth_high_water_bounded_by_depth(tmp_path):
    report = run_io_bench(spec_for(tmp_path, queue_depth=8, target_bytes=8 * MB))
    assert 1 <= report.depth_high_water <= 8


def test_default_cache_bypass_attempt_is_recorded(tmp_path):
    report = run_io_bench(spec_for(tmp_path, cache_bypass=True))
    assert report.cache_bypass in (True, False)  # bypass or recorded fallback
    assert report.io_count == 64


# ---------- offsets ----------

def test_sequential_offsets_are_target_major(tmp_path):
    targets = (tmp_path / "a.bin", tmp_path / "b.bin")
    spec = spec_for(tmp_path, targets=targets, target_bytes=256 * KB, queue_depth=1)
    report = run_io_bench(spec, record_offsets=True)
    block = spec.block_bytes
    assert report.offsets == tuple(
        (target, slot * block) for target in (0, 1) for slot in range(4)
    )


def test_random_offsets_reproduce_from_seed(tmp_path):
    run_io_bench(spec_for(tmp_path))  # provide bytes to read
    spec = spec_for(tmp_path, op="read", pattern="random", rng_seed=42, pass_count=2)
    first = run_io_bench(spec, record_offsets=True)
    second = run_io_bench(spec, record_offsets=True)
    assert first.offsets == second.offsets
    assert len(first.offsets) == 128
    for target, offset in first.offsets:
        assert target == 0
        assert offset % spec.block_bytes == 0
        assert 0 <= offset <= spec.target_bytes - spec.block_bytes


def test_offsets_not_recorded_by_default(tmp_path):
    assert run_io_bench(spec_for(tmp_path)).offsets is None


# ---------- verified reads ----------

def test_write_then_verified_read_round_trips(tmp_path):
    run_io_bench(spec_for(tmp_path, rng_seed=7))
    read_spec = spec_for(tmp_path, op="read", verify_pattern=True, rng_seed=7)
    report = run_io_bench(read_spec)
    assert report.io_count == 64


def test_verified_read_pinpoints_corruption(tmp_path):
    run_io_bench(spec_for(tmp_path, rng_seed=7))
    victim = tmp_path / "disk.bin"
    poison_at = 3 * 64 * KB + 17
    with open(victim, "r+b") as handle:
        handle.seek(poison_at)
        original = handle.read(1)
        handle.seek(poison_at)
        handle.write(bytes([original[0] ^ 0xFF]))
    read_spec = spec_for(tmp_path, op="read", verify_pattern=True, rng_seed=7)
    with pytest.raises(IntegrityError, match=f"at byte {poison_at}$"):
        run_io_bench(read_spec)


def test_verified_read_wrong_seed_fails(tmp_path):
    run_io_bench(spec_for(tmp_path, rng_seed=7))
    with pytest.raises(IntegrityError, match="pattern mismatch"):
        run_io_bench(spec_for(tmp_path, op="read", verify_pattern=True, rng_seed=8))


def test_random_verified_read_after_sequential_write_passes(tmp_path):
    run_io_bench(spec_for(tmp_path, block_bytes=8 * KB, rng_seed=5))
    read_spec = spec_for(
        tmp_path, op="read", pattern="random", block_bytes=8 * KB,
        verify_pattern=True, rng_seed=5, pass_count=2,
    )
    report = run_io_bench(read_spec, record_offsets=True)
    assert report.io_count == 2 * 512
    assert len(set(report.offsets)) > 256  # the draws really do wander


@pytest.mark.parametrize(
    "write_block, read_block, pattern",
    [(64 * KB, 8 * KB, "random"), (8 * KB, 64 * KB, "sequential"), (64 * KB, 512, "sequential")],
)
def test_a_verified_read_may_use_another_block_size(tmp_path, write_block, read_block, pattern):
    run_io_bench(spec_for(tmp_path, block_bytes=write_block, target_bytes=MB, rng_seed=3))
    read = spec_for(
        tmp_path, op="read", pattern=pattern, block_bytes=read_block, target_bytes=MB,
        verify_pattern=True, rng_seed=3,
    )
    assert run_io_bench(read).io_count == MB // read_block
    poison_at = 802_816 + 4099
    with open(tmp_path / "disk.bin", "r+b") as handle:
        handle.seek(poison_at)
        original = handle.read(1)
        handle.seek(poison_at)
        handle.write(bytes([original[0] ^ 0x01]))
    sequential = replace(read, pattern="sequential")
    with pytest.raises(IntegrityError, match=f"at byte {poison_at}$"):
        run_io_bench(sequential)


@pytest.mark.parametrize("striped", [False, True], ids=["plain", "striped"])
@pytest.mark.parametrize("alias", ["same-path", "symlink"])
def test_a_file_named_twice_among_targets_is_refused(tmp_path, alias, striped):
    first = tmp_path / "a.bin"
    second = first if alias == "same-path" else tmp_path / "link.bin"
    if alias == "symlink":
        second.symlink_to(first)

    def run(targets, **fields):
        spec = spec_for(tmp_path, targets=targets, target_bytes=MB, rng_seed=7, **fields)
        if striped:
            return run_stripe_bench(spec, StripeSet(targets, stripe_unit_bytes=spec.block_bytes))
        return run_io_bench(spec)

    refusal = re.escape(f"targets {first} and {second} are the same file")
    with pytest.raises(ConfigError, match=refusal):
        run((first, second))
    assert not first.exists()  # the run created it, so the refusal removed it
    run((first,))
    healthy = first.read_bytes()
    for fields in ({}, {"op": "read", "verify_pattern": True}):
        with pytest.raises(ConfigError, match=refusal):
            run((first, second), **fields)
    assert first.read_bytes() == healthy
    assert run((first,), op="read", verify_pattern=True).io_count == 16


def test_read_needs_prewritten_bytes(tmp_path):
    (tmp_path / "disk.bin").write_bytes(b"\0" * KB)
    with pytest.raises(ConfigError, match="write pass first"):
        run_io_bench(spec_for(tmp_path, op="read"))


def test_read_missing_target_is_io_error(tmp_path):
    with pytest.raises(OSError):
        run_io_bench(spec_for(tmp_path, op="read", name="ghost.bin"))


def test_a_short_read_is_an_io_error(tmp_path, monkeypatch):
    run_io_bench(spec_for(tmp_path))
    real_preadv = os.preadv

    def short_at_192k(fd, buffers, offset):
        return real_preadv(fd, [bytearray(100)] if offset == 192 * KB else buffers, offset)

    monkeypatch.setattr(os, "preadv", short_at_192k)
    expected = f"^short read on {re.escape(str(tmp_path / 'disk.bin'))} at {192 * KB}$"
    with pytest.raises(OSError, match=expected):
        run_io_bench(spec_for(tmp_path, op="read"))


# ---------- striping ----------

def seven_stripe(tmp_path):
    targets = tuple(tmp_path / f"member{i}.bin" for i in range(7))
    return StripeSet(targets=targets, stripe_unit_bytes=64 * KB)


def test_stripe_map_examples(tmp_path):
    stripe = seven_stripe(tmp_path)
    assert stripe_map(stripe, 0) == (0, 0)
    assert stripe_map(stripe, 6) == (6, 0)
    assert stripe_map(stripe, 7) == (0, 64 * KB)
    assert stripe_map(stripe, 10) == (3, 64 * KB)
    with pytest.raises(ConfigError):
        stripe_map(stripe, -1)


@given(st.integers(min_value=1, max_value=8))
def test_stripe_map_is_a_bijection(width):
    stripe = StripeSet(targets=tuple(Path(f"m{i}") for i in range(width)))
    unit = stripe.stripe_unit_bytes
    seen = set()
    for index in range(10_000):
        target, offset = stripe_map(stripe, index)
        assert 0 <= target < width
        assert offset % unit == 0
        assert (offset // unit) * width + target == index  # invertible
        seen.add((target, offset))
    assert len(seen) == 10_000


def test_stripe_write_then_verified_read(tmp_path):
    stripe = seven_stripe(tmp_path)
    base = dict(
        block_bytes=64 * KB, targets=stripe.targets, target_bytes=7 * MB,
        queue_depth=4, pass_count=1, cache_bypass=False, rng_seed=3,
    )
    write = run_stripe_bench(BenchSpec(pattern="sequential", op="write", **base), stripe)
    assert write.io_count == 112                       # 7 MiB / 64 KiB chunks
    rows = -(-112 // 7)
    for member in stripe.targets:
        assert member.stat().st_size == rows * 64 * KB
    read = run_stripe_bench(
        BenchSpec(pattern="sequential", op="read", verify_pattern=True, **base), stripe
    )
    assert read.io_count == 112
    assert read.bytes_transferred == 7 * MB


def test_stripe_offsets_cover_each_chunk_once(tmp_path):
    stripe = seven_stripe(tmp_path)
    spec = BenchSpec(
        pattern="sequential", op="write", block_bytes=64 * KB,
        targets=stripe.targets, target_bytes=7 * MB, pass_count=1, cache_bypass=False,
    )
    report = run_stripe_bench(spec, stripe, record_offsets=True)
    assert report.offsets == tuple(stripe_map(stripe, i) for i in range(112))


def test_single_member_stripe_matches_plain_run(tmp_path):
    target = (tmp_path / "solo.bin",)
    stripe = StripeSet(targets=target, stripe_unit_bytes=64 * KB)
    for pattern in ("sequential", "random"):
        base = dict(
            pattern=pattern, op="write", block_bytes=64 * KB, targets=target,
            target_bytes=MB, pass_count=1, cache_bypass=False, rng_seed=11,
        )
        striped = run_stripe_bench(BenchSpec(**base), stripe, record_offsets=True)
        plain = run_io_bench(BenchSpec(**base), record_offsets=True)
        assert striped.offsets == plain.offsets


def test_stripe_rejects_mismatched_geometry(tmp_path):
    stripe = seven_stripe(tmp_path)
    good = dict(
        pattern="sequential", op="write", block_bytes=64 * KB,
        target_bytes=7 * MB, pass_count=1, cache_bypass=False,
    )
    other = BenchSpec(targets=(tmp_path / "other.bin",), **good)
    with pytest.raises(ConfigError, match="same list"):
        run_stripe_bench(other, stripe)
    narrow = BenchSpec(targets=stripe.targets, **{**good, "block_bytes": 32 * KB})
    with pytest.raises(ConfigError, match="stripe_unit_bytes"):
        run_stripe_bench(narrow, stripe)


def test_stripe_read_rejects_ragged_members(tmp_path):
    stripe = seven_stripe(tmp_path)
    for index, member in enumerate(stripe.targets):
        member.write_bytes(b"\0" * (MB + (KB if index == 3 else 0)))
    spec = BenchSpec(
        pattern="sequential", op="read", block_bytes=64 * KB,
        targets=stripe.targets, target_bytes=7 * MB, pass_count=1, cache_bypass=False,
    )
    with pytest.raises(ConfigError, match="differing sizes"):
        run_stripe_bench(spec, stripe)


# ---------- report shapes ----------

def test_csv_row_has_header_fields_and_consistent_rates(tmp_path):
    report = run_io_bench(spec_for(tmp_path))
    row = report.csv_row().split(",")
    assert len(row) == len(IO_CSV_HEADER.split(",")) == 15
    assert row[0] == "sequential" and row[1] == "write"
    assert int(row[6]) == report.bytes_transferred
    assert float(row[8]) == pytest.approx(report.iops, rel=0.01)
    assert float(row[9]) == pytest.approx(report.mbps, rel=0.01)
    assert row[14] == "false"


def test_text_lines_mention_depth_and_bypass(tmp_path):
    report = run_io_bench(spec_for(tmp_path))
    text = "\n".join(report.text_lines())
    assert "depth high-water" in text
    assert "cache bypass false" in text
    assert "MBps" in text


def test_report_rates_follow_from_counts(tmp_path):
    report = run_io_bench(spec_for(tmp_path))
    assert report.iops == report.io_count / report.elapsed_seconds
    assert report.mbps == report.bytes_transferred / report.elapsed_seconds / 1e6


# ---------- latency reservoir ----------

def test_reservoir_complete_when_under_cap():
    res = _Reservoir(seed=1)
    for value in [5.0, 1.0, 9.0, 3.0]:
        res.add(value)
    summary = res.summary()
    assert summary.method == "complete"
    assert summary.max_us == 9.0
    assert summary.p50_us <= summary.p95_us <= summary.p99_us <= summary.max_us


def test_reservoir_downsamples_but_keeps_exact_max(monkeypatch):
    monkeypatch.setattr(io_bench, "LATENCY_SAMPLE_CAP", 16)
    res = _Reservoir(seed=1)
    values = list(range(1, 1001))
    random.Random(0).shuffle(values)
    for value in values:
        res.add(float(value))
    summary = res.summary()
    assert summary.method == "reservoir"
    assert summary.max_us == 1000.0
    assert len(res._samples) == 16


def test_empty_reservoir_is_all_zero():
    summary = _Reservoir(seed=0).summary()
    assert (summary.p50_us, summary.max_us, summary.method) == (0.0, 0.0, "complete")


# ---------- opening targets ----------

def refuse_the_bypass(monkeypatch) -> None:
    """Make setting O_DIRECT on a descriptor fail, as tmpfs and many network filesystems do."""
    real_fcntl = fcntl.fcntl

    def no_direct(fd, command, arg=0):
        if command == fcntl.F_SETFL and arg & os.O_DIRECT:
            raise OSError(errno.EINVAL, os.strerror(errno.EINVAL))
        return real_fcntl(fd, command, arg)

    monkeypatch.setattr(fcntl, "fcntl", no_direct)


def test_a_target_that_refuses_the_bypass_runs_buffered(tmp_path, monkeypatch):
    refuse_the_bypass(monkeypatch)
    write = run_io_bench(spec_for(tmp_path, cache_bypass=True, rng_seed=7))
    read = run_io_bench(
        spec_for(tmp_path, op="read", verify_pattern=True, cache_bypass=True, rng_seed=7)
    )
    assert (write.cache_bypass, read.cache_bypass) == (False, False)
    assert (write.io_count, read.io_count) == (64, 64)
    with pytest.raises(OSError):
        run_io_bench(spec_for(tmp_path, op="read", cache_bypass=True, name="ghost.bin"))


@pytest.mark.parametrize("bypass", [False, True], ids=["buffered", "bypass-refused-after-create"])
@pytest.mark.parametrize("existed", [False, True], ids=["new", "existing"])
def test_a_write_that_fails_at_its_second_target_removes_only_what_it_created(
    tmp_path, monkeypatch, existed, bypass
):
    first = tmp_path / "a.bin"
    if existed:
        first.write_bytes(b"before the run")
    if bypass:
        refuse_the_bypass(monkeypatch)
    targets = (first, tmp_path / "missing" / "b.bin")
    with pytest.raises(FileNotFoundError):
        run_io_bench(spec_for(tmp_path, targets=targets, target_bytes=MB, cache_bypass=bypass))
    if existed:
        assert first.read_bytes() == b"before the run"
    else:
        assert not first.exists()


def test_a_plain_run_opens_each_target_once_and_stats_none(tmp_path, monkeypatch):
    opened, statted = [], []
    real_open, real_stat, real_fcntl = os.open, os.stat, fcntl.fcntl

    def counting_open(path, *args, **kwargs):
        opened.append(str(path))
        return real_open(path, *args, **kwargs)

    def counting_stat(path, *args, **kwargs):
        statted.append(str(path))
        return real_stat(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", counting_open)
    monkeypatch.setattr(os, "stat", counting_stat)
    for bypass in ("not asked", "granted", "refused"):
        # New targets for each case, written, read, then written and read again as existing
        # targets: a write opens an existing target twice, first with O_EXCL, which fails.
        targets = tuple(tmp_path / bypass / name for name in ("a.bin", "b.bin", "c.bin"))
        targets[0].parent.mkdir()
        names = [str(target) for target in targets]
        if bypass == "granted":  # whatever tmp_path's filesystem allows, the flag is taken
            monkeypatch.setattr(fcntl, "fcntl", lambda fd, command, arg=0: 0)
        if bypass == "refused":
            monkeypatch.setattr(fcntl, "fcntl", real_fcntl)
            refuse_the_bypass(monkeypatch)
        for op, opens_per_target in (("write", 1), ("read", 1), ("write", 2), ("read", 1)):
            opened.clear()
            asked = bypass != "not asked"
            spec = spec_for(tmp_path, op=op, targets=targets, target_bytes=MB, cache_bypass=asked)
            assert run_io_bench(spec).cache_bypass == (bypass == "granted")
            assert sorted(opened) == sorted(names * opens_per_target)
            assert set(names).isdisjoint(statted)
