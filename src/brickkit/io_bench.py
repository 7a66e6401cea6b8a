"""Disk exerciser: sequential/random read/write at a fixed queue depth.

The engine keeps queue_depth requests in flight with a pool of worker
threads claiming offsets from one shared stream, so a depth-2 64 KB
sequential run and a depth-1 8 KB random run exercise a drive the same
way the classic SQL-style disk benchmarks did.

Every run is laid out by one chunk map, chunk index to (target, offset).
Plain runs fill the targets one after another: with S blocks per target,
chunk i lands on target (i div S) at offset (i mod S) x block. Striped
runs address one logical byte stream across N targets RAID0 style: chunk
i lands on target (i mod N) at offset (i div N) x unit.

All sizes are plain bytes. Reported mbps is 10^6 bytes per second.
"""

from __future__ import annotations

import hashlib
import math
import mmap
import os
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .errors import ConfigError, IntegrityError

PATTERN_SEQUENTIAL = "sequential"
PATTERN_RANDOM = "random"
OP_READ = "read"
OP_WRITE = "write"

MIN_BLOCK = 512
MAX_BLOCK = 8 * 1024 * 1024
MAX_DEPTH = 256
LATENCY_SAMPLE_CAP = 10**6

IO_CSV_HEADER = (
    "pattern,op,block_bytes,depth,targets,elapsed_s,bytes,io_count,"
    "iops,mbps,p50_us,p95_us,p99_us,max_us,cache_bypass"
)


def _power_of_two(value: int) -> bool:
    return value > 0 and value & (value - 1) == 0


@dataclass(frozen=True)
class BenchSpec:
    """One benchmark run: what to do, against what, and when to stop."""

    pattern: str
    op: str
    block_bytes: int
    targets: tuple[Path, ...]
    target_bytes: int
    queue_depth: int = 1
    pass_count: int | None = None
    duration_seconds: float | None = None
    rng_seed: int = 0
    cache_bypass: bool = True
    verify_pattern: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(Path(t) for t in self.targets))
        if self.pattern not in (PATTERN_SEQUENTIAL, PATTERN_RANDOM):
            raise ConfigError(f"unknown pattern {self.pattern!r}")
        if self.op not in (OP_READ, OP_WRITE):
            raise ConfigError(f"unknown op {self.op!r}")
        if not _power_of_two(self.block_bytes) or not MIN_BLOCK <= self.block_bytes <= MAX_BLOCK:
            raise ConfigError(
                f"block_bytes must be a power of two in [{MIN_BLOCK}, {MAX_BLOCK}],"
                f" got {self.block_bytes}"
            )
        if not 1 <= self.queue_depth <= MAX_DEPTH:
            raise ConfigError(f"queue_depth must be in [1, {MAX_DEPTH}], got {self.queue_depth}")
        if not self.targets:
            raise ConfigError("at least one target is required")
        if self.block_bytes > self.target_bytes:
            raise ConfigError(
                f"block_bytes {self.block_bytes} exceeds target_bytes {self.target_bytes}"
            )
        if (self.pass_count is None) == (self.duration_seconds is None):
            raise ConfigError("exactly one of pass_count and duration_seconds must be set")
        if self.pass_count is not None and self.pass_count < 1:
            raise ConfigError("pass_count must be >= 1")
        if self.duration_seconds is not None and not 0 < self.duration_seconds < math.inf:
            raise ConfigError("duration_seconds must be finite and > 0")
        if self.rng_seed < 0:
            raise ConfigError("rng_seed must be unsigned")
        if self.rng_seed >= 2**64:
            raise ConfigError(f"rng_seed must fit in 64 bits, got {self.rng_seed}")
        if self.verify_pattern and self.op != OP_READ:
            raise ConfigError("verify_pattern applies to read runs only")

    @property
    def slots_per_target(self) -> int:
        return self.target_bytes // self.block_bytes


@dataclass(frozen=True)
class StripeSet:
    """RAID0-style address mapping across an ordered target list."""

    targets: tuple[Path, ...]
    stripe_unit_bytes: int = 65_536

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(Path(t) for t in self.targets))
        if not self.targets:
            raise ConfigError("stripe set needs at least one target")
        if not _power_of_two(self.stripe_unit_bytes) or not (
            MIN_BLOCK <= self.stripe_unit_bytes <= MAX_BLOCK
        ):
            raise ConfigError(
                f"stripe_unit_bytes must be a power of two in [{MIN_BLOCK}, {MAX_BLOCK}]"
            )


def stripe_map(stripe: StripeSet, chunk_index: int) -> tuple[int, int]:
    """Logical chunk index to (target index, byte offset within target)."""
    if chunk_index < 0:
        raise ConfigError(f"chunk_index must be >= 0, got {chunk_index}")
    count = len(stripe.targets)
    return chunk_index % count, (chunk_index // count) * stripe.stripe_unit_bytes


@dataclass(frozen=True)
class LatencySummary:
    p50_us: float
    p95_us: float
    p99_us: float
    max_us: float
    method: str  # "complete" or "reservoir"

    def __post_init__(self) -> None:
        if not self.p50_us <= self.p95_us <= self.p99_us <= self.max_us:
            raise ValueError("latency percentiles must be non-decreasing")


@dataclass(frozen=True)
class BenchReport:
    spec: BenchSpec
    elapsed_seconds: float
    bytes_transferred: int
    io_count: int
    depth_high_water: int
    cache_bypass: bool  # what the run actually used, not what was asked
    latency: LatencySummary
    offsets: tuple[tuple[int, int], ...] | None = None

    @property
    def iops(self) -> float:
        return self.io_count / self.elapsed_seconds

    @property
    def mbps(self) -> float:
        """10^6 bytes per second."""
        return self.bytes_transferred / self.elapsed_seconds / 1e6

    def csv_row(self) -> str:
        return (
            f"{self.spec.pattern},{self.spec.op},{self.spec.block_bytes},"
            f"{self.spec.queue_depth},{len(self.spec.targets)},"
            f"{self.elapsed_seconds:.6f},{self.bytes_transferred},{self.io_count},"
            f"{self.iops:.2f},{self.mbps:.2f},{self.latency.p50_us:.1f},"
            f"{self.latency.p95_us:.1f},{self.latency.p99_us:.1f},"
            f"{self.latency.max_us:.1f},{str(self.cache_bypass).lower()}"
        )

    def text_lines(self) -> list[str]:
        lat = self.latency
        return [
            f"{self.spec.pattern} {self.spec.op}, block {self.spec.block_bytes},"
            f" depth {self.spec.queue_depth}, {len(self.spec.targets)} target(s)",
            f"  elapsed      {self.elapsed_seconds:.3f} s",
            f"  bytes        {self.bytes_transferred:,} ({self.io_count:,} IOs)",
            f"  throughput   {self.mbps:.2f} MBps ({self.iops:.1f} IOps)",
            f"  latency us   p50 {lat.p50_us:.1f}  p95 {lat.p95_us:.1f}"
            f"  p99 {lat.p99_us:.1f}  max {lat.max_us:.1f}  [{lat.method}]",
            f"  depth high-water {self.depth_high_water},"
            f" cache bypass {str(self.cache_bypass).lower()}",
        ]


# The pattern repeats with this period: the least prime above MAX_BLOCK, so
# no block of any valid size holds the same stretch twice.
PATTERN_PERIOD = 8_388_617


class _Pattern:
    """The bytes a run expects: byte o of target t is ring[(phase[t] + o) % PATTERN_PERIOD].

    Each byte is a function of its absolute offset alone, so a read with
    any block size, pattern or depth verifies what any write of the same
    seed laid down. The ring is one period of SHAKE-256 output keyed on
    the seed, followed by its first block again, so every block is one
    slice; each target starts it at its own phase, drawn from (seed,
    target). A block written at the wrong offset goes undetected only when
    the shift is a multiple of PATTERN_PERIOD.
    """

    def __init__(self, seed: int, target_count: int, block_bytes: int) -> None:
        tag = b"brickkit-io" + seed.to_bytes(8, "big")
        period = hashlib.shake_256(tag).digest(PATTERN_PERIOD)
        self.ring = period + period[:block_bytes]
        self.view = memoryview(self.ring)
        self.phases = [
            int.from_bytes(hashlib.sha256(tag + t.to_bytes(4, "big")).digest()[:8], "big")
            % PATTERN_PERIOD
            for t in range(target_count)
        ]

    def start(self, target_index: int, offset: int) -> int:
        """Where in the ring the byte at `offset` of the target sits."""
        return (self.phases[target_index] + offset) % PATTERN_PERIOD


def fill_block(pattern: _Pattern, target_index: int, offset: int, buffer: mmap.mmap) -> None:
    """Fill buffer with the pattern's bytes for the block at `offset` of the target."""
    start = pattern.start(target_index, offset)
    buffer[:] = pattern.view[start : start + len(buffer)]


class _Reservoir:
    """Uniform sample of latencies with an exact running maximum."""

    def __init__(self, seed: int) -> None:
        self._samples: list[float] = []
        self._seen = 0
        self._max = 0.0
        self._rng = random.Random(seed ^ 0x5EED)

    def add(self, value: float) -> None:
        self._seen += 1
        if value > self._max:
            self._max = value
        if len(self._samples) < LATENCY_SAMPLE_CAP:
            self._samples.append(value)
        else:
            slot = self._rng.randrange(self._seen)
            if slot < LATENCY_SAMPLE_CAP:
                self._samples[slot] = value

    def summary(self) -> LatencySummary:
        if not self._samples:
            return LatencySummary(0.0, 0.0, 0.0, 0.0, "complete")
        ordered = sorted(self._samples)
        count = len(ordered)

        def rank(quantile: float) -> float:
            return ordered[max(0, math.ceil(quantile * count) - 1)]

        method = "complete" if self._seen <= LATENCY_SAMPLE_CAP else "reservoir"
        return LatencySummary(rank(0.50), rank(0.95), rank(0.99), self._max, method)


class _WorkStream:
    """Shared claim point: hands out (target, offset) pairs one at a time.

    A run's layout is its chunk map: chunks in one pass and place(i), the
    (target, offset) of chunk i. Sequential runs walk the chunks in order,
    pass after pass; random runs draw each chunk from a generator seeded
    with rng_seed. Claims happen under one lock, so the claimed sequence
    is reproducible from the seed, and the in-flight counter's high-water
    mark is an upper bound witness for the depth contract. A claim also
    adds the caller's last latency to the reservoir, which has no lock of
    its own, so each IO takes one lock.
    """

    def __init__(
        self,
        spec: BenchSpec,
        chunks: int,
        place: Callable[[int], tuple[int, int]],
        record: bool,
    ):
        self._chunks = chunks
        self._place = place
        self._rng = random.Random(spec.rng_seed) if spec.pattern == PATTERN_RANDOM else None
        if spec.pass_count is not None:
            self._remaining, self._deadline = spec.pass_count * chunks, None
        else:
            self._remaining, self._deadline = None, time.perf_counter() + spec.duration_seconds
        self._recorded: list[tuple[int, int]] | None = [] if record else None
        self._lock = threading.Lock()
        self._in_flight = 0
        self.latencies = _Reservoir(spec.rng_seed)
        self.high_water = 0
        self.claimed = 0

    def claim(self, latency: float | None) -> tuple[int, int] | None:
        """Retire the caller's last IO (latency in us, None at first) and hand out the next pair."""
        with self._lock:
            if latency is not None:
                self.latencies.add(latency)
                self._in_flight -= 1
            if self._remaining is not None:
                if self._remaining == 0:
                    return None
                self._remaining -= 1
            if self._deadline is not None and time.perf_counter() >= self._deadline:
                return None
            if self._rng is None:
                pair = self._place(self.claimed % self._chunks)
            else:
                pair = self._place(self._rng.randrange(self._chunks))
            if self._recorded is not None:
                self._recorded.append(pair)
            self.claimed += 1
            self._in_flight += 1
            if self._in_flight > self.high_water:
                self.high_water = self._in_flight
            return pair

    def poison(self) -> None:
        """Stop handing out work; a worker failed and the run is void."""
        with self._lock:
            self._remaining = 0

    def recorded(self) -> tuple[tuple[int, int], ...] | None:
        if self._recorded is None:
            return None
        return tuple(self._recorded)


def _open_targets(spec: BenchSpec, size: int) -> tuple[list[int], bool]:
    """Open every target once, preferring cache-bypassing opens when asked.

    Falls back to buffered IO for the whole run if any target refuses the
    bypass flag (tmpfs and many network filesystems do). A write run sizes
    each target through the descriptor it writes with; a read run checks
    each size on the descriptor it reads.
    """
    flags = os.O_RDONLY if spec.op == OP_READ else os.O_WRONLY | os.O_CREAT
    bypass = spec.cache_bypass and hasattr(os, "O_DIRECT")
    while True:
        fds: list[int] = []
        try:
            for target in spec.targets:
                fds.append(os.open(target, flags | (os.O_DIRECT if bypass else 0), 0o644))
                if spec.op == OP_WRITE:
                    os.ftruncate(fds[-1], size)
                    if hasattr(os, "posix_fallocate"):
                        try:
                            os.posix_fallocate(fds[-1], 0, size)
                        except OSError:
                            pass  # allocation is an optimization, not a contract
                elif (actual := os.fstat(fds[-1]).st_size) < size:
                    raise ConfigError(
                        f"{target} is {actual} bytes but the run needs {size};"
                        " run a write pass first"
                    )
            return fds, bypass
        except BaseException as exc:
            for fd in fds:
                os.close(fd)
            if not (bypass and isinstance(exc, OSError)):
                raise
        bypass = False  # a target refused the bypass: retry them all buffered


def _worker(
    spec: BenchSpec, stream: _WorkStream, fds: list[int], pattern: _Pattern | None
) -> None:
    # Page-aligned private buffer per worker; O_DIRECT requires alignment.
    buffer = mmap.mmap(-1, spec.block_bytes)
    transfer = os.pwritev if spec.op == OP_WRITE else os.preadv
    latency = None
    try:
        while (pair := stream.claim(latency)) is not None:
            target, offset = pair
            if spec.op == OP_WRITE:
                fill_block(pattern, target, offset, buffer)
            started = time.perf_counter()
            moved = transfer(fds[target], [buffer], offset)
            latency = (time.perf_counter() - started) * 1e6
            if moved != spec.block_bytes:
                raise OSError(f"short {spec.op} on {spec.targets[target]} at {offset}")
            if spec.verify_pattern:
                start = pattern.start(target, offset)
                if not pattern.ring.startswith(buffer, start):
                    expected = pattern.view[start : start + spec.block_bytes]
                    position = next(
                        i for i in range(spec.block_bytes) if buffer[i] != expected[i]
                    )
                    raise IntegrityError(
                        f"pattern mismatch on {spec.targets[target]}"
                        f" at byte {offset + position}"
                    )
    except BaseException:
        stream.poison()
        raise
    finally:
        buffer.close()


def _execute(
    spec: BenchSpec,
    chunks: int,
    place: Callable[[int], tuple[int, int]],
    record_offsets: bool,
) -> BenchReport:
    """Run spec over the chunk map: chunks per pass, place(i) -> (target, offset).

    The last chunk has the highest offset in every layout, so it sets the
    size each target must provide.
    """
    fds, bypass = _open_targets(spec, place(chunks - 1)[1] + spec.block_bytes)
    try:
        pattern = None
        if spec.op == OP_WRITE or spec.verify_pattern:
            pattern = _Pattern(spec.rng_seed, len(spec.targets), spec.block_bytes)
        stream = _WorkStream(spec, chunks, place, record_offsets)
        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=spec.queue_depth) as pool:
            futures = [
                pool.submit(_worker, spec, stream, fds, pattern) for _ in range(spec.queue_depth)
            ]
            for future in futures:
                future.result()
        if spec.op == OP_WRITE and not bypass:
            for fd in fds:  # media measurement: flush the page cache inside the clock
                os.fsync(fd)
        elapsed = max(time.perf_counter() - started, 1e-9)
    finally:
        for fd in fds:
            os.close(fd)

    return BenchReport(
        spec=spec,
        elapsed_seconds=elapsed,
        bytes_transferred=stream.claimed * spec.block_bytes,
        io_count=stream.claimed,
        depth_high_water=stream.high_water,
        cache_bypass=bypass,
        latency=stream.latencies.summary(),
        offsets=stream.recorded(),
    )


def run_io_bench(spec: BenchSpec, record_offsets: bool = False) -> BenchReport:
    """Run a single-file (or round-robin multi-file) bench."""
    slots = spec.slots_per_target

    def place(chunk: int) -> tuple[int, int]:
        target, slot = divmod(chunk, slots)
        return target, slot * spec.block_bytes

    return _execute(spec, slots * len(spec.targets), place, record_offsets)


def run_stripe_bench(
    spec: BenchSpec, stripe: StripeSet, record_offsets: bool = False
) -> BenchReport:
    """Run one logical stream RAID0-striped across the stripe set."""
    if spec.targets != stripe.targets:
        raise ConfigError("spec targets and stripe targets must be the same list")
    if spec.block_bytes != stripe.stripe_unit_bytes:
        raise ConfigError(
            "striped runs issue one IO per stripe chunk:"
            f" block_bytes {spec.block_bytes} must equal"
            f" stripe_unit_bytes {stripe.stripe_unit_bytes}"
        )
    if spec.op == OP_READ:
        sizes = {os.stat(target).st_size for target in stripe.targets}
        if len(sizes) > 1:
            raise ConfigError(f"stripe targets have differing sizes {sorted(sizes)}")
    chunks = spec.target_bytes // spec.block_bytes
    return _execute(spec, chunks, lambda chunk: stripe_map(stripe, chunk), record_offsets)
