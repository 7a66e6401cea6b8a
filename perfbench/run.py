"""End-to-end benchmark for brickkit: pack, verify, unpack and the two bench engines.

Usage (from the repository root):

    python3 perfbench/run.py --workload small-plain --seed 1 --seconds 55 --trace 0

The run generates its inputs from the seed under .perfbench-work/, then
repeats whole rounds while another one still fits in --seconds (at least
one round). Files the run made are emptied, never deleted (see _retire). A
round times a fresh-interpreter import of brickkit, then pack, verify,
verify --deep and unpack of the generated tree, a bench-io write and
verified read, and a bench-net loopback pair. Each of those runs in its own
child process (op.py). Every output is checked against hashes and counts
the benchmark computed itself; an operation that raises or fails a check
counts as failed and adds no sample.

The last line of standard output is one JSON object: correct, attempted,
failed and the metrics. With --trace 0 these are the end-to-end medians
over the run's samples; with --trace 1 the children wrap the layer
functions, and the metrics are the per-layer figures of BENCHMARK.json.
The traced run also writes its spans to .perfbench-out/ (see TraceFile).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from inputs import SourceTree, make_large_file, make_tree  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OP_SCRIPT = HERE / "op.py"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"

CHILD_TIMEOUT_S = 150
SETUP_PROBES_PER_ROUND = 3
MB = 1e6
BRICK_OPS = ("pack", "verify", "verify_deep", "unpack")


@dataclass(frozen=True)
class IoParams:
    pattern: str
    block_bytes: int
    depth: int
    target_bytes: int
    passes: int


@dataclass(frozen=True)
class Workload:
    name: str
    chain: tuple[str, ...]
    passphrase: str | None
    make_source: Callable[[Path, int], SourceTree]
    verify_repeats: int
    io: IoParams
    net_record_bytes: int
    net_duration_ms: int


# small-plain: per-entry and per-IO costs dominate, the codec does nothing.
# large-sealed: per-byte costs dominate (deflate, AES-GCM, SHA-256, 1 MiB
# buffers). Input sizes are set so a 55-second run holds several rounds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small-plain",
            chain=("none",),
            passphrase=None,
            make_source=lambda root, seed: make_tree(
                root, seed, file_count=2000, max_file_bytes=48 * 1024, top_dirs=8, sub_dirs=8
            ),
            verify_repeats=3,  # one shallow verify takes about 0.3 s
            io=IoParams("random", 8 * 1024, 1, 2 * 1024 * 1024, passes=400),
            net_record_bytes=4 * 1024,
            net_duration_ms=2000,
        ),
        Workload(
            name="large-sealed",
            chain=("deflate", "aes-256-gcm"),
            passphrase="perfbench passphrase",
            make_source=lambda root, seed: make_large_file(
                root, seed, block_count=64, block_bytes=1 << 20
            ),
            verify_repeats=8,  # one shallow verify takes about 0.06 s
            io=IoParams("sequential", 1 << 20, 2, 8 * 1024 * 1024, passes=400),
            net_record_bytes=1 << 20,
            net_duration_ms=2000,
        ),
    )
}


class OpFailed(Exception):
    """The operation raised, crashed or timed out."""


class CheckFailed(Exception):
    """The operation finished but an output was wrong."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _files_under(root: Path) -> dict[str, Path]:
    return {
        path.relative_to(root).as_posix(): path
        for path in root.rglob("*")
        if path.is_file()
    }


def _same_bytes(left: Path, right: Path) -> bool:
    with open(left, "rb") as a, open(right, "rb") as b:
        while True:
            chunk = a.read(1 << 20)
            if chunk != b.read(1 << 20):
                return False
            if not chunk:
                return True


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong_output: bool = False
    samples: dict[str, list[float]] = field(default_factory=dict)
    figures: dict[str, list[dict]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def attempt(self, name: str, operation: Callable[[], None]) -> None:
        self.attempted += 1
        try:
            operation()
        except (CheckFailed, OSError) as exc:  # OSError: an expected output file is missing
            self.failed += 1
            self.wrong_output = True
            self.problems.append(f"{name}: wrong output: {exc}")
        except OpFailed as exc:
            self.failed += 1
            self.problems.append(f"{name}: failed: {exc}")


class TraceFile:
    """Spans of a traced run, one JSON line per operation sample.

    Each line holds the sample's span names and, per span, [name index,
    start ns, end ns, thread index], times counted from the call's start and
    threads numbered in order of first appearance. The first line holds the
    machine facts, the last the run summary.
    """

    def __init__(self, path: Path, facts: dict) -> None:
        path.parent.mkdir(exist_ok=True)
        self.path = path
        self._handle = open(path, "w")
        self._line({"facts": facts})

    def _line(self, record: dict) -> None:
        self._handle.write(json.dumps(record) + "\n")

    def write_sample(self, op: str, index: int, start: float, spans: list) -> None:
        names = sorted({span[0] for span in spans})
        number = {name: i for i, name in enumerate(names)}
        threads: dict[int, int] = {}
        self._line({"op": op, "sample": index, "names": names, "spans": [
            [number[name], round((first - start) * 1e9), round((last - start) * 1e9),
             threads.setdefault(thread, len(threads))]
            for name, first, last, thread in spans
        ]})

    def close(self, summary: dict) -> None:
        self._line(summary)
        self._handle.close()


class Bench:
    """One workload's rounds over one generated source."""

    def __init__(self, workload: Workload, seed: int, work: Path, source: SourceTree,
                 trace: TraceFile | None, tamper: Callable[[str, Path], None] | None = None) -> None:
        self.w = workload
        self.seed = seed
        self.work = work
        self.source = source
        self.trace = trace
        self.tamper = tamper
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.tally = Tally()

    # -- children ---------------------------------------------------------

    def _child(self, request: dict) -> dict:
        request = {**request, "trace": self.trace is not None}
        try:
            done = subprocess.run(
                [sys.executable, str(OP_SCRIPT), json.dumps(request)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=self.env, cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            raise OpFailed(f"timed out after {CHILD_TIMEOUT_S} s") from None
        if done.returncode != 0:
            lines = done.stderr.strip().splitlines() or ["no output"]
            raise OpFailed(f"exit {done.returncode}: {lines[-1]}")
        return json.loads(done.stdout.strip().splitlines()[-1])

    def _keep(self, op: str, figures: dict) -> None:
        samples = self.tally.figures.setdefault(op, [])
        spans = figures.pop("spans", None)
        if spans is not None:
            figures["covered_s"] = _covered_s(spans, figures["start"], figures["end"])
            figures["span_s"] = {}
            for name, start, end, _ in spans:
                figures["span_s"][name] = figures["span_s"].get(name, 0.0) + end - start
            self.trace.write_sample(op, len(samples), figures["start"], spans)
        samples.append(figures)

    def _brick_child(self, op: str, **paths: Path) -> dict:
        passphrase = self.w.passphrase
        if op == "unpack_wrong":
            passphrase += " but wrong"
        request = {"kind": "brick", "op": op, "chain": list(self.w.chain), "passphrase": passphrase}
        request.update({key: str(value) for key, value in paths.items()})
        figures = self._child(request)
        if figures["error"] is not None and op != "unpack_wrong":
            raise OpFailed(figures["error"])
        return figures

    # -- operations -------------------------------------------------------

    def setup_probe(self) -> None:
        started = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", "import brickkit"], env=self.env, cwd=ROOT,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - started
        if done.returncode != 0:
            raise OpFailed(f"import brickkit exited {done.returncode}")
        self.tally.sample("setup_s", elapsed)

    def payload_sizes(self, brick: Path) -> dict[str, int]:
        return {path: (brick / path).stat().st_size for path in self.source.files}

    def pack(self, brick: Path) -> None:
        figures = self._brick_child("pack", source=self.source.root, brick=brick)
        entries = {path: (plain_size, digest, payload_size)
                   for path, plain_size, digest, payload_size in figures["entries"]}
        _check(set(entries) == set(self.source.files),
               "manifest paths differ from the generated files")
        for path, (size, digest) in self.source.files.items():
            _check(entries[path][:2] == (size, digest), f"{path}: manifest plain size or digest")
        stored = self.payload_sizes(brick)
        for path, on_disk in stored.items():
            _check(entries[path][2] == on_disk, f"{path}: manifest payload size != file size")
        plain = self.source.plain_bytes
        _check(figures["plain_bytes"] == plain, "pack result plain_bytes")
        if self.w.chain == ("none",):
            _check(sum(stored.values()) == plain, "codec none must store exactly the plain bytes")
        if self.source.marker is not None:
            for path in stored:
                _check(self.source.marker not in (brick / path).read_bytes(),
                       f"{path}: plaintext marker found in the payload")
        self.tally.sample("pack_MBps", plain / figures["wall_s"] / MB)
        self.tally.sample("pack_rss_MB", figures["peak_rss_kb"] * 1024 / MB)
        self.tally.sample("stored_per_plain", sum(stored.values()) / plain)
        self._keep("pack", figures)

    def verify(self, brick: Path, deep: bool) -> None:
        op = "verify_deep" if deep else "verify"
        figures = self._brick_child(op, brick=brick)
        _check(figures["ok"], f"findings: {figures['findings']}")
        _check(figures["entry_count"] == len(self.source.files), "entry_count")
        _check(figures["bytes_checked"] == sum(self.payload_sizes(brick).values()),
               "bytes_checked differs from the payload sizes on disk")
        self.tally.sample(f"{op}_MBps", self.source.plain_bytes / figures["wall_s"] / MB)
        self._keep(op, figures)

    def unpack(self, brick: Path, dest: Path) -> None:
        figures = self._brick_child("unpack", brick=brick, dest=dest)
        if self.tamper is not None:
            self.tamper("unpacked", dest)
        _check(figures["file_count"] == len(self.source.files), "file_count")
        _check(figures["bytes_written"] == self.source.plain_bytes, "bytes_written")
        restored = _files_under(dest)
        _check(set(restored) == set(self.source.files), "restored file set differs")
        dirs = {p.relative_to(dest).as_posix() for p in dest.rglob("*") if p.is_dir()}
        _check(dirs == self.source.dirs, "restored directory set differs")
        for path, real in restored.items():
            _check(_same_bytes(real, self.source.root / path), f"{path}: restored bytes differ")
        self.tally.sample("unpack_MBps", self.source.plain_bytes / figures["wall_s"] / MB)
        self.tally.sample("unpack_rss_MB", figures["peak_rss_kb"] * 1024 / MB)
        self._keep("unpack", figures)

    def unpack_wrong_passphrase(self, brick: Path, dest: Path) -> None:
        figures = self._brick_child("unpack_wrong", brick=brick, dest=dest)
        _check(figures["error"] == "IntegrityError",
               f"wrong passphrase gave {figures['error'] or 'success'}, not IntegrityError")
        _check(not _files_under(dest), "wrong passphrase restored files")

    def io(self, target: Path, io_op: str) -> None:
        p = self.w.io
        figures = self._child({
            "kind": "io", "io_op": io_op, "pattern": p.pattern, "block_bytes": p.block_bytes,
            "depth": p.depth, "target": str(target), "target_bytes": p.target_bytes,
            "passes": p.passes, "rng_seed": self.seed,
        })
        expected = p.passes * (p.target_bytes // p.block_bytes)
        _check(figures["io_count"] == expected, f"io_count {figures['io_count']} != {expected}")
        _check(figures["bytes"] == figures["io_count"] * p.block_bytes, "bytes != io_count x block")
        self.tally.sample(f"io_{io_op}_MBps", figures["mbps"])
        self._keep(f"io_{io_op}", figures)

    def net(self) -> None:
        figures = self._child({"kind": "net", "record_bytes": self.w.net_record_bytes,
                               "duration_ms": self.w.net_duration_ms})
        _check(figures["sent_bytes"] > 0, "nothing was sent")
        _check(figures["sent_bytes"] == figures["received_bytes"], "sender and receiver disagree")
        _check(figures["bits_equal_8x_bytes"], "mbps_bits is not 8 x mbps_bytes")
        self.tally.sample("net_MBps", figures["recv_mbps"])
        self._keep("net", figures)

    # -- one round --------------------------------------------------------

    def round(self, number: int) -> None:
        attempt = self.tally.attempt
        here = self.work / f"round{number:04d}"
        brick, dest, wrong, target = (
            here / name for name in ("brick", "restored", "wrong", "io-target"))
        here.mkdir()
        try:
            for _ in range(SETUP_PROBES_PER_ROUND):
                attempt("setup", self.setup_probe)
            attempt("pack", lambda: self.pack(brick))
            if self.tamper is not None:
                self.tamper("packed", brick)
            for _ in range(self.w.verify_repeats):
                attempt("verify", lambda: self.verify(brick, deep=False))
            attempt("verify_deep", lambda: self.verify(brick, deep=True))
            attempt("unpack", lambda: self.unpack(brick, dest))
            if self.w.passphrase is not None:
                attempt("unpack_wrong", lambda: self.unpack_wrong_passphrase(brick, wrong))
            attempt("io_write", lambda: self.io(target, "write"))
            attempt("io_read", lambda: self.io(target, "read"))
            attempt("net", self.net)
        finally:
            _retire(here)


def _flush(root: Path) -> None:
    """Write every file under root to disk now, so no writeback of the
    inputs runs while an operation is timed."""
    for path in root.rglob("*"):
        if path.is_file():
            handle = os.open(path, os.O_RDONLY)
            try:
                os.fsync(handle)
            finally:
                os.close(handle)


def _retire(root: Path) -> None:
    """Free the bytes of every file under root, but keep the files themselves.

    The work directory is on the checkout's own disk. On ext4 without a
    journal, each new inode skips, one check at a time, every inode freed in
    its block group in the last 60 to 360 seconds. Deleting a few thousand
    files there made creating files up to 20 times slower for the next
    minutes: pack and unpack of small files slowed from round to round and
    from run to run. Truncating frees the bytes and no inode.
    """
    for path in root.rglob("*"):
        if path.is_file():
            os.truncate(path, 0)


# -- metrics --------------------------------------------------------------

# The run also samples io_write_MBps, io_read_MBps and net_MBps
# (printed on standard error), but does not report them: their spread over
# ten runs went past the largest bound on this machine. See README.
END_TO_END_UNITS = {
    "pack_MBps": "MB/s",
    "verify_MBps": "MB/s",
    "verify_deep_MBps": "MB/s",
    "unpack_MBps": "MB/s",
    "pack_rss_MB": "MB",
    "unpack_rss_MB": "MB",
    "stored_per_plain": "ratio",
    "setup_s": "s",
}

LAYER_FUNCTIONS = (
    "payload.encode_payload",
    "payload.derive_key",
    "payload.decode_payload",
    "payload.sha256_hex",
    "payload.sha256_file",
    "manifest.serialize_manifest",
    "manifest.parse_manifest",
)

PER_LAYER_UNITS = {
    **{
        f"brick.{op}.{name}": unit
        for op in BRICK_OPS
        for name, unit in (
            ("read_per_plain", "ratio"),
            ("write_per_plain", "ratio"),
            ("rss_MB", "MB"),
            ("cpu_user_s", "s"),
            ("cpu_sys_s", "s"),
            ("cores_busy", "cores"),
            ("self_s", "s"),
        )
    },
    **{f"{function}_s": "s" for function in LAYER_FUNCTIONS},
    **{
        f"io.{io_op}.{name}": "us"
        for io_op in ("write", "read")
        for name in ("cpu_us_per_io", "p50_us", "p99_us")
    },
    "io.write.fill_block_us_per_io": "us",
    "net.send_cpu_ns_per_B": "ns/B",
    "net.recv_cpu_ns_per_B": "ns/B",
}


def _covered_s(spans: list, start: float, end: float) -> float:
    """Seconds of [start, end] covered by at least one span, over all threads."""
    covered, reach = 0.0, start
    for first, last in sorted((s[1], s[2]) for s in spans):
        first, last = max(first, reach), min(last, end)
        if last > first:
            covered += last - first
            reach = last
    return covered


def _span_s(figures: dict, name: str) -> float:
    return figures["span_s"].get(name, 0.0)


def end_to_end(tally: Tally) -> dict[str, float]:
    return {name: statistics.median(values) for name, values in tally.samples.items()}


def per_layer(tally: Tally, plain: int) -> dict[str, float]:
    figures = tally.figures
    metrics: dict[str, float] = {}

    def put(name: str, op: str, value: Callable[[dict], float]) -> None:
        if figures.get(op):
            metrics[name] = statistics.median(value(f) for f in figures[op])

    for op in BRICK_OPS:
        put(f"brick.{op}.read_per_plain", op, lambda f: f["rchar"] / plain)
        put(f"brick.{op}.write_per_plain", op, lambda f: f["wchar"] / plain)
        put(f"brick.{op}.rss_MB", op, lambda f: f["peak_rss_kb"] * 1024 / MB)
        put(f"brick.{op}.cpu_user_s", op, lambda f: f["user_s"])
        put(f"brick.{op}.cpu_sys_s", op, lambda f: f["sys_s"])
        put(f"brick.{op}.cores_busy", op, lambda f: (f["user_s"] + f["sys_s"]) / f["wall_s"])
        put(f"brick.{op}.self_s", op,
            lambda f: f["wall_s"] - f["covered_s"])
    if all(figures.get(op) for op in BRICK_OPS):
        for function in LAYER_FUNCTIONS:
            metrics[f"{function}_s"] = sum(
                statistics.median(_span_s(f, function) for f in figures[op]) for op in BRICK_OPS
            ) + 0.0
    for io_op in ("write", "read"):
        op = f"io_{io_op}"
        put(f"io.{io_op}.cpu_us_per_io", op,
            lambda f: (f["user_s"] + f["sys_s"]) / f["io_count"] * 1e6)
        put(f"io.{io_op}.p50_us", op, lambda f: f["p50_us"])
        put(f"io.{io_op}.p99_us", op, lambda f: f["p99_us"])
    put("io.write.fill_block_us_per_io", "io_write",
        lambda f: _span_s(f, "io_bench.fill_block") / f["io_count"] * 1e6)
    put("net.send_cpu_ns_per_B", "net", lambda f: f["send_cpu_s"] / f["sent_bytes"] * 1e9)
    put("net.recv_cpu_ns_per_B", "net", lambda f: f["recv_cpu_s"] / f["received_bytes"] * 1e9)
    return metrics


# -- the run --------------------------------------------------------------

def _filesystem_type(path: Path) -> str:
    best, kind = "", "unknown"
    with open("/proc/mounts") as mounts:
        for line in mounts:
            _, point, fstype = line.split()[:3]
            if str(path).startswith(point.rstrip("/") + "/") and len(point) > len(best):
                best, kind = point, fstype
    return kind


def machine_facts(work: Path) -> dict:
    from importlib.metadata import version

    probe = work / "o_direct-probe"
    try:
        os.close(os.open(probe, os.O_WRONLY | os.O_CREAT | getattr(os, "O_DIRECT", 0), 0o644))
        o_direct = hasattr(os, "O_DIRECT")
    except OSError:
        o_direct = False
    finally:
        probe.unlink(missing_ok=True)
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "cryptography": version("cryptography"),
        "work_filesystem": _filesystem_type(work),
        "o_direct_accepted": o_direct,
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        tamper: Callable[[str, Path], None] | None = None) -> dict:
    """Generate the inputs, run whole rounds for about `seconds`, return the result object."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    trace_file = None
    try:
        facts = machine_facts(work)
        if trace:
            trace_file = TraceFile(OUT / f"trace-{workload.name}-seed{seed}.jsonl", facts)
        source = workload.make_source(work / "source", seed)
        _flush(source.root)
        bench = Bench(workload, seed, work, source, trace_file, tamper)
        # Compile the package's bytecode once, as an installed package would have it.
        subprocess.run([sys.executable, "-c", "import brickkit"], env=bench.env, cwd=ROOT,
                       capture_output=True, timeout=CHILD_TIMEOUT_S, check=False)
        started = time.perf_counter()
        rounds = 0
        while True:
            round_started = time.perf_counter()
            bench.round(rounds)
            rounds += 1
            now = time.perf_counter()
            if now - started + (now - round_started) > seconds:
                break
    finally:
        _retire(work)

    tally = bench.tally
    if trace:
        metrics, units = per_layer(tally, source.plain_bytes), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(tally), END_TO_END_UNITS
    walls = {op: statistics.median(f["wall_s"] for f in figs)
             for op, figs in tally.figures.items() if op != "net"}
    for problem in tally.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"perfbench: {workload.name} seed {seed}: {rounds} round(s), "
          f"{json.dumps(facts)}", file=sys.stderr)
    print("perfbench: median op wall s: " + json.dumps(walls), file=sys.stderr)
    print("perfbench: samples: " + json.dumps(tally.samples), file=sys.stderr)
    if trace_file is not None:
        absent = sorted({name for figs in tally.figures.values() for f in figs
                         for name in f.get("absent", ())})
        trace_file.close({"rounds": rounds, "median_op_wall_s": walls, "absent": absent})
        print(f"perfbench: spans written to {trace_file.path}", file=sys.stderr)
    return {
        "correct": not tally.wrong_output,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "brickkit" / "__init__.py").is_file():
        print(f"perfbench: no brickkit sources under {SRC}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
