"""Paired timing of brick operations on two source trees: the same input, fresh interpreters.

Usage (from the repository root):

    python3 tools/ab.py --base REV|DIR --change REV|DIR [--workload small-plain]
        [--seed 2503] [--files N] [--pairs 11] [--out BENCH_n.json]

A side is a directory holding a checkout, whose src/ is imported, or else a
revision of this repository, whose src/ is taken with `git archive`.
--workload may be given more than once. Each workload's input comes from
perfbench's own generator, imported, by seed; --files N makes
small-plain's tree through perfbench's own call, with N files. The input
is packed once, by the base side, and every operation of a pair reads
that one brick.

Each operation runs through perfbench/op.py, in a fresh interpreter with
only that side's src/ on its path, which times only the library call and
reports wall time, user and system CPU and VmHWM. A pair runs the two sides
one after the other, base first in even pairs and change first in odd
ones (ABBA). As in perfbench, unpacked files are truncated, never deleted,
until the run ends, so that freed inodes do not slow the creates of later
operations; the work directory is removed at the end. On ext4 that removal
slows file creation on the same disk for minutes after (see
perfbench/README.md): on a 2 vCPU VM, small-plain unpack ran about 8 times
slower in a run started soon after another. Give --work a tmpfs, such as
/dev/shm, when runs follow one another.

The output holds, per workload and operation, each side's median and
quartiles, the per-pair ratios of change to base wall time, how many pairs
the change won, and every sample. It is printed as a table and written to
--out as JSON. This is evidence for a paired claim, not a gate:
perfbench/run.py and BENCHMARK.json stay the benchmark.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import run as perfbench  # noqa: E402
from inputs import make_tree  # noqa: E402

OPS = ("verify_deep", "verify", "unpack")
SIDES = ("base", "change")


def side_src(spec: str, work: Path, name: str) -> Path:
    """The src directory of a side: DIR/src, or src of revision spec unpacked under work."""
    if Path(spec).is_dir():
        src = Path(spec).resolve() / "src"
        if not (src / "brickkit").is_dir():
            raise SystemExit(f"ab: {spec} holds no src/brickkit")
        return src
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", spec, "src"],
        capture_output=True, check=False,
    )
    if archive.returncode != 0:
        raise SystemExit(f"ab: {spec} is neither a directory nor a revision: "
                         f"{archive.stderr.decode(errors='replace').strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(work / name, filter="data")
    return work / name / "src"


def op_child(request: dict, src: Path) -> dict:
    """Run one operation through perfbench/op.py with src alone on the path; its figures."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, str(perfbench.OP_SCRIPT), json.dumps({**request, "trace": False})],
        capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=perfbench.CHILD_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        lines = done.stderr.strip().splitlines() or ["no output"]
        raise SystemExit(f"ab: {request['op']} exited {done.returncode}: {lines[-1]}")
    figures = json.loads(done.stdout.strip().splitlines()[-1])
    if figures["error"] is not None or figures.get("ok") is False:
        raise SystemExit(f"ab: {request['op']} failed: {figures['error'] or figures['findings']}")
    return figures


def spread(values: list[float]) -> dict[str, float]:
    """Median and quartiles; with one value, all three are that value."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(samples: dict[str, list[dict]]) -> dict:
    """Each side's spread of every figure, and the pairs' wall-time ratios."""
    ratios = [c["wall_s"] / b["wall_s"] for b, c in zip(samples["base"], samples["change"])]
    return {
        **{
            side: {key: spread([s[key] for s in samples[side]])
                   for key in ("wall_s", "user_s", "sys_s", "vmhwm_kb")}
            for side in SIDES
        },
        "ratios": ratios,
        "median_ratio": statistics.median(ratios),
        "change_won": sum(ratio < 1 for ratio in ratios),
        "pairs": len(ratios),
        "samples": samples,
    }


def run_workload(name: str, seed: int, files: int | None, pairs: int, srcs: dict[str, Path],
                 work: Path) -> dict:
    workload = perfbench.WORKLOADS[name]
    here = work / name
    source = here / "source"
    if files is None:
        tree = workload.make_source(source, seed)
    else:  # the workload's own call of make_tree, with file_count replaced
        def cut(*args, **shape):
            return make_tree(*args, **{**shape, "file_count": files})

        with mock.patch.object(perfbench, "make_tree", cut):
            tree = workload.make_source(source, seed)
    brick = here / "brick"
    common = {"kind": "brick", "chain": list(workload.chain), "passphrase": workload.passphrase}
    op_child({**common, "op": "pack", "source": str(source), "brick": str(brick)}, srcs["base"])
    perfbench._flush(brick)
    samples: dict[str, dict[str, list[dict]]] = {op: {side: [] for side in SIDES} for op in OPS}
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for op in OPS:
            for side in order:
                request = {**common, "op": op, "brick": str(brick)}
                if op == "unpack":
                    dest = here / f"dest-{op}-{pair}-{side}"
                    request["dest"] = str(dest)
                figures = op_child(request, srcs[side])
                if op == "unpack":
                    perfbench._retire(dest)
                samples[op][side].append({
                    "wall_s": figures["wall_s"], "user_s": figures["user_s"],
                    "sys_s": figures["sys_s"], "vmhwm_kb": figures["peak_rss_kb"],
                })
    return {
        "seed": seed,
        "files": len(tree.files),
        "plain_bytes": tree.plain_bytes,
        "ops": {op: summary(samples[op]) for op in OPS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="a checkout directory or a revision")
    parser.add_argument("--change", required=True, help="a checkout directory or a revision")
    parser.add_argument("--workload", action="append", choices=sorted(perfbench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=2503)
    parser.add_argument("--files", type=int, help="give small-plain's tree this many files")
    parser.add_argument("--pairs", type=int, default=11)
    parser.add_argument("--work", type=Path, help="where the run's files go (default: a temp dir)")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    workloads = args.workload or ["small-plain"]
    if args.files is not None and workloads != ["small-plain"]:
        parser.error("--files applies to small-plain alone")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="ab-", dir=args.work) as temp:
        work = Path(temp)
        srcs = {side: side_src(getattr(args, side), work, side) for side in SIDES}
        result = {
            "tool": "tools/ab.py",
            "base": args.base,
            "change": args.change,
            "machine": perfbench.machine_facts(work),
            "workloads": {
                name: run_workload(name, args.seed, args.files, args.pairs, srcs, work)
                for name in workloads
            },
        }
    for name, figures in result["workloads"].items():
        for op, summed in figures["ops"].items():
            base, change = summed["base"]["wall_s"], summed["change"]["wall_s"]
            print(f"{name:<13}{op:<12}base {base['median'] * 1e3:8.2f} ms "
                  f"[{base['q1'] * 1e3:.2f}-{base['q3'] * 1e3:.2f}]  "
                  f"change {change['median'] * 1e3:8.2f} ms  "
                  f"ratio {summed['median_ratio']:.3f}  "
                  f"won {summed['change_won']}/{summed['pairs']}")
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
