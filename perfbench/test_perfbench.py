"""Tests for the benchmark's own checks, on scaled-down workloads.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from inputs import make_large_file, make_tree  # noqa: E402

TINY = {
    "small-plain": dataclasses.replace(
        bench.WORKLOADS["small-plain"],
        make_source=lambda root, seed: make_tree(
            root, seed, file_count=40, max_file_bytes=2048, top_dirs=2, sub_dirs=2
        ),
        io=bench.IoParams("random", 8192, 1, 64 * 1024, passes=2),
        net_duration_ms=50,
    ),
    "large-sealed": dataclasses.replace(
        bench.WORKLOADS["large-sealed"],
        make_source=lambda root, seed: make_large_file(root, seed, block_count=4, block_bytes=4096),
        verify_repeats=1,
        io=bench.IoParams("sequential", 1 << 20, 2, 2 << 20, passes=2),
        net_duration_ms=50,
    ),
}


def _flip_first_byte(root: Path) -> None:
    victim = next(p for p in sorted(root.rglob("*")) if p.is_file() and p.stat().st_size
                  and p.name != "BRICK-MANIFEST")
    data = bytearray(victim.read_bytes())
    data[0] ^= 0xFF
    victim.write_bytes(bytes(data))


def _tamper_at(stage: str):
    def tamper(when: str, root: Path) -> None:
        if when == stage:
            _flip_first_byte(root)

    return tamper


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(monkeypatch, workload, trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    monkeypatch.setattr(bench, "WORKLOADS", TINY)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = bench.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                           "--trace", str(trace)])
    assert code == 0
    result = json.loads(printed.getvalue().strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    printed_units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed_units == {m["name"]: m["unit"] for m in section}


def test_benchmark_json_names_its_workloads():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def test_flipped_restored_byte_is_a_failed_operation():
    result = bench.run(TINY["small-plain"], 5, 0, False, tamper=_tamper_at("unpacked"))
    assert result["failed"] == 1 and result["correct"] is False
    assert "unpack_rss_MB" not in result["metrics"]
    assert "pack_MBps" in result["metrics"]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_flipped_payload_byte_is_a_failed_operation(workload):
    result = bench.run(TINY[workload], 5, 0, False, tamper=_tamper_at("packed"))
    assert result["failed"] >= 3 and result["correct"] is False
    for metric in ("verify_MBps", "verify_deep_MBps", "unpack_rss_MB"):
        assert metric not in result["metrics"]


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-plain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
