"""tools/ab.py: the paired A/B harness, run with the same tree on both sides."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIGURES = ("wall_s", "user_s", "sys_s", "vmhwm_kb")


def test_a_run_of_one_tree_against_itself_writes_every_figure(tmp_path):
    out = tmp_path / "ab.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "--base", str(ROOT), "--change", str(ROOT),
         "--files", "20", "--pairs", "2", "--work", str(tmp_path), "--out", str(out)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["tool"] == "tools/ab.py"
    assert result["base"] == result["change"] == str(ROOT)
    assert {"nproc", "python", "work_filesystem"} <= set(result["machine"])
    assert list(result["workloads"]) == ["small-plain"]
    workload = result["workloads"]["small-plain"]
    assert workload["seed"] == 2503 and workload["files"] == 20 and workload["plain_bytes"] > 0
    assert list(workload["ops"]) == ["verify_deep", "verify", "unpack"]
    for op, summed in workload["ops"].items():
        assert summed["pairs"] == len(summed["ratios"]) == 2, op
        assert 0 <= summed["change_won"] <= 2, op
        assert summed["median_ratio"] > 0, op
        for side in ("base", "change"):
            samples = summed["samples"][side]
            assert len(samples) == 2 and all(set(s) == set(FIGURES) for s in samples), op
            assert all(s["wall_s"] > 0 and s["vmhwm_kb"] > 0 for s in samples), op
            for figure in FIGURES:
                spread = summed[side][figure]
                assert spread["q1"] <= spread["median"] <= spread["q3"], (op, side, figure)
        ratios = [c["wall_s"] / b["wall_s"] for b, c in zip(*summed["samples"].values())]
        assert summed["ratios"] == ratios, op
    # The run's files are gone; only the output is left.
    assert sorted(path.name for path in tmp_path.iterdir()) == ["ab.json"]
    assert "verify_deep" in done.stdout
