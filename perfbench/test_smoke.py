"""Smoke test of the benchmark: every workload at reduced size.

Run with ``python -m pytest perfbench/test_smoke.py`` from the repository
root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: The end-to-end metrics every workload reports; ``failed_trial_frac`` and
#: ``rerun_identical`` come from the traced run because they read 0 on some
#: workloads, which a bounded end-to-end metric may not.
END_TO_END = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "trial_steps_per_s",
              "failed_trial_frac", "output_ok", "rerun_identical")


def test_smoke_emits_every_declared_metric_with_its_unit():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert report["ok"]
    assert set(report["workloads"]) == {w["name"] for w in declared["workloads"]}
    for name, emitted in report["workloads"].items():
        for key in ("end_to_end", "per_layer"):
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {k: m["unit"] for k, m in emitted[key].items()}
            assert got == want, (name, key)
        both = {**emitted["end_to_end"], **emitted["per_layer"]}
        assert set(END_TO_END) <= set(both), name
        assert emitted["end_to_end"]["output_ok"]["value"] == 1, name
    assert {m["name"] for m in declared["end_to_end"]} >= {"setup_s"}
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "p1_paper",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
