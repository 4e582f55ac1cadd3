"""qvlms benchmark: end-to-end and per-layer metrics for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload p2_paper --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics. The workload runs in fresh
single-threaded processes, one after another, at least once and until
``--seconds`` have passed; each metric is the median over those
executions. ``setup_s`` is the median over several fresh interpreters
(the first, which may compile bytecode, is discarded) of the time from
spawning the interpreter until qvlms is imported and its CLI parser built.

Times are reported at reference machine speed. The shared machine this
benchmark was defined on runs the same code up to a third slower for
seconds at a time, each CPU on its own schedule, which no median within
one run removes. While a timed call runs, each worker samples the speed of
a fixed numpy kernel that does not touch qvlms on the same thread
(``worker.SpeedProbe``) and every time is scaled by it; ``setup_s`` is
scaled by the same kernel timed right after start-up. The unscaled medians
and the factors are printed on the ``# environment`` line.

``--trace 1`` runs the workload once untraced and then traced (until
``--seconds`` have passed since the start, at least once) with spans at
every module boundary (``spans.py``), reruns the untraced execution from
its manifest, and reports the per-layer metrics, ``failed_trial_frac``,
``rerun_identical`` and ``trace.overhead_s`` (traced minus untraced wall
time). ``failed_trial_frac`` and ``rerun_identical`` are reported here
rather than as bounded end-to-end metrics because they read 0 on some
workloads (no failures; ``wide_kernel`` does not rerun identically).

Every execution's outputs are checked (``workloads.py``). The last stdout
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
where ``attempted`` / ``failed`` count trial-cells; an execution that
exits nonzero counts all its trial-cells as failed. The process exits 1
when a check fails and 2, without a result line, when the current
directory holds no qvlms sources.

``--smoke`` runs every workload at reduced size in both modes and checks
that every metric is emitted with the name and unit ``BENCHMARK.json``
declares.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Metric name -> unit. ``END_TO_END`` is reported with ``--trace 0``,
#: ``PER_LAYER`` with ``--trace 1``.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "trial_steps_per_s": "1/s",
    "output_ok": "flag",
}
PER_LAYER = {
    "failed_trial_frac": "ratio",
    "rerun_identical": "flag",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.files_written": "count",
    "experiment.span_s": "s",
    "experiment.self_s": "s",
    "experiment.ns_per_trial_step": "ns",
    "experiment.trial_steps": "count",
    "experiment.diverged_trials": "count",
    "experiment.rss_growth_mb": "MB",
    "theory.gaussian_autocorrelation.calls": "count",
    "theory.gaussian_autocorrelation.s": "s",
    "theory.gaussian_autocorrelation.median_us": "us",
    "theory.gaussian_autocorrelation.p90_us": "us",
    "theory.build_update_matrix.calls": "count",
    "theory.s": "s",
    "adapt.calls": "count",
    "adapt.s": "s",
    "volterra.calls": "count",
    "volterra.s": "s",
    "trace.overhead_s": "s",
}

SETUP_PROBES = 16
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Bench:
    """One benchmark invocation: the checkout, its scratch directory and
    the deadline every child process must finish by."""

    def __init__(self, root: Path, label: str):
        self.root = root
        self.work = root / ".perfbench_work" / f"{label}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.deadline = time.perf_counter() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        # one single-threaded process at a time: steady on a shared machine
        # and never more threads than cores
        self.env.update({v: "1" for v in THREAD_VARS})
        self.versions = {}
        self._count = 0

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def spawn(self, task: dict) -> dict:
        """Run ``worker.py`` on ``task`` in a fresh interpreter."""
        self._count += 1
        result_path = self.work / f"result{self._count}.json"
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            return {"exit_code": "timeout", "error": "benchmark deadline passed"}
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(task),
                 str(result_path)],
                cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"exit_code": "timeout", "error": f"worker exceeded {timeout:.0f} s"}
        if proc.returncode != 0:
            return {"exit_code": proc.returncode, "error": proc.stderr[-2000:]}
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["ready"] - t0
        if "versions" in result:
            self.versions = result["versions"]
        return result

    def execute(self, w: dict, seed: int, out: Path, trace=False, check=False) -> dict:
        """One execution of workload ``w`` with its output checks applied."""
        if w["kind"] == "cli":
            task = {"mode": "cli", "argv": workloads.cli_argv(w, seed, out)}
        else:
            task = {"mode": "trial", "seed": seed, "check": check,
                    **{k: w[k] for k in ("trials", "iterations", "q", "mu", "snr")}}
        r = self.spawn(dict(task, trace=trace, probe_shape=w["probe_shape"]))
        r["out"] = out
        if r.get("exit_code") != 0:
            r["failed"] = w["trial_cells"]
            r["problems"] = [f"exit code {r.get('exit_code')}: {r.get('error', '')}"]
            return r
        if w["kind"] == "cli":
            r["diverged"] = workloads.divergences(out)
            r["problems"] = workloads.CLI_CHECKS[w["name"]](out, w)
        else:
            r["problems"] = workloads.check_trial(r)
        r["failed"] = r["diverged"]
        return r

    def rerun_identical(self, w: dict, first: dict) -> int:
        """1 when ``qvlms rerun`` of ``first``'s manifest reproduces every
        CSV and .dat byte for byte; for ``single_trial`` the bit-identical
        replay of each seed."""
        if w["kind"] == "trial":
            return int(bool(first.get("identical")))
        if first.get("exit_code") != 0:
            return 0
        again = first["out"].with_name(first["out"].name + "-rerun")
        r = self.spawn({"mode": "cli", "probe_shape": w["probe_shape"], "argv": [
            "rerun", str(first["out"] / "manifest.json"), "--out", str(again)]})
        return int(r.get("exit_code") == 0 and workloads.same_files(first["out"], again))


def _until(start: float, seconds: float, run_once) -> list:
    """Call ``run_once(i)`` at least once and until ``seconds`` have passed
    since ``start``, stopping early after a failed execution."""
    results = []
    while not results or time.perf_counter() - start < seconds:
        results.append(run_once(len(results)))
        if results[-1]["problems"]:
            break
    return results


def measure_end_to_end(bench: Bench, w: dict, seed: int, seconds: float,
                       probes: int = SETUP_PROBES) -> tuple:
    setups = [bench.spawn({"mode": "setup"}) for _ in range(probes + 1)][1:]
    start = time.perf_counter()

    def once(i):
        out = bench.work / f"out{i}"
        r = bench.execute(w, seed, out, check=i == 0)
        shutil.rmtree(out, ignore_errors=True)
        return r

    execs = _until(start, seconds, once)
    ok = [r for r in execs if "wall_s" in r]
    started = [r for r in setups + ok if "setup_s" in r]
    problems = [p for r in execs for p in r["problems"]]
    problems += [f"setup probe: {r['error']}" for r in setups if "error" in r]
    if not ok:
        return {k: float("nan") for k in END_TO_END} | {"output_ok": 0}, execs, problems, {}
    metrics = {
        "wall_s": median([r["wall_s"] * r["scale"] for r in ok]),
        "cpu_s": median([r["cpu_s"] * r["scale"] for r in ok]),
        "setup_s": median([r["setup_s"] * r["setup_speed"] for r in started]),
        "peak_rss_mb": median([r["maxrss_mb"] for r in ok]),
        "trial_steps_per_s": median([w["trial_steps"] / (r["wall_s"] * r["scale"])
                                      for r in ok]),
        "output_ok": 0 if problems else 1,
    }
    raw = {"wall_s": median([r["wall_s"] for r in ok]),
           "cpu_s": median([r["cpu_s"] for r in ok]),
           "setup_s": median([r["setup_s"] for r in started]),
           "scale": median([r["scale"] for r in ok]),
           "setup_speed": median([r["setup_speed"] for r in started])}
    return metrics, execs, problems, raw


def _layer_metrics(w: dict, r: dict) -> dict:
    """Per-layer numbers of one traced execution."""
    spans = r["trace"]["spans"]
    layer_s = r["trace"]["layer_s"]

    def of_layer(layer, key):
        return sum(s[key] for s in spans.values() if s["layer"] == layer)

    ga = spans.get("theory.gaussian_autocorrelation", {})
    out = r["out"]
    files = [p for p in out.iterdir() if p.is_file()] if out.is_dir() else []
    f = r["scale"]  # times at reference machine speed, as end to end
    exp_self = of_layer("experiment", "self_s") * f
    return {
        "cli.self_s": of_layer("cli", "self_s") * f,
        "cli.bytes_written": sum(p.stat().st_size for p in files),
        "cli.files_written": len(files),
        "experiment.span_s": layer_s.get("experiment", 0.0) * f,
        "experiment.self_s": exp_self,
        "experiment.ns_per_trial_step": exp_self / w["trial_steps"] * 1e9,
        "experiment.trial_steps": w["trial_steps"],
        "experiment.diverged_trials": r["diverged"],
        "experiment.rss_growth_mb": of_layer("experiment", "rss_growth_mb"),
        "theory.gaussian_autocorrelation.calls": ga.get("calls", 0),
        "theory.gaussian_autocorrelation.s": ga.get("total_s", 0.0) * f,
        "theory.gaussian_autocorrelation.median_us": ga.get("median_s", 0.0) * 1e6 * f,
        "theory.gaussian_autocorrelation.p90_us": ga.get("p90_s", 0.0) * 1e6 * f,
        "theory.build_update_matrix.calls":
            spans.get("theory.build_update_matrix", {}).get("calls", 0),
        "theory.s": layer_s.get("theory", 0.0) * f,
        "adapt.calls": of_layer("adapt", "calls"),
        "adapt.s": layer_s.get("adapt", 0.0) * f,
        "volterra.calls": of_layer("volterra", "calls"),
        "volterra.s": layer_s.get("volterra", 0.0) * f,
    }


def measure_per_layer(bench: Bench, w: dict, seed: int, seconds: float) -> tuple:
    start = time.perf_counter()
    base = bench.execute(w, seed, bench.work / "untraced", check=True)
    execs = [base]
    layers = []
    if not base["problems"]:
        def once(i):
            r = bench.execute(w, seed, bench.work / f"traced{i}", trace=True)
            if not r["problems"]:
                layers.append(_layer_metrics(w, r))
            shutil.rmtree(r["out"], ignore_errors=True)
            return r

        execs += _until(start, seconds, once)
    problems = [p for r in execs for p in r["problems"]]
    metrics = {name: float("nan") for name in PER_LAYER}
    if layers:
        metrics.update({k: median([m[k] for m in layers]) for k in layers[0]})
        traced_wall = median([r["wall_s"] * r["scale"] for r in execs[1:]
                               if "wall_s" in r])
        metrics["trace.overhead_s"] = traced_wall - base["wall_s"] * base["scale"]
    attempted = w["trial_cells"] * len(execs)
    metrics["failed_trial_frac"] = sum(r["failed"] for r in execs) / attempted
    metrics["rerun_identical"] = bench.rerun_identical(w, base)
    raw = {"wall_s": [r.get("wall_s") for r in execs],
           "scale": [r.get("scale") for r in execs]}
    return metrics, execs, problems, raw


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = root / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def machine(bench: Bench) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        **bench.versions,
        "thread_env_inherited": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_env_used": {v: bench.env[v] for v in THREAD_VARS},
        # decides whether every start-up compiles qvlms, which setup_s shows
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "git_commit": git_commit(bench.root),
    }


def run_workload(bench: Bench, name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> tuple:
    w = workloads.spec(name, smoke)
    master_seed = seed % 2**32
    if trace:
        metrics, execs, problems, raw = measure_per_layer(bench, w, master_seed, seconds)
        units = PER_LAYER
    else:
        probes = 2 if smoke else SETUP_PROBES
        metrics, execs, problems, raw = measure_end_to_end(bench, w, master_seed,
                                                           seconds, probes)
        units = END_TO_END
    if not bench.versions:
        bench.spawn({"mode": "setup"})
    info = {"workload": name, "seed": seed, "master_seed": master_seed,
            "trace": int(trace), "executions": len(execs),
            "exit_codes": [r.get("exit_code") for r in execs],
            "unscaled": raw,
            "trials": w["trials"], "iterations": w["iterations"],
            "cells": w["cells"], "machine": machine(bench)}
    result = {
        "correct": not problems,
        "attempted": w["trial_cells"] * len(execs),
        "failed": sum(r["failed"] for r in execs),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, info, problems


def print_report(result: dict, info: dict, problems: list):
    print(f"# {info['workload']} seed={info['seed']} trace={info['trace']}: "
          f"{info['executions']} execution(s) of {info['cells']} cells x "
          f"{info['trials']} trials x {info['iterations']} iterations")
    for name, m in result["metrics"].items():
        print(f"{name:45s} {m['value']!r:>24} {m['unit']}")
    print(f"{'trial-cells attempted / failed':45s} "
          f"{result['attempted']:>24} {result['failed']}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print("# environment " + json.dumps(info))


def smoke(bench: Bench) -> int:
    """Every workload at reduced size in both modes; metric names and units
    must match ``BENCHMARK.json``."""
    declared = json.loads((bench.root / "BENCHMARK.json").read_text())
    report = {}
    mismatches = []
    for entry in declared["workloads"]:
        name = entry["name"]
        report[name] = {}
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, info, problems = run_workload(bench, name, seed=0, seconds=0,
                                                  trace=trace, smoke=True)
            print_report(result, info, problems)
            mismatches += [f"{name}: {p}" for p in problems]
            emitted = result["metrics"]
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {k: m["unit"] for k, m in emitted.items()}
            if want != got:
                mismatches.append(f"{name} {key}: emitted {got}, declared {want}")
            report[name][key] = emitted
    for m in mismatches:
        print(f"SMOKE FAILED: {m}")
    print(json.dumps({"ok": not mismatches, "workloads": report}))
    return 1 if mismatches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads at reduced size, names checked")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    root = Path.cwd()
    if not (root / "src" / "qvlms" / "cli.py").is_file():
        print(f"error: no qvlms sources under {root / 'src'}; run from the "
              "root of a qvlms checkout", file=sys.stderr)
        return 2

    bench = Bench(root, "smoke" if args.smoke else f"{args.workload}-{args.seed}")
    try:
        if args.smoke:
            return smoke(bench)
        result, info, problems = run_workload(bench, args.workload, args.seed,
                                              args.seconds, bool(args.trace))
    finally:
        bench.close()
    print_report(result, info, problems)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
