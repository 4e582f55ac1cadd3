"""One benchmark execution in a fresh process.

Usage: ``python3 perfbench/worker.py '<task json>' <result path>``, with
``PYTHONPATH`` pointing at the checkout's ``src``. The task's ``mode`` is

* ``setup``: import qvlms, build the CLI parser, report the time and the
  library versions;
* ``cli``: call ``qvlms.cli.main(argv)`` once;
* ``trial``: call ``experiment.run_trial`` once per trial seed, then
  (``check``) replay every seed and compare the curves bit for bit.

The result JSON holds ``ready`` (``time.perf_counter`` once qvlms is
imported; the parent started its clock before spawning this process) and
``setup_speed``; for an execution also the timed call's ``wall_s`` and
``cpu_s``, its ``scale`` (see ``SpeedProbe``), ``maxrss_mb`` of this
process, and with ``trace`` the span summary.
"""

import json
import platform
import resource
import signal
import sys
import time

import numpy as np

import qvlms.cli as cli
from qvlms import experiment

cli.build_parser()
READY = time.perf_counter()

#: (batch, K) -> seconds per step of ``_kernel`` on the reference machine
#: (2-core x86_64 VM, Python 3.11, numpy 2.4, one BLAS thread).
REFERENCE_STEP_S = {(256, 9): 3.6e-05, (1, 9): 1.4e-05}

_RNG = np.random.default_rng(0)
_U = _RNG.standard_normal((256, 9))
_H = _RNG.standard_normal((256, 9))


def _kernel(steps: int, shape=(256, 9)) -> float:
    """Seconds for ``steps`` steps of a fixed numpy update shaped like the
    lockstep kernel (``shape`` = trials x coefficients). It does not touch
    qvlms."""
    u, h = _U[:shape[0], :shape[1]], _H[:shape[0], :shape[1]]
    w = np.zeros_like(u)
    t0 = time.perf_counter()
    for _ in range(steps):
        e = (u * h).sum(axis=1) - (u * w).sum(axis=1)
        w = np.where((e > -1e9)[:, None], w + 1e-6 * e[:, None] * u, w)
    return time.perf_counter() - t0


def _speed(steps: int, shape=(256, 9)) -> float:
    """Machine speed now, relative to the reference machine."""
    return REFERENCE_STEP_S[shape] * steps / _kernel(steps, shape)


class SpeedProbe:
    """Samples the machine's speed while a timed call runs.

    A shared machine runs the same code up to a third slower for seconds
    at a time, and each CPU on its own schedule, so neither a median over
    executions nor a calibration before the call removes that drift. While
    the probe is active, SIGALRM runs about ``BUSY_S`` seconds of ``_kernel``
    every ``INTERVAL_S`` seconds on the same thread (Python runs the handler
    between bytecodes, so the program's state is untouched). ``scale``
    converts a time measured inside the probe into the time at reference
    speed with the probe's own share removed. ``shape`` matches the batch
    the workload's kernel steps, since per-call overhead and arithmetic on
    256 trials slow down differently.
    """

    INTERVAL_S = 0.04
    BUSY_S = 0.0015  # per sample, about 4% of the interval

    def __init__(self, shape):
        self.shape = tuple(shape)
        self.steps_per_sample = round(self.BUSY_S / REFERENCE_STEP_S[self.shape])
        self.busy_s = 0.0
        self.steps = 0

    def _sample(self, signum, frame):
        self.busy_s += _kernel(self.steps_per_sample, self.shape)
        self.steps += self.steps_per_sample

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, wall_s: float) -> float:
        if not self.steps:  # a call shorter than one interval
            return _speed(2000, self.shape)
        speed = REFERENCE_STEP_S[self.shape] * self.steps / self.busy_s
        return speed * (wall_s - self.busy_s) / wall_s


def _versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def _same_curves(a, b) -> bool:
    for field in ("nwd", "abs_weight_error", "squared_error", "final_weights",
                  "channel", "initial_weights"):
        x, y = getattr(a, field), getattr(b, field)
        if x.shape != y.shape or x.dtype != y.dtype or x.tobytes() != y.tobytes():
            return False
    return (a.diverged, a.divergence_iteration) == (b.diverged, b.divergence_iteration)


def _trial_setup(task) -> tuple:
    config = experiment.ExperimentConfig(
        iterations=task["iterations"], trials=task["trials"],
        master_seed=task["seed"], step_size=task["mu"],
        q_values=(task["q"],), snr_db_values=(task["snr"],))
    channel = experiment.ChannelSpec(memory_length=3, snr_db=task["snr"])
    return config, channel, experiment.trial_seeds(task["seed"], task["trials"])


def main(task: dict) -> dict:
    # measured right after start-up, to put setup_s at reference speed
    result = {"ready": READY, "setup_speed": _speed(2000)}
    if task["mode"] == "setup":
        result["versions"] = _versions()
        return result

    tracer = None
    run_trial, cli_main = experiment.run_trial, cli.main
    if task.get("trace"):
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        run_trial = tracer.wrap("experiment", "run_trial", run_trial)
        cli_main = tracer.wrap("cli", "main", cli_main)
    if task["mode"] == "trial":
        config, channel, seeds = _trial_setup(task)

    with SpeedProbe(task["probe_shape"]) as probe:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        if task["mode"] == "cli":
            result["exit_code"] = cli_main(task["argv"])
        else:
            curves = [run_trial(config, channel, s) for s in seeds]
            result["exit_code"] = 0
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - cpu0
    result["scale"] = probe.scale(result["wall_s"])
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
    if task["mode"] == "trial":
        result["diverged"] = sum(c.diverged for c in curves)
        result["finite"] = all(bool(np.isfinite(c.nwd).all())
                               for c in curves if not c.diverged)
        if task.get("check"):
            result["identical"] = all(
                _same_curves(c, experiment.run_trial(config, channel, s))
                for c, s in zip(curves, seeds))
    return result


if __name__ == "__main__":
    task = json.loads(sys.argv[1])
    with open(sys.argv[2], "w") as fh:
        json.dump(main(task), fh)
