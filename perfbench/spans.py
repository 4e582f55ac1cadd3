"""Spans around calls that cross qvlms module boundaries.

``experiment`` and ``cli`` import names directly (``from qvlms.theory
import gaussian_autocorrelation``), so a span is installed by replacing the
name in the *calling* module's namespace. Wrappers return the wrapped
call's value unchanged, so a traced run produces the same outputs as an
untraced one. Spans are aggregated in memory per (layer, name): call
count, inclusive time, self time (inclusive minus direct child spans) and
the per-call durations, plus ``ru_maxrss`` growth for ``experiment``
spans.
"""

import resource
import statistics
import time
from array import array

from qvlms import cli, experiment, theory

#: (calling module, attribute, layer) for every boundary the tracer spans.
#: ``cli -> experiment`` are the run entry points; the rest are the calls
#: production code makes into the lower layers.
BOUNDARIES = (
    (cli, "protocol1", "experiment"),
    (cli, "protocol2", "experiment"),
    (cli, "monte_carlo", "experiment"),
    (cli, "gaussian_autocorrelation", "theory"),
    (experiment, "gaussian_autocorrelation", "theory"),
    (experiment, "build_update_matrix", "theory"),
    (cli, "step_size_bound", "adapt"),
    (cli, "QParams", "adapt"),
    (experiment, "step_size_bound", "adapt"),
    (experiment, "QParams", "adapt"),
    (experiment, "num_coefficients", "volterra"),
    (experiment, "scaling_diag", "volterra"),
    (theory, "num_coefficients", "volterra"),
    (theory, "quadratic_pairs", "volterra"),
)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "durations", "rss_growth_kb")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations = array("d")
        self.rss_growth_kb = 0


class _ClassProxy:
    """Stands in for a class name: construction and callable class
    attributes (such as ``QParams.uniform``) run inside spans; the objects
    they return are the real instances."""

    def __init__(self, tracer, layer, cls):
        self._tracer = tracer
        self._layer = layer
        self._cls = cls
        self._call = tracer.wrap(layer, cls.__name__, cls)

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __getattr__(self, attr):
        value = getattr(self._cls, attr)
        if callable(value):
            return self._tracer.wrap(self._layer, f"{self._cls.__name__}.{attr}", value)
        return value


class Tracer:
    """Single-threaded span recorder; ``install`` patches ``BOUNDARIES``."""

    def __init__(self):
        self.stats = {}
        self.layer_s = {}
        self._stack = []  # open spans: [layer, start, child_s]
        self._depth = {}  # open spans per layer, to count nested time once
        self._patched = []

    def wrap(self, layer, name, fn):
        stat = self.stats.setdefault((layer, name), _Stat())
        track_rss = layer == "experiment"

        def traced(*args, **kwargs):
            frame = [layer, 0.0, 0.0]
            self._stack.append(frame)
            self._depth[layer] = self._depth.get(layer, 0) + 1
            rss0 = _maxrss_kb() if track_rss else 0
            frame[1] = start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                self._stack.pop()
                self._depth[layer] -= 1
                if self._stack:
                    self._stack[-1][2] += dur
                if self._depth[layer] == 0:
                    self.layer_s[layer] = self.layer_s.get(layer, 0.0) + dur
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame[2]
                stat.durations.append(dur)
                if track_rss:
                    stat.rss_growth_kb += _maxrss_kb() - rss0

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, attr, layer in BOUNDARIES:
            original = getattr(module, attr)
            if isinstance(original, type):
                replacement = _ClassProxy(self, layer, original)
            else:
                replacement = self.wrap(layer, attr, original)
            self._patched.append((module, attr, original))
            setattr(module, attr, replacement)

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def summary(self) -> dict:
        """JSON-ready per-span and per-layer aggregates."""
        spans = {}
        for (layer, name), st in self.stats.items():
            durs = list(st.durations)
            spans[f"{layer}.{name}"] = {
                "layer": layer,
                "calls": st.calls,
                "total_s": st.total_s,
                "self_s": st.self_s,
                "median_s": statistics.median(durs) if durs else 0.0,
                "p90_s": _p90(durs),
                "rss_growth_mb": st.rss_growth_kb / 1024.0,
            }
        return {"spans": spans, "layer_s": dict(self.layer_s)}


def _p90(durs) -> float:
    if len(durs) < 2:
        return durs[0] if durs else 0.0
    return statistics.quantiles(durs, n=10)[-1]
