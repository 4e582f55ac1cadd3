"""Command-line harness: protocol runs, ad-hoc Monte-Carlo, bound calculator.

Every run is one ``RunSpec``: a protocol and its settings, merged as
defaults < config file < flags and validated in one place. ``execute``
runs a spec and writes its CSVs, plot series and a JSON manifest carrying
the resolved configuration, tool, Python and numpy versions, master seed
and output paths. ``qvlms rerun manifest.json`` rebuilds the spec from the
manifest, reproduces the CSV outputs byte for byte, and warns when the
Python or numpy version differs.

Config files are flat ``key = value`` text ('#' starts a comment), each
key at most once. Each protocol takes only the keys of its entry in
``DEFAULTS``; any other key, in a config file or a manifest, is a
configuration error, as is an input file that cannot be read. Exit codes:
0 success, 1 configuration error, 2 runtime failure (for example every
trial diverging).
"""

import argparse
import datetime
import json
import math
import os
import platform
import sys
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from qvlms import __version__
from qvlms.adapt import QParams, step_size_bound
from qvlms.experiment import (
    ALGORITHMS,
    ChannelSpec,
    ExperimentConfig,
    monte_carlo,
    nwd_db,
    protocol1,
    protocol2,
    steady_state_level,
)
from qvlms.theory import gaussian_autocorrelation
from qvlms.volterra import RegressorMode

OUT_DIR_ENV = "QVLMS_OUT_DIR"

CURVE_COLUMNS = ("iteration", "algorithm", "q", "snr_db", "nwd", "nwd_db",
                 "mae", "mse")
SUMMARY_COLUMNS = ("algorithm", "q", "snr_db", "steady_state_nwd_db",
                   "correlation", "divergence_count")


class ConfigError(ValueError):
    """Invalid configuration input; the message names the offending key."""


# ---------------------------------------------------------------------------
# settings: one parser per key, which also checks the value's range
# ---------------------------------------------------------------------------

def _parse_float(key, text):
    try:
        return float(text)
    except (TypeError, ValueError):
        raise ConfigError(f"key '{key}': expected a number, got {text!r}")


def _parse_positive(key, text):
    value = _parse_float(key, text)
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"key '{key}': must be positive and finite, got {value}")
    return value


def _parse_snr(key, text):
    value = _parse_float(key, text)
    # +inf is a noiseless run; NaN and -inf have no meaning as an SNR
    if math.isnan(value) or value == -math.inf:
        raise ConfigError(f"key '{key}': must be a number or inf, got {value}")
    return value


def _parse_int(key, text, low=1):
    try:
        value = int(str(text))
    except ValueError:
        raise ConfigError(f"key '{key}': expected an integer, got {text!r}")
    if value < low:
        raise ConfigError(f"key '{key}': must be >= {low}, got {value}")
    return value


def _parse_mode(key, text):
    try:
        return RegressorMode(text if isinstance(text, RegressorMode)
                             else str(text).strip().lower())
    except ValueError:
        raise ConfigError(
            f"key '{key}': expected 'raw' or 'orthonormalized', got {text!r}"
        )


def _parse_bool(key, text):
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"key '{key}': expected a boolean, got {text!r}")


def _parse_algorithm(key, text):
    if text not in ALGORITHMS:
        raise ConfigError(f"key '{key}': expected one of {ALGORITHMS}, got {text!r}")
    return text


def _list_of(parse_item):
    """Parser of a list: comma- or space-separated text (config files) or a
    sequence (flags, manifests)."""
    def parse(key, value):
        items = (list(value) if isinstance(value, (list, tuple))
                 else str(value).replace(",", " ").split())
        if not items:
            raise ConfigError(f"key '{key}': expected a list of values")
        return tuple(parse_item(key, item) for item in items)
    return parse


_parse_positives = _list_of(_parse_positive)

_PARSERS = {
    "memory_length": _parse_int,
    "trials": _parse_int,
    "iterations": _parse_int,
    # numpy's SeedSequence takes non-negative integers only
    "seed": lambda key, text: _parse_int(key, text, low=0),
    "snr_db": _list_of(_parse_snr),
    "q_values": _parse_positives,
    "mu": _parse_positive,
    "mu_fraction": _parse_positive,
    "regressor_mode": _parse_mode,
    "include_whitened": _parse_bool,
    "algorithms": _list_of(_parse_algorithm),
}

#: Each protocol's settings and their defaults. A protocol takes these keys
#: and no other; the manifest's ``config`` holds exactly them, in this order.
DEFAULTS = {
    "protocol1": {
        "memory_length": 3, "trials": 1000, "iterations": 2000, "seed": 0,
        "snr_db": (20.0,), "q_values": (1.0, 5.0, 10.0), "mu_fraction": 0.05,
        "regressor_mode": RegressorMode.RAW,
    },
    "protocol2": {
        "memory_length": 3, "trials": 1000, "iterations": 2500, "seed": 0,
        "snr_db": (10.0, 20.0, 30.0), "q_values": (2.0, 5.0, 10.0), "mu": 1e-3,
        "regressor_mode": RegressorMode.RAW, "include_whitened": False,
    },
    "run": {
        "memory_length": 3, "trials": 100, "iterations": 5000, "seed": 0,
        "snr_db": (20.0,), "q_values": (5.0,), "mu": None, "mu_fraction": None,
        "regressor_mode": RegressorMode.RAW, "algorithms": ("qvlms",),
    },
}


def _read_input(path, what: str) -> str:
    """The text of an input file; one that cannot be read (missing, a
    directory, no permission, not text) is a configuration error naming it."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{what} {path}: cannot be read ({exc.strerror})")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path}: not a text file ({exc.reason})")


def parse_config_file(path) -> dict:
    """Read a flat key = value config file into a typed dict. A key may
    be given once."""
    values, lines = {}, {}
    for lineno, raw in enumerate(_read_input(path, "config file").splitlines(),
                                 start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: key '{key}' given twice, "
                              f"on lines {lines[key]} and {lineno}")
        lines[key] = lineno
        values[key] = _PARSERS[key](key, text)
    return values


@dataclass(frozen=True)
class RunSpec:
    """A protocol and its resolved, validated settings.

    ``config()`` is the manifest's ``config`` object and ``from_manifest``
    reads it back, so a rerun resolves the same spec.
    """

    protocol: str
    settings: MappingProxyType

    @classmethod
    def resolve(cls, protocol, *sources: dict) -> "RunSpec":
        """The protocol's defaults overridden by each source in turn; a
        ``None`` value leaves a setting as it is."""
        if not isinstance(protocol, str) or protocol not in DEFAULTS:
            raise ConfigError(f"key 'protocol': unknown value {protocol!r}")
        s = dict(DEFAULTS[protocol])
        for source in sources:
            for key, value in source.items():
                if key not in s:
                    raise ConfigError(f"key '{key}': not a setting of {protocol}")
                if value is not None:
                    s[key] = _PARSERS[key](key, value)
        if protocol == "protocol1" and len(s["snr_db"]) != 1:
            raise ConfigError(
                f"key 'snr_db': protocol1 runs at one SNR, got {list(s['snr_db'])}"
            )
        if protocol == "run" and (s["mu"] is None) == (s["mu_fraction"] is None):
            raise ConfigError("key 'mu': set exactly one of mu and mu_fraction")
        return cls(protocol, MappingProxyType(s))

    @classmethod
    def from_args(cls, args) -> "RunSpec":
        """Defaults < ``--config`` file < flags; each flag's ``dest`` is its key."""
        file_values = parse_config_file(args.config) if args.config else {}
        flags = {k: v for k, v in vars(args).items() if k in DEFAULTS[args.command]}
        return cls.resolve(args.command, file_values, flags)

    @classmethod
    def from_manifest(cls, manifest: dict) -> "RunSpec":
        """The spec a manifest recorded. Its ``config`` must hold every
        setting of the protocol, null ones included: a missing key would
        silently take its default."""
        config = manifest.get("config", {})
        if not isinstance(config, dict):
            raise ConfigError(f"key 'config': expected an object, got {config!r}")
        protocol = manifest.get("protocol")
        for key in DEFAULTS.get(protocol, ()) if isinstance(protocol, str) else ():
            if key not in config:
                raise ConfigError(f"key '{key}': missing from the manifest's config")
        return cls.resolve(protocol, config)

    def config(self) -> dict:
        """The settings as JSON values."""
        return {k: (v.value if isinstance(v, RegressorMode) else v)
                for k, v in self.settings.items()}


# ---------------------------------------------------------------------------
# output writing
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def _write_csv(path: Path, columns, rows):
    """Write the header and then each row of the iterable ``rows`` as it
    comes, so that no table is held whole."""
    with path.open("w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row.get(c)) for c in columns) + "\n")


def _write_plot_series(path: Path, ys):
    lines = [f"{i} {_fmt(float(y))}" for i, y in enumerate(ys)]
    path.write_text("\n".join(lines) + "\n")


def _curve_rows(algorithm, q, snr_db, nwd=None, mae=None, mse=None):
    length = len(nwd) if nwd is not None else len(mae)
    ndb = nwd_db(np.asarray(nwd)) if nwd is not None else None
    for i in range(length):
        yield {
            "iteration": i,
            "algorithm": algorithm,
            "q": _fmt(q) if q is not None else "",
            "snr_db": snr_db,
            "nwd": float(nwd[i]) if nwd is not None else None,
            "nwd_db": float(ndb[i]) if nwd is not None else None,
            "mae": float(mae[i]) if mae is not None else None,
            "mse": float(mse[i]) if mse is not None else None,
        }


def _cell_key(cell) -> str:
    return f"{cell.algorithm},q={cell.q_value},snr={cell.snr_db:g}"


def _averaged_tables(name: str, cells) -> list:
    """The curves and summary tables of ``AveragedCurves`` cells; rows are
    made as the table is written."""
    rows = (row for cell in cells
            for row in _curve_rows(cell.algorithm, cell.q_value, cell.snr_db,
                                   nwd=cell.nwd, mae=cell.mae, mse=cell.mse))
    summary = (dict(zip(SUMMARY_COLUMNS, (
        cell.algorithm, cell.q_value, cell.snr_db,
        cell.steady_state_nwd_db(), None, cell.diverged))) for cell in cells)
    return [(f"{name}_curves.csv", CURVE_COLUMNS, rows),
            (f"{name}_summary.csv", SUMMARY_COLUMNS, summary)]


def _environment() -> dict:
    """Versions the outputs' bits depend on: the kernel reproduces numpy's
    summation order, and numpy's generators and math follow the release."""
    return {"python": platform.python_version(), "numpy": np.__version__}


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# protocols: each runs its settings and returns its outputs as
# (tables, plot series, manifest checks, summary lines)
# ---------------------------------------------------------------------------

def _protocol1_outputs(s):
    report = protocol1(
        s["seed"], trials=s["trials"], iterations=s["iterations"],
        snr_db=s["snr_db"][0], q_values=s["q_values"],
        memory_length=s["memory_length"], regressor_mode=s["regressor_mode"],
        mu_fraction=s["mu_fraction"],
    )
    comps = report.comparisons

    def rows():
        for comp in comps:
            yield from _curve_rows("qvlms", comp.q_value, report.snr_db,
                                   nwd=comp.simulated_nwd, mae=comp.simulated_mae)
            yield from _curve_rows("theory", comp.q_value, report.snr_db,
                                   mae=comp.theory_mae)

    summary = (dict(zip(SUMMARY_COLUMNS, (
        "qvlms", comp.q_value, report.snr_db,
        float(nwd_db(steady_state_level(comp.simulated_nwd))),
        comp.correlation, comp.diverged))) for comp in comps)
    series = [(f"plot_protocol1_q{comp.q_value:g}_{kind}.dat", ys)
              for comp in comps
              for kind, ys in (("sim", comp.simulated_mae),
                               ("theory", comp.theory_mae))]

    tables = [("protocol1_curves.csv", CURVE_COLUMNS, rows()),
              ("protocol1_summary.csv", SUMMARY_COLUMNS, summary)]
    checks = {
        "correlations": {f"q={c.q_value:g}": c.correlation
                         for c in report.comparisons},
        "average_correlation": report.average_correlation,
        "all_correlations_at_least_0.995": bool(
            all(c.correlation >= 0.995 for c in report.comparisons)
            and report.average_correlation >= 0.995
        ),
        "divergence_counts": {f"q={c.q_value:g}": c.diverged
                              for c in report.comparisons},
    }
    line = (f"protocol1: average correlation {report.average_correlation:.5f} "
            f"over q={list(s['q_values'])}")
    return tables, series, checks, [line]


def _protocol2_outputs(s):
    report = protocol2(
        s["seed"], trials=s["trials"], iterations=s["iterations"],
        snr_db_values=s["snr_db"], q_values=s["q_values"], step_size=s["mu"],
        include_whitened=s["include_whitened"],
        memory_length=s["memory_length"], regressor_mode=s["regressor_mode"],
    )
    tables = _averaged_tables("protocol2", report.curves)
    tables.append(("protocol2_gaps.csv", ("q", "snr_db", "advantage_db"), [
        {"q": q, "snr_db": snr, "advantage_db": adv}
        for (q, snr), adv in sorted(report.advantages_db.items())
    ] + [{"q": "average", "snr_db": "", "advantage_db": report.average_advantage_db}]))
    series = []
    for cell in report.curves:
        qtag = f"_q{cell.q_value:g}" if cell.q_value is not None else ""
        series.append((f"plot_protocol2_{cell.algorithm}{qtag}_snr{cell.snr_db:g}.dat",
                       nwd_db(cell.nwd)))

    checks = {
        "average_advantage_db": report.average_advantage_db,
        "advantage_positive_everywhere": bool(
            all(v > 0 for v in report.advantages_db.values())
        ),
        "divergence_counts": {_cell_key(c): c.diverged for c in report.curves},
    }
    line = (f"protocol2: average q-VLMS advantage "
            f"{report.average_advantage_db:+.2f} dB over SNR={list(s['snr_db'])}")
    return tables, series, checks, [line]


def _run_outputs(s):
    config = ExperimentConfig(
        iterations=s["iterations"], trials=s["trials"], master_seed=s["seed"],
        step_size=s["mu"], step_size_fraction=s["mu_fraction"],
        q_values=s["q_values"], snr_db_values=s["snr_db"],
        algorithms=s["algorithms"],
    )
    channel = ChannelSpec(memory_length=s["memory_length"],
                          regressor_mode=s["regressor_mode"])

    # warn per cell when its step exceeds twice its stability bound; as in
    # the step-size resolution, q-VLMS cells take their q and the others 1
    k = channel.num_coefficients
    lam = channel.eigenvalues()
    for algorithm in config.algorithms:
        for q in config.q_values if algorithm == "qvlms" else (1.0,):
            bound = step_size_bound(QParams.uniform(q, k), lam)
            mu = s["mu"] if s["mu"] is not None else s["mu_fraction"] * bound
            if mu > 2.0 * bound:
                print(f"warning: mu={mu:.3e} exceeds twice the stability bound "
                      f"{bound:.3e} for {algorithm} at q={q:g}; divergence "
                      f"likely", file=sys.stderr)

    cells = monte_carlo(config, channel)
    checks = {
        "resolved_step_sizes": {_cell_key(c): c.step_size for c in cells},
        "divergence_counts": {_cell_key(c): c.diverged for c in cells},
    }
    return _averaged_tables("run", cells), [], checks, []


_OUTPUTS = {"protocol1": _protocol1_outputs, "protocol2": _protocol2_outputs,
            "run": _run_outputs}


def execute(spec: RunSpec, out=None) -> int:
    """Run ``spec``; write its tables, plot series and ``manifest.json`` to
    ``out`` (default ``$QVLMS_OUT_DIR``, else ``./qvlms-out``)."""
    started = _utc_now()
    out_dir = Path(out or os.environ.get(OUT_DIR_ENV) or "qvlms-out")
    out_dir.mkdir(parents=True, exist_ok=True)
    tables, series, checks, lines = _OUTPUTS[spec.protocol](spec.settings)
    for name, columns, rows in tables:
        _write_csv(out_dir / name, columns, rows)
    for name, ys in series:
        _write_plot_series(out_dir / name, ys)
    manifest = {
        "tool": "qvlms",
        "version": __version__,
        "environment": _environment(),
        "protocol": spec.protocol,
        "master_seed": spec.settings["seed"],
        "config": spec.config(),
        "started_utc": started,
        "finished_utc": _utc_now(),
        "outputs": [entry[0] for entry in tables + series],
        "checks": checks,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    for line in lines + [f"{spec.protocol}: outputs in {out_dir}"]:
        print(line)
    return 0


# ---------------------------------------------------------------------------
# subcommands without a run spec
# ---------------------------------------------------------------------------

def cmd_bound(args) -> int:
    qs = _parse_positives("q_values", args.q_values or (1.0,))
    if args.eigenvalues:
        mixed = [key for key in ("memory_length", "regressor_mode")
                 if getattr(args, key) is not None]
        if mixed:
            raise ConfigError("key 'eigenvalues': cannot be combined with "
                              + " or ".join(f"'{key}'" for key in mixed)
                              + ", which set the eigenvalues themselves")
        lam = np.array(_parse_positives("eigenvalues", args.eigenvalues))
    else:
        mode = _parse_mode("regressor_mode", args.regressor_mode or "raw")
        m = _parse_int("memory_length",
                       3 if args.memory_length is None else args.memory_length)
        lam = np.linalg.eigvalsh(gaussian_autocorrelation(m, mode))
        print(f"eigenvalues (M={m}, {mode.value}): "
              + " ".join(f"{v:.6g}" for v in lam))
    for q in qs:
        qp = QParams.uniform(q, lam.size)
        print(f"q={q:g}: bound = {step_size_bound(qp, lam):.10g}")
    return 0


def cmd_rerun(args) -> int:
    text = _read_input(args.manifest, "manifest")
    try:
        manifest = json.loads(text)
    except ValueError as exc:  # not JSON
        raise ConfigError(f"manifest {args.manifest}: not a JSON file ({exc})")
    if not isinstance(manifest, dict):
        raise ConfigError(f"manifest {args.manifest}: expected a JSON object, "
                          f"got {type(manifest).__name__}")
    # manifests written before versions were recorded carry none to compare
    recorded = manifest.get("environment", {})
    if not isinstance(recorded, dict):
        raise ConfigError(f"key 'environment': expected an object, got {recorded!r}")
    spec = RunSpec.from_manifest(manifest)
    for name, version in _environment().items():
        if recorded.get(name, version) != version:
            print(f"warning: manifest was written with {name} "
                  f"{recorded[name]}, this is {name} {version}; outputs may "
                  f"differ in the last digits", file=sys.stderr)
    return execute(spec, args.out)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    """Flags of every run command; each ``dest`` is the setting's key."""
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} "
                                 "or ./qvlms-out)")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--trials", type=int)
    p.add_argument("--iterations", type=int)
    p.add_argument("--memory-length", dest="memory_length", type=int)
    p.add_argument("--mode", dest="regressor_mode",
                   help="regressor mode: raw or orthonormalized")
    p.add_argument("--q", dest="q_values", type=float, nargs="+")
    p.add_argument("--snr", dest="snr_db", type=float, nargs="+")
    p.set_defaults(func=lambda args: execute(RunSpec.from_args(args), args.out))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qvlms",
        description="q-gradient Volterra LMS channel-estimation harness",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("protocol1", help="validate the convergence analysis")
    _add_common(p1)
    p1.add_argument("--mu-fraction", dest="mu_fraction", type=float)

    p2 = sub.add_parser("protocol2", help="q sensitivity versus plain VLMS")
    _add_common(p2)
    p2.add_argument("--mu", type=float)
    p2.add_argument("--whitened", dest="include_whitened", action="store_true",
                    default=None, help="add the fixed-gain S R^-1 S variant")

    run = sub.add_parser("run", help="ad-hoc Monte-Carlo run")
    _add_common(run)
    run.add_argument("--mu", type=float)
    run.add_argument("--mu-frac", dest="mu_fraction", type=float,
                     help="step size as a fraction of the stability bound")
    run.add_argument("--algorithm", dest="algorithms", nargs="+",
                     choices=ALGORITHMS)

    bound = sub.add_parser("bound", help="print the step-size stability bound")
    bound.add_argument("--q", dest="q_values", type=float, nargs="+")
    bound.add_argument("--eigenvalues", type=float, nargs="+")
    bound.add_argument("--memory-length", dest="memory_length", type=int)
    bound.add_argument("--mode", dest="regressor_mode")
    bound.set_defaults(func=cmd_bound)

    rr = sub.add_parser("rerun", help="re-run an experiment from its manifest")
    rr.add_argument("manifest")
    rr.add_argument("--out", required=True)
    rr.set_defaults(func=cmd_rerun)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
