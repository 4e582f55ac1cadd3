"""Command-line harness: protocol runs, ad-hoc Monte-Carlo, bound calculator.

Every run is one ``RunSpec``: a protocol and its settings, merged as
defaults < config file < flags and validated in one place, where the
run's ``ExperimentConfig``, channel and cells are built once; the step
warning reads the cells, each with its step and stability bound.
``execute`` runs a spec as one ``monte_carlo`` of its config and channel,
hands the curves to its protocol's report, and writes, through one
writer, its CSV tables and ``.dat`` plot series (no header,
space-separated; a float by its repr, NaN as empty), and a JSON manifest
carrying the resolved configuration, tool, Python and numpy versions,
master seed and output paths. ``qvlms rerun manifest.json`` rebuilds the
spec from the manifest, reproduces every table byte for byte, and warns
when the tool, Python or numpy version differs.

Config files are flat ``key = value`` text ('#' starts a comment), each
key at most once. Each protocol takes only the keys of its entry in
``DEFAULTS``; any other key, in a config file or a manifest, is a
configuration error, as is a q, SNR or algorithm given twice, an input
file that cannot be read or an output directory that cannot be created.
A flag's value reaches its key's parser in ``_PARSERS`` as text, as a
config file's does, so a malformed one is a configuration error too. Exit
codes: 0 success, 1 configuration error, 2 runtime failure (for example
every trial diverging) or argparse usage error.
"""

import argparse
import datetime
import json
import os
import platform
import sys
from dataclasses import dataclass, field, replace
from itertools import repeat
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
    steady_state_level,
)
from qvlms.experiment import _check_distinct, _check_positive, _config_cells
from qvlms.experiment import _protocol1_report, _protocol2_algorithms
from qvlms.experiment import _protocol2_report
# unused here, but perfbench/spans.py spans them under this module's name
from qvlms.experiment import protocol1, protocol2  # noqa: F401
from qvlms.theory import gaussian_autocorrelation  # noqa: F401
from qvlms.theory import gaussian_eigenvalues
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
    # float(True) is 1.0, but a JSON boolean is no number
    if not isinstance(text, bool):
        try:
            return float(text)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"key '{key}': expected a number, got {text!r}")


def _in_range(check, key, value):
    """``value`` if the library's range rule ``check`` takes it; its
    ``ValueError`` otherwise, as a ``ConfigError`` naming ``key``."""
    try:
        check(f"key '{key}':", value)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return value


def _parse_positive(key, text):
    return _in_range(_check_positive, key, _parse_float(key, text))


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
    # the SNR's range depends on the channel family: RunSpec.resolve checks it
    "snr_db": _list_of(_parse_float),
    "q_values": _parse_positives,
    "mu": _parse_positive,
    "mu_fraction": _parse_positive,
    "regressor_mode": _parse_mode,
    "include_whitened": _parse_bool,
    "algorithms": _list_of(_parse_algorithm),
    # bound's own input, a setting of no protocol
    "eigenvalues": _parse_positives,
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
    reads it back, so a rerun resolves the same spec. ``experiment`` and
    ``channel`` are the ``monte_carlo`` arguments of the run, and ``cells``
    its cells, each with its step and stability bound, as ``resolve``
    built them; they are derived from the settings, so they are neither
    recorded nor compared.
    """

    protocol: str
    settings: MappingProxyType
    experiment: ExperimentConfig = field(compare=False, repr=False)
    channel: ChannelSpec = field(compare=False, repr=False)
    cells: tuple = field(compare=False, repr=False)

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
        for key in ("algorithms", "q_values", "snr_db"):
            _in_range(_check_distinct, key, s.get(key, ()))
        channel = ChannelSpec(memory_length=s["memory_length"],
                              regressor_mode=s["regressor_mode"])
        for snr in s["snr_db"]:
            _in_range(channel._check_noise, "snr_db", snr)
        if protocol == "run" and (s["mu"] is None) == (s["mu_fraction"] is None):
            raise ConfigError("key 'mu': set exactly one of mu and mu_fraction")
        experiment = _experiment_config(s)
        return cls(protocol, MappingProxyType(s), experiment, channel,
                   _resolve_cells(experiment, channel))

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


def _experiment_config(s) -> ExperimentConfig:
    """The ``ExperimentConfig`` of the cells that the settings ``s`` run:
    run's own, protocol1's q-VLMS cells at its fraction of the bound, or
    protocol2's cells at its absolute step."""
    if "include_whitened" in s:
        algorithms = _protocol2_algorithms(s["include_whitened"])
    else:
        algorithms = s.get("algorithms", ("qvlms",))
    return ExperimentConfig(
        iterations=s["iterations"], trials=s["trials"], master_seed=s["seed"],
        step_size=s.get("mu"), step_size_fraction=s.get("mu_fraction"),
        q_values=s["q_values"], snr_db_values=s["snr_db"],
        algorithms=algorithms,
    )


def _resolve_cells(config: ExperimentConfig, channel: ChannelSpec) -> tuple:
    """The cells of ``config``, resolved as its run will resolve them. A
    cell whose stability bound overflows, which the library refuses at
    either step rule, is a configuration error naming 'q_values', and a
    fraction of the bound that gives no positive step one naming
    'mu_fraction'."""
    try:
        return tuple(_config_cells(config, channel))
    except ValueError as exc:
        absolute = replace(config, step_size=1.0, step_size_fraction=None)
        try:  # a bound that overflows does so at any step
            _config_cells(absolute, channel)
        except ValueError:
            raise ConfigError(f"key 'q_values': {exc}") from None
        raise ConfigError(f"key 'mu_fraction': {exc}") from None


# ---------------------------------------------------------------------------
# output writing
# ---------------------------------------------------------------------------

def _texts(values):
    """Each value's text, as it is read: a float by its repr, NaN and None
    as empty, anything else by str."""
    if isinstance(values, np.ndarray):
        values = values.tolist()  # Python floats: numpy 2 reprs np.float64(x)
    return ("" if v is None or v != v else repr(v) if isinstance(v, float)
            else str(v) for v in values)


def _write_table(path: Path, header, blocks):
    """Write ``header`` and then each block as it comes, a row at a time,
    so that no table or block is held as text. A block is a list of
    columns, each one value for every row of the block or a sequence of one
    value per row. A ``.dat`` plot series has no header (``None``) and
    separates its columns by a space."""
    sep = " " if path.suffix == ".dat" else ","
    with path.open("w") as fh:
        if header is not None:
            fh.write(sep.join(header) + "\n")
        for block in blocks:
            columns = [_texts(c) if isinstance(c, (np.ndarray, list, tuple, range))
                       else repeat(*_texts((c,))) for c in block]
            fh.writelines(sep.join(row) + "\n" for row in zip(*columns))


def _curve_block(algorithm, q, snr_db, mae, nwd=None, mse=None) -> list:
    """One curve's block of ``CURVE_COLUMNS``; a curve not given is empty."""
    return [range(len(mae)), algorithm, q, snr_db, nwd,
            None if nwd is None else nwd_db(nwd), mae, mse]


def _series(name: str, ys) -> tuple:
    """A ``.dat`` plot series: each iteration and its value."""
    return name, None, [[range(len(ys)), ys]]


def _cell_key(cell) -> str:
    return f"{cell.algorithm},q={cell.q_value},snr={cell.snr_db:g}"


def _averaged_tables(name: str, cells) -> list:
    """The curves and summary tables of ``AveragedCurves`` cells: a block per
    curve, made as it is written, and the summary rows as one block."""
    curves = (_curve_block(c.algorithm, c.q_value, c.snr_db, c.mae, c.nwd, c.mse)
              for c in cells)
    summary = list(zip(*[(c.algorithm, c.q_value, c.snr_db,
                          c.steady_state_nwd_db(), None, c.diverged)
                         for c in cells]))
    return [(f"{name}_curves.csv", CURVE_COLUMNS, curves),
            (f"{name}_summary.csv", SUMMARY_COLUMNS, [summary])]


def _environment() -> dict:
    """Versions, besides the tool's own, that the outputs' bits depend on:
    numpy's generators and math follow the release."""
    return {"python": platform.python_version(), "numpy": np.__version__}


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# protocols: each reports a spec's monte_carlo curves as its outputs,
# (tables, manifest checks, summary lines), plot series among the tables
# ---------------------------------------------------------------------------

def _protocol1_outputs(spec, curves):
    # the CLI's mu_fraction is the fraction of the bound itself
    report = _protocol1_report(curves, spec.experiment, spec.channel,
                               "fraction_of_bound")
    comps, snr = report.comparisons, report.snr_db
    blocks = (block for comp in comps for block in (
        _curve_block("qvlms", comp.q_value, snr, comp.simulated_mae,
                     comp.simulated_nwd),
        _curve_block("theory", comp.q_value, snr, comp.theory_mae)))
    summary = list(zip(*[
        ("qvlms", comp.q_value, snr,
         float(nwd_db(steady_state_level(comp.simulated_nwd))),
         comp.correlation, comp.diverged) for comp in comps]))
    tables = [("protocol1_curves.csv", CURVE_COLUMNS, blocks),
              ("protocol1_summary.csv", SUMMARY_COLUMNS, [summary])]
    tables += [_series(f"plot_protocol1_q{comp.q_value:g}_{kind}.dat", ys)
               for comp in comps
               for kind, ys in (("sim", comp.simulated_mae),
                                ("theory", comp.theory_mae))]
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
            f"over q={list(spec.settings['q_values'])}")
    return tables, checks, [line]


def _protocol2_outputs(spec, curves):
    report = _protocol2_report(curves, spec.experiment, spec.channel)
    gaps = [(q, snr, adv) for (q, snr), adv in sorted(report.advantages_db.items())]
    gaps.append(("average", "", report.average_advantage_db))
    tables = _averaged_tables("protocol2", report.curves)
    tables.append(("protocol2_gaps.csv", ("q", "snr_db", "advantage_db"),
                   [list(zip(*gaps))]))
    for cell in report.curves:
        qtag = f"_q{cell.q_value:g}" if cell.q_value is not None else ""
        tables.append(_series(
            f"plot_protocol2_{cell.algorithm}{qtag}_snr{cell.snr_db:g}.dat",
            nwd_db(cell.nwd)))

    checks = {
        "average_advantage_db": report.average_advantage_db,
        "advantage_positive_everywhere": bool(
            all(v > 0 for v in report.advantages_db.values())
        ),
        "divergence_counts": {_cell_key(c): c.diverged for c in report.curves},
    }
    line = (f"protocol2: average q-VLMS advantage "
            f"{report.average_advantage_db:+.2f} dB over "
            f"SNR={list(spec.settings['snr_db'])}")
    return tables, checks, [line]


def _warn_steps(cells) -> None:
    """Warn per (algorithm, q) of ``cells`` whose step exceeds twice its
    stability bound: the cells at the first SNR are one of each."""
    for cell in cells:
        if cell.snr_db == cells[0].snr_db and cell.step_size > 2.0 * cell.bound:
            # the other algorithms have no q: their bound is at q = 1
            q = 1.0 if cell.q_value is None else cell.q_value
            print(f"warning: mu={cell.step_size:.3e} exceeds twice the stability "
                  f"bound {cell.bound:.3e} for {cell.algorithm} at q={q:g}; "
                  f"divergence likely", file=sys.stderr)


def _run_outputs(spec, cells):
    checks = {
        "resolved_step_sizes": {_cell_key(c): c.step_size for c in cells},
        "divergence_counts": {_cell_key(c): c.diverged for c in cells},
    }
    return _averaged_tables("run", cells), checks, []


_OUTPUTS = {"protocol1": _protocol1_outputs, "protocol2": _protocol2_outputs,
            "run": _run_outputs}


def execute(spec: RunSpec, out=None) -> int:
    """Run ``spec``; write its tables and ``manifest.json`` to ``out``
    (default ``$QVLMS_OUT_DIR``, else ``./qvlms-out``), created before the
    run: a directory that cannot be is a configuration error."""
    started = _utc_now()
    out_dir = Path(out or os.environ.get(OUT_DIR_ENV) or "qvlms-out")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {out_dir}: cannot be created "
                          f"({exc.strerror})")
    _warn_steps(spec.cells)
    curves = monte_carlo(spec.experiment, spec.channel)
    tables, checks, lines = _OUTPUTS[spec.protocol](spec, curves)
    for name, header, blocks in tables:
        _write_table(out_dir / name, header, blocks)
    manifest = {
        "tool": "qvlms",
        "version": __version__,
        "environment": _environment(),
        "protocol": spec.protocol,
        "master_seed": spec.settings["seed"],
        "config": spec.config(),
        "started_utc": started,
        "finished_utc": _utc_now(),
        "outputs": [name for name, _, _ in tables],
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
        lam = gaussian_eigenvalues(m, mode)
    try:
        bounds = [step_size_bound(QParams.uniform(q, lam.size), lam) for q in qs]
    except ValueError as exc:
        keys = "'q_values' with 'eigenvalues'" if args.eigenvalues else "'q_values'"
        raise ConfigError(f"key {keys}: {exc}") from None
    if not args.eigenvalues:
        print(f"eigenvalues (M={m}, {mode.value}): "
              + " ".join(f"{v:.6g}" for v in lam))
    for q, bound in zip(qs, bounds):
        print(f"q={q:g}: bound = {bound:.10g}")
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
    recorded = {**recorded, "qvlms": manifest.get("version", __version__)}
    for name, version in {"qvlms": __version__, **_environment()}.items():
        if recorded.get(name, version) != version:
            print(f"warning: manifest was written with {name} "
                  f"{recorded[name]}, this is {name} {version}; outputs may "
                  f"differ", file=sys.stderr)
    return execute(spec, args.out)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    """Flags of every run command; each ``dest`` is the setting's key."""
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} "
                                 "or ./qvlms-out)")
    p.add_argument("--seed", help="master seed")
    p.add_argument("--trials")
    p.add_argument("--iterations")
    p.add_argument("--memory-length", dest="memory_length")
    p.add_argument("--mode", dest="regressor_mode",
                   help="regressor mode: raw or orthonormalized")
    p.add_argument("--q", dest="q_values", nargs="+")
    p.add_argument("--snr", dest="snr_db", nargs="+")
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
    p1.add_argument("--mu-fraction", dest="mu_fraction")

    p2 = sub.add_parser("protocol2", help="q sensitivity versus plain VLMS")
    _add_common(p2)
    p2.add_argument("--mu")
    p2.add_argument("--whitened", dest="include_whitened", action="store_true",
                    default=None, help="add the fixed-gain S R^-1 S variant")

    run = sub.add_parser("run", help="ad-hoc Monte-Carlo run")
    _add_common(run)
    run.add_argument("--mu")
    run.add_argument("--mu-frac", dest="mu_fraction",
                     help="step size as a fraction of the stability bound")
    run.add_argument("--algorithm", dest="algorithms", nargs="+",
                     help="one or more of " + ", ".join(ALGORITHMS))

    bound = sub.add_parser("bound", help="print the step-size stability bound")
    bound.add_argument("--q", dest="q_values", nargs="+")
    bound.add_argument("--eigenvalues", nargs="+")
    bound.add_argument("--memory-length", dest="memory_length")
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
