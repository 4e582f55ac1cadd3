"""Command-line harness: protocol runs, ad-hoc Monte-Carlo, bound calculator.

Every run writes a JSON manifest carrying the fully resolved configuration,
tool, Python and numpy versions, master seed and output paths; re-running
from the manifest (``qvlms rerun manifest.json``) reproduces the CSV outputs
byte for byte, and warns when the Python or numpy version differs.

Config files are flat ``key = value`` text ('#' starts a comment). Flags
override file values. Exit codes: 0 success, 1 configuration error,
2 runtime failure (for example every trial diverging).
"""

import argparse
import datetime
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

from qvlms import __version__
from qvlms.adapt import QParams, step_size_bound
from qvlms.experiment import (
    ChannelSpec,
    ExperimentConfig,
    monte_carlo,
    nwd_db,
    protocol1,
    protocol2,
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
# config handling
# ---------------------------------------------------------------------------

def _parse_float(key, text):
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"key '{key}': expected a number, got {text!r}")


def _parse_float_list(key, text):
    parts = [p for p in str(text).replace(",", " ").split() if p]
    if not parts:
        raise ConfigError(f"key '{key}': expected a list of numbers")
    return tuple(_parse_float(key, p) for p in parts)


def _parse_int(key, text):
    try:
        return int(str(text))
    except ValueError:
        raise ConfigError(f"key '{key}': expected an integer, got {text!r}")


def _parse_mode(key, text):
    try:
        return RegressorMode(str(text).strip().lower())
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


_CONFIG_PARSERS = {
    "memory_length": _parse_int,
    "trials": _parse_int,
    "iterations": _parse_int,
    "seed": _parse_int,
    "snr_db": _parse_float_list,
    "q_values": _parse_float_list,
    "mu": _parse_float,
    "mu_fraction": _parse_float,
    "regressor_mode": _parse_mode,
    "include_whitened": _parse_bool,
}


def parse_config_file(path) -> dict:
    """Read a flat key = value config file into a typed dict."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        values[key] = _CONFIG_PARSERS[key](key, text)
    return values


def _merge_settings(defaults: dict, file_values: dict, args,
                    flag_keys: dict) -> dict:
    """defaults < config file < command-line flags."""
    merged = dict(defaults)
    merged.update(file_values)
    for key, attr in flag_keys.items():
        value = getattr(args, attr, None)
        if value is not None:
            merged[key] = value
    return merged


def _validate_common(s: dict):
    for key in ("trials", "iterations", "memory_length"):
        if key in s and s[key] < 1:
            raise ConfigError(f"key '{key}': must be >= 1, got {s[key]}")
    for key in ("mu", "mu_fraction"):
        if s.get(key) is not None and not (math.isfinite(s[key]) and s[key] > 0):
            raise ConfigError(
                f"key '{key}': must be positive and finite, got {s[key]}"
            )
    if "q_values" in s and not all(math.isfinite(q) and q > 0 for q in s["q_values"]):
        raise ConfigError(
            f"key 'q_values': all q must be positive and finite, got {s['q_values']}"
        )
    # +inf is a noiseless run; NaN and -inf have no meaning as an SNR
    if "snr_db" in s and any(math.isnan(v) or v == -math.inf for v in s["snr_db"]):
        raise ConfigError(
            f"key 'snr_db': must be numbers or inf, got {s['snr_db']}"
        )


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
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c)) for c in columns))
    path.write_text("\n".join(lines) + "\n")


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


def _environment() -> dict:
    """Versions the outputs' bits depend on: the kernel reproduces numpy's
    summation order, and numpy's generators and math follow the release."""
    return {"python": platform.python_version(), "numpy": np.__version__}


def _manifest(protocol: str, settings: dict, out_dir: Path, outputs, checks,
              started: str) -> dict:
    serializable = {
        k: (v.value if isinstance(v, RegressorMode) else v)
        for k, v in settings.items()
    }
    return {
        "tool": "qvlms",
        "version": __version__,
        "environment": _environment(),
        "protocol": protocol,
        "master_seed": settings.get("seed"),
        "config": serializable,
        "started_utc": started,
        "finished_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": [str(p.relative_to(out_dir)) for p in outputs],
        "checks": checks,
    }


def _resolve_out_dir(args) -> Path:
    out = args.out or os.environ.get(OUT_DIR_ENV) or "qvlms-out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

P1_DEFAULTS = {
    "memory_length": 3, "trials": 1000, "iterations": 2000, "seed": 0,
    "snr_db": (20.0,), "q_values": (1.0, 5.0, 10.0), "mu_fraction": 0.05,
    "regressor_mode": RegressorMode.RAW,
}

P2_DEFAULTS = {
    "memory_length": 3, "trials": 1000, "iterations": 2500, "seed": 0,
    "snr_db": (10.0, 20.0, 30.0), "q_values": (2.0, 5.0, 10.0), "mu": 1e-3,
    "regressor_mode": RegressorMode.RAW, "include_whitened": False,
}

RUN_DEFAULTS = {
    "memory_length": 3, "trials": 100, "iterations": 5000, "seed": 0,
    "snr_db": (20.0,), "q_values": (5.0,), "mu": None, "mu_fraction": None,
    "regressor_mode": RegressorMode.RAW, "algorithms": ("qvlms",),
}

_COMMON_FLAGS = {
    "seed": "seed", "trials": "trials", "iterations": "iterations",
    "memory_length": "memory_length", "regressor_mode": "mode",
}


def cmd_protocol1(args) -> int:
    started = _utc_now()
    file_values = parse_config_file(args.config) if args.config else {}
    s = _merge_settings(P1_DEFAULTS, file_values, args,
                        {**_COMMON_FLAGS, "mu_fraction": "mu_fraction",
                         "q_values": "q", "snr_db": "snr"})
    _validate_common(s)
    if len(s["snr_db"]) != 1:
        raise ConfigError(
            f"key 'snr_db': protocol1 runs at one SNR, got {list(s['snr_db'])}"
        )
    out_dir = _resolve_out_dir(args)

    report = protocol1(
        s["seed"], trials=s["trials"], iterations=s["iterations"],
        snr_db=s["snr_db"][0], q_values=s["q_values"],
        memory_length=s["memory_length"], regressor_mode=s["regressor_mode"],
        mu_fraction=s["mu_fraction"],
    )

    outputs = []
    rows = []
    summary = []
    for comp in report.comparisons:
        rows.extend(_curve_rows("qvlms", comp.q_value, report.snr_db,
                                nwd=comp.simulated_nwd, mae=comp.simulated_mae))
        rows.extend(_curve_rows("theory", comp.q_value, report.snr_db,
                                mae=comp.theory_mae))
        summary.append({
            "algorithm": "qvlms", "q": comp.q_value, "snr_db": report.snr_db,
            "steady_state_nwd_db": float(nwd_db(float(np.mean(
                comp.simulated_nwd[-max(1, len(comp.simulated_nwd) // 10):])))),
            "correlation": comp.correlation,
            "divergence_count": comp.diverged,
        })
        tag = f"q{comp.q_value:g}"
        for kind, curve in (("sim", comp.simulated_mae), ("theory", comp.theory_mae)):
            p = out_dir / f"plot_protocol1_{tag}_{kind}.dat"
            _write_plot_series(p, curve)
            outputs.append(p)

    curves_path = out_dir / "protocol1_curves.csv"
    _write_csv(curves_path, CURVE_COLUMNS, rows)
    summary_path = out_dir / "protocol1_summary.csv"
    _write_csv(summary_path, SUMMARY_COLUMNS, summary)
    outputs = [curves_path, summary_path] + outputs

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
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(
        _manifest("protocol1", s, out_dir, outputs, checks, started), indent=2
    ) + "\n")

    print(f"protocol1: average correlation {report.average_correlation:.5f} "
          f"over q={list(s['q_values'])}")
    print(f"protocol1: outputs in {out_dir}")
    return 0


def cmd_protocol2(args) -> int:
    started = _utc_now()
    file_values = parse_config_file(args.config) if args.config else {}
    s = _merge_settings(P2_DEFAULTS, file_values, args,
                        {**_COMMON_FLAGS, "mu": "mu", "q_values": "q",
                         "snr_db": "snr", "include_whitened": "whitened"})
    _validate_common(s)
    out_dir = _resolve_out_dir(args)

    report = protocol2(
        s["seed"], trials=s["trials"], iterations=s["iterations"],
        snr_db_values=s["snr_db"], q_values=s["q_values"], step_size=s["mu"],
        include_whitened=s["include_whitened"],
        memory_length=s["memory_length"], regressor_mode=s["regressor_mode"],
    )

    rows = []
    summary = []
    outputs = []
    for cell in report.curves:
        rows.extend(_curve_rows(cell.algorithm, cell.q_value, cell.snr_db,
                                nwd=cell.nwd, mae=cell.mae, mse=cell.mse))
        summary.append({
            "algorithm": cell.algorithm, "q": cell.q_value,
            "snr_db": cell.snr_db,
            "steady_state_nwd_db": cell.steady_state_nwd_db(),
            "correlation": None,
            "divergence_count": cell.diverged,
        })
        qtag = f"_q{cell.q_value:g}" if cell.q_value is not None else ""
        p = out_dir / f"plot_protocol2_{cell.algorithm}{qtag}_snr{cell.snr_db:g}.dat"
        _write_plot_series(p, nwd_db(cell.nwd))
        outputs.append(p)

    curves_path = out_dir / "protocol2_curves.csv"
    _write_csv(curves_path, CURVE_COLUMNS, rows)
    summary_path = out_dir / "protocol2_summary.csv"
    _write_csv(summary_path, SUMMARY_COLUMNS, summary)
    gaps_path = out_dir / "protocol2_gaps.csv"
    _write_csv(gaps_path, ("q", "snr_db", "advantage_db"), [
        {"q": q, "snr_db": snr, "advantage_db": adv}
        for (q, snr), adv in sorted(report.advantages_db.items())
    ] + [{"q": "average", "snr_db": "", "advantage_db": report.average_advantage_db}])
    outputs = [curves_path, summary_path, gaps_path] + outputs

    checks = {
        "average_advantage_db": report.average_advantage_db,
        "advantage_positive_everywhere": bool(
            all(v > 0 for v in report.advantages_db.values())
        ),
        "divergence_counts": {
            f"{c.algorithm},q={c.q_value},snr={c.snr_db:g}": c.diverged
            for c in report.curves
        },
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(
        _manifest("protocol2", s, out_dir, outputs, checks, started), indent=2
    ) + "\n")

    print(f"protocol2: average q-VLMS advantage "
          f"{report.average_advantage_db:+.2f} dB over SNR={list(s['snr_db'])}")
    print(f"protocol2: outputs in {out_dir}")
    return 0


def cmd_run(args) -> int:
    started = _utc_now()
    file_values = parse_config_file(args.config) if args.config else {}
    s = _merge_settings(RUN_DEFAULTS, file_values, args,
                        {**_COMMON_FLAGS, "mu": "mu", "mu_fraction": "mu_frac",
                         "q_values": "q", "snr_db": "snr",
                         "algorithms": "algorithm"})
    _validate_common(s)
    if (s["mu"] is None) == (s["mu_fraction"] is None):
        raise ConfigError("key 'mu': set exactly one of mu and mu_fraction")
    out_dir = _resolve_out_dir(args)

    config = ExperimentConfig(
        iterations=s["iterations"], trials=s["trials"], master_seed=s["seed"],
        step_size=s["mu"], step_size_fraction=s["mu_fraction"],
        q_values=tuple(s["q_values"]), snr_db_values=tuple(s["snr_db"]),
        algorithms=tuple(s["algorithms"]),
    )
    channel = ChannelSpec(memory_length=s["memory_length"],
                          regressor_mode=s["regressor_mode"])

    # warn when the requested step exceeds twice the stability bound
    k = channel.num_coefficients
    lam = channel.eigenvalues()
    for q in config.q_values:
        bound = step_size_bound(QParams.uniform(q, k), lam)
        mu = s["mu"] if s["mu"] is not None else s["mu_fraction"] * bound
        if mu > 2.0 * bound:
            print(f"warning: mu={mu:.3e} exceeds twice the stability bound "
                  f"{bound:.3e} for q={q:g}; divergence likely", file=sys.stderr)

    cells = monte_carlo(config, channel)

    rows = []
    summary = []
    resolved = {}
    for cell in cells:
        rows.extend(_curve_rows(cell.algorithm, cell.q_value, cell.snr_db,
                                nwd=cell.nwd, mae=cell.mae, mse=cell.mse))
        summary.append({
            "algorithm": cell.algorithm, "q": cell.q_value,
            "snr_db": cell.snr_db,
            "steady_state_nwd_db": cell.steady_state_nwd_db(),
            "correlation": None,
            "divergence_count": cell.diverged,
        })
        resolved[f"{cell.algorithm},q={cell.q_value},snr={cell.snr_db:g}"] = \
            cell.step_size

    curves_path = out_dir / "run_curves.csv"
    _write_csv(curves_path, CURVE_COLUMNS, rows)
    summary_path = out_dir / "run_summary.csv"
    _write_csv(summary_path, SUMMARY_COLUMNS, summary)
    outputs = [curves_path, summary_path]

    checks = {
        "resolved_step_sizes": resolved,
        "divergence_counts": {
            f"{c.algorithm},q={c.q_value},snr={c.snr_db:g}": c.diverged
            for c in cells
        },
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(
        _manifest("run", s, out_dir, outputs, checks, started), indent=2
    ) + "\n")
    print(f"run: outputs in {out_dir}")
    return 0


def cmd_bound(args) -> int:
    qs = tuple(args.q) if args.q else (1.0,)
    if args.eigenvalues:
        lam = np.asarray(args.eigenvalues, dtype=np.float64)
        for q in qs:
            qp = QParams.uniform(q, lam.size)
            print(f"q={q:g}: bound = {step_size_bound(qp, lam):.10g}")
        return 0
    mode = args.mode or RegressorMode.RAW
    m = args.memory_length or 3
    lam = np.linalg.eigvalsh(gaussian_autocorrelation(m, mode))
    print(f"eigenvalues (M={m}, {mode.value}): "
          + " ".join(f"{v:.6g}" for v in lam))
    for q in qs:
        qp = QParams.uniform(q, lam.size)
        print(f"q={q:g}: bound = {step_size_bound(qp, lam):.10g}")
    return 0


def cmd_rerun(args) -> int:
    manifest = json.loads(Path(args.manifest).read_text())
    # manifests written before versions were recorded carry none to compare
    recorded = manifest.get("environment", {})
    for name, version in _environment().items():
        if recorded.get(name, version) != version:
            print(f"warning: manifest was written with {name} "
                  f"{recorded[name]}, this is {name} {version}; outputs may "
                  f"differ in the last digits", file=sys.stderr)
    protocol = manifest.get("protocol")
    config = dict(manifest.get("config", {}))
    if "regressor_mode" in config:
        config["regressor_mode"] = RegressorMode(config["regressor_mode"])
    for key in ("snr_db", "q_values"):
        if key in config and isinstance(config[key], list):
            config[key] = tuple(config[key])
    ns = argparse.Namespace(config=None, out=args.out,
                            algorithm=config.get("algorithms"))
    for key in ("seed", "trials", "iterations", "memory_length"):
        setattr(ns, key, config.get(key))
    ns.mode = config.get("regressor_mode")
    ns.q = config.get("q_values")
    ns.snr = config.get("snr_db")
    ns.mu = config.get("mu")
    ns.mu_frac = config.get("mu_fraction")
    ns.mu_fraction = config.get("mu_fraction")
    ns.whitened = config.get("include_whitened")
    if protocol == "protocol1":
        return cmd_protocol1(ns)
    if protocol == "protocol2":
        return cmd_protocol2(ns)
    if protocol == "run":
        return cmd_run(ns)
    raise ConfigError(f"key 'protocol': unknown value {protocol!r} in manifest")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} "
                                 "or ./qvlms-out)")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--trials", type=int)
    p.add_argument("--iterations", type=int)
    p.add_argument("--memory-length", dest="memory_length", type=int)
    p.add_argument("--mode", type=lambda t: _parse_mode("regressor_mode", t),
                   help="regressor mode: raw or orthonormalized")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qvlms",
        description="q-gradient Volterra LMS channel-estimation harness",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("protocol1", help="validate the convergence analysis")
    _add_common(p1)
    p1.add_argument("--q", type=float, nargs="+")
    p1.add_argument("--snr", type=float, nargs="+")
    p1.add_argument("--mu-fraction", dest="mu_fraction", type=float)
    p1.set_defaults(func=cmd_protocol1)

    p2 = sub.add_parser("protocol2", help="q sensitivity versus plain VLMS")
    _add_common(p2)
    p2.add_argument("--q", type=float, nargs="+")
    p2.add_argument("--snr", type=float, nargs="+")
    p2.add_argument("--mu", type=float)
    p2.add_argument("--whitened", action="store_true", default=None,
                    help="add the fixed-gain S R^-1 S variant")
    p2.set_defaults(func=cmd_protocol2)

    run = sub.add_parser("run", help="ad-hoc Monte-Carlo run")
    _add_common(run)
    run.add_argument("--q", type=float, nargs="+")
    run.add_argument("--snr", type=float, nargs="+")
    run.add_argument("--mu", type=float)
    run.add_argument("--mu-frac", dest="mu_frac", type=float,
                     help="step size as a fraction of the stability bound")
    run.add_argument("--algorithm", nargs="+", choices=("qvlms", "vlms", "whitened"))
    run.set_defaults(func=cmd_run)

    bound = sub.add_parser("bound", help="print the step-size stability bound")
    bound.add_argument("--q", type=float, nargs="+")
    bound.add_argument("--eigenvalues", type=float, nargs="+")
    bound.add_argument("--memory-length", dest="memory_length", type=int)
    bound.add_argument("--mode", type=lambda t: _parse_mode("regressor_mode", t))
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
