"""Command-line front end: deterministic, seeded runs that emit plot-ready files.

All physical inputs are dimensionless ratios of the transverse field h.
Every output embeds the fully resolved configuration in its header, and a
saved configuration replayed through --config reproduces the file byte for
byte.

Exit codes: 0 success, 1 usage/configuration, 2 numeric or search failure,
3 partial sweep failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import gapfinder, scaling, spectral, toymodel, trotter
from ._textio import read_table, write_json, write_table
from .errors import DataError, GapSearchError, GaplabError, ParameterError
from .gapfinder import GapSearchConfig, find_gap, gap_error, spectral_error
from .model import SpinModel, exact_diagonalize, perturbative_gap_guess
from .simulator import InputOrientation, _check_simulated, run_time_series
from .spectral import exact_spectrum_oracle, spectral_function
from .trotter import Filter, TrotterPlan, depth_cutoff

_USAGE_EXIT = 1
_FAILURE_EXIT = 2
_PARTIAL_EXIT = 3

DEFAULTS = {
    "n": 4,
    "j_over_h": 0.4,
    "p": 1,
    "m": 35,
    "filter": "gaussian",
    "eta_over_h": 0.3,
    "theta_over_pi": 0.27,
    "shots": 1024,
    "seed": 12345,
    "eps_c": 1e-2,
    "d_omega_over_h": None,          # defaults to eta/4
    "l_points": None,                # defaults to 2*ceil(7/d_omega)
    "initial_window_over_h": None,   # defaults to 2*eta
    "max_window_over_h": None,       # defaults to 10*eta
}


def _search_config(cfg, initial_guess):
    """The peak-search config, its windows checked against eta before simulating."""
    config = GapSearchConfig(initial_guess=initial_guess,
                             initial_window=cfg["initial_window_over_h"],
                             max_window=cfg["max_window_over_h"])
    gapfinder._windows(config, cfg["eta_over_h"])
    return config


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _add_common(sub):
    sub.add_argument("--config", help="JSON file of saved configuration values")
    sub.add_argument("--n", type=int)
    sub.add_argument("--j-over-h", type=float, dest="j_over_h")
    sub.add_argument("--p", type=int, choices=(1, 2, 4))
    sub.add_argument("--m", type=int)
    sub.add_argument("--filter", choices=trotter.FILTER_FAMILIES)
    sub.add_argument("--eta-over-h", type=float, dest="eta_over_h")
    sub.add_argument("--theta-over-pi", type=float, dest="theta_over_pi")
    sub.add_argument("--shots", type=int)
    sub.add_argument("--exact", action="store_true", default=None,
                     help="exact return probabilities instead of shot sampling")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--d-omega-over-h", type=float, dest="d_omega_over_h")
    sub.add_argument("--l-points", type=int, dest="l_points")
    sub.add_argument("--initial-window-over-h", type=float, dest="initial_window_over_h",
                     help="peak-search window width, default 2 eta")
    sub.add_argument("--max-window-over-h", type=float, dest="max_window_over_h",
                     help="widening cap on the search window, default 10 eta")
    sub.add_argument("--out", required=True)


def _floats(text):
    return [float(v) for v in str(text).split(",") if v != ""]


def _ints(text):
    return [int(v) for v in str(text).split(",") if v != ""]


def _resolve(args, parser, extra_defaults=None, base=None):
    """Meld defaults, --config file and explicit flags into one dict."""
    cfg = dict(DEFAULTS if base is None else base)
    cfg.update(extra_defaults or {})
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config file: {exc}")
        unknown = set(loaded) - set(cfg)
        if unknown:
            parser.error(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key in cfg:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    if getattr(args, "exact", None):
        cfg["shots"] = None
    return cfg


def _filter(cfg):
    return Filter(cfg["filter"], cfg["eta_over_h"]) \
        if cfg["filter"] != "none" else Filter.none()


def _build(cfg):
    model = SpinModel(n_spins=cfg["n"], coupling=cfg["j_over_h"], field=1.0)
    plan = TrotterPlan(order=cfg["p"], depth=cfg["m"])
    return model, plan, _filter(cfg)


def _require_broadened(filt, parser):
    """Exit before simulating when the filter has no width (--filter none or
    eta = 0): neither the peak search nor the oracle can use a delta line."""
    if not filt.broadened:
        parser.error("the peak search and the oracle need a broadened filter "
                     "(eta > 0), not --filter none or --eta-over-h 0")


def _grid(cfg, filt, parser):
    """The run's time grid; records the resolved d_omega and L in cfg."""
    try:
        d_omega, length = spectral.grid_size(filt, cfg["d_omega_over_h"],
                                             cfg["l_points"])
    except ParameterError as exc:
        parser.error(f"{exc}; give --d-omega-over-h")
    cfg["d_omega_over_h"], cfg["l_points"] = d_omega, length
    return spectral.default_grid(filt, d_omega, length)


def _public(cfg):
    return {k: v for k, v in sorted(cfg.items()) if k not in ("out",)}


def _meta(subcommand, cfg):
    return {"tool": "gaplab", "subcommand": subcommand, "config": _public(cfg)}


def read_config_header(path) -> dict:
    """Extract the resolved configuration from a CSV or JSON output file."""
    if str(path).endswith(".json"):
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)["config"]
    meta, _, _ = read_table(path)
    return meta["config"]


# --------------------------------------------------------------------------
# Subcommands.
# --------------------------------------------------------------------------


def cmd_depth_bound(args, parser) -> int:
    cfg = _resolve(args, parser, {
        "n": 1000, "t_max": 10.0, "t_points": 101,
        "n_max": 1000, "n_points": 25, "fixed_ht": 6.0})
    filters = [Filter.none(), Filter.lorentzian(cfg["eta_over_h"]),
               Filter.gaussian(cfg["eta_over_h"])]
    rows = []
    ts = np.linspace(0.0, cfg["t_max"], cfg["t_points"])
    model_t = SpinModel(cfg["n"], cfg["j_over_h"], 1.0)
    for p in (1, 2, 4):
        for filt in filters:
            m_c, d_c = depth_cutoff(model_t, p, filt, ts, eps_c=cfg["eps_c"])
            rows.extend(("t", p, filt.family, filt.eta, cfg["n"], t,
                         mc, math.ceil(mc), dc)
                        for t, mc, dc in zip(ts, m_c, d_c))
    n_grid = np.unique(np.round(np.logspace(
        math.log10(2), math.log10(cfg["n_max"]), cfg["n_points"])).astype(int))
    for p in (1, 2, 4):
        for filt in filters:
            for n in n_grid:
                model_n = SpinModel(int(n), cfg["j_over_h"], 1.0)
                m_c, d_c = depth_cutoff(model_n, p, filt, cfg["fixed_ht"],
                                        eps_c=cfg["eps_c"])
                rows.append(("n", p, filt.family, filt.eta, int(n),
                             cfg["fixed_ht"], m_c, math.ceil(m_c), d_c))
    write_table(args.out, _meta("depth-bound", cfg),
                ["scan", "p", "filter", "eta_over_h", "n", "ht",
                 "m_c", "m_c_ceil", "d_c"], rows)
    return 0


def _spectrum_pipeline(cfg, parser):
    model, plan, filt = _build(cfg)
    grid = _grid(cfg, filt, parser)
    orientation = InputOrientation.uniform(model.n_spins,
                                           cfg["theta_over_pi"] * math.pi)
    [series] = run_time_series(model, plan, [orientation], grid,
                               shots=cfg["shots"], seeds=[cfg["seed"]])
    return model, plan, filt, grid, orientation, spectral_function(series, filt)


def cmd_spectrum(args, parser) -> int:
    cfg = _resolve(args, parser, {"oracle": False})
    if cfg["oracle"]:
        _require_broadened(_filter(cfg), parser)
    model, plan, filt, grid, orientation, spec = _spectrum_pipeline(cfg, parser)
    extra = {}
    if cfg["oracle"]:
        eig = exact_diagonalize(model)
        extra["A_oracle"] = exact_spectrum_oracle(eig, orientation, filt, grid).values
    spectral.spectrum_to_csv(spec, args.out, metadata=_meta("spectrum", cfg),
                             extra_columns=extra)
    return 0


def cmd_gap(args, parser) -> int:
    cfg = _resolve(args, parser)
    model, _, filt = _build(cfg)
    _require_broadened(filt, parser)
    delta0 = perturbative_gap_guess(model)
    search = _search_config(cfg, delta0)    # refuses a bad window before simulating
    model, plan, filt, grid, orientation, spec = _spectrum_pipeline(cfg, parser)
    eig = exact_diagonalize(model)
    delta_exact = float(eig.energies[1] - eig.energies[0])
    result = {"delta0": delta0, "delta_exact_ed": delta_exact}
    code = 0
    try:
        est = find_gap(spec, search)
        oracle = exact_spectrum_oracle(eig, orientation, filt, grid)
        result.update({
            "gap": est.gap, "peak_height": est.peak_height,
            "window_used": est.window_used,
            "eps_gap": gap_error(est, delta_exact),
            "eps_spect": spectral_error(spec, oracle),
            "eps_bound": gapfinder.spectral_error_bound(model, plan, filt, grid),
            "failure": None})
    except GapSearchError as exc:
        result.update({"gap": None, "failure": str(exc)})
        code = _FAILURE_EXIT
    write_json(args.out, {**_meta("gap", cfg), "result": result})
    return code


def _theta_values(cfg):
    if cfg.get("theta_list"):
        return [float(v) * math.pi for v in cfg["theta_list"]]
    return [math.pi * l / 50 for l in range(cfg["theta_count"])]


def cmd_sweep_theta(args, parser) -> int:
    cfg = _resolve(args, parser, {"theta_count": 25, "theta_list": None})
    if args.theta_list is not None:
        cfg["theta_list"] = _floats(args.theta_list)
    model, plan, filt = _build(cfg)
    _require_broadened(filt, parser)
    grid = _grid(cfg, filt, parser)
    guess = perturbative_gap_guess(model)
    result = gapfinder.theta_sweep(model, plan, filt, grid,
                                   _theta_values(cfg), shots=cfg["shots"],
                                   seed=cfg["seed"],
                                   search=_search_config(cfg, guess))
    gapfinder.sweep_to_json(result, args.out, metadata=_public(cfg))
    n_failed = len(result.failed())
    if n_failed == len(result.records):
        return _FAILURE_EXIT
    return _PARTIAL_EXIT if n_failed else 0


def _scaling_cell(cfg, n, coupling):
    model = SpinModel(n, coupling, 1.0)
    return n, model, _search_config(cfg, perturbative_gap_guess(model))


def cmd_scaling(args, parser) -> int:
    """Every cell's chain and search window is checked before the first sweep."""
    cfg = _resolve(args, parser, {
        "j_list": [0.2, 0.4, 0.6, 0.8], "n_list": [2, 3, 4, 5],
        "theta_count": 25, "samples_out": None})
    if args.j_list is not None:
        cfg["j_list"] = _floats(args.j_list)
    if args.n_list is not None:
        cfg["n_list"] = _ints(args.n_list)
    filt = _filter(cfg)
    _require_broadened(filt, parser)
    _check_simulated(max(cfg["n_list"], default=0))
    plan = TrotterPlan(cfg["p"], cfg["m"])
    cells = [[_scaling_cell(cfg, n, coupling) for n in cfg["n_list"]]
             for coupling in cfg["j_list"]]
    grid = _grid(cfg, filt, parser)

    extrapolations = {}
    samples = []
    failed_cells = 0
    for j_index, (coupling, row) in enumerate(zip(cfg["j_list"], cells)):
        points = []
        for n, model, search in row:
            sweep = gapfinder.theta_sweep(
                model, plan, filt, grid, _theta_values(cfg), shots=cfg["shots"],
                seed=gapfinder._derived_seed(cfg["seed"], j_index, n), search=search)
            try:
                best = sweep.best_record()
            except GapSearchError:
                failed_cells += 1
                continue
            points.append((n, best.gap))
            samples.append({"j_over_h": coupling, "n": n, "gap": best.gap,
                            "theta_star": best.theta})
        if len(points) >= 3:
            extrapolations[coupling] = scaling.extrapolate(points)
        else:
            failed_cells += 1
    if not extrapolations:
        return _FAILURE_EXIT
    scaling.phase_diagram_to_csv(scaling.phase_diagram(extrapolations), args.out,
                                 metadata=_meta("scaling", cfg))
    if cfg["samples_out"]:
        write_json(cfg["samples_out"], {"config": _public(cfg), "samples": samples})
    return _PARTIAL_EXIT if failed_cells else 0


def cmd_toy(args, parser) -> int:
    cfg = _resolve(args, parser, base={
        "center": 1.0, "separation_ratio": 0.6,
        "lambda_list": [0.25, 0.5, 1.0],
        "eta_list": [round(0.02 + 0.02 * i, 10) for i in range(18)]})
    if args.lambda_list is not None:
        cfg["lambda_list"] = _floats(args.lambda_list)
    if args.eta_list is not None:
        cfg["eta_list"] = _floats(args.eta_list)
    separation = cfg["separation_ratio"] * cfg["center"]
    rows = toymodel.shift_table(cfg["center"], separation,
                                cfg["lambda_list"], cfg["eta_list"])
    toymodel.shift_table_to_csv(rows, args.out, metadata=_meta("toy", cfg))
    return 0


# --------------------------------------------------------------------------
# Entry point.
# --------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="gaplab",
                     description="Gap estimation from filtered time series "
                                 "of Trotterized spin-chain evolution")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sp = subs.add_parser("depth-bound", parents=[], help="circuit-depth budget tables")
    _add_common(sp)
    sp.add_argument("--eps-c", type=float, dest="eps_c")
    sp.add_argument("--t-max", type=float, dest="t_max")
    sp.add_argument("--t-points", type=int, dest="t_points")
    sp.add_argument("--n-max", type=int, dest="n_max")
    sp.add_argument("--n-points", type=int, dest="n_points")
    sp.add_argument("--fixed-ht", type=float, dest="fixed_ht")
    sp.set_defaults(func=cmd_depth_bound)

    sp = subs.add_parser("spectrum", help="spectral function of one run")
    _add_common(sp)
    sp.add_argument("--oracle", action="store_true", default=None,
                    help="add the eigensystem line-shape column")
    sp.set_defaults(func=cmd_spectrum)

    sp = subs.add_parser("gap", help="single gap estimate with error measures")
    _add_common(sp)
    sp.set_defaults(func=cmd_gap)

    sp = subs.add_parser("sweep-theta", help="gap pipeline across input orientations")
    _add_common(sp)
    sp.add_argument("--theta-count", type=int, dest="theta_count")
    sp.add_argument("--theta-list", dest="theta_list",
                    help="comma-separated orientations in units of pi")
    sp.set_defaults(func=cmd_sweep_theta)

    sp = subs.add_parser("scaling", help="finite-size extrapolation and phase diagram")
    _add_common(sp)
    sp.add_argument("--j-list", dest="j_list", help="comma-separated J/h values")
    sp.add_argument("--n-list", dest="n_list", help="comma-separated chain lengths")
    sp.add_argument("--theta-count", type=int, dest="theta_count")
    sp.add_argument("--samples-out", dest="samples_out",
                    help="also write the per-size gap samples as JSON")
    sp.set_defaults(func=cmd_scaling)

    sp = subs.add_parser("toy", help="two-peak line-shape shift table")
    sp.add_argument("--config", help="JSON file of saved configuration values")
    sp.add_argument("--center", type=float)
    sp.add_argument("--separation-ratio", type=float, dest="separation_ratio")
    sp.add_argument("--lambda-list", dest="lambda_list")
    sp.add_argument("--eta-list", dest="eta_list")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_toy)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ParameterError, DataError) as exc:
        print(f"gaplab: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except GaplabError as exc:
        print(f"gaplab: {exc}", file=sys.stderr)
        return _FAILURE_EXIT


if __name__ == "__main__":
    sys.exit(main())
