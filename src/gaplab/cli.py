"""Command-line front end: deterministic, seeded runs that emit plot-ready files.

All physical inputs are dimensionless ratios of the transverse field h.
Every output embeds in its header the fully resolved settings its subcommand
reads (declared once, in _COMMANDS), and a saved configuration replayed
through --config reproduces the file byte for byte.

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
from ._textio import write_json, write_table
from .errors import (DataError, GapSearchError, GaplabError, ParameterError,
                     is_count)
from .gapfinder import GapSearchConfig, find_gap, gap_error, spectral_error
from .model import SpinModel, exact_diagonalize, perturbative_gap_guess
from .simulator import InputOrientation, _check_simulated, run_time_series
from .spectral import exact_spectrum_oracle, spectral_function
from .trotter import Filter, TrotterPlan, depth_cutoff

_USAGE_EXIT = 1
_FAILURE_EXIT = 2
_PARTIAL_EXIT = 3

# Settings shared by the simulating subcommands, each with its default.
_CHAIN = {"n": 4, "j_over_h": 0.4}
_RUN = {"p": 1, "m": 35, "filter": "gaussian", "eta_over_h": 0.3, "shots": 1024,
        "seed": 12345,
        "d_omega_over_h": None,          # defaults to eta/4
        "l_points": None}                # defaults to 2*ceil(7/d_omega)
_SEARCH = {"initial_window_over_h": None,   # defaults to 2*eta
           "max_window_over_h": None}       # defaults to 10*eta

# Keys that gap.json and sweep.json record although neither command reads
# them: perfbench/reference.json pins the key sets of those two files.  They
# take no flag; --config accepts them, so a replayed header still reproduces
# its file.  Re-capturing that reference retires this table.
_RECORDED_UNREAD = {"gap": {"eps_c": 1e-2},
                    "sweep-theta": {"eps_c": 1e-2, "theta_over_pi": 0.27}}


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


def _floats(text):
    return [float(v) for v in str(text).split(",") if v != ""]


def _ints(text):
    return [int(v) for v in str(text).split(",") if v != ""]


# The type of each setting's flag, float if not listed; `oracle` is a switch,
# and `shots` shares its setting with the flag --exact.
_TYPES = {
    "n": int, "p": int, "m": int, "shots": int, "seed": int, "l_points": int,
    "t_points": int, "n_max": int, "n_points": int, "theta_count": int,
    "filter": str, "samples_out": str, "oracle": bool, "n_list": _ints,
    "j_list": _floats, "theta_list": _floats, "lambda_list": _floats,
    "eta_list": _floats,
}
_CHOICES = {"p": (1, 2, 4), "filter": trotter.FILTER_FAMILIES}
_HELP = {
    "exact": "exact return probabilities instead of shot sampling",
    "initial_window_over_h": "peak-search window width, default 2 eta",
    "max_window_over_h": "widening cap on the search window, default 10 eta",
    "oracle": "add the eigensystem line-shape column",
    "theta_list": "comma-separated orientations in units of pi",
    "j_list": "comma-separated J/h values",
    "n_list": "comma-separated chain lengths",
    "samples_out": "also write the per-size gap samples as JSON",
}


def _resolve(args, parser):
    """Meld the subcommand's defaults, a --config file and explicit flags
    into one dict holding exactly the settings the subcommand records."""
    cfg = {**_COMMANDS[args.subcommand][2],
           **_RECORDED_UNREAD.get(args.subcommand, {})}
    if hasattr(args, "config"):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config file: {exc}")
        if not isinstance(loaded, dict):
            parser.error(f"config file must hold a JSON object, not {loaded!r}")
        unknown = set(loaded) - set(cfg)
        if unknown:
            parser.error(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    cfg.update((key, value) for key, value in vars(args).items() if key in cfg)
    return cfg


def _filter(cfg):
    return Filter(cfg["filter"], cfg["eta_over_h"]) \
        if cfg["filter"] != "none" else Filter.none()


def _build(cfg):
    model = SpinModel(n_spins=cfg["n"], coupling=cfg["j_over_h"], field=1.0)
    plan = TrotterPlan(order=cfg["p"], depth=cfg["m"])
    return model, plan, _filter(cfg)


def _require_broadened(filt):
    """Refuse before simulating a filter with no width (--filter none or
    eta = 0): neither the peak search nor the oracle can use a delta line."""
    if not filt.broadened:
        raise ParameterError("the peak search and the oracle need a broadened "
                             "filter (eta > 0), not --filter none or --eta-over-h 0")


def _grid(cfg, filt):
    """The run's time grid; records the resolved d_omega and L in cfg."""
    try:
        d_omega, length = spectral.grid_size(filt, cfg["d_omega_over_h"], cfg["l_points"])
    except ParameterError as exc:
        if cfg["d_omega_over_h"] is None and not filt.broadened:
            raise ParameterError(f"{exc}; give --d-omega-over-h") from exc
        raise
    cfg["d_omega_over_h"], cfg["l_points"] = d_omega, length
    return spectral.default_grid(filt, d_omega, length)


def _meta(subcommand, cfg):
    return {"tool": "gaplab", "subcommand": subcommand, "config": cfg}


# --------------------------------------------------------------------------
# Subcommands.
# --------------------------------------------------------------------------


def cmd_depth_bound(cfg, out) -> int:
    if min(cfg["t_points"], cfg["n_points"]) < 1 or cfg["n_max"] < 2:
        raise ParameterError("depth-bound needs --t-points and --n-points >= 1 "
                             "and --n-max >= 2")
    if not all(map(math.isfinite, (cfg["t_max"], cfg["fixed_ht"]))):
        raise ParameterError("depth-bound needs finite --t-max and --fixed-ht")
    filters = [Filter.none(), Filter.lorentzian(cfg["eta_over_h"]),
               Filter.gaussian(cfg["eta_over_h"])]
    n_grid = np.unique(np.round(np.logspace(
        math.log10(2), math.log10(cfg["n_max"]), cfg["n_points"])).astype(int))
    # (scan, chain lengths, times): the time scan, then the size scan at one time
    scans = (("t", [cfg["n"]], np.linspace(0.0, cfg["t_max"], cfg["t_points"])),
             ("n", n_grid, np.array([cfg["fixed_ht"]])))
    rows = []
    for scan, sizes, ts in scans:
        for p in (1, 2, 4):
            for filt in filters:
                for n in sizes:
                    m_c, d_c = depth_cutoff(SpinModel(int(n), cfg["j_over_h"], 1.0),
                                            p, filt, ts, eps_c=cfg["eps_c"])
                    rows.extend((scan, p, filt.family, filt.eta, int(n), t,
                                 mc, math.ceil(mc), dc)
                                for t, mc, dc in zip(ts, m_c, d_c))
    write_table(out, _meta("depth-bound", cfg),
                ["scan", "p", "filter", "eta_over_h", "n", "ht",
                 "m_c", "m_c_ceil", "d_c"], rows)
    return 0


def _spectrum_pipeline(cfg, model, plan, filt):
    grid = _grid(cfg, filt)
    orientation = InputOrientation.uniform(model.n_spins,
                                           cfg["theta_over_pi"] * math.pi)
    [series] = run_time_series(model, plan, [orientation], grid,
                               shots=cfg["shots"], seeds=[cfg["seed"]])
    return grid, orientation, spectral_function(series, filt)


def cmd_spectrum(cfg, out) -> int:
    model, plan, filt = _build(cfg)
    if cfg["oracle"]:
        _require_broadened(filt)
    grid, orientation, spec = _spectrum_pipeline(cfg, model, plan, filt)
    extra = {}
    if cfg["oracle"]:
        eig = exact_diagonalize(model)
        extra["A_oracle"] = exact_spectrum_oracle(eig, orientation, filt, grid).values
    spectral.spectrum_to_csv(spec, out, metadata=_meta("spectrum", cfg),
                             extra_columns=extra)
    return 0


def cmd_gap(cfg, out) -> int:
    model, plan, filt = _build(cfg)
    _require_broadened(filt)
    delta0 = perturbative_gap_guess(model)
    search = _search_config(cfg, delta0)    # refuses a bad window before simulating
    grid, orientation, spec = _spectrum_pipeline(cfg, model, plan, filt)
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
    write_json(out, {**_meta("gap", cfg), "result": result})
    return code


def _theta_values(cfg):
    if cfg.get("theta_list") is not None:
        thetas = [float(v) * math.pi for v in cfg["theta_list"]]
    elif is_count(cfg["theta_count"], 0):
        thetas = [math.pi * l / 50 for l in range(cfg["theta_count"])]
    else:
        raise ParameterError(f"theta_count {cfg['theta_count']!r} is not an integer")
    if not thetas:
        raise ParameterError("the sweep needs at least one orientation")
    return thetas


def cmd_sweep_theta(cfg, out) -> int:
    model, plan, filt = _build(cfg)
    _require_broadened(filt)
    grid = _grid(cfg, filt)
    guess = perturbative_gap_guess(model)
    result = gapfinder.theta_sweep(model, plan, filt, grid,
                                   _theta_values(cfg), shots=cfg["shots"],
                                   seed=cfg["seed"],
                                   search=_search_config(cfg, guess))
    gapfinder.sweep_to_json(result, out, metadata=cfg)
    n_failed = len(result.failed())
    if n_failed == len(result.records):
        return _FAILURE_EXIT
    return _PARTIAL_EXIT if n_failed else 0


def _scaling_cell(cfg, n, coupling):
    model = SpinModel(n, coupling, 1.0)
    return n, model, _search_config(cfg, perturbative_gap_guess(model))


def cmd_scaling(cfg, out) -> int:
    """Every cell is checked before the first sweep; sweeps search but score nothing."""
    sizes, couplings = cfg["n_list"], cfg["j_list"]
    if len(set(sizes)) < len(sizes) or len(sizes) < 3:
        raise ParameterError(f"--n-list needs 3 or more distinct sizes, not {sizes}")
    if len(set(couplings)) < len(couplings) or not couplings:
        raise ParameterError(f"--j-list needs distinct couplings, not {couplings}")
    filt = _filter(cfg)
    _require_broadened(filt)
    _check_simulated(max(sizes))
    plan = TrotterPlan(cfg["p"], cfg["m"])
    cells = [[_scaling_cell(cfg, n, coupling) for n in sizes]
             for coupling in couplings]
    grid = _grid(cfg, filt)
    thetas = _theta_values(cfg)

    extrapolations = {}
    samples = []
    failed_cells = 0
    for j_index, (coupling, row) in enumerate(zip(couplings, cells)):
        points = []
        for n, model, search in row:
            sweep, _ = gapfinder.search_sweep(
                model, plan, filt, grid, thetas, search, cfg["shots"],
                gapfinder._derived_seed(cfg["seed"], j_index, n))
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
    scaling.phase_diagram_to_csv(scaling.phase_diagram(extrapolations), out,
                                 metadata=_meta("scaling", cfg))
    if cfg["samples_out"]:
        write_json(cfg["samples_out"], {"config": cfg, "samples": samples})
    return _PARTIAL_EXIT if failed_cells else 0


def cmd_toy(cfg, out) -> int:
    separation = cfg["separation_ratio"] * cfg["center"]
    rows = toymodel.shift_table(cfg["center"], separation,
                                cfg["lambda_list"], cfg["eta_list"])
    toymodel.shift_table_to_csv(rows, out, metadata=_meta("toy", cfg))
    return 0


# --------------------------------------------------------------------------
# Entry point.
# --------------------------------------------------------------------------


# Each subcommand's handler, help line and settings: every setting is read by
# the handler, takes the flag "--" + its name with "_" as "-", and is recorded
# in the output header.
_COMMANDS = {
    "depth-bound": (cmd_depth_bound, "circuit-depth budget tables", {
        "n": 1000, "j_over_h": 0.4, "eta_over_h": 0.3, "eps_c": 1e-2,
        "t_max": 10.0, "t_points": 101, "n_max": 1000, "n_points": 25,
        "fixed_ht": 6.0}),
    "spectrum": (cmd_spectrum, "spectral function of one run", {
        **_CHAIN, **_RUN, "theta_over_pi": 0.27, "oracle": False}),
    "gap": (cmd_gap, "single gap estimate with error measures", {
        **_CHAIN, **_RUN, "theta_over_pi": 0.27, **_SEARCH}),
    "sweep-theta": (cmd_sweep_theta, "gap pipeline across input orientations", {
        **_CHAIN, **_RUN, **_SEARCH, "theta_count": 25, "theta_list": None}),
    "scaling": (cmd_scaling, "finite-size extrapolation and phase diagram", {
        **_RUN, **_SEARCH, "j_list": [0.2, 0.4, 0.6, 0.8], "n_list": [2, 3, 4, 5],
        "theta_count": 25, "samples_out": None}),
    "toy": (cmd_toy, "two-peak line-shape shift table", {
        "center": 1.0, "separation_ratio": 0.6, "lambda_list": [0.25, 0.5, 1.0],
        "eta_list": [round(0.02 + 0.02 * i, 10) for i in range(18)]}),
}


def build_parser() -> _Parser:
    """One subparser per _COMMANDS entry.  Flags left out of a command line
    stay off the namespace, and abbreviated flags are refused."""
    parser = _Parser(prog="gaplab",
                     description="Gap estimation from filtered time series "
                                 "of Trotterized spin-chain evolution")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, settings) in _COMMANDS.items():
        sp = subs.add_parser(name, help=help_text, allow_abbrev=False,
                             argument_default=argparse.SUPPRESS)
        sp.add_argument("--config", help="JSON file of saved configuration values")
        for key in settings:
            flag, kind = "--" + key.replace("_", "-"), _TYPES.get(key, float)
            if kind is bool:
                sp.add_argument(flag, action="store_true", help=_HELP.get(key))
                continue
            group = sp.add_mutually_exclusive_group() if key == "shots" else sp
            group.add_argument(flag, type=kind, choices=_CHOICES.get(key),
                               help=_HELP.get(key))
            if key == "shots":
                group.add_argument("--exact", dest="shots", action="store_const",
                                   const=None, help=_HELP["exact"])
        sp.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _resolve(args, parser)
    try:
        return _COMMANDS[args.subcommand][0](cfg, args.out)
    except (ParameterError, DataError) as exc:
        print(f"gaplab: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except GaplabError as exc:
        print(f"gaplab: {exc}", file=sys.stderr)
        return _FAILURE_EXIT


if __name__ == "__main__":
    sys.exit(main())
