"""Command-line front end: deterministic, seeded runs that emit plot-ready files.

All physical inputs are dimensionless ratios of the transverse field h.
Every output embeds in its header the fully resolved settings its subcommand
reads (declared once, in _COMMANDS), and a saved configuration replayed
through --config reproduces the file byte for byte.

Exit codes: 0 success, 1 usage/configuration or an unwritable output,
2 numeric or search failure, 3 partial sweep failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import gapfinder, scaling, spectral, toymodel, trotter
from ._textio import write_json, write_table
from .errors import DataError, GapSearchError, GaplabError, ParameterError
from .gapfinder import GapSearchConfig, find_gap
from .model import SpinModel, exact_diagonalize, perturbative_gap_guess
from .simulator import _check_simulated, run_time_series
from .spectral import exact_spectrum_oracle
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_USAGE_EXIT, f"{self.prog}: error: {message}\n")


# The type of each setting whose default is None, float if not listed (_kind).
_TYPES = {"l_points": int, "samples_out": str, "theta_list": [float]}
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


def _settings(subcommand):
    """The settings the subcommand records, with their defaults."""
    return {**_COMMANDS[subcommand][2], **_RECORDED_UNREAD.get(subcommand, {})}


def _kind(key, default):
    """A setting's type, of its flag and its values: [t] for a list of t."""
    if default is None:
        return _TYPES.get(key, float)
    return [type(default[0])] if isinstance(default, list) else type(default)


def _list_of(kind):
    def comma_separated(text):
        return [kind(v) for v in text.split(",") if v != ""]
    return comma_separated


def _has_kind(value, kind):
    """A bool is no number, and an int passes where a float is expected."""
    if isinstance(kind, list):
        return isinstance(value, list) and all(_has_kind(v, kind[0]) for v in value)
    return (isinstance(value, bool) == (kind is bool)
            and isinstance(value, (int, float) if kind is float else kind))


def _check_kinds(subcommand, cfg):
    """Refuse a --config value not of its flag's type (flags are typed as they
    are parsed); null passes where the default is None, and for shots."""
    for key, default in _settings(subcommand).items():
        kind, value = _kind(key, default), cfg[key]
        if not (_has_kind(value, kind)
                or value is None and (default is None or key == "shots")):
            name = getattr(kind, "__name__", None) or f"a list of {kind[0].__name__}"
            raise ParameterError(f"setting {key} takes {name}, not {value!r}")


def _check_outputs(*paths):
    """Refuse, before any work, an output path that is empty, a directory or in a
    missing directory, and two outputs naming one file (None: not asked for)."""
    paths = [path for path in paths if path is not None]
    for path in paths:
        if path == "" or os.path.isdir(path):
            raise ParameterError(f"output path {path!r} is empty or a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ParameterError(f"no directory to write {path!r} in")
    if len(set(map(os.path.realpath, paths))) < len(paths):
        raise ParameterError(f"--out and --samples-out both name {paths[0]!r}")


def _resolve(args, parser):
    """Meld the subcommand's defaults, a --config file and explicit flags
    into one dict holding exactly the settings the subcommand records."""
    cfg = _settings(args.subcommand)
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


def _setup(cfg, searched=True):
    """The run's plan, filter and time grid; records the resolved d_omega and L
    in cfg.  Where a peak search or the oracle reads the line (`searched`), a
    filter with no width (--filter none or eta = 0) is refused first: neither
    can use a delta line."""
    plan = TrotterPlan(order=cfg["p"], depth=cfg["m"])
    filt = Filter(cfg["filter"], cfg["eta_over_h"])
    if searched and not filt.broadened:
        raise ParameterError("the peak search and the oracle need a broadened "
                             "filter (eta > 0), not --filter none or --eta-over-h 0")
    try:
        d_omega, length = spectral.grid_size(filt, cfg["d_omega_over_h"], cfg["l_points"])
    except ParameterError as exc:
        if cfg["d_omega_over_h"] is None and not filt.broadened:
            raise ParameterError(f"{exc}; give --d-omega-over-h") from exc
        raise
    cfg["d_omega_over_h"], cfg["l_points"] = d_omega, length
    return plan, filt, spectral.default_grid(filt, d_omega, length)


def _search(cfg, model):
    """The peak-search config from the chain's perturbative guess, which must be
    positive, its windows checked against eta before simulating."""
    guess = perturbative_gap_guess(model)
    if not guess > 0:
        raise ParameterError(f"the gap guess 2h[1 - (1 - 1/N) |J|/h] = {guess:.6g} is not"
                             f" positive at N = {model.n_spins}, J/h = {model.coupling:g}")
    config = GapSearchConfig(guess, cfg["initial_window_over_h"], cfg["max_window_over_h"])
    gapfinder._windows(config, cfg["eta_over_h"])
    return config


def _meta(subcommand, cfg):
    return {"tool": "gaplab", "subcommand": subcommand, "config": cfg}


# --------------------------------------------------------------------------
# Subcommands.
# --------------------------------------------------------------------------


def _scan(flag, spacing, *args):
    try:
        return spacing(*args)
    except (ValueError, MemoryError):    # numpy's size limit, or no such memory
        raise ParameterError(f"{flag} {args[-1]}: too many points for numpy") from None


def cmd_depth_bound(cfg, out) -> int:
    if min(cfg["t_points"], cfg["n_points"]) < 1 or cfg["n_max"] < 2:
        raise ParameterError("depth-bound needs --t-points and --n-points >= 1 "
                             "and --n-max >= 2")
    if not all(0 <= t < math.inf for t in (cfg["t_max"], cfg["fixed_ht"])):
        raise ParameterError("depth-bound needs finite, non-negative --t-max and --fixed-ht")
    filters = [Filter(family, cfg["eta_over_h"])
               for family in ("none", "lorentzian", "gaussian")]
    with np.errstate(over="ignore"):    # past the float range: inf, refused below
        n_grid = np.round(_scan("--n-points", np.logspace, math.log10(2),
                                math.log10(cfg["n_max"]), cfg["n_points"]))
    if not n_grid.max() < 2**63:
        raise ParameterError(f"--n-max {cfg['n_max']} gives chain lengths beyond int64")
    # (scan, chain lengths, times): the time scan, then the size scan at one time
    scans = (("t", [cfg["n"]],
              _scan("--t-points", np.linspace, 0.0, cfg["t_max"], cfg["t_points"])),
             ("n", np.unique(n_grid.astype(int)), np.array([cfg["fixed_ht"]])))
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


def _spectrum_pipeline(cfg, model, plan, filt, grid):
    thetas = _theta_values(cfg)
    [p] = run_time_series(model, plan, thetas, grid, shots=cfg["shots"],
                          seeds=[cfg["seed"]])
    return thetas, spectral.transform(grid, p, filt)


def cmd_spectrum(cfg, out) -> int:
    model = SpinModel(cfg["n"], cfg["j_over_h"], 1.0)
    plan, filt, grid = _setup(cfg, searched=cfg["oracle"])
    thetas, spec = _spectrum_pipeline(cfg, model, plan, filt, grid)
    extra = {}
    if cfg["oracle"]:
        eig = exact_diagonalize(model)
        [extra["A_oracle"]] = exact_spectrum_oracle(eig, thetas, filt, grid)
    spectral.spectrum_to_csv(grid, spec, filt, out, metadata=_meta("spectrum", cfg),
                             extra_columns=extra)
    return 0


def cmd_gap(cfg, out) -> int:
    model = SpinModel(cfg["n"], cfg["j_over_h"], 1.0)
    plan, filt, grid = _setup(cfg)
    search = _search(cfg, model)
    thetas, spec = _spectrum_pipeline(cfg, model, plan, filt, grid)
    eig = exact_diagonalize(model)
    result = {"delta0": search.initial_guess,
              "delta_exact_ed": float(eig.energies[1] - eig.energies[0])}
    try:
        est = find_gap(grid, spec, filt, search)
    except GapSearchError as exc:
        result.update({"gap": None, "failure": str(exc)})
    else:
        [(eps_gap, eps_spect)] = gapfinder.score([est.gap], [spec], eig, thetas,
                                                 filt, grid)
        result.update({
            "gap": est.gap, "peak_height": est.peak_height,
            "window_used": est.window_used, "eps_gap": eps_gap, "eps_spect": eps_spect,
            "eps_bound": gapfinder.spectral_error_bound(model, plan, filt, grid),
            "failure": None})
    write_json(out, {**_meta("gap", cfg), "result": result})
    if result["failure"] is not None:
        raise GapSearchError(result["failure"])
    return 0


def _theta_values(cfg):
    """The run's angles, pi --theta-over-pi, --theta-list in units of pi or pi l / 50
    for l < --theta-count; refused before any run if none, or any is not finite."""
    if "theta_count" not in cfg:
        thetas = [cfg["theta_over_pi"] * math.pi]
    elif cfg.get("theta_list") is not None:
        thetas = [float(v) * math.pi for v in cfg["theta_list"]]
    elif cfg["theta_count"] > 100:
        raise ParameterError(f"--theta-count {cfg['theta_count']} is above 100, "
                             "the period of pi l / 50 in l")
    else:
        thetas = [math.pi * l / 50 for l in range(cfg["theta_count"])]
    if not thetas or not all(map(math.isfinite, thetas)):
        raise ParameterError(f"a run needs one or more finite angles, not {thetas}")
    return thetas


def cmd_sweep_theta(cfg, out) -> int:
    model = SpinModel(cfg["n"], cfg["j_over_h"], 1.0)
    plan, filt, grid = _setup(cfg)
    records = gapfinder.theta_sweep(model, plan, filt, grid,
                                    _theta_values(cfg), shots=cfg["shots"],
                                    seed=cfg["seed"], search=_search(cfg, model))
    gapfinder.sweep_to_json(records, out, metadata=cfg)
    gapfinder.best_record(records)  # raises GapSearchError if every orientation failed
    return _PARTIAL_EXIT if any(r.failure is not None for r in records) else 0


def cmd_scaling(cfg, out) -> int:
    """Every cell is checked before the first sweep; sweeps search but score nothing."""
    sizes, couplings = cfg["n_list"], cfg["j_list"]
    if len(set(sizes)) < len(sizes) or len(sizes) < 3:
        raise ParameterError(f"--n-list needs 3 or more distinct sizes, not {sizes}")
    if len(set(couplings)) < len(couplings) or not couplings:
        raise ParameterError(f"--j-list needs distinct couplings, not {couplings}")
    plan, filt, grid = _setup(cfg)
    _check_simulated(max(sizes))
    models = [[SpinModel(n, coupling, 1.0) for n in sizes] for coupling in couplings]
    searches = [[_search(cfg, model) for model in row] for row in models]
    thetas = _theta_values(cfg)

    extrapolations = {}
    samples = []
    for j_index, coupling in enumerate(couplings):
        points = []
        for n, model, search in zip(sizes, models[j_index], searches[j_index]):
            seed = cfg["seed"] if cfg["shots"] is None \
                else gapfinder._derived_seed(cfg["seed"], j_index, n)
            records, _ = gapfinder.search_sweep(
                model, plan, filt, grid, thetas, search, cfg["shots"], seed)
            try:
                best = gapfinder.best_record(records)
            except GapSearchError:
                continue
            points.append((n, best.gap))
            samples.append({"j_over_h": coupling, "n": n, "gap": best.gap,
                            "theta_star": best.theta})
        if len(points) >= 3:
            extrapolations[coupling] = scaling.extrapolate(points)
    if not extrapolations:
        raise GapSearchError(f"no coupling found a gap at 3 or more sizes "
                             f"({len(samples)} of {len(sizes) * len(couplings)} "
                             f"cells found one); nothing written")
    scaling.phase_diagram_to_csv(extrapolations, out, metadata=_meta("scaling", cfg))
    if cfg["samples_out"] is not None:
        write_json(cfg["samples_out"], {"config": cfg, "samples": samples})
    # 3 or more sizes per coupling: a coupling left out has a failed cell
    return _PARTIAL_EXIT if len(samples) < len(sizes) * len(couplings) else 0


def cmd_toy(cfg, out) -> int:
    separation = cfg["separation_ratio"] * cfg["center"]
    rows = toymodel.shift_table(cfg["center"], separation,
                                cfg["lambda_list"], cfg["eta_list"])
    write_table(out, _meta("toy", cfg), ["eta", "lambda", "family", "shift"], rows)
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
        for key, default in settings.items():
            flag, kind = "--" + key.replace("_", "-"), _kind(key, default)
            if kind is bool:
                sp.add_argument(flag, action="store_true", help=_HELP.get(key))
                continue
            group = sp.add_mutually_exclusive_group() if key == "shots" else sp
            group.add_argument(flag, choices=_CHOICES.get(key),
                               type=_list_of(kind[0]) if isinstance(kind, list) else kind,
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
        _check_kinds(args.subcommand, cfg)
        _check_outputs(args.out, cfg.get("samples_out"))
        return _COMMANDS[args.subcommand][0](cfg, args.out)
    except (ParameterError, DataError, OSError) as exc:
        print(f"gaplab: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except GaplabError as exc:
        print(f"gaplab: {exc}", file=sys.stderr)
        return _FAILURE_EXIT


if __name__ == "__main__":
    sys.exit(main())
