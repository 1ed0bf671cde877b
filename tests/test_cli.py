"""The gaplab command line, run in process and as the benchmark runs it.

Every row of an `argv` parametrization carries an explicit id, so a row
inserted later renames no other row's test: the rows written before ids were
given keep the positional names they had (`argv0`, `argv1`, ...), and a new
row takes a name of its own.
"""

import argparse
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaplab
from gaplab import Filter, SpinModel, depth_cutoff
from gaplab import cli
from gaplab.cli import build_parser, main

from conftest import PERFBENCH, perfbench_module, read_config_header, read_table

FAST_SPECTRUM = ["--exact", "--eta-over-h", "0.3", "--filter", "gaussian"]


def run(args):
    return main(list(args))


@pytest.fixture
def no_simulation(monkeypatch):
    """Fail the test if the run simulates: a refused run must exit first."""
    def refuse(*args, **kwargs):
        raise AssertionError("simulated a run that should have been refused")
    monkeypatch.setattr("gaplab.cli.run_time_series", refuse)
    monkeypatch.setattr("gaplab.gapfinder.run_time_series", refuse)


class TestDepthBound:
    def test_table_contents(self, tmp_path):
        out = tmp_path / "depth.csv"
        assert run(["depth-bound", "--n", "100", "--t-points", "5", "--t-max", "4",
                    "--n-points", "4", "--n-max", "100", "--out", str(out)]) == 0
        meta, columns, rows = read_table(out)
        assert columns == ["scan", "p", "filter", "eta_over_h", "n", "ht",
                           "m_c", "m_c_ceil", "d_c"]
        # 3 orders x 3 filters x 5 time points, plus the size scan
        t_rows = [r for r in rows if r[0] == "t"]
        assert len(t_rows) == 45
        zero_rows = [r for r in t_rows if float(r[5]) == 0.0]
        assert zero_rows and all(float(r[8]) == 0.0 for r in zero_rows)

    def test_one_cell_against_direct_evaluation(self, tmp_path):
        out = tmp_path / "depth.csv"
        run(["depth-bound", "--n", "50", "--t-points", "3", "--t-max", "4",
             "--n-points", "2", "--n-max", "10", "--out", str(out)])
        _, _, rows = read_table(out)
        row = next(r for r in rows
                   if r[0] == "t" and r[1] == "1" and r[2] == "none"
                   and float(r[5]) == 2.0)
        m_c, d_c = depth_cutoff(SpinModel(50, 0.4, 1.0), 1, Filter("none"), 2.0)
        assert float(row[6]) == pytest.approx(m_c, rel=1e-12)
        assert float(row[8]) == pytest.approx(d_c, rel=1e-12)
        assert int(row[7]) == math.ceil(m_c)

    @pytest.mark.parametrize("argv", [
        pytest.param(["--t-max", "1e300"], id="argv0"),
        pytest.param(["--fixed-ht", "1e300"], id="argv1"),
        pytest.param(["--eps-c", "1e-320"], id="argv2")])
    def test_overflowing_budget_refused(self, tmp_path, no_simulation, capsys, argv):
        out = tmp_path / "depth.csv"
        assert run(["depth-bound", *argv, "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("gaplab:")

    # a budget reads |ht|, so a negative time would get the rows of its magnitude
    @pytest.mark.parametrize("argv", [
        pytest.param(["--t-max", "-5", "--t-points", "3", "--n-points", "1"], id="t-max"),
        pytest.param(["--fixed-ht", "-6"], id="fixed-ht")])
    def test_negative_time_refused(self, tmp_path, capsys, argv):
        out = tmp_path / "depth.csv"
        assert run(["depth-bound", *argv, "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == (
            "gaplab: depth-bound needs finite, non-negative --t-max and --fixed-ht\n")


class TestSpectrum:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["spectrum", "--shots", "512", "--seed", "77", "--out"]
        assert run(args + [str(a)]) == 0
        assert run(args + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_round_trip(self, tmp_path):
        first = tmp_path / "first.csv"
        run(["spectrum", *FAST_SPECTRUM, "--out", str(first)])
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(read_config_header(first)))
        replay = tmp_path / "replay.csv"
        run(["spectrum", "--config", str(cfg_file), "--out", str(replay)])
        assert first.read_bytes() == replay.read_bytes()

    def test_flags_override_config(self, tmp_path):
        first = tmp_path / "first.csv"
        run(["spectrum", *FAST_SPECTRUM, "--out", str(first)])
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(read_config_header(first)))
        other = tmp_path / "other.csv"
        run(["spectrum", "--config", str(cfg_file), "--seed", "1", "--shots",
             "64", "--out", str(other)])
        assert read_config_header(other)["shots"] == 64

    def test_oracle_column_matches_library(self, tmp_path):
        out = tmp_path / "spec.csv"
        run(["spectrum", *FAST_SPECTRUM, "--oracle", "--out", str(out)])
        meta, columns, rows = read_table(out)
        assert columns == ["m", "omega_m", "A_m", "A_oracle"]
        import gaplab
        model = SpinModel(4, 0.4, 1.0)
        filt = Filter("gaussian", 0.3)
        grid = gaplab.default_grid(filt)
        [oracle] = gaplab.exact_spectrum_oracle(
            gaplab.exact_diagonalize(model), [0.27 * math.pi], filt, grid)
        got = np.array([float(r[3]) for r in rows])
        assert np.array_equal(got, oracle)

    def test_narrow_broadening_parameter_set(self, tmp_path):
        # the eta/h = 0.02 working point: fine grid, long series
        out = tmp_path / "narrow.csv"
        assert run(["spectrum", "--exact", "--p", "1", "--filter", "lorentzian",
                    "--eta-over-h", "0.02", "--m", "2000",
                    "--out", str(out)]) == 0
        meta, _, rows = read_table(out)
        assert meta["config"]["l_points"] == 2 * math.ceil(7.0 / 0.005)
        omegas = np.array([float(r[1]) for r in rows])
        values = np.array([float(r[2]) for r in rows])
        window = (omegas > 1.0) & (omegas < 2.0)
        peak = omegas[window][np.argmax(values[window])]
        assert abs(peak - 1.3923086086455778) <= 0.005

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"not_a_key": 1}))
        with pytest.raises(SystemExit) as exc:
            run(["spectrum", "--config", str(cfg_file), "--out",
                 str(tmp_path / "x.csv")])
        assert exc.value.code == 1

    @pytest.mark.parametrize("text", ["5", "null", '["n"]', '[["n", 3]]'])
    def test_config_that_is_not_an_object_is_usage_error(self, tmp_path, capsys,
                                                          text):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(text)
        with pytest.raises(SystemExit) as exc:
            run(["gap", "--config", str(cfg_file), "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 1
        assert "config file must hold a JSON object" in capsys.readouterr().err

    def test_bad_order_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["spectrum", "--p", "3", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 1

    def test_filter_none_needs_explicit_grid(self, tmp_path, capsys):
        assert run(["spectrum", "--filter", "none", "--exact",
                    "--out", str(tmp_path / "x.csv")]) == 1
        assert "give --d-omega-over-h" in capsys.readouterr().err

    @pytest.mark.parametrize("eta", ["nan", "inf", "-1"])
    def test_filter_none_checks_eta(self, tmp_path, no_simulation, capsys, eta):
        # --filter none reads no width, but a bad one is still refused
        out = tmp_path / "x.csv"
        assert run(["spectrum", "--filter", "none", "--eta-over-h", eta,
                    "--d-omega-over-h", "0.1", "--exact", "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("gaplab:")

    @pytest.mark.parametrize("command", ["gap", "spectrum", "sweep-theta", "scaling"])
    @pytest.mark.parametrize("argv", [
        pytest.param(["--d-omega-over-h", "0"], id="argv0"),
        pytest.param(["--l-points", "0"], id="argv1"),
        # grids longer than MAX_GRID_LENGTH = 2**17
        pytest.param(["--d-omega-over-h", "5e-324"], id="argv2"),
        pytest.param(["--l-points", "131074"], id="argv3")])
    def test_impossible_grid_refused_before_simulating(self, tmp_path, no_simulation,
                                                       capsys, command, argv):
        out = tmp_path / "x.out"
        assert run([command, *argv, "--out", str(out)]) == 1
        assert not out.exists()
        assert "give --d-omega-over-h" not in capsys.readouterr().err


class TestGap:
    def test_gap_json(self, tmp_path):
        out = tmp_path / "gap.json"
        assert run(["gap", *FAST_SPECTRUM, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        result = payload["result"]
        assert result["failure"] is None
        assert abs(result["gap"] - result["delta_exact_ed"]) <= 0.3
        assert result["eps_bound"] >= result["eps_spect"]
        assert payload["config"]["m"] == 35

    def test_search_failure_exit_code(self, tmp_path, capsys):
        out = tmp_path / "gap.json"
        # at N = 2, J/h = -1 the perturbative guess is 1.0 and the ED gap
        # 1.236: a window capped at +-0.075 about the guess holds no local
        # maximum, and the search must report failure
        code = run(["gap", "--exact", "--n", "2", "--j-over-h", "-1.0",
                    "--initial-window-over-h", "0.1",
                    "--max-window-over-h", "0.15", "--out", str(out)])
        assert code == 2
        payload = json.loads(out.read_text())
        assert payload["result"]["failure"]
        # the file is written, and the reason is printed as well
        assert capsys.readouterr().err == f"gaplab: {payload['result']['failure']}\n"

    def test_negative_coupling_guesses_from_abs_coupling(self, tmp_path):
        # the chain at J/h = -0.4 has the spectrum of J/h = 0.4
        out = tmp_path / "gap.json"
        run(["gap", "--exact", "--j-over-h", "-0.4", "--out", str(out)])
        result = json.loads(out.read_text())["result"]
        assert result["delta0"] == pytest.approx(1.4)
        assert result["delta_exact_ed"] == pytest.approx(1.3923086086, abs=1e-9)


class TestSweepTheta:
    def test_sweep_structure(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run(["sweep-theta", *FAST_SPECTRUM, "--theta-list",
                    "0.2,0.27,0.35", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["n_records"] == 3
        assert payload["summary"]["n_failed"] == 0
        thetas = [r["theta"] for r in payload["records"]]
        assert thetas == sorted(thetas)
        assert payload["summary"]["theta_star"] in thetas

    def test_partial_failure_exit_code(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = run(["sweep-theta", *FAST_SPECTRUM, "--theta-list", "0.0,0.27",
                    "--max-window-over-h", "0.6", "--out", str(out)])
        assert code == 3
        payload = json.loads(out.read_text())
        assert payload["summary"]["n_failed"] == 1

    def test_total_failure_exit_code(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = run(["sweep-theta", *FAST_SPECTRUM, "--theta-list", "0.0",
                    "--max-window-over-h", "0.6", "--out", str(out)])
        assert code == 2
        assert json.loads(out.read_text())["summary"]["n_failed"] == 1
        assert capsys.readouterr().err == \
            "gaplab: every orientation in the sweep failed\n"

    @pytest.mark.parametrize("order", ["1", "4"])
    def test_scores_equal_those_of_gap(self, tmp_path, order):
        # `gap` and a one-orientation `sweep-theta` make the same K = 1 engine
        # call and score a found gap through one function, so they agree bit
        # for bit; the rows of a K > 1 call differ from K = 1 calls in the last
        # bits, and so do the scores of a sweep over several orientations
        argv = ["--exact", "--p", order]
        assert run(["gap", *argv, "--theta-over-pi", "0.27",
                    "--out", str(tmp_path / "gap.json")]) == 0
        assert run(["sweep-theta", *argv, "--theta-list", "0.27",
                    "--out", str(tmp_path / "sweep.json")]) == 0
        result = json.loads((tmp_path / "gap.json").read_text())["result"]
        [record] = json.loads((tmp_path / "sweep.json").read_text())["records"]
        keys = ["gap", "peak_height", "eps_gap", "eps_spect", "eps_bound"]
        assert [result[k] for k in keys] == [record[k] for k in keys]


class TestScaling:
    def test_simulated_small(self, tmp_path):
        out = tmp_path / "diag.csv"
        samples = tmp_path / "samples.json"
        code = run(["scaling", "--exact", "--j-list", "0.4",
                    "--n-list", "2,3,4", "--theta-count", "5", "--m", "20",
                    "--samples-out", str(samples), "--out", str(out)])
        assert code == 0
        _, _, rows = read_table(out)
        assert len(rows) == 1
        assert abs(float(rows[0][1]) - 1.2) <= 0.6
        detail = json.loads(samples.read_text())
        assert len(detail["samples"]) == 3
        assert all(s["theta_star"] is not None for s in detail["samples"])

    def test_shot_mode_scores_nothing(self, tmp_path, monkeypatch):
        # scaling records each cell's tallest peak alone, so it runs neither
        # the eigensolver, nor the line-shape oracle, nor the error bound
        def refuse(*args, **kwargs):
            raise AssertionError("scored a sweep that scaling never records")
        for name in ("exact_diagonalize", "exact_spectrum_oracle",
                     "spectral_error_bound"):
            monkeypatch.setattr(f"gaplab.gapfinder.{name}", refuse)
        out = tmp_path / "diag.csv"
        assert run(["scaling", "--shots", "64", "--j-list", "0.4", "--n-list", "2,3,4",
                    "--theta-count", "3", "--m", "20", "--out", str(out)]) == 0
        assert len(read_table(out)[2]) == 1

    def test_exact_mode_derives_no_seed(self, tmp_path, monkeypatch):
        # exact mode draws nothing, so no cell seed is derived: deriving one
        # loads numpy.random, which numpy 2.x imports only on first use
        def refuse(*keys):
            raise AssertionError("derived a seed for an exact run")
        monkeypatch.setattr("gaplab.gapfinder._derived_seed", refuse)
        out = tmp_path / "diag.csv"
        assert run(["scaling", "--exact", "--j-list", "0.4", "--n-list", "2,3,4",
                    "--theta-count", "2", "--out", str(out)]) == 0
        assert len(read_table(out)[2]) == 1

    @pytest.mark.parametrize("argv", [
        pytest.param(["--n-list", "2,3,4,1"], id="argv0"),
        pytest.param(["--j-list", "0.4,nan"], id="argv1"),
        # too few distinct sizes to extrapolate, or a repeated cell
        pytest.param(["--n-list", "2,3"], id="argv2"),
        pytest.param(["--n-list", "2,2,2"], id="argv3"),
        pytest.param(["--n-list", "2,3,4,4"], id="argv4"),
        pytest.param(["--j-list", "0.4,0.4"], id="argv5"),
        pytest.param(["--j-list", ""], id="argv6")])
    def test_every_cell_checked_before_simulating(self, tmp_path, no_simulation, argv):
        out = tmp_path / "d.csv"
        assert run(["scaling", "--exact", *argv, "--out", str(out)]) == 1
        assert not out.exists()


class TestUnfilteredRuns:
    @pytest.mark.parametrize("command", ["gap", "sweep-theta", "scaling"])
    def test_gap_commands_reject_filter_none_before_simulating(
            self, tmp_path, no_simulation, command):
        assert run([command, "--exact", "--filter", "none", "--d-omega-over-h",
                    "0.075", "--out", str(tmp_path / "x.out")]) == 1

    @pytest.mark.parametrize("argv", [
        pytest.param(["gap", "--d-omega-over-h", "0.1"], id="argv0"),
        pytest.param(["sweep-theta", "--d-omega-over-h", "0.1"], id="argv1"),
        pytest.param(["scaling", "--d-omega-over-h", "0.1"], id="argv2"),
        pytest.param(["spectrum", "--oracle", "--d-omega-over-h", "0.1"], id="argv3"),
        pytest.param(["gap"], id="argv4")])
    def test_zero_broadening_refused_before_simulating(self, tmp_path, no_simulation,
                                                       capsys, argv):
        assert run(argv + ["--exact", "--eta-over-h", "0",
                           "--out", str(tmp_path / "x.out")]) == 1
        assert "need a broadened filter" in capsys.readouterr().err

    def test_spectrum_accepts_filter_none(self, tmp_path):
        out = tmp_path / "raw.csv"
        assert run(["spectrum", "--exact", "--filter", "none",
                    "--d-omega-over-h", "0.5", "--out", str(out)]) == 0
        assert read_config_header(out)["filter"] == "none"


class TestSimulationCap:
    @pytest.mark.parametrize("argv", [
        pytest.param(["gap", "--n", "9"], id="argv0"),
        pytest.param(["sweep-theta", "--n", "9", "--theta-count", "2"], id="argv1"),
        pytest.param(["scaling", "--n-list", "2,3,9", "--j-list", "0.4"], id="argv2")])
    def test_chains_above_the_cap_fail_before_simulating(self, tmp_path, monkeypatch,
                                                         capsys, argv):
        def no_diagonalization(*args, **kwargs):
            raise AssertionError("diagonalized a chain it cannot simulate")
        monkeypatch.setattr("gaplab.gapfinder.exact_diagonalize", no_diagonalization)
        out = tmp_path / "x.out"
        assert run(argv + ["--exact", "--out", str(out)]) == 2
        assert not out.exists()
        assert "simulation limited to MAX_SIMULATED_SPINS = 8" in capsys.readouterr().err

    def test_scaling_checks_every_length_first(self, tmp_path, no_simulation):
        assert run(["scaling", "--exact", "--n-list", "2,3,9", "--out",
                    str(tmp_path / "d.csv")]) == 2


class TestNonFiniteOrientation:
    @pytest.mark.parametrize("argv", [
        pytest.param(["gap", "--theta-over-pi", "nan"], id="argv0"),
        pytest.param(["gap", "--theta-over-pi", "inf"], id="argv1"),
        pytest.param(["sweep-theta", "--theta-list", "0.2,nan"], id="argv2")])
    def test_rejected_before_simulating(self, tmp_path, no_simulation, argv):
        out = tmp_path / "x.out"
        assert run(argv + ["--exact", "--out", str(out)]) == 1
        assert not out.exists()


class TestSearchWindow:
    @pytest.mark.parametrize("argv", [
        pytest.param(["gap", "--initial-window-over-h", "nan"], id="argv0"),
        pytest.param(["gap", "--max-window-over-h", "nan"], id="argv1"),
        pytest.param(["gap", "--max-window-over-h", "inf"], id="argv2"),
        pytest.param(["gap", "--initial-window-over-h", "0.5",
                      "--max-window-over-h", "0.2"], id="argv3"),
        pytest.param(["sweep-theta", "--max-window-over-h", "nan"], id="argv4"),
        # a start above the default cap of 10 eta = 3
        pytest.param(["gap", "--initial-window-over-h", "5"], id="argv5"),
        pytest.param(["sweep-theta", "--initial-window-over-h", "5"], id="argv6"),
        pytest.param(["scaling", "--initial-window-over-h", "5"], id="argv7"),
        # a perturbative guess 2h[1 - (1 - 1/N) |J|/h] <= 0: |J|/h >= N/(N - 1)
        pytest.param(["gap", "--j-over-h", "2"], id="argv8"),
        pytest.param(["scaling", "--j-list", "2"], id="argv9")])
    def test_rejected_before_simulating(self, tmp_path, no_simulation, argv):
        out = tmp_path / "x.out"
        assert run(argv + ["--exact", "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv, n, j, guess", [
        pytest.param(["gap", "--j-over-h", "2"], 4, "2", "-1", id="argv0-4"),
        pytest.param(["scaling", "--j-list", "2"], 2, "2", "0", id="argv1-2"),
        # the guess reads |J|, and so does the formula printed beside it
        pytest.param(["gap", "--j-over-h", "-2"], 4, "-2", "-1", id="negative-coupling")])
    def test_non_positive_guess_named(self, tmp_path, no_simulation, capsys, argv, n, j,
                                      guess):
        # the refusal names the guess, not the windows the user never set
        assert run(argv + ["--exact", "--out", str(tmp_path / "x.out")]) == 1
        assert capsys.readouterr().err == (
            f"gaplab: the gap guess 2h[1 - (1 - 1/N) |J|/h] = {guess} is not positive "
            f"at N = {n}, J/h = {j}\n")


class TestOverflowingWidths:
    # every line shape squares its width (eta, or the gaussian sigma) as a float
    @pytest.mark.parametrize("argv", [
        pytest.param(["gap", "--exact", "--eta-over-h", "1e308"], id="gap"),
        pytest.param(["sweep-theta", "--exact", "--filter", "gaussian",
                      "--eta-over-h", "1e200", "--theta-count", "2"], id="sweep-theta"),
        pytest.param(["spectrum", "--exact", "--filter", "lorentzian",
                      "--eta-over-h", "1e200", "--oracle"], id="spectrum"),
        pytest.param(["toy", "--eta-list", "1e200"], id="toy"),
        pytest.param(["depth-bound", "--eta-over-h", "1e308"], id="depth-bound"),
        # below eta ~ 8.4e-155 pi eta^2 is subnormal or 0, where the line
        # shapes would come out inf, NaN or off 1/(pi eta)
        pytest.param(["spectrum", "--exact", "--oracle", "--filter", "lorentzian",
                      "--eta-over-h", "1e-170", "--d-omega-over-h", "0.1"],
                     id="spectrum-lorentzian-underflow"),
        pytest.param(["spectrum", "--exact", "--oracle", "--filter", "gaussian",
                      "--eta-over-h", "1e-170", "--d-omega-over-h", "0.1"],
                     id="spectrum-gaussian-underflow"),
        pytest.param(["toy", "--center", "1e-300", "--eta-list", "1e-301"],
                     id="toy-underflow")])
    def test_refused_in_one_line(self, tmp_path, no_simulation, capsys, argv):
        out = tmp_path / "x.out"
        assert run(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gaplab: broadening ") and err.count("\n") == 1
        assert "pi eta^2 overflows or underflows" in err
        assert not out.exists()


class TestFarOffLineShapes:
    # a line shape far from its center squares a frequency past the float range,
    # where it is 0: no numpy warning reaches stderr
    @pytest.mark.parametrize("argv, code, err", [
        pytest.param(["toy", "--center", "1e307"], 0, "", id="toy"),
        pytest.param(["toy", "--center", "1e306"], 1,
                     "gaplab: no maximum found: broadening too small for the grid\n",
                     id="toy-no-maximum"),
        pytest.param(["spectrum", "--exact", "--filter", "lorentzian",
                      "--eta-over-h", "7e153", "--oracle"], 0, "", id="spectrum")])
    def test_nothing_printed_beyond_the_refusal(self, tmp_path, capsys, argv, code, err):
        assert run(argv + ["--out", str(tmp_path / "x.out")]) == code
        assert capsys.readouterr().err == err


class TestEmptyScans:
    @pytest.mark.parametrize("argv", [
        pytest.param(["toy", "--eta-list", ""], id="argv0"),
        pytest.param(["toy", "--lambda-list", ""], id="argv1"),
        pytest.param(["depth-bound", "--t-points", "0", "--n-points", "0"], id="argv2"),
        pytest.param(["depth-bound", "--n-points", "0"], id="argv3"),
        pytest.param(["depth-bound", "--n-points", "-1"], id="argv4"),
        pytest.param(["depth-bound", "--n-max", "-1"], id="argv5"),
        pytest.param(["sweep-theta", "--theta-list", ""], id="argv6"),
        # integers beyond a float (M^p, N) or beyond int64 (the size grid)
        pytest.param(["gap", "--exact", "--m", str(10**400)], id="argv7"),
        pytest.param(["gap", "--exact", "--p", "4", "--m", str(10**80)], id="argv8"),
        pytest.param(["gap", "--exact", "--n", str(10**400)], id="argv9"),
        pytest.param(["depth-bound", "--n", str(10**400)], id="argv10"),
        pytest.param(["depth-bound", "--n-max", str(10**19)], id="argv11"),
        # scan counts numpy refuses at once: beyond its size limit, or 6.9 EiB
        pytest.param(["depth-bound", "--t-points", str(10**20)], id="argv12"),
        pytest.param(["depth-bound", "--n-points", str(10**20)], id="argv13"),
        pytest.param(["depth-bound", "--t-points", str(10**18)], id="argv14"),
        pytest.param(["depth-bound", "--n-points", str(10**18)], id="argv15"),
        # theta = pi l / 50 repeats with period 100 in l: a count above 100
        # only repeats orientations
        pytest.param(["sweep-theta", "--exact", "--theta-count", "101"], id="argv16"),
        pytest.param(["scaling", "--exact", "--theta-count", "1000"], id="argv17")])
    def test_refused(self, tmp_path, no_simulation, capsys, argv):
        out = tmp_path / "x.out"
        assert run(argv + ["--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("gaplab:") and err.count("\n") == 1

    def test_theta_count_up_to_one_period(self):
        # 100 orientations are one whole period of theta = pi l / 50
        from gaplab.cli import _theta_values
        thetas = _theta_values({"theta_count": 100, "theta_list": None})
        assert len(thetas) == 100 and thetas[-1] == math.pi * 99 / 50 < 2 * math.pi


class TestNegativeSeed:
    @pytest.mark.parametrize("argv", [
        pytest.param(["gap"], id="argv0"),
        pytest.param(["spectrum"], id="argv1"),
        pytest.param(["sweep-theta", "--theta-count", "2"], id="argv2"),
        pytest.param(["scaling", "--exact"], id="argv3"),
        pytest.param(["sweep-theta", "--exact", "--theta-count", "2"], id="argv4"),
        pytest.param(["gap", "--exact"], id="argv5"),
        pytest.param(["spectrum", "--exact"], id="argv6")])
    def test_refused_before_any_propagator(self, tmp_path, monkeypatch, capsys, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("built a propagator for a refused seed")
        monkeypatch.setattr("gaplab.simulator.trotter_propagator", refuse)
        out = tmp_path / "x.out"
        assert run(argv + ["--seed", "-1", "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("gaplab:")


class TestNonIntegerCounts:
    @pytest.mark.parametrize("command, key, value", [
        ("gap", "shots", 10.5), ("gap", "shots", True), ("gap", "seed", 1.5),
        ("spectrum", "seed", 1.5), ("sweep-theta", "seed", 1.5),
        ("sweep-theta", "theta_count", 2.5), ("scaling", "shots", 10.5),
        ("scaling", "seed", 1.5), ("scaling", "theta_count", 2.5)])
    def test_refused_before_any_propagator(self, tmp_path, monkeypatch, capsys,
                                           command, key, value):
        # a fractional shot count would truncate the binomial draw but still
        # divide by the fraction; fractional seeds and counts reach numpy
        def refuse(*args, **kwargs):
            raise AssertionError("built a propagator for a refused setting")
        monkeypatch.setattr("gaplab.simulator.trotter_propagator", refuse)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: value}))
        out = tmp_path / "x.out"
        assert run([command, "--config", str(cfg_file), "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("gaplab:")


class TestBenchmarkReference:
    def test_long_time_exact_within_reference(self, tmp_path, monkeypatch):
        # the quick long_time_exact benchmark command (criterion 6, L = 2800,
        # M = 10000) must reproduce the benchmark's captured exact output by
        # the benchmark's own rule, 1e-12 relative, as every exact-mode change
        checks = perfbench_module("checks", monkeypatch)
        want = json.loads((PERFBENCH / "reference.json").read_text())
        out = tmp_path / "sweep.json"
        assert run(["sweep-theta", "--n", "4", "--j-over-h", "0.4", "--p", "1",
                    "--filter", "lorentzian", "--eta-over-h", "0.02",
                    "--m", "10000", "--exact", "--theta-count", "1",
                    "--out", str(out)]) == 0
        got = checks.comparable(json.loads(out.read_text()))
        assert checks._close(got, want["quick"]["long_time_exact"])

    @pytest.mark.parametrize("workload", ["scaling_shots", "long_time_exact"])
    def test_traced_quick_run_binds_every_boundary(self, tmp_path, monkeypatch,
                                                    workload):
        # the benchmark's tracer wraps module-level names from outside the
        # package (perfbench/tracing.py BOUNDARIES) and binds counters to their
        # signatures; a renamed, moved or re-signed name shows as absent, as a
        # null metric or as a failed run
        workloads = perfbench_module("workloads", monkeypatch)
        argv = workloads.command(workloads.WORKLOADS[workload], 1, quick=True)
        env = dict(os.environ, PYTHONPATH=str(Path(gaplab.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "child.py"),
             json.dumps({"argv": argv, "trace": True})],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["exit"] == 0
        assert result["absent"] == ["cli.spectral_function", "gapfinder.spectral_function",
                                    "simulator.propagator_overlap"]
        assert None not in result["layers"].values()
        # one propagator per positive time: a second build of any U_M(t), or
        # an engine that builds U_M(-t) as well, changes the counts
        layers = result["layers"]
        assert layers["trotter.propagators_per_time"] == 1.0
        assert layers["trotter.propagator_calls"] == {
            "scaling_shots": 748, "long_time_exact": 2799}[workload]


class TestToy:
    def test_toy_table(self, tmp_path):
        out = tmp_path / "toy.csv"
        assert run(["toy", "--lambda-list", "0.5", "--eta-list", "0.06,0.12,0.24",
                    "--out", str(out)]) == 0
        meta, columns, rows = read_table(out)
        assert columns == ["eta", "lambda", "family", "shift"]
        assert len(rows) == 6
        for family in ("lorentzian", "gaussian"):
            shifts = [float(r[3]) for r in rows if r[2] == family]
            assert shifts == sorted(shifts)

    def test_unbounded_bracket_refused(self, tmp_path, capsys):
        # c + 1.5 sep + 2 eta overflows at c = 1e308, sep = 0.6 c
        out = tmp_path / "toy.csv"
        assert run(["toy", "--center", "1e308", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("gaplab: the search bracket ")
        assert not out.exists()

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["toy"])
        assert exc.value.code == 1


def _subparsers():
    parser = build_parser()
    [subs] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subs.choices


def _setting_dests(subparser):
    return {a.dest for a in subparser._actions} - {"help", "config", "out"}


# One small run per subcommand: (arguments, output file name).
SMALL_RUNS = {
    "depth-bound": (["--n", "50", "--t-points", "3", "--t-max", "4",
                     "--n-points", "2", "--n-max", "10"], "depth.csv"),
    "spectrum": ([*FAST_SPECTRUM, "--n", "3", "--oracle"], "spectrum.csv"),
    "gap": ([*FAST_SPECTRUM, "--n", "3"], "gap.json"),
    "sweep-theta": ([*FAST_SPECTRUM, "--n", "3", "--theta-list", "0.2,0.27"],
                    "sweep.json"),
    "scaling": (["--exact", "--j-list", "0.4", "--n-list", "2,3,4",
                 "--theta-count", "5", "--m", "20"], "diagram.csv"),
    "toy": (["--lambda-list", "0.5", "--eta-list", "0.1,0.2"], "toy.csv"),
}


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """Output path of each SMALL_RUNS command; scaling also writes samples.json."""
    outs = {}
    for command, (argv, name) in SMALL_RUNS.items():
        workdir = tmp_path_factory.mktemp(command)
        extra = ["--samples-out", str(workdir / "samples.json")] \
            if command == "scaling" else []
        outs[command] = workdir / name
        assert main([command, *argv, *extra, "--out", str(outs[command])]) == 0
    return outs


class TestSettings:
    """Each subcommand takes a flag for exactly the settings it reads, and
    records exactly those settings in its header."""

    @pytest.mark.parametrize("command", SMALL_RUNS)
    def test_header_keys_are_the_flags(self, small_runs, command):
        header = set(read_config_header(small_runs[command]))
        flags = _setting_dests(_subparsers()[command])
        assert flags <= header
        assert header - flags == set(cli._RECORDED_UNREAD.get(command, {}))

    @pytest.mark.parametrize("command", SMALL_RUNS)
    def test_config_replay_is_byte_identical(self, small_runs, tmp_path, command):
        first = small_runs[command]
        samples = first.parent / "samples.json"
        first_samples = samples.read_bytes() if samples.exists() else None
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(read_config_header(first)))
        replay = tmp_path / first.name
        assert main([command, "--config", str(cfg_file), "--out", str(replay)]) == 0
        assert replay.read_bytes() == first.read_bytes()
        if first_samples is not None:
            assert samples.read_bytes() == first_samples

    @pytest.mark.parametrize("command, argv", [
        pytest.param("depth-bound", ["--p", "1"], id="depth-bound-argv0"),
        pytest.param("depth-bound", ["--m", "35"], id="depth-bound-argv1"),
        pytest.param("depth-bound", ["--filter", "gaussian"], id="depth-bound-argv2"),
        pytest.param("depth-bound", ["--theta-over-pi", "0.27"], id="depth-bound-argv3"),
        pytest.param("depth-bound", ["--shots", "1024"], id="depth-bound-argv4"),
        pytest.param("depth-bound", ["--exact"], id="depth-bound-argv5"),
        pytest.param("depth-bound", ["--seed", "1"], id="depth-bound-argv6"),
        pytest.param("depth-bound", ["--d-omega-over-h", "0.075"], id="depth-bound-argv7"),
        pytest.param("depth-bound", ["--l-points", "188"], id="depth-bound-argv8"),
        pytest.param("depth-bound", ["--initial-window-over-h", "0.6"],
                     id="depth-bound-argv9"),
        pytest.param("depth-bound", ["--max-window-over-h", "3"], id="depth-bound-argv10"),
        pytest.param("spectrum", ["--initial-window-over-h", "0.6"], id="spectrum-argv11"),
        pytest.param("spectrum", ["--max-window-over-h", "3"], id="spectrum-argv12"),
        pytest.param("sweep-theta", ["--theta-over-pi", "0.27"], id="sweep-theta-argv13"),
        pytest.param("scaling", ["--n", "4"], id="scaling-argv14"),
        pytest.param("scaling", ["--j-over-h", "0.4"], id="scaling-argv15"),
        pytest.param("scaling", ["--theta-over-pi", "0.27"], id="scaling-argv16"),
        # no abbreviations: neither the prefix of --n-list nor of --eta-over-h
        pytest.param("scaling", ["--n", "7"], id="scaling-argv17"),
        pytest.param("gap", ["--eta", "0.2"], id="gap-argv18"),
        # --exact and --shots set the same setting
        pytest.param("gap", ["--shots", "64", "--exact"], id="gap-argv19")])
    def test_unread_flags_refused(self, tmp_path, no_simulation, command, argv):
        out = tmp_path / "x.out"
        with pytest.raises(SystemExit) as exc:
            run([command, *argv, "--out", str(out)])
        assert exc.value.code == 1
        assert not out.exists()

    def test_no_subcommand_takes_abbreviations(self):
        assert not any(sp.allow_abbrev for sp in _subparsers().values())

    def test_readme_examples_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
        block = block.split("```", 1)[0].replace("\\\n", " ")
        examples = [shlex.split(line)[1:] for line in block.splitlines()
                    if line.startswith("gaplab ")]
        assert {argv[0] for argv in examples} == set(SMALL_RUNS)
        for argv in examples:
            build_parser().parse_args(argv)


def _float_settings():
    for command, (_, _, settings) in cli._COMMANDS.items():
        for key, default in settings.items():
            if cli._kind(key, default) in (float, [float]):
                yield command, key


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, key", list(_float_settings()))
def test_non_finite_settings_refused(tmp_path, no_simulation, capsys, command, key,
                                     value):
    # every float setting of every subcommand, including ones added later,
    # refused before numpy computes with it (a RuntimeWarning fails the row)
    out = tmp_path / "x.out"
    try:
        code = run([command, "--" + key.replace("_", "-"), value, "--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("gaplab:") or err.startswith("usage:")


def _wrong_typed_settings():
    """(command, setting, value) for values not of the setting's type; null
    passes only where the default is None, and for shots."""
    wrong = {int: [2.5, True], float: ["0.3", True], str: [7, True], bool: ["no", 1]}
    for command in cli._COMMANDS:
        for key, default in cli._settings(command).items():
            kind = cli._kind(key, default)
            values = [5, "2,3", [True], [wrong[kind[0]][0]]] \
                if isinstance(kind, list) else wrong[kind]
            for value in values + ([None] if default is not None and key != "shots"
                                   else []):
                yield command, key, value


@pytest.mark.parametrize("command, key, value", list(_wrong_typed_settings()))
def test_wrong_typed_config_value_refused(tmp_path, monkeypatch, capsys, command, key,
                                          value):
    # every setting of every subcommand: a --config value of another type than
    # its flag's (samples_out 7 would open file descriptor 7) exits 1 with one
    # line and no traceback, before any propagator is built
    def refuse(*args, **kwargs):
        raise AssertionError("built a propagator for a refused setting")
    monkeypatch.setattr("gaplab.simulator.trotter_propagator", refuse)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({key: value}))
    assert run([command, "--config", str(cfg_file), "--out",
                str(tmp_path / "x.out")]) == 1
    assert list(tmp_path.iterdir()) == [cfg_file]
    assert capsys.readouterr().err.startswith(f"gaplab: setting {key} takes ")


def _unwritable_outputs():
    """(command, output flag, path) for every output of every subcommand: a
    path in a directory that does not exist, the empty path, and an existing
    directory ("sub", made by the test)."""
    for command in cli._COMMANDS:
        for flag in ["--out"] + (["--samples-out"] if "samples_out" in
                                 cli._settings(command) else []):
            for path in ("missing/x", "", "sub"):
                yield command, flag, path


@pytest.mark.parametrize("command, flag, path", list(_unwritable_outputs()))
def test_unwritable_output_refused(tmp_path, no_simulation, capsys, command, flag,
                                   path):
    # refused before any work: exit 1 with one line and no traceback, and no
    # output written (a bad --samples-out leaves no diagram.csv either)
    (tmp_path / "sub").mkdir()
    argv = [command, flag, str(tmp_path / path) if path else ""]
    if flag != "--out":
        argv += ["--out", str(tmp_path / "diagram.csv")]
    assert run(argv) == 1
    assert list(tmp_path.iterdir()) == [tmp_path / "sub"]
    assert list((tmp_path / "sub").iterdir()) == []
    err = capsys.readouterr().err
    assert err.startswith("gaplab: ") and err.count("\n") == 1


@pytest.mark.parametrize("samples_out", ["same.csv", "./same.csv"])
def test_samples_out_naming_the_diagram_refused(tmp_path, no_simulation, capsys,
                                                monkeypatch, samples_out):
    # the samples JSON would overwrite the phase diagram: refused before any work,
    # however the one file is spelled
    monkeypatch.chdir(tmp_path)
    assert run(["scaling", "--exact", "--j-list", "0.4", "--n-list", "2,3,4",
                "--theta-count", "3", "--samples-out", samples_out,
                "--out", str(tmp_path / "same.csv")]) == 1
    assert list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert err.startswith("gaplab: ") and err.count("\n") == 1


def test_write_error_reported_in_one_line(tmp_path, capsys):
    # a path that passes the checks but cannot be opened: a dangling symlink
    # into a directory that does not exist
    link = tmp_path / "toy.csv"
    link.symlink_to(tmp_path / "missing" / "toy.csv")
    assert run(["toy", "--lambda-list", "0.5", "--eta-list", "0.1",
                "--out", str(link)]) == 1
    assert not (tmp_path / "missing").exists()
    err = capsys.readouterr().err
    assert err.startswith("gaplab: ") and err.count("\n") == 1


def test_int_config_value_passes_for_float(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"center": 2, "lambda_list": [1]}))
    assert run(["toy", "--config", str(cfg_file), "--eta-list", "0.1",
                "--out", str(tmp_path / "toy.csv")]) == 0
    assert read_config_header(tmp_path / "toy.csv")["center"] == 2


def test_runs_load_no_scipy(tmp_path):
    # scipy is a test-side oracle only: a shot-mode scaling run (the t
    # quantile) and a toy run (the peak search) must not import any of it
    scaling_argv = ["scaling", "--j-list", "0.4", "--n-list", "2,3,4", "--shots", "64",
                    "--theta-count", "3", "--m", "20",
                    "--out", str(tmp_path / "diagram.csv")]
    toy_argv = ["toy", "--lambda-list", "0.5", "--eta-list", "0.1",
                "--out", str(tmp_path / "toy.csv")]
    env = dict(os.environ, PYTHONPATH=str(Path(gaplab.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; from gaplab.cli import main; "
         f"assert main({scaling_argv!r}) == 0 and main({toy_argv!r}) == 0; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
    assert (tmp_path / "diagram.csv").exists() and (tmp_path / "toy.csv").exists()
