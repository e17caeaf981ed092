import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from paircond import cli, gp, pairing, spectral
from paircond import geometry as geo
from paircond.grid import Grid
from paircond.reporting import FitError, fit_power_law
from paircond.spectral import onset_threshold, smallest_eigenpair


class TestFitPowerLaw:
    def test_exact_quadratic(self):
        x = np.array([0.5, 1.0, 2.0, 4.0])
        fit = fit_power_law(x, 3.0 * x**2)
        assert abs(fit.exponent - 2.0) < 1e-12
        assert abs(fit.prefactor - 3.0) < 1e-12
        assert not fit.refused

    def test_noisy_linear(self):
        rng = np.random.default_rng(0)
        x = np.linspace(0.5, 2.0, 12)
        y = x + rng.normal(0, 1e-6, x.size)
        fit = fit_power_law(x, y)
        assert abs(fit.exponent - 1.0) < 0.01

    def test_constant_refused(self):
        x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        fit = fit_power_law(x, np.full(5, 2.0) * (1 + 0.5 * np.sin(x)))
        assert fit.refused

    def test_degenerate_rows(self):
        with pytest.raises(FitError):
            fit_power_law([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(FitError):
            fit_power_law([1.0, 2.0], [1.0, 2.0])

    def test_linear_model(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        fit = fit_power_law(x, 2.0 + 0.5 * x, model="linear")
        assert abs(fit.exponent - 0.5) < 1e-12
        assert abs(fit.prefactor - 2.0) < 1e-12


class TestRun:
    def test_dc_report(self, tmp_path):
        cfg = {"domain": {"builtin": "interval", "a": 0.0, "b": 1.0, "n": 2001},
               "w": None}
        code = cli.run("dc", cfg, str(tmp_path))
        assert code == 0
        with open(tmp_path / "report.json") as fh:
            payload = json.load(fh)
        assert abs(payload["summary"]["dc"] - 2.4674) < 1e-3
        assert payload["config"] == cfg  # config echo

    def test_config_echo_round_trip(self, tmp_path):
        cfg = {"domain": {"builtin": "interval", "a": 0.0, "b": 1.0, "n": 801},
               "w": None}
        assert cli.run("dc", cfg, str(tmp_path / "a")) == 0
        with open(tmp_path / "a" / "report.json") as fh:
            echoed = json.load(fh)["config"]
        assert cli.run("dc", echoed, str(tmp_path / "b")) == 0
        with open(tmp_path / "a" / "report.json") as fh:
            s1 = json.load(fh)["summary"]
        with open(tmp_path / "b" / "report.json") as fh:
            s2 = json.load(fh)["summary"]
        assert s1 == s2

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = {"domain": {"builtin": "interval"}, "w": None, "extra": 1}
        assert cli.run("dc", cfg, str(tmp_path)) == 2
        assert not os.path.exists(tmp_path / "report.json")

    def test_missing_potential_rejected(self, tmp_path):
        cfg = {"a": 0.0, "b": 1.0, "h_list": [0.1, 0.07, 0.05]}
        assert cli.run("twobody-scan", cfg, str(tmp_path)) == 2
        assert not os.path.exists(tmp_path / "report.json")

    def test_solver_failure_is_exit_3(self, tmp_path):
        cfg = {"potential": {"kind": "gaussian_well", "depth": -1.0},
               "L": 10.0, "n": 401}
        assert cli.run("relative", cfg, str(tmp_path)) == 3

    def test_relative_summary(self, tmp_path):
        cfg = {"potential": {"kind": "poschl_teller", "depth": 2.0},
               "L": 20.0, "n": 2001}
        assert cli.run("relative", cfg, str(tmp_path)) == 0
        with open(tmp_path / "report.json") as fh:
            summary = json.load(fh)["summary"]
        assert abs(summary["E_b"] - 1.0) < 1e-3
        assert abs(summary["rho_star"] - 1.0) < 0.02

    def test_reproducible_csv(self, tmp_path):
        cfg = {
            "domain": {"builtin": "interval", "a": 0.0, "b": 1.0,
                       "n": 401, "margin": 0.3},
            "w": None, "D_offset": 1.0, "g": 1.0,
            "ells": [0.02, 0.04, 0.06],
        }
        assert cli.run("continuity", cfg, str(tmp_path / "r1")) == 0
        assert cli.run("continuity", cfg, str(tmp_path / "r2")) == 0
        b1 = (tmp_path / "r1" / "rows.csv").read_bytes()
        b2 = (tmp_path / "r2" / "rows.csv").read_bytes()
        assert b1 == b2

    def test_continuity_solves_one_onset(self, tmp_path, monkeypatch):
        # the set-up's onset mode serves the base minimization, and the
        # eroded and dilated masks start from the base minimizer
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return onset_threshold(*args, **kwargs)

        monkeypatch.setattr(cli, "onset_threshold", counting)
        monkeypatch.setattr(gp, "onset_threshold", counting)
        cfg = {"domain": {"builtin": "slit_square", "n": 41}, "w": None,
               "D_offset": 1.0, "ells": [0.03, 0.05, 0.07]}
        assert cli.run("continuity", cfg, str(tmp_path)) == 0
        assert len(calls) == 1

    def test_mask_file_domain(self, tmp_path):
        mask = geo.interval(0.0, 1.0, grid=Grid.box(0.0, 1.0, 801))
        mask_path = tmp_path / "mask.json"
        mask_path.write_text(geo.mask_to_json(mask))
        cfg = {"domain": {"mask_file": str(mask_path)}, "w": None}
        assert cli.run("dc", cfg, str(tmp_path / "out")) == 0
        with open(tmp_path / "out" / "report.json") as fh:
            assert abs(json.load(fh)["summary"]["dc"] - 2.4674) < 5e-3

    def test_gp_min_experiment(self, tmp_path):
        cfg = {"domain": {"builtin": "interval", "n": 801}, "w": None,
               "D_offset": 1.0, "g": 1.0}
        assert cli.run("gp-min", cfg, str(tmp_path)) == 0
        with open(tmp_path / "report.json") as fh:
            s = json.load(fh)["summary"]
        assert s["energy"] < 0
        assert s["energy"] <= s["one_mode_energy"] + 1e-12

    def test_hardy_experiment(self, tmp_path):
        cfg = {"domain": {"builtin": "interval", "a": 0.0, "b": 1.0,
                          "margin": 0.25}, "n_list": [101, 201]}
        assert cli.run("hardy", cfg, str(tmp_path)) == 0
        with open(tmp_path / "report.json") as fh:
            s = json.load(fh)["summary"]
        assert s["mu_max"] <= 4.0

    def test_bcs_trial_experiment(self, tmp_path):
        cfg = {
            "domain": {"builtin": "interval", "a": 0.0, "b": 4.0, "n": 604,
                       "margin": 0.05},
            "w": None,
            "potential": {"kind": "poschl_teller", "depth": 2.0},
            "D": 2.0, "q": 1.5, "amplitude": 0.3,
            "h_list": [0.1, 0.07, 0.05],
        }
        assert cli.run("bcs-trial", cfg, str(tmp_path)) == 0
        with open(tmp_path / "report.json") as fh:
            fits = json.load(fh)["fits"]
        assert fits["difference"]["exponent"] >= 0.8
        assert (tmp_path / "rows.csv").exists()

    def test_semiclassics_experiment(self, tmp_path):
        cfg = {
            "domain": {"builtin": "interval", "a": 0.0, "b": 4.0, "n": 604,
                       "margin": 0.05},
            "w": {"kind": "bump", "height": 10.0, "center": 2.0, "width": 0.5},
            "potential": {"kind": "poschl_teller", "depth": 2.0},
            "D": 1.0, "q": 1.0, "amplitude": 0.5,
            "h_list": [0.1, 0.07, 0.05],
        }
        assert cli.run("semiclassics", cfg, str(tmp_path)) == 0
        with open(tmp_path / "report.json") as fh:
            fits = json.load(fh)["fits"]
        assert fits["field"]["exponent"] >= 0.8

    def test_density_experiment(self, tmp_path):
        cfg = {
            "domain": {"builtin": "interval", "a": 0.0, "b": 4.0, "n": 604,
                       "margin": 0.05},
            "w": None,
            "potential": {"kind": "poschl_teller", "depth": 2.0},
            "D_offset": 1.0, "q": 1.5,
            "h_list": [0.1, 0.07, 0.05],
        }
        assert cli.run("density", cfg, str(tmp_path)) == 0
        with open(tmp_path / "report.json") as fh:
            s = json.load(fh)["summary"]
        assert s["monotone"] is True

    def test_twobody_scan_keeps_threshold(self, tmp_path):
        # the linear fit named "threshold" goes under "fits" and must not
        # replace the domain threshold D_c in the summary
        cfg = {"potential": {"kind": "poschl_teller", "depth": 2.0},
               "a": 0.0, "b": 1.0, "h_list": [0.1, 0.07, 0.05],
               "micro_step": 0.125, "q": 1.5}
        assert cli.run("twobody-scan", cfg, str(tmp_path)) == 0
        with open(tmp_path / "report.json") as fh:
            payload = json.load(fh)
        threshold = payload["summary"]["threshold"]
        assert isinstance(threshold, float)
        assert abs(threshold - np.pi**2 / 4) < 5e-3
        assert payload["fits"]["threshold"]["model"] == "linear"

    def test_mask_json_with_convex_hint_loads(self, tmp_path):
        # mask files written by older versions carry a "convex_hint" field
        text = json.dumps({"dim": 1, "lower": [0.0], "upper": [1.0],
                           "n": [801], "inside": [1, 799, 1],
                           "convex_hint": True})
        mask = geo.mask_from_json(text)
        assert mask.count == 799
        mask_path = tmp_path / "mask.json"
        mask_path.write_text(text)
        cfg = {"domain": {"mask_file": str(mask_path)}, "w": None}
        assert cli.run("dc", cfg, str(tmp_path / "out")) == 0
        with open(tmp_path / "out" / "report.json") as fh:
            assert abs(json.load(fh)["summary"]["dc"] - 2.4674) < 5e-3

    def test_twobody_scan_rejects_w(self, tmp_path):
        cfg = {"potential": {"kind": "poschl_teller", "depth": 2.0},
               "h_list": [0.1, 0.07, 0.05],
               "w": {"kind": "constant", "value": 1.0}}
        assert cli.run("twobody-scan", cfg, str(tmp_path)) == 2
        assert not os.path.exists(tmp_path / "report.json")

    @pytest.mark.parametrize("experiment", ["gp-min", "continuity",
                                            "bcs-trial", "density"])
    def test_d_and_d_offset_rejected(self, tmp_path, capsys, experiment):
        cfg = {"domain": {"builtin": "interval", "n": 101}, "w": None,
               "D": 2.0, "D_offset": 1.0}
        if experiment == "continuity":
            cfg["ells"] = [0.02, 0.04, 0.06]
        if experiment in ("bcs-trial", "density"):
            cfg["potential"] = {"kind": "poschl_teller", "depth": 2.0}
            cfg["h_list"] = [0.1, 0.07, 0.05]
        assert cli.run(experiment, cfg, str(tmp_path)) == 2
        assert "either D or D_offset" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "report.json")

    @pytest.mark.parametrize("experiment, cfg", [
        ("dc", {"domain": {"builtin": "interval", "n": "abc"}, "w": None}),
        ("dc", {"domain": {"builtin": "box", "n": "abc"}, "w": None}),
        ("dc", {"domain": {"builtin": "interval", "n": 1e300}, "w": None}),
        ("dc", {"domain": {"builtin": "interval", "a": float("nan")},
                "w": None}),
        ("dc", {"domain": {"builtin": "disk", "center": 0.5}, "w": None}),
        ("dc", {"domain": {"builtin": ["interval"]}, "w": None}),
        ("dc", {"domain": {"mask_file": ["mask.json"]}, "w": None}),
        ("dc", {"domain": {"builtin": "interval", "n": 201},
                "w": {"kind": "bump", "height": "x"}}),
        ("dc", {"domain": {"builtin": "interval", "n": 201},
                "w": {"kind": "constant", "value": float("inf")}}),
        ("dc", {"domain": {"builtin": "interval", "n": 201}, "w": None,
                "tol": float("nan")}),
        ("relative", {"potential": {"kind": "poschl_teller"}, "n": [401]}),
        ("continuity", {"domain": {"builtin": "interval", "n": 201},
                        "w": None, "ells": ["x"]}),
        ("twobody-scan", {"potential": {"kind": "poschl_teller"},
                          "h_list": [0.1, 0.07, float("nan")]}),
        ("hardy", {"domain": "interval"}),
        ("hardy", {"domain": {"builtin": "interval"}, "n_list": []}),
        ("density", {"domain": {"builtin": "interval", "n": 201}, "w": None,
                     "potential": {"kind": "poschl_teller"}, "h_list": []}),
        ("twobody-scan", {"potential": {"kind": "poschl_teller"},
                          "h_list": [0.2, 0.15, 0.1], "richardson": "false"}),
        ("twobody-scan", {"potential": {"kind": "poschl_teller"},
                          "h_list": [0.2, 0.15, 0.1], "richardson": 0}),
        ("dc", {"domain": {"builtin": "interval", "n": 1e12}, "w": None}),
        ("dc", {"domain": {"builtin": "box", "n": [1e6, 1e6]}, "w": None}),
        ("relative", {"potential": {"kind": "poschl_teller"}, "n": 1e12}),
        ("twobody-scan", {"potential": {"kind": "poschl_teller"},
                          "h_list": [0.2, 0.15, 0.001]}),
        ("twobody-scan", {"potential": {"kind": "poschl_teller"},
                          "h_list": [0.2, 0.15, 0.0]}),
        ("twobody-scan", {"potential": {"kind": "poschl_teller"},
                          "h_list": [0.2, 0.15, 1e-300]}),
        ("twobody-scan", {"potential": {"kind": "poschl_teller"},
                          "h_list": [0.2, 0.15, 1e300]}),
        ("bcs-trial", {"domain": {"builtin": "interval", "n": 200}, "w": None,
                       "potential": {"kind": "poschl_teller"},
                       "h_list": [0.1, 0.07, 1e-9]}),
        ("relative", {"potential": {"kind": "poschl_teller"}, "L": 1e300,
                      "n": 801}),
        ("twobody-scan", {"potential": {"kind": "poschl_teller"},
                          "h_list": [0.2, 0.15, 0.1], "micro_step": 0}),
        ("bcs-trial", {"domain": {"builtin": "interval", "n": 200}, "w": None,
                       "potential": {"kind": "poschl_teller"}, "q": 0,
                       "h_list": [0.2, 0.15, 0.1]}),
        ("dc", {"domain": {"builtin": "interval", "a": None}, "w": None}),
        # bad parameters inside the potential
        ("relative", {"potential": {"kind": "poschl_teller", "depth": "x"}}),
        ("relative", {"potential": {"kind": "poschl_teller", "depth": None}}),
        ("relative", {"potential": {"kind": "square_well", "depth": 1.0,
                                    "halfwidth": []}}),
        ("relative", {"potential": {"kind": "square_well"}}),
        ("relative", {"potential": {"kind": "table", "x": "ab",
                                    "v": [-1.0, 0.0]}}),
        ("relative", {"potential": {"kind": "table", "x": [0.0, 2.0, 1.0],
                                    "v": [-1.0, -1.0, 0.0]}}),
        ("relative", {"potential": {"kind": "poschl_teller", "width": 0}}),
        ("relative", {"potential": {"kind": "poschl_teller",
                                    "depth": float("nan")}}),
        # tolerances, couplings and widths that must be positive
        ("dc", {"domain": {"builtin": "interval", "n": 201}, "w": None,
                "tol": 0}),
        ("relative", {"potential": {"kind": "poschl_teller"}, "tol": -1e-10}),
        ("gp-min", {"domain": {"builtin": "interval", "n": 201}, "w": None,
                    "tol": -1}),
        ("continuity", {"domain": {"builtin": "slit_square", "n": 41},
                        "w": None, "ells": [0.03], "tol": 0}),
        ("twobody-scan", {"potential": {"kind": "poschl_teller"},
                          "h_list": [0.2, 0.15, 0.1], "tol": 0}),
        ("hardy", {"domain": {"builtin": "interval", "margin": 0.25},
                   "n_list": [101], "tol": 0}),
        ("gp-min", {"domain": {"builtin": "interval", "n": 201}, "w": None,
                    "g": 0}),
        ("continuity", {"domain": {"builtin": "slit_square", "n": 41},
                        "w": None, "g": -1, "ells": [0.03]}),
        ("dc", {"domain": {"builtin": "interval", "n": 201},
                "w": {"kind": "bump", "width": 0}}),
        # ells that the domain cannot take, refused before the first solve
        ("continuity", {"domain": {"builtin": "slit_square", "n": 41},
                        "w": None, "ells": [0.03, -1]}),
        ("continuity", {"domain": {"builtin": "slit_square", "n": 41},
                        "w": None, "ells": [0.03, 1e300]}),
        ("continuity", {"domain": {"builtin": "slit_square", "n": 41},
                        "w": None, "ells": [0.03, 0.15]}),
    ])
    def test_bad_values_exit_2(self, tmp_path, capsys, experiment, cfg):
        assert cli.run(experiment, cfg, str(tmp_path)) == 2
        assert "config error" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "report.json")

    @pytest.mark.parametrize("experiment", ["bcs-trial", "density",
                                            "semiclassics"])
    def test_pair_kernel_budget(self, tmp_path, capsys, experiment):
        # 10^5 nodes pass the grid budget; the 10^10-entry kernels must not
        cfg = {"domain": {"builtin": "interval", "a": 0.0, "b": 4.0,
                          "n": 100_001},
               "w": {"kind": "bump", "height": 10.0, "center": 2.0},
               "potential": {"kind": "poschl_teller"}, "D": 1.0,
               "h_list": [0.1, 0.07, 0.05]}
        assert cli.run(experiment, cfg, str(tmp_path)) == 2
        assert "pair kernels" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "report.json")

    @pytest.mark.parametrize("experiment, key, value, code, message", [
        # overflow in the kernel traces: rows and fits of nan
        ("semiclassics", "amplitude", 1e300, 3, "non-finite numbers in row 0"),
        # micro steps the 17-node floor of the product grid would override
        ("twobody-scan", "micro_step", 1e300, 2, "leaves 1 of the 17"),
        ("twobody-scan", "micro_step", 0.5, 2, "leaves 11 of the 17"),
        # config values that empty the eroded or the given domain
        ("twobody-scan", "q", 1e300, 2, "leaves no nodes"),
        ("bcs-trial", ("domain", "b"), 0, 2, "no inside nodes"),
        ("semiclassics", ("domain", "b"), 0, 2, "no inside nodes"),
        # the single-mode start overflows (was an OverflowError traceback)
        ("continuity", "D_offset", 1e300, 3, "single-mode energy overflows"),
        # huge kernels: the admissibility norm bound takes no power of the
        # row sums, which would overflow a Python float
        ("bcs-trial", "amplitude", 1e200, 3, "too large for admissibility"),
        ("bcs-trial", "amplitude", 1e300, 3, "too large for admissibility"),
        # a well so deep that its state is too narrow for the decay fit; the
        # eigensolver's residual check must not overflow before the fit
        ("relative", ("potential", "depth"), 1e300, 3, "fit window"),
    ])
    def test_exit_code_of_degenerate_values(self, tmp_path, capsys, experiment,
                                            key, value, code, message):
        cfg = json.loads(json.dumps(FUZZ_BASE[experiment]))
        if isinstance(key, tuple):
            cfg[key[0]][key[1]] = value
        else:
            cfg[key] = value
        assert cli.run(experiment, cfg, str(tmp_path)) == code
        err = capsys.readouterr().err
        kind = "solver error: " if code == 3 else "config error: "
        assert kind in err and message in err
        assert "Traceback" not in err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("bump, well", [
        # the sum of squares in the eigensolver's residual norm must not
        # overflow
        ({"height": 1e300, "center": 0.5, "width": 0.2}, None),
        # width**2 underflows to 0 (or nearly: r2 / width**2 overflows off
        # the centre): the bump is node 100 at height 1, with no 0/0 there
        ({"center": 0.5, "width": 1e-200}, 100),
        ({"center": 0.5, "width": 1e-160}, 100),
    ])
    def test_dc_of_extreme_bump(self, tmp_path, capsys, bump, well):
        cfg = {"domain": {"builtin": "interval", "n": 201},
               "w": {"kind": "bump", **bump}}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.run("dc", cfg, str(tmp_path))
        err = capsys.readouterr().err
        assert code == 0, err
        assert err == "" and not caught
        with open(tmp_path / "report.json") as fh:
            dc = json.load(fh)["summary"]["dc"]
        # -(1/4) Lap + W on the 199 interior nodes of the unit interval
        x = np.linspace(0.0, 1.0, 201)[1:-1]
        if well is None:
            w = bump["height"] * np.exp(-(x - 0.5) ** 2 / 0.2**2)
        else:
            w = np.zeros(x.size)
            w[well - 1] = 1.0
        dx2 = (1.0 / 200) ** 2
        ref = eigvalsh_tridiagonal(0.5 / dx2 + w, np.full(x.size - 1, -0.25 / dx2),
                                   select="i", select_range=(0, 0))[0]
        assert abs(dc - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("depth", [-5e4, -1e5, -2e5])
    def test_dc_of_narrow_well(self, tmp_path, capsys, depth):
        # a one-node well on 10001 nodes: the Gershgorin shift sits near the
        # well depth, so far below lambda_1 that 400 LU solves did not
        # converge; the Sturm-bisection shift converges at ARPACK's floor
        cfg = {"domain": {"builtin": "interval", "n": 10001},
               "w": {"kind": "bump", "height": depth, "center": 0.5,
                     "width": 1e-6}}
        code = cli.run("dc", cfg, str(tmp_path))
        assert code == 0, capsys.readouterr().err
        with open(tmp_path / "report.json") as fh:
            summary = json.load(fh)["summary"]
        assert summary["iterations"] <= 25
        # -(1/4) Lap + W on the 9999 interior nodes; the well is node 5000
        w = np.zeros(9999)
        w[4999] = depth
        dx2 = 1e-4**2
        ref = eigvalsh_tridiagonal(0.5 / dx2 + w, np.full(9998, -0.25 / dx2),
                                   select="i", select_range=(0, 0),
                                   tol=np.finfo(float).tiny)[0]
        assert abs(summary["dc"] - ref) <= 1e-10 * abs(ref)

    @pytest.mark.parametrize("amplitude", [1e150, 1e200, 1e300])
    def test_bcs_trial_overflow_is_quiet(self, tmp_path, capfd, amplitude):
        # psi^4 of the GP energy, a a of the trial state and s^4 of the
        # admissibility spectrum overflow; the state is refused, and nothing
        # but the solver error reaches stderr
        cfg = json.loads(json.dumps(FUZZ_BASE["bcs-trial"]))
        cfg["amplitude"] = amplitude
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.run("bcs-trial", cfg, str(tmp_path))
        err = capfd.readouterr().err
        assert code == 3
        assert err.startswith("solver error: ") and err.count("\n") == 1
        assert "too large for admissibility" in err
        assert not caught, [str(w.message) for w in caught]

    @pytest.mark.parametrize("amplitude", [1e150, 1e200, 1e300])
    def test_semiclassics_overflow_is_quiet(self, tmp_path, capfd, amplitude):
        # psi^4 of the field norms and the traces on the kernel band
        # overflow; the rows of inf and nan are refused, and nothing but the
        # solver error reaches stderr
        cfg = json.loads(json.dumps(FUZZ_BASE["semiclassics"]))
        cfg["amplitude"] = amplitude
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.run("semiclassics", cfg, str(tmp_path))
        err = capfd.readouterr().err
        assert code == 3
        assert err.startswith("solver error: ") and err.count("\n") == 1
        assert "non-finite numbers in row 0" in err
        assert not caught, [str(w.message) for w in caught]
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("experiment", ["gp-min", "continuity", "density"])
    @pytest.mark.parametrize("offset", [1e150, 1e200, 1e300])
    def test_gp_overflow_is_quiet(self, tmp_path, capfd, experiment, offset):
        # psi^4 and the residual's sum of squares overflow at the
        # single-mode start, or the single-mode energy itself; the run is
        # refused, and nothing but the solver error reaches stderr
        cfg = json.loads(json.dumps(FUZZ_BASE[experiment]))
        cfg["D_offset"] = offset
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.run(experiment, cfg, str(tmp_path))
        err = capfd.readouterr().err
        assert code == 3
        assert err.startswith("solver error: ") and err.count("\n") == 1
        assert "overflows" in err
        assert not caught, [str(w.message) for w in caught]
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("experiment,key", [
        ("semiclassics", "amplitude"), ("semiclassics", "D"),
        ("bcs-trial", "amplitude"), ("bcs-trial", "D")])
    def test_pair_state_keys_refused_before_any_solve(
            self, tmp_path, capsys, monkeypatch, experiment, key):
        calls = []

        def no_solve(name):
            def record(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} ran")
            return record

        monkeypatch.setattr(cli, "onset_threshold", no_solve("onset"))
        monkeypatch.setattr(pairing, "solve_relative", no_solve("relative"))
        monkeypatch.setattr(pairing, "matched_relative_state",
                            no_solve("matched"))
        cfg = json.loads(json.dumps(FUZZ_BASE[experiment]))
        cfg[key] = "x"
        assert cli.run(experiment, cfg, str(tmp_path)) == 2
        assert f"config error: {key} " in capsys.readouterr().err
        assert calls == []

    def test_unresolved_bound_state_names_the_grid(self, tmp_path, capsys):
        # depth 1e300: the bound state decays within 1e-150, far inside one
        # spacing of the 801-node box on [-16, 16]
        cfg = json.loads(json.dumps(FUZZ_BASE["relative"]))
        cfg["potential"]["depth"] = 1e300
        assert cli.run("relative", cfg, str(tmp_path)) == 3
        err = capsys.readouterr().err
        assert ("solver error: the bound state's decay length 1e-150 is "
                "below the grid spacing 0.04") in err
        assert "raise n or lower L" in err

    @pytest.mark.parametrize("experiment", ["gp-min", "hardy"])
    def test_tol_ceiling(self, tmp_path, capsys, experiment):
        # tol: 1e300 made gp-min report the single-mode energy after 0
        # Newton steps
        cfg = json.loads(json.dumps(FUZZ_BASE[experiment]))
        cfg["tol"] = 1e300
        assert cli.run(experiment, cfg, str(tmp_path / "loose")) == 2
        err = capsys.readouterr().err
        assert "config error: tol" in err and "at most" in err
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / "loose")
        # just under the ceiling the solvers still converge
        results = {}
        for tol in (0.99 * cli.MAX_TOL, FUZZ_BASE[experiment]["tol"]):
            cfg["tol"] = tol
            assert cli.run(experiment, cfg, str(tmp_path / repr(tol))) == 0
            with open(tmp_path / repr(tol) / "report.json") as fh:
                results[tol] = json.load(fh)["summary"]
        loose, tight = results.values()
        if experiment == "gp-min":
            assert loose["iterations"] >= 1
            assert loose["energy"] < loose["one_mode_energy"]
            gap = abs(loose["energy"] - tight["energy"])
            assert gap < 1e-6 * abs(tight["energy"])
        else:
            rel = abs(loose["mu_max"] - tight["mu_max"]) / tight["mu_max"]
            assert rel < 5 * cli.MAX_TOL

    @pytest.mark.parametrize("w", [
        {"kind": "bump", "height": 0.0, "center": 1.0, "width": 0.5},
        {"kind": "constant", "value": 0.0},
    ])
    def test_zero_field_refused_before_solves(self, tmp_path, capsys,
                                              monkeypatch, w):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return smallest_eigenpair(*args, **kwargs)

        monkeypatch.setattr(spectral, "smallest_eigenpair", counting)
        monkeypatch.setattr(pairing, "smallest_eigenpair", counting)
        cfg = json.loads(json.dumps(FUZZ_BASE["semiclassics"]))
        cfg["w"] = w
        assert cli.run("semiclassics", cfg, str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "config error: w must be nonzero" in err
        assert "Traceback" not in err
        assert calls == []
        assert not os.listdir(tmp_path)

    def test_import_leaves_interpolate_unloaded(self):
        # scipy.interpolate, with the scipy.optimize it loads, is imported
        # only when a spline is first evaluated
        code = ("import sys; from paircond import cli; "
                "print(sorted(m for m in ('scipy.interpolate', "
                "'scipy.optimize') if m in sys.modules))")
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        path = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path})
        assert out.stdout.strip() == "[]"

    def test_main_entry(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"domain": {"builtin": "interval", "n": 801}, "w": None}))
        code = cli.main(["dc", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == 0

    def test_main_bad_json(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert cli.main(["dc", "--config", str(cfg_path)]) == 2


# small valid configs; each fuzz example replaces one key of one of them.
# Every combination runs in milliseconds and allocates no large array.
FUZZ_BASE = {
    "relative": {"potential": {"kind": "poschl_teller", "depth": 2.0},
                 "L": 16.0, "n": 801},
    "twobody-scan": {"potential": {"kind": "poschl_teller", "depth": 2.0},
                     "a": 0.0, "b": 1.0, "h_list": [0.2, 0.15, 0.1],
                     "micro_step": 0.25, "q": 1.5},
    "bcs-trial": {"domain": {"builtin": "interval", "a": 0.0, "b": 2.0,
                             "n": 121, "margin": 0.05},
                  "w": None, "potential": {"kind": "poschl_teller"},
                  "D": 2.0, "q": 1.5, "amplitude": 0.3,
                  "h_list": [0.2, 0.15, 0.1]},
    "semiclassics": {"domain": {"builtin": "interval", "a": 0.0, "b": 2.0,
                                "n": 121, "margin": 0.05},
                     "w": {"kind": "bump", "height": 10.0, "center": 1.0,
                           "width": 0.5},
                     "potential": {"kind": "poschl_teller"},
                     "D": 1.0, "q": 1.0, "amplitude": 0.5,
                     "h_list": [0.2, 0.15, 0.1]},
    "continuity": {"domain": {"builtin": "slit_square", "n": 41}, "w": None,
                   "D_offset": 1.0, "g": 1.0, "ells": [0.03, 0.07, 0.11]},
    "dc": {"domain": {"builtin": "interval", "n": 201},
           "w": {"kind": "bump", "height": 10.0, "center": 0.5, "width": 0.2},
           "tol": 1e-10},
    "gp-min": {"domain": {"builtin": "interval", "n": 201}, "w": None,
               "D_offset": 1.0, "g": 1.0, "tol": 1e-9},
    "hardy": {"domain": {"builtin": "interval", "margin": 0.25},
              "lambda_offset": 0.0, "n_list": [51, 101], "tol": 1e-8},
    "density": {"domain": {"builtin": "interval", "a": 0.0, "b": 2.0,
                           "n": 121, "margin": 0.05},
                "w": None, "potential": {"kind": "poschl_teller"},
                "D_offset": 1.0, "q": 1.5, "h_list": [0.2, 0.15, 0.1]},
}
# every key of every base, and the nested keys below
FUZZ_KEYS = [(exp, key) for exp, base in FUZZ_BASE.items() for key in base]
FUZZ_KEYS += [(exp, ("domain", key)) for exp in ("bcs-trial", "semiclassics")
              for key in ("a", "b", "n")]
FUZZ_KEYS += [("continuity", ("domain", "n"))]
FUZZ_KEYS += [(exp, ("potential", key)) for exp, base in FUZZ_BASE.items()
              if "potential" in base for key in ("depth", "width")]
FUZZ_KEYS += [(exp, ("w", key)) for exp in ("dc", "semiclassics")
              for key in ("height", "width")]
FUZZ_VALUES = [None, "x", [], {}, -1, 0, 1e300, [1e300]]


def run_fuzzed(experiment, key, value):
    """Exit code and stderr of the fuzz base of ``experiment`` with one key
    (a name, or a (section, name) pair) set to ``value``."""
    cfg = json.loads(json.dumps(FUZZ_BASE[experiment]))
    if isinstance(key, tuple):
        cfg[key[0]][key[1]] = value
    else:
        cfg[key] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.run(experiment, cfg, out)
    return code, err.getvalue()


@pytest.mark.parametrize("value", FUZZ_VALUES, ids=repr)
@pytest.mark.parametrize("where", FUZZ_KEYS, ids=str)
def test_fuzzed_new_key_never_tracebacks(where, value):
    """Every pool value on every key of every base: exit 0, 2 or 3, never a
    traceback."""
    code, err = run_fuzzed(*where, value)
    assert code in (0, 2, 3)
    assert "Traceback" not in err
