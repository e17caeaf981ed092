import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from paircond import cli, gp, grid, pairing, spectral, twobody
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

    def test_two_distinct_controls_refused(self):
        # three rows, two controls: any line through two points fits them
        # with zero residual, which would pass for a power law
        with pytest.raises(FitError, match="3 distinct"):
            fit_power_law([1.0, 2.0, 2.0], [1.0, 2.0, 2.0])

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

    def test_continuity_repeated_ell_is_one_row(self, tmp_path, monkeypatch):
        # three ells of which two are distinct: two rows, each ell eroded,
        # dilated and minimized once, and no fit from two controls
        calls = []
        minimize = gp.minimize_gp

        def counting(*args, **kwargs):
            calls.append(1)
            return minimize(*args, **kwargs)

        monkeypatch.setattr(gp, "minimize_gp", counting)
        cfg = {"domain": {"builtin": "disk", "n": 41}, "w": None,
               "ells": [0.1, 0.15, 0.15]}
        assert cli.run("continuity", cfg, str(tmp_path)) == 0
        rows = (tmp_path / "rows.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["0.1", "0.15"]
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["fits"] == {}
        assert len(calls) == 1 + 2 * 2  # the base, then each mask once

    def test_mask_file_domain(self, tmp_path):
        mask = geo.interval(0.0, 1.0, grid=Grid.box(0.0, 1.0, 801))
        mask_path = tmp_path / "mask.json"
        mask_path.write_text(geo.mask_to_json(mask))
        cfg = {"domain": {"mask_file": str(mask_path)}, "w": None}
        assert cli.run("dc", cfg, str(tmp_path / "out")) == 0
        with open(tmp_path / "out" / "report.json") as fh:
            assert abs(json.load(fh)["summary"]["dc"] - 2.4674) < 5e-3

    @pytest.mark.parametrize("case", ["string_tol", "boolean_bounds",
                                      "fractional_count", "boolean_value",
                                      "mask_bounds", "boolean_width",
                                      "string_depth", "string_halfwidth",
                                      "table_strings"])
    def test_non_numbers_are_config_errors(self, tmp_path, capsys, case):
        # a numeric string, a boolean or a fractional count is not read as
        # a number (each of these ran, and exited 0 or 3, on the value it
        # parsed or truncated to)
        interval = {"builtin": "interval", "n": 201}
        cfg = {"domain": interval, "w": None}
        experiment = "dc"
        potentials = {
            "boolean_width": {"kind": "poschl_teller", "width": True},
            "string_depth": {"kind": "poschl_teller", "depth": "1"},
            "string_halfwidth": {"kind": "square_well", "depth": 2.0,
                                 "halfwidth": "1"},
            "table_strings": {"kind": "table", "x": ["0", "1", "2"],
                              "v": [True, False, True]},
        }
        if case in potentials:
            experiment = "relative"
            cfg = {"potential": potentials[case], "L": 16.0, "n": 801}
        elif case == "string_tol":
            cfg["tol"] = "1e-9"
        elif case == "boolean_bounds":
            cfg["domain"] = dict(interval, a=False, b=True)
        elif case == "fractional_count":
            interval["n"] = 201.7
        elif case == "boolean_value":
            cfg["w"] = {"kind": "constant", "value": True}
        else:
            payload = json.loads(geo.mask_to_json(geo.interval(0.0, 1.0, n=51)))
            payload["lower"], payload["upper"] = ["0"], [True]
            (tmp_path / "mask.json").write_text(json.dumps(payload))
            cfg["domain"] = {"mask_file": str(tmp_path / "mask.json")}
        assert cli.run(experiment, cfg, str(tmp_path / "out")) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not os.path.exists(tmp_path / "out")

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
        # per-axis lists longer than the domain's dimension (each ran on its
        # leading entries)
        ("dc", {"domain": {"builtin": "interval", "n": 201},
                "w": {"kind": "bump", "center": [0.5, 0.1, 9.0]}}),
        ("dc", {"domain": {"builtin": "box", "n": [41, 41, 41]}, "w": None}),
        # integers beyond the float range (each was an OverflowError)
        ("dc", {"domain": {"builtin": "interval", "n": 10**400}, "w": None}),
        ("dc", {"domain": {"builtin": "interval", "n": 201}, "w": None,
                "tol": 10**400}),
        ("relative", {"potential": {"kind": "poschl_teller",
                                    "depth": 10**400}}),
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

    @pytest.mark.parametrize("experiment", ["bcs-trial", "density",
                                            "semiclassics"])
    def test_pair_domain_eroded_by_largest_ell(self, tmp_path, capsys,
                                               experiment):
        # ell(h) = q h ln(1/h) peaks at h = 1/e: with h = 0.6 in the list
        # the largest ell is that of h = 0.3, and psi must vanish outside
        # the domain eroded by it
        cfg = json.loads(json.dumps(FUZZ_BASE[experiment]))
        cfg["domain"].update({"a": 0.0, "b": 4.0, "n": 600})
        cfg["h_list"] = [0.6, 0.3, 0.2]
        assert cli.run(experiment, cfg, str(tmp_path)) == 0, \
            capsys.readouterr().err

    def test_pair_band_budget_counts_band_entries(self, tmp_path, capsys):
        # 2400 nodes: 5.76M dense entries, but aa holds 2400 x 1213 band
        # entries at the largest ell (h = 0.1), inside the budget
        cfg = {"domain": {"builtin": "interval", "a": 0.0, "b": 4.0,
                          "n": 2400, "margin": 0.05},
               "potential": {"kind": "poschl_teller"}, "amplitude": 0.3,
               "h_list": [0.1, 0.07, 0.05]}
        assert cli.run("bcs-trial", cfg, str(tmp_path / "in")) == 0
        # 2882 nodes: 2882 x 1457 band entries, just over 2^22
        cfg["domain"]["n"] = 2882
        assert cli.run("bcs-trial", cfg, str(tmp_path / "over")) == 2
        err = capsys.readouterr().err
        assert ("config error: pair kernels of 2882x1457 band entries exceed "
                "the 4194304-entry budget") in err
        assert not os.path.exists(tmp_path / "over" / "report.json")

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

    def test_dc_of_w_near_float_max(self, tmp_path, capsys):
        # under the suite's RuntimeWarning-as-error filter: the Gershgorin
        # radius of a row sums its couplings alone, so W = 1.7e308 on the
        # diagonal is never subtracted from itself
        cfg = {"domain": {"builtin": "box", "n": 21},
               "w": {"kind": "constant", "value": 1.7e308}}
        assert cli.run("dc", cfg, str(tmp_path)) == 0
        assert capsys.readouterr().err == ""
        with open(tmp_path / "report.json") as fh:
            dc = json.load(fh)["summary"]["dc"]
        # -(1/4) Lap adds about 4.9 to W, far below one ulp of 1.7e308
        assert abs(dc - 1.7e308) <= 1e-10 * 1.7e308

    @pytest.mark.parametrize("depth", [-5e4, -1e5, -2e5])
    def test_dc_of_narrow_well(self, tmp_path, capsys, depth):
        # a one-node well on 10001 nodes, far below the rest of the
        # spectrum: a 1D operator is solved by inverse iteration with
        # certified shifts, in a handful of pttrs solves
        cfg = {"domain": {"builtin": "interval", "n": 10001},
               "w": {"kind": "bump", "height": depth, "center": 0.5,
                     "width": 1e-6}}
        code = cli.run("dc", cfg, str(tmp_path))
        assert code == 0, capsys.readouterr().err
        with open(tmp_path / "report.json") as fh:
            summary = json.load(fh)["summary"]
        assert 0 < summary["iterations"] <= 12
        # -(1/4) Lap + W on the 9999 interior nodes; the well is node 5000
        w = np.zeros(9999)
        w[4999] = depth
        dx2 = 1e-4**2
        ref = eigvalsh_tridiagonal(0.5 / dx2 + w, np.full(9998, -0.25 / dx2),
                                   select="i", select_range=(0, 0),
                                   tol=np.finfo(float).tiny)[0]
        assert abs(summary["dc"] - ref) <= 1e-10 * abs(ref)

    def test_lapack_failure_is_a_solver_error(self, tmp_path, capfd,
                                              monkeypatch):
        # a pttrs that breaks down (NaN) keeps inverse iteration from ever
        # meeting its residual target
        def no_convergence(d, e, b):
            return np.full_like(b, np.nan), 0

        monkeypatch.setattr(spectral.lapack, "dpttrs", no_convergence)
        cfg = {"domain": {"builtin": "interval", "n": 201}}
        assert cli.run("dc", cfg, str(tmp_path)) == 3
        err = capfd.readouterr().err
        assert err.startswith("solver error: ") and err.count("\n") == 1
        assert "did not converge in 400 solves" in err
        assert not os.listdir(tmp_path)

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

    def test_twobody_fit_overflow_is_quiet(self, tmp_path, capfd):
        # depth 1e200: E0 = -1e200 resolves nothing of the h^2 D_c term the
        # slopes measure (they would be rounding alone, and 0 or near
        # -1e200/h^2 by the luck of it), so the scan is refused before any
        # fit, and nothing but the solver error reaches stderr
        cfg = json.loads(json.dumps(FUZZ_BASE["twobody-scan"]))
        cfg["potential"]["depth"] = 1e200
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.run("twobody-scan", cfg, str(tmp_path))
        err = capfd.readouterr().err
        assert code == 3
        assert err.startswith("solver error: ") and err.count("\n") == 1
        assert "no finer than the h^2 D_c" in err
        assert not caught, [str(w.message) for w in caught]
        assert not os.listdir(tmp_path)

    def test_twobody_table_potential_passes_sandwich(self, tmp_path, capfd):
        # a table V has a cusp at r = 0 and kinks: its lattice binds 4.1-4.4e-3
        # deeper than the continuum, while the leading error term of the
        # ground vector reads 1.3-1.4e-3; eps takes the larger, so the scan
        # passes where it used to exit 3 with "sandwich violated at h=0.07"
        cfg = {"potential": {"kind": "table", "x": [0, 0.5, 1.5],
                             "v": [-3, -1, 0]},
               "a": 0, "b": 1, "h_list": [0.07, 0.05, 0.035],
               "micro_step": 0.125, "q": 1.5}
        assert cli.run("twobody-scan", cfg, str(tmp_path)) == 0, \
            capfd.readouterr().err
        assert (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize("experiment", ["gp-min", "continuity"])
    def test_gp_d_beyond_rounding_refused(self, tmp_path, capfd, monkeypatch,
                                          experiment):
        # D_offset 1e30 on the n = 41 slit square: the single-mode start is
        # finite (theta ~ 1e15), but eps |D| ~ 2e14 dwarfs the residual
        # target, so the run is refused by its limit before any Newton step,
        # where it used to fail "in 0 Newton steps"
        factors = []
        monkeypatch.setattr(gp, "splu", lambda *a, **k: factors.append(1))
        cfg = json.loads(json.dumps(FUZZ_BASE[experiment]))
        cfg["domain"] = {"builtin": "slit_square", "n": 41}
        cfg["D_offset"] = 1e30
        assert cli.run(experiment, cfg, str(tmp_path)) == 3
        err = capfd.readouterr().err
        assert err.startswith("solver error: |D| = 1e+30 is over the 2.12e+08 "
                              "that tol 1e-09 resolves on this grid")
        assert err.count("\n") == 1
        assert factors == [] and not os.listdir(tmp_path)

    def test_gp_stall_exits_early(self, tmp_path, capfd):
        # D_offset 1e8 on the n = 41 slit square, under its |D| limit of
        # 2.12e8: the residual bottoms out at 2.0e-4 within 20 Newton steps,
        # over its target of 9.2e-5; the run used to go on for all 2000
        cfg = {"domain": {"builtin": "slit_square", "n": 41}, "w": None,
               "D_offset": 1e8, "g": 1.0}
        assert cli.run("gp-min", cfg, str(tmp_path)) == 3
        err = capfd.readouterr().err
        assert err.startswith("solver error: minimizer stalled: no residual "
                              "below its best 2.02")
        assert "(target 9.2" in err and err.count("\n") == 1
        steps = int(re.search(r"the last (\d+) of (\d+) Newton", err).group(2))
        assert gp.STALL_STEPS <= steps < 100
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("gap,code", [(None, 0), (1e-3, 3)],
                             ids=["one ulp", "wide"])
    def test_twobody_sandwich_lower_slack(self, tmp_path, capfd, monkeypatch,
                                          gap, code):
        # E0 put one ulp below lower - eps, with the leading error term 0, so
        # eps is the lattice's excess binding E_b_matched - E_b (2.4e-3 at
        # micro step 0.25): the lower side has the same slack
        # tol max(1, |lower|) as the upper side, so the scan passes; a gap
        # far wider than the slack still exits 3
        from paircond import twobody

        cfg = json.loads(json.dumps(FUZZ_BASE["twobody-scan"]))
        e_b = pairing.solve_relative(cfg["potential"]).E_b
        ground = twobody.ground_energy

        def below_lower(prob, *args, **kwargs):
            res = ground(prob, *args, **kwargs)
            floor = (twobody.decoupled_lower_bound(prob, e_b)
                     - (prob.matched_state.E_b - e_b))  # lower - eps
            res.eigenvalue = (np.nextafter(floor, -np.inf) if gap is None
                              else floor - gap)
            return res

        monkeypatch.setattr(twobody, "ground_energy", below_lower)
        monkeypatch.setattr(twobody, "leading_disc_error",
                            lambda *args, **kwargs: 0.0)
        assert cli.run("twobody-scan", cfg, str(tmp_path)) == code
        err = capfd.readouterr().err
        if code == 3:
            assert err.startswith("solver error: sandwich violated")

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

    @pytest.mark.parametrize("h_list", [[0.07, 0.05], [0.07, 0.07, 0.05]])
    def test_short_h_list_refused_before_any_solve(self, tmp_path, capsys,
                                                   monkeypatch, h_list):
        # the scan fits three h at least: fewer distinct values are a bad
        # config (exit 2), caught before the first product problem is built
        def no_solve(*args, **kwargs):
            raise AssertionError("a product problem was built")

        monkeypatch.setattr(twobody, "problem_at", no_solve)
        cfg = json.loads(json.dumps(FUZZ_BASE["twobody-scan"]))
        cfg["h_list"] = h_list
        assert cli.run("twobody-scan", cfg, str(tmp_path)) == 2
        assert ("config error: h_list needs at least 3 distinct values"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("a, b", [(1.0, 0.5), (1.0, 1.0)],
                             ids=["b<a", "b=a"])
    def test_empty_scan_interval_refused_before_any_grid(
            self, tmp_path, capsys, monkeypatch, a, b):
        def no_grid(*args, **kwargs):
            raise AssertionError("a product problem was built")

        monkeypatch.setattr(twobody, "problem_at", no_grid)
        cfg = json.loads(json.dumps(FUZZ_BASE["twobody-scan"]))
        cfg["a"], cfg["b"] = a, b
        assert cli.run("twobody-scan", cfg, str(tmp_path)) == 2
        assert "config error: b must exceed a" in capsys.readouterr().err

    def test_hardy_refuses_mask_file(self, tmp_path, capsys):
        # hardy sets n on the domain at each n of n_list, which a mask file
        # cannot take
        mask_path = tmp_path / "mask.json"
        mask_path.write_text(geo.mask_to_json(geo.interval(0.0, 1.0, n=51)))
        cfg = {"domain": {"mask_file": str(mask_path)}, "n_list": [51]}
        assert cli.run("hardy", cfg, str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert ("config error: hardy rebuilds a builtin domain at each n of "
                "n_list") in err
        assert "unknown keys" not in err

    def test_hardy_refuses_domain_n(self, tmp_path, capsys):
        # n comes from n_list; an n in the domain would be silently dropped
        cfg = {"domain": {"builtin": "interval", "margin": 0.25, "n": 301},
               "n_list": [51]}
        assert cli.run("hardy", cfg, str(tmp_path)) == 2
        assert ("config error: hardy takes n from n_list"
                in capsys.readouterr().err)
        assert not os.path.exists(tmp_path / "report.json")

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
        # only when a spline is first evaluated, scipy.ndimage only by the
        # first two-dimensional distance transform or labelling
        assert loaded_in_fresh_process(
            "from paircond import cli",
            ("scipy.interpolate", "scipy.optimize", "scipy.ndimage")) == []

    def test_one_dimensional_runs_leave_ndimage_unloaded(self, tmp_path):
        # the 1D distance transform and components are numpy sweeps: every
        # 1D experiment, erosion, dilation and split minimization included
        grid = Grid.box(0.0, 1.0, 201)
        x = grid.axis(0)
        two = geo.DomainMask(grid, ((x > 0.1) & (x < 0.4)) | ((x > 0.6) & (x < 0.9)))
        (tmp_path / "two.json").write_text(geo.mask_to_json(two))
        runs = [(exp, cfg) for exp, cfg in FUZZ_BASE.items() if exp != "continuity"]
        runs += [("gp-min", {"domain": {"mask_file": str(tmp_path / "two.json")},
                             "w": None, "D_offset": 1.0, "g": 1.0}),
                 ("continuity", {"domain": {"builtin": "interval", "n": 201,
                                            "margin": 0.1},
                                 "w": None, "D_offset": 1.0, "g": 1.0,
                                 "ells": [0.02, 0.03, 0.04]})]
        code = ("import json; from paircond import cli\n"
                f"for exp, cfg in json.loads({json.dumps(runs)!r}):\n"
                f"    assert cli.run(exp, cfg, {str(tmp_path / 'out')!r}) == 0, exp")
        assert loaded_in_fresh_process(code, ("scipy.ndimage",)) == []

    def test_two_dimensional_run_loads_ndimage(self, tmp_path):
        # the positive control: a 2D minimization labels its components
        cfg = {"domain": {"builtin": "disk", "n": 41}, "w": None,
               "D_offset": 1.0, "g": 1.0}
        code = ("from paircond import cli\n"
                f"assert cli.run('gp-min', {cfg!r}, {str(tmp_path)!r}) == 0")
        assert loaded_in_fresh_process(code, ("scipy.ndimage",)) == [
            "scipy.ndimage"]

    def test_main_entry(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"domain": {"builtin": "interval", "n": 801}, "w": None}))
        code = cli.main(["dc", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == 0

    @pytest.mark.parametrize("text", [b"\xff\xfe{}",
                                      b'{"tol": 1' + b"0" * 5000 + b"}"],
                             ids=["not_utf8", "int_past_digit_limit"])
    def test_main_unreadable_config(self, tmp_path, capsys, text):
        # each was a traceback: a UnicodeDecodeError, and the ValueError of
        # Python's limit on the digits of an integer it parses
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(text)
        assert cli.main(["dc", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("cannot read config: ")
        assert not os.path.exists(tmp_path / "out")

    def test_main_bad_json(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert cli.main(["dc", "--config", str(cfg_path)]) == 2


def loaded_in_fresh_process(code, modules) -> list:
    """Which of ``modules`` are in ``sys.modules`` after ``code`` runs in a
    fresh interpreter that imports paircond from this checkout."""
    code += ("\nimport json, sys\n"
             f"print(json.dumps(sorted(m for m in {tuple(modules)!r} "
             "if m in sys.modules)))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    return json.loads(out.stdout.splitlines()[-1])


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


# every key of every base: a key of the config root, or (section, key) of
# its domain, w or potential
FUZZ_PATHS = []
for _exp, _base in FUZZ_BASE.items():
    for _key, _value in _base.items():
        FUZZ_PATHS.append((_exp, (_key,)))
        if isinstance(_value, dict):
            FUZZ_PATHS += [(_exp, (_key, sub)) for sub in _value]
# the keys whose default is null, which a null value leaves unset
NULL_DEFAULTS = {("w",), ("domain", "margin")}


def mutations(experiment, path) -> list:
    """(name, value) of each mutation that the key at ``path`` of the base
    of ``experiment`` must refuse ("extra key" adds a key beside it)."""
    value = FUZZ_BASE[experiment]
    for key in path:
        value = value[key]
    out = [("boolean", True), ("numeric string", "1"), ("nan", float("nan")),
           ("nested list", [[1.0]]), ("extra key", None)]
    first = value[0] if isinstance(value, list) else value
    if isinstance(first, int) and not isinstance(first, bool):
        out.append(("fraction", first + 0.5))
    if path not in NULL_DEFAULTS:
        out.append(("null", None))
    return out


FUZZ_MUTATIONS = [(exp, path, m) for exp, path in FUZZ_PATHS
                  for m in mutations(exp, path)]


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(case=st.sampled_from(FUZZ_MUTATIONS))
def test_mutated_key_is_a_config_error(case):
    """The CLI contract on every key of every base, the nested ones too: a
    boolean, a numeric string, NaN, a nested list, an extra key, a fraction
    for an int and a null where the default is not null are each a config
    error (exit 2) that writes no output."""
    experiment, path, (mutation, value) = case
    cfg = json.loads(json.dumps(FUZZ_BASE[experiment]))
    section = cfg
    for key in path[:-1]:
        section = section[key]
    if mutation == "extra key":
        section["extra"] = 1.0
    else:
        section[path[-1]] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.run(experiment, cfg, os.path.join(tmp, "out"))
        wrote = os.path.exists(os.path.join(tmp, "out"))
    assert (code, err.getvalue()[:14], wrote) == (2, "config error: ", False), \
        (experiment, path, mutation, err.getvalue())


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "README.md")


def readme_command_line() -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return text[text.index("## Command line"):
                text.index("## Numerical conventions")]


def table_rows(text, header) -> list:
    """Cells, stripped of backticks, of each row of the markdown table whose
    header row starts with ``header``."""
    lines = text[text.index(header):].splitlines()[2:]
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        rows.append([c.strip().strip("`") for c in line.strip("|").split("|")])
    return rows


def readme_cells(entry) -> tuple:
    """(kind, default) of a key table entry as the README writes them."""
    spec = entry if isinstance(entry, grid.Key) else grid.Key(entry, entry)
    like = spec.like
    if isinstance(like, dict):
        kind = "object or null" if spec.default is None else "object"
    elif isinstance(like, str):
        kind = "string"
    else:
        first = like[0] if isinstance(like, list) else like
        kind = "int" if type(first) is int else "float"
        kind = f"list of {kind}" if isinstance(like, list) else kind
    if spec.default is grid.REQUIRED or spec.default is grid.UNSET:
        return kind, "required" if spec.default is grid.REQUIRED else "unset"
    return kind, json.dumps(spec.default)


def test_readme_key_tables_match_the_schema():
    text = readme_command_line()
    listed = {(exp, key): (kind, default) for exp, key, kind, default, _
              in table_rows(text, "| experiment | key |")}
    assert listed == {(exp, key): readme_cells(entry)
                      for exp, (_, table) in cli.SCHEMA.items()
                      for key, entry in table.items()}
    listed = {tuple(row[:3]): tuple(row[3:5])
              for row in table_rows(text, "| section | selector |")}
    expected = {("domain", "—", "mask_file"): ("string", "required")}
    for section, tag, kinds in (("domain", "builtin", geo.BUILTIN_DOMAINS),
                                ("w", "kind", cli.W_KINDS),
                                ("potential", "kind", pairing.POTENTIALS)):
        expected.update({(section, f"{tag}: {name}", key): readme_cells(entry)
                         for name, (_, table) in kinds.items()
                         for key, entry in table.items()})
    assert listed == expected


def test_readme_examples_pass_the_schema():
    # read only: the domain, w and potential by their kind tables, no solve
    examples = re.findall(r"```json\n(.*?)```\s*run as `paircond (\S+) ",
                          readme_command_line(), re.S)
    assert [exp for _, exp in examples] == ["dc", "twobody-scan"]
    for body, experiment in examples:
        cfg = json.loads(body)
        args = grid.read_section(cfg, cli.SCHEMA[experiment][1])
        assert {k: args[k] for k in cfg} == cfg
        if "domain" in args:
            grid.read_kind(args["domain"], geo.BUILTIN_DOMAINS, "domain",
                           "builtin")
        if args.get("w") is not None:
            grid.read_kind(args["w"], cli.W_KINDS, "w")
        if "potential" in args:
            grid.read_kind(args["potential"], pairing.POTENTIALS,
                           "potential")
