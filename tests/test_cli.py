import json
import os

import numpy as np
import pytest

from paircond import cli
from paircond import geometry as geo
from paircond.grid import Grid
from paircond.reporting import FitError, fit_power_law


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
        assert cli.run("continuity", cfg, str(tmp_path / "r1"), seed=7) == 0
        assert cli.run("continuity", cfg, str(tmp_path / "r2"), seed=7) == 0
        b1 = (tmp_path / "r1" / "rows.csv").read_bytes()
        b2 = (tmp_path / "r2" / "rows.csv").read_bytes()
        assert b1 == b2

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
               "micro_step": 0.125, "q": 1.5, "richardson": False}
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
    ])
    def test_bad_values_exit_2(self, tmp_path, capsys, experiment, cfg):
        assert cli.run(experiment, cfg, str(tmp_path)) == 2
        assert "config error" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "report.json")

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
