"""Tests of the benchmark's own checks: each must reject a perturbed output.

Run from the repository root with ``python -m pytest bench/test_checks.py``.
They need numpy and scipy but not the program.
"""

import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

# Poschl-Teller depth 2 (nu = 1) closed forms: alpha = sech/sqrt(2),
# alpha_hat = pi sech(pi p / 2)/sqrt(2)
PT_G_BCS = 3.7198241782619377
PT_G_0 = math.pi**2 / 3


def to_csv(columns, rows):
    return "\n".join([",".join(columns)]
                     + [",".join(repr(float(v)) for v in r) for r in rows]) + "\n"


@pytest.fixture(scope="module")
def scan():
    inputs = wl.make("pair-operator-scan", 0)
    refs = checks.references(inputs)
    op = inputs.ops[0]
    hs = sorted(op.config["h_list"])
    rows = [(h, refs["ground_h_max"] - (refs["h_max"] - h), 0.0,
             refs["ground_h_max"] + 0.2, 3.0) for h in hs]
    summary = {"binding_energy": refs["E_b"], "threshold_estimate": refs["threshold"]}
    return op, refs, summary, rows


SCAN_COLUMNS = ["h", "ground_energy", "lower_bound", "upper_bound", "slope_partial"]


def test_couplings_quadrature_matches_closed_form():
    g_bcs, g_0 = checks.pt_couplings(1.0)
    assert abs(g_bcs - PT_G_BCS) < 1e-10 * PT_G_BCS
    assert abs(g_0 - PT_G_0) < 1e-10 * PT_G_0


def test_scan_accepts_reference_output(scan):
    op, refs, summary, rows = scan
    assert checks.check_op(op, refs, summary, to_csv(SCAN_COLUMNS, rows)) == []


def test_scan_rejects_binding_energy_off_by_1e_3(scan):
    op, refs, summary, rows = scan
    bad = dict(summary, binding_energy=summary["binding_energy"] + 1e-3)
    assert checks.check_op(op, refs, bad, to_csv(SCAN_COLUMNS, rows))


def test_relative_rejects_binding_energy_off_by_1e_3():
    inputs = wl.make("pair-states", 0)
    refs = checks.references(inputs)
    op = next(o for o in inputs.ops if o.name == "relative")
    good = {"E_b": refs["E_b"], "g_bcs": refs["g_bcs"], "g_0": refs["g_0"]}
    assert checks.check_op(op, refs, good, None) == []
    assert checks.check_op(op, refs, dict(good, E_b=good["E_b"] + 1e-3), None)


def test_scan_rejects_swapped_ground_and_upper(scan):
    op, refs, summary, rows = scan
    swapped = [list(r) for r in rows]
    swapped[1][1], swapped[1][3] = swapped[1][3], swapped[1][1]
    fails = checks.check_op(op, refs, summary, to_csv(SCAN_COLUMNS, swapped))
    assert any("upper bound" in f for f in fails)


def test_scan_rejects_wrong_ground_at_largest_h(scan):
    op, refs, summary, rows = scan
    shifted = [list(r) for r in rows]
    shifted[-1][1] += 1e-6
    assert checks.check_op(op, refs, summary, to_csv(SCAN_COLUMNS, shifted))


def test_probe_rejects_narrow_well_value():
    inputs = wl.make("condensate-continuity", 0)
    probe = next(o for o in inputs.ops if o.name == "dc-narrow-well")
    ref = {probe.name: checks.tridiagonal_threshold(wl.PROBE_N, wl.PROBE_W)}
    assert abs(ref[probe.name] - (-24.85)) < 0.01
    assert checks.check_op(probe, ref, {"dc": ref[probe.name]}, None) == []
    assert checks.check_op(probe, ref, {"dc": 5.105671437915713}, None)


def test_repeat_rejects_non_identical_csv():
    text = to_csv(["h", "x"], [(0.1, 1.0), (0.05, 0.5)])
    assert checks.check_repeat(text, text) == []
    assert checks.check_repeat(text, text.replace("0.5", "0.5000000000000001"))
    assert checks.check_repeat(text, None)


def _pass(codes_and_rows):
    return {"ops": [{"name": n, "code": c, "summary": s, "rows": r}
                    for n, c, s, r in codes_and_rows]}


def test_known_fault_counts_failed_but_stays_correct():
    inputs = wl.make("condensate-continuity", 0)
    probe = next(o for o in inputs.ops if o.name == "dc-narrow-well")
    inputs.ops = [probe]
    refs = {probe.name: -24.850668974184277}
    passes = [_pass([(probe.name, 0, {"dc": 5.105671437915713}, None)])] * 3
    assert run.check_passes(inputs, passes, refs) == (True, 3, 3)


def test_failure_of_other_op_is_incorrect(scan):
    op, refs, summary, rows = scan
    inputs = wl.make("pair-operator-scan", 0)
    good = to_csv(SCAN_COLUMNS, rows)
    passes = [_pass([(op.name, 0, summary, good)]),
              _pass([(op.name, 0, summary, good.replace("3.0", "3.5"))]),
              _pass([(op.name, 3, None, None)])]
    assert run.check_passes(inputs, passes, refs) == (False, 3, 2)


def test_seed_band_inputs_are_deterministic():
    a, b = wl.make("pair-states", 11), wl.make("pair-states", 11)
    assert a.params == b.params
    assert wl.DEPTH_BAND[0] <= a.params["depth"] <= wl.DEPTH_BAND[1]
    c = wl.make("condensate-continuity", 5)
    dx = wl.disk_grid()[3]
    assert all(abs(v) <= dx / 2 for v in c.params["disk_center"])


def test_bench_uses_no_threads_and_no_deleted_functions():
    """The benchmark keeps working when --threads and the functions that
    have no callers in the program are removed."""
    gone = [r"\bthreads\s*=", r"--threads", r"PAIRCOND_TEST_MODE", r"_map_ordered",
            r"_h1_norm", r"\bnorm_l2\b", r"\.apply\(", r"\bas_field\b",
            r"\.column\(", r"\.to_json\(", r"\bkernel_matrix\b",
            r"\bgamma_matrix\b", r"\bmidpoint_mask\b", r"\bBUILTIN_DOMAINS\b"]
    for fname in os.listdir(HERE):
        if not fname.endswith(".py") or fname == os.path.basename(__file__):
            continue
        with open(os.path.join(HERE, fname), encoding="utf-8") as fh:
            text = fh.read()
        for pattern in gone:
            assert not re.search(pattern, text), (fname, pattern)
