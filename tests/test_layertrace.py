"""Contract between the program and the benchmark's layer tracer.

``bench/layertrace.py`` times ``--trace 1`` runs by wrapping functions of
``src/`` from outside, by name. A refactor that renames, inlines or rebinds
one of them zeroes its metrics without any error; this test runs a tiny
experiment of each kind under the tracer and checks that every metric is
still reported and that the main counters still count.
"""

import contextlib
import io
import os
import sys

from paircond import cli

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "bench"))
import layertrace  # noqa: E402

PT = {"kind": "poschl_teller", "depth": 2.0}
TINY_RUNS = [
    ("twobody-scan", {"potential": PT, "a": 0.0, "b": 1.0,
                      "h_list": [0.2, 0.15, 0.1], "micro_step": 0.25}),
    ("gp-min", {"domain": {"builtin": "interval", "n": 201}, "w": None,
                "D_offset": 1.0}),
    ("bcs-trial", {"domain": {"builtin": "interval", "a": 0.0, "b": 2.0,
                              "n": 121, "margin": 0.05},
                   "w": None, "potential": PT, "D": 2.0,
                   "h_list": [0.2, 0.15, 0.1]}),
]


def test_tracer_reports_every_layer(tmp_path):
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.run(experiment, cfg, str(tmp_path / experiment))
                     for experiment, cfg in TINY_RUNS]
        metrics = tracer.pass_metrics()
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    # the worker adds these two itself
    added = {"reporting.output_bytes", "trace.overhead_s"}
    assert set(metrics) == {name for name, _ in layertrace.PER_LAYER} - added
    for name in ("spectral.eigensolves", "gp.factorizations",
                 "twobody.product_unknowns_max"):
        assert metrics[name] > 0, name
    assert not hasattr(cli.run, "__wrapped__")  # the original is back
