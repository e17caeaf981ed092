"""Contract between the program and the benchmark's layer tracer.

``bench/layertrace.py`` times ``--trace 1`` runs by wrapping functions of
``src/`` from outside, by name. A refactor that renames, inlines or rebinds
one of them zeroes its metrics without any error; this test runs a tiny
experiment of each kind under the tracer and checks that every metric is
still reported and that the main counters still count.
"""

import contextlib
import functools
import io
import os
import sys

from paircond import cli, geometry, gp, pairing, spectral

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
    # symmetric under y -> -y: solved on its upper half
    ("gp-min", {"domain": {"builtin": "slit_square", "n": 21}, "w": None,
                "D_offset": 1.0}),
]


def test_tracer_reports_every_layer(tmp_path, monkeypatch):
    # every assembled mask, recorded under the tracer's own wrapper
    masks = []
    assemble = spectral.assemble_dirichlet

    @functools.wraps(assemble)
    def recording(mask, *args, **kwargs):
        masks.append(mask)
        return assemble(mask, *args, **kwargs)

    # the pair operator is assembled through spectral's own binding
    for module in (spectral, gp, pairing):
        monkeypatch.setattr(module, "assemble_dirichlet", recording)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        codes, runs = [], []  # the exit code and metrics of each run
        pair_solves = []  # unknowns of each eigensolve of a ground energy
        run_masks = []  # the masks assembled in each run
        with contextlib.redirect_stdout(io.StringIO()):
            for k, (experiment, cfg) in enumerate(TINY_RUNS):
                codes.append(cli.run(experiment, cfg, str(tmp_path / str(k))))
                run_masks.append(masks[:])
                masks.clear()
                pair_solves += [s.info["unknowns"] for s in tracer.spans
                                if s.name == "spectral.smallest_eigenpair"
                                and s.parent.name == "twobody.ground_energy"]
                runs.append(tracer.pass_metrics())
    finally:
        tracer.uninstall()
    assert codes == [0] * len(TINY_RUNS)
    # the worker adds these two itself
    added = {"reporting.output_bytes", "trace.overhead_s"}
    for metrics in runs:
        assert set(metrics) == {name for name, _ in layertrace.PER_LAYER} - added
    for name in ("spectral.eigensolves", "gp.factorizations",
                 "twobody.product_unknowns_max"):
        assert max(metrics[name] for metrics in runs) > 0, name
    assert not hasattr(cli.run, "__wrapped__")  # the original is back
    # the pair operator is assembled and solved on the symmetric half only:
    # no product mask holds more than the n (n + 1) / 2 nodes x >= y of the
    # n interior nodes of its axis, and the largest operator the tracer
    # reads is the largest pair operator solved (the scan's continuum
    # relative state, 3999 unknowns, is its largest eigensolve overall)
    product = [m for m in run_masks[0] if m.grid.dim == 2]
    assert product
    for m in product:
        n = int(m.inside.any(axis=1).sum())
        assert m.count <= n * (n + 1) // 2
    assert runs[0]["twobody.product_unknowns_max"] == max(pair_solves)
    # the symmetric gp-min counts its one onset factor and its one Hessian
    # factor once each (a factor entry wrapped twice would count 2), and its
    # largest eigensolve is the onset solve on the fundamental domain
    half = spectral.mirror_orbits(geometry.slit_square(21)).reduced
    assert half.count < geometry.slit_square(21).count
    assert runs[3]["spectral.factorizations"] == 1
    assert runs[3]["gp.factorizations"] == 1
    assert runs[3]["spectral.unknowns_max"] == half.count
