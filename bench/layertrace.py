"""Outside-in layer trace for the traced benchmark run.

Spans are recorded from the benchmark's own files: every public function of
each paircond layer module is replaced by a timing wrapper in every module
namespace that binds it, which is where callers look the name up (so
``twobody.smallest_eigenpair`` and ``spectral.smallest_eigenpair`` are both
wrapped). ``splu`` is wrapped in the namespaces of ``spectral`` and ``gp``
separately, and the factor objects it returns are proxied to time their
``solve`` calls. ``cli.run`` is the root span of each experiment. Nothing
inside ``src/`` changes, and the untraced run never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

LAYERS = ("grid", "geometry", "spectral", "pairing", "gp", "bcs", "twobody",
          "reporting")
# methods traced as layer calls: (module, class, method)
METHODS = (("twobody", "TwoBodyProblem", "operator"),
           ("reporting", "ScanReport", "to_csv"))
SPLU_CALLERS = ("spectral", "gp")
DOMAIN_BUILDERS = ("interval", "box_mask", "disk", "lshape", "slit_square",
                   "mask_from_json")


class Span:
    __slots__ = ("name", "parent", "start", "end", "child", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class _TracedLU:
    """Factor proxy: forwards everything, records each ``solve`` as a span."""

    __slots__ = ("_lu", "solve")

    def __init__(self, lu, tracer, name):
        self._lu = lu
        self.solve = tracer.wrap(name, lu.solve)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _info_eigen(args, kwargs, result):
    op = args[0] if args else kwargs["op"]
    return {"iterations": result.iterations, "unknowns": op.n_unknowns}


def _info_iterations(args, kwargs, result):
    return {"iterations": result.iterations}


def _info_operator(args, kwargs, result):
    return {"unknowns": result.n_unknowns}


def _info_admissibility(args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    return {"dim": 2 * state.a_psi.values.shape[0]}


def _info_trial(args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    n = cfg.mask.grid.n[0]
    return {"flops": 4 * n**3}  # a @ a and (a a) @ (a a), 2 n^3 each


def _info_semiclassics(args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    n = cfg.mask.grid.n[0]
    return {"flops": 2 * n**3}  # a @ a


def _info_factor(args, kwargs, result):
    return {"nnz": result.nnz}  # L+U nonzeros as SuperLU stores them


def _info_fourier(args, kwargs, result):
    f = args[0] if args else kwargs["f"]
    return {"terms": len(result) * f.grid.size}


INFO = {
    "spectral.smallest_eigenpair": _info_eigen,
    "gp.minimize_gp": _info_iterations,
    "twobody.TwoBodyProblem.operator": _info_operator,
    "bcs.admissibility_spectrum": _info_admissibility,
    "bcs.build_trial_state": _info_trial,
    "bcs.semiclassics_check": _info_semiclassics,
    "grid.fourier_samples": _info_fourier,
    "spectral.splu": _info_factor,
    "gp.splu": _info_factor,
}


class Tracer:
    """Installs the wrappers, keeps the spans of the current pass in memory
    and restores every original binding on ``uninstall``."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    def wrap(self, name, fn):
        info = INFO.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.end - span.start
                spans.append(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = {name: importlib.import_module(f"paircond.{name}")
                   for name in LAYERS + ("cli",)}
        namespaces = list(modules.values())
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", obj)
                for ns in namespaces:
                    if vars(ns).get(attr) is obj:
                        self._set(ns, attr, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._set(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}",
                                           getattr(cls, meth)))
        for layer in SPLU_CALLERS:
            mod = modules[layer]

            def splu(*args, _factor=self.wrap(f"{layer}.splu", mod.splu),
                     _solve=f"{layer}.lu_solve", **kwargs):
                return _TracedLU(_factor(*args, **kwargs), self, _solve)

            self._set(mod, "splu", splu)
        self._set(modules["cli"], "run", self.wrap("cli.run", modules["cli"].run))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def pass_metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last call (one
        pass); the spans are then dropped."""
        metrics = layer_metrics(self.spans)
        self.spans.clear()
        return metrics


# ---------------------------------------------------------------------------
# per-layer metrics of one pass


PER_LAYER = (
    ("spectral.eigensolve_s", "s"), ("spectral.eigensolves", "count"),
    ("spectral.eigen_iterations", "count"), ("spectral.factorize_s", "s"),
    ("spectral.factorizations", "count"), ("spectral.lu_solve_s", "s"),
    ("spectral.lu_solves", "count"), ("spectral.lu_fill_nnz_max", "count"),
    ("spectral.unknowns_max", "count"), ("spectral.assemble_s", "s"),
    ("spectral.assemblies", "count"),
    ("gp.minimize_s", "s"), ("gp.minimize_self_s", "s"),
    ("gp.minimizations", "count"), ("gp.iterations", "count"),
    ("gp.onset_solves", "count"), ("gp.factorize_s", "s"),
    ("gp.factorizations", "count"), ("gp.lu_solve_s", "s"),
    ("gp.lu_solves", "count"),
    ("geometry.morph_s", "s"), ("geometry.morph_calls", "count"),
    ("geometry.domain_build_s", "s"),
    ("pairing.relative_s", "s"), ("pairing.relative_solves", "count"),
    ("pairing.couplings_s", "s"), ("pairing.matched_s", "s"),
    ("pairing.matched_solves", "count"), ("grid.fourier_s", "s"),
    ("grid.fourier_terms", "count"),
    ("bcs.trial_build_s", "s"), ("bcs.trial_build_self_s", "s"),
    ("bcs.trial_builds", "count"), ("bcs.admissibility_s", "s"),
    ("bcs.admissibility_dim_max", "count"), ("bcs.kernel_flops", "flop_computed"),
    ("bcs.energy_s", "s"), ("bcs.density_s", "s"), ("bcs.semiclassics_s", "s"),
    ("twobody.ground_s", "s"), ("twobody.ground_self_s", "s"),
    ("twobody.ground_solves", "count"), ("twobody.product_unknowns_max", "count"),
    ("twobody.operator_build_s", "s"), ("twobody.trial_bound_s", "s"),
    ("twobody.richardson_s", "s"),
    ("cli.driver_self_s", "s"), ("cli.experiments", "count"),
    ("reporting.output_bytes", "byte"), ("trace.overhead_s", "s"),
)


def _outermost(spans, names):
    """Spans named in ``names`` with no ancestor named in ``names``."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and p.name not in names:
            p = p.parent
        if p is None:
            out.append(s)
    return out


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one pass (without the output bytes and the trace
    overhead, which the worker adds)."""
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def total(*names):
        return sum(s.duration for s in _outermost(spans, set(names)))

    def self_total(*names):
        return sum(s.self_time for s in named(*names))

    def info_sum(name, key):
        return sum(s.info[key] for s in by_name.get(name, []) if s.info)

    def info_max(name, key):
        return max((s.info[key] for s in by_name.get(name, []) if s.info), default=0)

    assembly = ("spectral.assemble_dirichlet", "spectral.dirichlet_laplacian_matrix")
    morph = ("geometry.erode", "geometry.dilate")
    builders = tuple(f"geometry.{b}" for b in DOMAIN_BUILDERS)
    couplings = ("pairing.compute_couplings", "pairing.coupling_integrals")
    return {
        "spectral.eigensolve_s": total("spectral.smallest_eigenpair"),
        "spectral.eigensolves": len(named("spectral.smallest_eigenpair")),
        "spectral.eigen_iterations": info_sum("spectral.smallest_eigenpair",
                                              "iterations"),
        "spectral.factorize_s": total("spectral.splu"),
        "spectral.factorizations": len(named("spectral.splu")),
        "spectral.lu_solve_s": total("spectral.lu_solve"),
        "spectral.lu_solves": len(named("spectral.lu_solve")),
        "spectral.lu_fill_nnz_max": info_max("spectral.splu", "nnz"),
        "spectral.unknowns_max": info_max("spectral.smallest_eigenpair", "unknowns"),
        "spectral.assemble_s": total(*assembly),
        "spectral.assemblies": len(_outermost(spans, set(assembly))),
        "gp.minimize_s": total("gp.minimize_gp"),
        "gp.minimize_self_s": self_total("gp.minimize_gp"),
        "gp.minimizations": len(named("gp.minimize_gp")),
        "gp.iterations": info_sum("gp.minimize_gp", "iterations"),
        "gp.onset_solves": sum(1 for s in named("spectral.onset_threshold")
                               if s.parent is not None
                               and s.parent.name == "gp.minimize_gp"),
        "gp.factorize_s": total("gp.splu"),
        "gp.factorizations": len(named("gp.splu")),
        "gp.lu_solve_s": total("gp.lu_solve"),
        "gp.lu_solves": len(named("gp.lu_solve")),
        "geometry.morph_s": total(*morph),
        "geometry.morph_calls": len(named(*morph)),
        "geometry.domain_build_s": total(*builders),
        "pairing.relative_s": total("pairing.solve_relative"),
        "pairing.relative_solves": len(named("pairing.solve_relative")),
        "pairing.couplings_s": total(*couplings),
        "pairing.matched_s": total("pairing.matched_relative_state"),
        "pairing.matched_solves": len(named("pairing.matched_relative_state")),
        "grid.fourier_s": total("grid.fourier_samples"),
        "grid.fourier_terms": info_sum("grid.fourier_samples", "terms"),
        "bcs.trial_build_s": total("bcs.build_trial_state"),
        "bcs.trial_build_self_s": self_total("bcs.build_trial_state"),
        "bcs.trial_builds": len(named("bcs.build_trial_state")),
        "bcs.admissibility_s": total("bcs.admissibility_spectrum"),
        "bcs.admissibility_dim_max": info_max("bcs.admissibility_spectrum", "dim"),
        "bcs.kernel_flops": (info_sum("bcs.build_trial_state", "flops")
                             + info_sum("bcs.semiclassics_check", "flops")),
        "bcs.energy_s": total("bcs.bcs_energy"),
        "bcs.density_s": total("bcs.one_body_density"),
        "bcs.semiclassics_s": total("bcs.semiclassics_check"),
        "twobody.ground_s": total("twobody.ground_energy"),
        "twobody.ground_self_s": self_total("twobody.ground_energy"),
        "twobody.ground_solves": len(named("twobody.ground_energy")),
        "twobody.product_unknowns_max": info_max("twobody.TwoBodyProblem.operator",
                                                 "unknowns"),
        "twobody.operator_build_s": total("twobody.TwoBodyProblem.operator"),
        "twobody.trial_bound_s": total("twobody.twobody_trial_upper_bound"),
        "twobody.richardson_s": total("twobody.richardson_disc_error"),
        "cli.driver_self_s": self_total("cli.run"),
        "cli.experiments": len(named("cli.run")),
    }


def median_metrics(per_pass: list) -> dict:
    """Median of each metric over the traced passes."""
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
