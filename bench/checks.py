"""Output checks made apart from the program.

Every reference here is computed from closed forms or from this file's own
assembly and eigensolve, with numpy and scipy only: the program is never
imported. ``references`` builds the reference data once per run from the
workload inputs; ``check_op`` returns the list of failed checks for one
experiment's outputs (empty when all hold).
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy import sparse
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.sparse.linalg import eigsh

import workloads as wl

EB_TOL = 1e-4            # |E_b - nu^2|, absolute
COUPLING_RTOL = 1e-5     # g_bcs, g_0 against the real-space quadrature
EIGEN_RTOL = 1e-8        # program eigenvalues against this file's eigensolves
ENERGY_RTOL = 1e-8       # functional values on the same field
THRESHOLD_RTOL = 0.03    # extrapolated two-body threshold
PROBE_RTOL = 1e-6        # narrow-well onset threshold
ADMISSIBLE = (-1e-9, 1.0 + 1e-9)
PARTICLE_RTOL = 0.2
IDENTITY_MAX = 1e-4
EXPONENT_MIN = 0.9


# ---------------------------------------------------------------------------
# closed forms and own solvers


def pt_nu(depth: float) -> float:
    """Poschl-Teller -depth sech^2: ground state sech^nu, E_b = nu^2."""
    return (math.sqrt(1.0 + 4.0 * depth) - 1.0) / 2.0


def pt_couplings(nu: float, step: float = 0.01, half: float = 40.0) -> tuple:
    """(g_bcs, g_0) of the normalized sech^nu pair wave by real-space
    quadrature: with c the autocorrelation of alpha, g_0 = int c^2 and
    g_bcs = int c'^2 + nu^2 g_0 (Plancherel on (2 pi)^-1 int (p^2 + E_b)
    |alpha_hat|^4)."""
    s = np.arange(-round(half / step), round(half / step) + 1) * step
    alpha = np.cosh(s) ** -nu
    alpha /= math.sqrt(float(np.sum(alpha**2)) * step)
    dalpha = -nu * np.tanh(s) * alpha
    c = np.correlate(alpha, alpha, mode="full") * step
    dc = np.correlate(dalpha, alpha, mode="full") * step
    g_0 = float(np.sum(c * c)) * step
    return float(np.sum(dc * dc)) * step + nu**2 * g_0, g_0


def dirichlet_quarter_laplacian(inside: np.ndarray, dx: float) -> sparse.csr_matrix:
    """-(1/4) times the 5-point (or 3-point) Laplacian on the inside nodes of
    a uniform grid, zero Dirichlet values outside."""
    count = int(inside.sum())
    index = -np.ones(inside.shape, dtype=np.int64)
    index[inside] = np.arange(count)
    rows, cols = [], []
    for axis in range(inside.ndim):
        lo = [slice(None)] * inside.ndim
        hi = [slice(None)] * inside.ndim
        lo[axis], hi[axis] = slice(0, -1), slice(1, None)
        both = inside[tuple(lo)] & inside[tuple(hi)]
        a, b = index[tuple(lo)][both], index[tuple(hi)][both]
        rows += [a, b]
        cols += [b, a]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    off = sparse.coo_matrix((np.full(rows.size, -0.25 / dx**2), (rows, cols)),
                            shape=(count, count))
    diag = sparse.identity(count) * (0.5 * inside.ndim / dx**2)
    return (off + diag).tocsr()


def lowest_eigenpair(mat: sparse.spmatrix, below: float) -> tuple:
    """Smallest eigenpair by shift-invert eigsh with the shift ``below``
    under the whole spectrum."""
    vals, vecs = eigsh(mat.tocsc(), k=1, sigma=below, which="LM", tol=1e-13)
    return float(vals[0]), vecs[:, 0]


def product_ground_energy(depth: float, h: float, micro_step: float,
                          a: float = 0.0, b: float = 1.0) -> float:
    """Ground energy of (h^2/2)(-Lap_x - Lap_y) + V((x-y)/h) on the
    interval's product grid at spacing micro_step * h."""
    n = max(int(round((b - a) / (micro_step * h))) + 1, 17)
    x = np.linspace(a, b, n)
    x = x[(x > a) & (x < b)]
    dx = (b - a) / (n - 1)
    m = x.size
    t = sparse.diags([np.full(m - 1, -1.0), np.full(m, 2.0), np.full(m - 1, -1.0)],
                     [-1, 0, 1]) / dx**2
    eye = sparse.identity(m)
    pot = -depth / np.cosh((x[:, None] - x[None, :]) / h) ** 2
    ham = 0.5 * h**2 * (sparse.kron(t, eye) + sparse.kron(eye, t)) \
        + sparse.diags(pot.ravel())
    return lowest_eigenpair(ham, -depth - 1.0)[0]


def interval_threshold(n: int, a: float = 0.0, b: float = 1.0) -> float:
    """Ground eigenvalue of -(1/4) Lap on the n - 2 inner nodes of [a, b]."""
    dx = (b - a) / (n - 1)
    return math.sin(math.pi / (2 * (n - 1))) ** 2 / dx**2


def tridiagonal_threshold(n: int, w: dict) -> float:
    """Onset threshold of -(1/4) Lap + bump W on the unit interval (n nodes)
    by a dense tridiagonal eigensolve."""
    x = np.linspace(0.0, 1.0, n)[1:-1]
    dx = 1.0 / (n - 1)
    wv = w["height"] * np.exp(-((x - w["center"]) ** 2) / w["width"] ** 2)
    val = eigh_tridiagonal(0.5 / dx**2 + wv, np.full(x.size - 1, -0.25 / dx**2),
                           select="i", select_range=(0, 0),
                           eigvals_only=True)
    return float(val[0])


def slit_inside(n: int) -> tuple:
    """The slit square [-1, 1]^2 minus (-1, 0] x {0} on its padded grid."""
    axis = np.linspace(-wl.SLIT_HALF_BOX, wl.SLIT_HALF_BOX, n)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    inside = (np.abs(xx) < 1) & (np.abs(yy) < 1)
    j0 = int(np.argmin(np.abs(axis)))
    inside[:, j0] &= ~(xx[:, j0] <= 0)
    return inside, axis[1] - axis[0]


def eroded_run(n: int, a: float, b: float, margin: float, ell: float) -> tuple:
    """(first, last, dx): inner-node index range of the interval (a, b) on
    its padded n-node grid after erosion by ell (node-centre distances)."""
    x = np.linspace(a - margin, b + margin, n)
    dx = x[1] - x[0]
    inside = np.flatnonzero((x > a) & (x < b))
    first_out, last_out = inside[0] - 1, inside[-1] + 1
    steps = np.minimum(inside - first_out, last_out - inside)
    near = np.abs(steps * dx - ell) < 1e-9 * max(ell, 1.0)
    if near.any():
        raise ValueError(f"erosion length {ell} sits on a node distance")
    kept = inside[steps * dx > ell]
    return int(kept[0]), int(kept[-1]), float(dx)


def sine_mode(k: int, dx: float) -> tuple:
    """Ground mode (L2-normalized, positive) and eigenvalue of -(1/4) Lap on
    k consecutive nodes with Dirichlet ends."""
    m = np.arange(1, k + 1)
    phi = np.sin(np.pi * m / (k + 1))
    phi /= math.sqrt(float(np.sum(phi**2)) * dx)
    return phi, math.sin(math.pi / (2 * (k + 1))) ** 2 / dx**2


def gp_functional(psi: np.ndarray, dx: float, d: float, g: float) -> float:
    """(1/4) int |psi'|^2 - D int psi^2 + g int psi^4 with psi zero at both
    ends of the node run (forward differences)."""
    padded = np.concatenate(([0.0], psi, [0.0]))
    kin = float(np.sum(np.diff(padded) ** 2)) / dx
    return 0.25 * kin + float(np.sum(-d * psi**2 + g * psi**4)) * dx


def gp_minimizer_1d(k: int, dx: float, d: float, g: float) -> np.ndarray:
    """Positive minimizer of the 1D functional by Newton's method on the
    Euler-Lagrange equation, started from the one-mode field."""
    phi, lam = sine_mode(k, dx)
    if d <= lam:
        return np.zeros(k)
    psi = math.sqrt((d - lam) / (2.0 * g * float(np.sum(phi**4)) * dx)) * phi
    off = -0.25 / dx**2
    for _ in range(50):
        lap = 0.5 / dx**2 * psi
        lap[1:] += off * psi[:-1]
        lap[:-1] += off * psi[1:]
        band = np.zeros((3, k))
        band[0, 1:] = off
        band[1] = 0.5 / dx**2 - d + 6.0 * g * psi**2
        band[2, :-1] = off
        step = solve_banded((1, 1), band, lap - d * psi + 2.0 * g * psi**3)
        psi = psi - step
        if np.linalg.norm(step) <= 1e-13 * np.linalg.norm(psi):
            return psi
    raise RuntimeError("reference GP Newton iteration did not converge")


def power_exponent(x, y) -> float:
    """Least-squares slope of log y against log x."""
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


# ---------------------------------------------------------------------------
# reference data per workload


def references(inputs: wl.Inputs) -> dict:
    """Reference values for every op of the workload (computed once)."""
    p = inputs.params
    if inputs.workload == "pair-operator-scan":
        cfg = inputs.ops[0].config
        hs = sorted(cfg["h_list"])
        finest = max(int(round(1.0 / (cfg["micro_step"] * hs[0]))) + 1, 17)
        return {
            "E_b": pt_nu(p["depth"]) ** 2,
            "h_max": hs[-1],
            "ground_h_max": product_ground_energy(p["depth"], hs[-1],
                                                  cfg["micro_step"]),
            "threshold": interval_threshold(finest),
        }
    if inputs.workload == "condensate-continuity":
        lo, up, n, dx = wl.disk_grid()
        disk = np.array(wl.disk_inside(p["disk_center"])).reshape(n, n)
        slit, sdx = slit_inside(wl.SLIT_N)
        out = {"dc-narrow-well": tridiagonal_threshold(wl.PROBE_N, wl.PROBE_W)}
        for name, inside, h in (("continuity-disk", disk, dx),
                                ("continuity-slit", slit, sdx)):
            lam, vec = lowest_eigenpair(dirichlet_quarter_laplacian(inside, h), -1.0)
            vec = vec / math.sqrt(float(np.sum(vec**2)) * h * h)
            out[name] = {"D_c": lam, "l4": float(np.sum(vec**4)) * h * h,
                         "area": float(inside.sum()) * h * h}
        return out
    if inputs.workload == "pair-states":
        nu = pt_nu(p["depth"])
        g_bcs, g_0 = pt_couplings(nu)
        out = {"E_b": nu**2, "g_bcs": g_bcs, "g_0": g_0}
        for op in inputs.ops:
            if op.experiment in ("bcs-trial", "density"):
                cfg = op.config
                ell = cfg["q"] * max(cfg["h_list"]) * math.log(1.0 / max(cfg["h_list"]))
                first, last, dx = eroded_run(wl.PAIR_N, wl.PAIR_A, wl.PAIR_B,
                                             wl.PAIR_MARGIN, ell)
                phi, lam = sine_mode(last - first + 1, dx)
                out[op.name] = {"mode": phi, "lam": lam, "dx": dx}
        dens = out["density"]
        d = dens["lam"] + 1.0
        psi = gp_minimizer_1d(dens["mode"].size, dens["dx"], d, g_bcs)
        dens["gp_energy"] = gp_functional(psi, dens["dx"], d, g_bcs)
        dens["psi_sq"] = float(np.sum(psi**2)) * dens["dx"]
        return out
    raise ValueError(f"unknown workload {inputs.workload!r}")


# ---------------------------------------------------------------------------
# checks


def parse_rows(text: str) -> list:
    """rows.csv as dicts of floats, sorted by the first column."""
    reader = csv.DictReader(io.StringIO(text))
    rows = [{k: float(v) for k, v in row.items()} for row in reader]
    return sorted(rows, key=lambda r: r[reader.fieldnames[0]])


def _close(name, got, want, rtol, fails, floor=1.0):
    if not abs(got - want) <= rtol * max(floor, abs(want)):
        fails.append(f"{name}: {got!r} vs reference {want!r} (rtol {rtol:g})")


def _shrinks(name, rows, col, fails):
    """Values must fall strictly as h falls (rows sorted by h)."""
    vals = [r[col] for r in rows]
    if not all(b > a for a, b in zip(vals, vals[1:])):
        fails.append(f"{name}: {col} does not shrink with h: {vals}")


def check_op(op: wl.Op, refs: dict, summary: dict, rows_csv: str | None) -> list:
    """Failed checks of one experiment's outputs (empty list: all hold)."""
    fails: list = []
    rows = parse_rows(rows_csv) if rows_csv is not None else []
    cfg = op.config
    name = op.name

    if name == "twobody-scan":
        if abs(summary["binding_energy"] - refs["E_b"]) > EB_TOL:
            fails.append(f"E_b {summary['binding_energy']!r} vs nu^2 {refs['E_b']!r}")
        largest = [r for r in rows if r["h"] == refs["h_max"]]
        if largest:
            _close("ground at largest h", largest[0]["ground_energy"],
                   refs["ground_h_max"], EIGEN_RTOL, fails)
        for r in rows:
            if not r["ground_energy"] <= r["upper_bound"]:
                fails.append(f"h={r['h']}: ground {r['ground_energy']!r} above "
                             f"upper bound {r['upper_bound']!r}")
        _close("threshold estimate", summary["threshold_estimate"],
               refs["threshold"], THRESHOLD_RTOL, fails, floor=0.0)

    elif name in ("continuity-disk", "continuity-slit"):
        ref = refs[name]
        d = summary["D"]
        _close("D_c", d - cfg["D_offset"], ref["D_c"], EIGEN_RTOL, fails)
        g = cfg["g"]
        gap = d - ref["D_c"]
        lower = -gap**2 * ref["area"] / (4.0 * g)
        one_mode = -gap**2 / (4.0 * g * ref["l4"])
        base = summary["base_energy"]
        slack = 1e-9 * max(1.0, abs(base))
        if not lower - slack <= base <= one_mode + slack:
            fails.append(f"base energy {base!r} outside [{lower!r}, {one_mode!r}]")
        if sorted(r["ell"] for r in rows) != sorted(cfg["ells"]):
            fails.append("scan rows do not cover ells")
        for r in rows:
            if not (r["energy_exterior"] <= base + slack
                    and base <= r["energy_interior"] + slack):
                fails.append(f"ell={r['ell']}: ordering E_ext <= E <= E_int fails")
        ells = [r["ell"] for r in rows]
        d_int = [r["energy_interior"] - base for r in rows]
        d_ext = [base - r["energy_exterior"] for r in rows]
        if name == "continuity-disk":
            if min(d_int + d_ext) <= 0:
                fails.append("disk energy differences are not positive")
            else:
                for side, diffs in (("interior", d_int), ("exterior", d_ext)):
                    exp = power_exponent(ells, diffs)
                    if exp < EXPONENT_MIN:
                        fails.append(f"disk {side} exponent {exp:.3f} < {EXPONENT_MIN}")
        elif rows and not min(d_ext) > max(1.0, 2.0 * max(d_int)):
            fails.append(f"slit exterior floor {min(d_ext)!r} not above "
                         f"max(1, 2 * {max(d_int)!r})")

    elif name == "dc-narrow-well":
        _close("narrow-well D_c", summary["dc"], refs[name], PROBE_RTOL, fails)

    elif name == "relative":
        if abs(summary["E_b"] - refs["E_b"]) > EB_TOL:
            fails.append(f"E_b {summary['E_b']!r} vs nu^2 {refs['E_b']!r}")
        _close("g_bcs", summary["g_bcs"], refs["g_bcs"], COUPLING_RTOL, fails)
        _close("g_0", summary["g_0"], refs["g_0"], COUPLING_RTOL, fails)

    elif name == "bcs-trial":
        ref = refs[name]
        g = summary["g_bcs"]
        _close("g_bcs", g, refs["g_bcs"], COUPLING_RTOL, fails)
        e_gp = gp_functional(cfg["amplitude"] * ref["mode"], ref["dx"], cfg["D"], g)
        for r in rows:
            _close(f"h={r['h']} gp_energy", r["gp_energy"], e_gp, ENERGY_RTOL, fails)
            if not (ADMISSIBLE[0] <= r["adm_min"] and r["adm_max"] <= ADMISSIBLE[1]):
                fails.append(f"h={r['h']}: admissibility [{r['adm_min']!r}, "
                             f"{r['adm_max']!r}] leaves [0, 1]")
        _shrinks(name, rows, "difference", fails)

    elif name == "density":
        ref = refs[name]
        _close("D", summary["D"], ref["lam"] + cfg["D_offset"], EIGEN_RTOL, fails)
        # the program's own coupling differs from the reference by under
        # COUPLING_RTOL, and the minimum energy scales as 1/g
        _close("gp_energy", summary["gp_energy"], ref["gp_energy"],
               10 * COUPLING_RTOL, fails)
        for r in rows:
            target = r["h"] * ref["psi_sq"]
            if not abs(r["particle_number"] - target) <= PARTICLE_RTOL * target:
                fails.append(f"h={r['h']}: particle number {r['particle_number']!r} "
                             f"not within {PARTICLE_RTOL:.0%} of {target!r}")
        _shrinks(name, rows, "weak_error_indicator", fails)
        _shrinks(name, rows, "weak_error_mode", fails)

    elif name == "semiclassics":
        for r in rows:
            if not r["identity_residual"] < IDENTITY_MAX:
                fails.append(f"h={r['h']}: identity residual {r['identity_residual']!r}")
        for col in ("field_residual", "quartic_energy_residual", "quartic_residual"):
            _shrinks(name, rows, col, fails)

    else:
        fails.append(f"no checks for op {name!r}")
    if "h_list" in cfg and sorted(r["h"] for r in rows) != sorted(cfg["h_list"]):
        fails.append("rows do not cover h_list")
    return fails


def check_repeat(first_csv: str | None, csv_text: str | None) -> list:
    """Repeated passes must write byte-identical rows.csv."""
    if first_csv != csv_text:
        return ["rows.csv differs from the first pass"]
    return []
