"""Sparse Dirichlet finite-difference operators and smallest-eigenpair solvers.

Operators are second-order central-difference stencils restricted to the
interior nodes of a mask, with zero Dirichlet values on the outside. The
smallest eigenpair is found by ARPACK in shift-invert mode (Ericsson & Ruhe
1980; Lehoucq, Sorensen & Yang 1998) on one symmetric LU factor of the
shifted matrix A - sigma I. The shift starts from an estimate of the
smallest eigenvalue lambda_1, a little below it: close to lambda_1, ARPACK
needs the fewest LU solves. By Sylvester's law of inertia the factor's
pivots are all positive exactly when sigma lies below every eigenvalue, and
then the eigenvalue nearest sigma is the smallest: the pivot check of that
one factor certifies the result. A shift the check refuses costs one more
factorization, at the shift just under the Gershgorin lower bound, which
lies below the spectrum by construction. A one-dimensional operator is
tridiagonal, and its estimate comes from a loose Sturm bisection (LAPACK
stebz); other callers pass theirs.

The Hardy quotient takes the same path, ARPACK on one certified factor, and
the pivots of one more certify its largest eigenvalue from above.

Potentials may be any per-node finite field: integrability conditions of the
continuum theory (W in some L^p class) have no pointwise meaning on a grid
and are not checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eigvalsh_tridiagonal
from scipy.sparse.linalg import ArpackError, LinearOperator, SuperLU, eigsh, splu

from .geometry import DomainMask, GeometryError
from .grid import ScalarField


# LU solves that one eigensolve may make before it reports no convergence
MAX_LU_SOLVES = 400
# Sturm-bisection shift of a tridiagonal operator: lambda_1 and lambda_2 to
# this absolute tolerance relative to ||A||_est, and the shift this fraction
# of their gap below lambda_1 (at least twice the tolerance)
BISECTION_TOL = 1e-8
GAP_FRACTION = 0.1


class SpectralError(RuntimeError):
    """Solver failure or operator misuse."""


@dataclass
class StencilOperator:
    """Symmetric stencil c * Laplacian + potential + shift on a mask."""

    mask: DomainMask
    matrix: sparse.csr_matrix

    @property
    def n_unknowns(self) -> int:
        return self.matrix.shape[0]

    def norm_estimate(self) -> float:
        """Gershgorin bound on the spectral radius."""
        m = self.matrix
        return float(np.max(np.abs(m).sum(axis=1)))


def dirichlet_laplacian_matrix(mask: DomainMask) -> sparse.csr_matrix:
    """Plain Laplacian (sum of second differences) on the interior nodes."""
    grid = mask.grid
    inside = mask.inside
    n_in = mask.count
    index = -np.ones(grid.shape, dtype=np.int64)
    index[inside] = np.arange(n_in)

    diag = np.zeros(n_in)
    rows, cols, vals = [], [], []
    for a in range(grid.dim):
        inv_h2 = 1.0 / grid.spacing[a] ** 2
        diag -= 2.0 * inv_h2
        sl_lo = [slice(None)] * grid.dim
        sl_hi = [slice(None)] * grid.dim
        sl_lo[a] = slice(0, -1)
        sl_hi[a] = slice(1, None)
        both = inside[tuple(sl_lo)] & inside[tuple(sl_hi)]
        i_lo = index[tuple(sl_lo)][both]
        i_hi = index[tuple(sl_hi)][both]
        rows.extend((i_lo, i_hi))
        cols.extend((i_hi, i_lo))
        vals.extend((np.full(i_lo.size, inv_h2), np.full(i_lo.size, inv_h2)))

    rows.append(np.arange(n_in))
    cols.append(np.arange(n_in))
    vals.append(diag)
    mat = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_in, n_in),
    )
    return mat.tocsr()


def assemble_dirichlet(
    mask: DomainMask,
    laplacian_coefficient: float = -1.0,
    potential: ScalarField | None = None,
    shift: float = 0.0,
) -> StencilOperator:
    if mask.count == 0:
        raise GeometryError("mask has no interior nodes")
    mat = laplacian_coefficient * dirichlet_laplacian_matrix(mask)
    if potential is not None:
        if potential.grid != mask.grid:
            raise SpectralError("potential lives on a different grid")
        mat = mat + sparse.diags(np.asarray(potential.values)[mask.inside])
    if shift != 0.0:
        mat = mat + shift * sparse.identity(mask.count, format="csr")
    return StencilOperator(mask, mat.tocsr())


@dataclass
class EigenResult:
    eigenvalue: float
    eigenvector: ScalarField
    residual: float
    iterations: int


# SuperLU options for symmetric matrices: minimum-degree ordering of A^T + A,
# applied on both sides, with the pivots kept on the diagonal
SYMMETRIC_LU = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
                "options": {"SymmetricMode": True}}


def _factor_positive_definite(mat: sparse.spmatrix) -> SuperLU:
    """Sparse LU of a matrix that must be symmetric positive definite.

    The ordering is minimum degree on A^T + A, applied symmetrically, and the
    pivots stay on the diagonal, so U = D L^T. By Sylvester's law of inertia
    the matrix is positive definite exactly when every pivot (diagonal entry
    of U) is positive; that is checked here, at no extra factorization.
    """
    try:
        lu = splu(sparse.csc_matrix(mat), **SYMMETRIC_LU)
    except RuntimeError as exc:  # SuperLU: exactly singular
        raise SpectralError(f"matrix is not positive definite: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SpectralError("symmetric LU pivoted off the diagonal")
    if not np.all(lu.U.diagonal() > 0):
        raise SpectralError("matrix is not positive definite: "
                            "its symmetric LU has a nonpositive pivot")
    return lu


def gershgorin_shift(mat: sparse.spmatrix) -> float:
    """Shift sigma just under the Gershgorin lower bound of ``mat``, so below
    every eigenvalue: ``mat - sigma I`` is strictly diagonally dominant with a
    positive diagonal. The bound holds as well for any matrix whose spectrum
    lies inside that of ``mat``."""
    diag = mat.diagonal()
    radius = np.asarray(abs(mat).sum(axis=1)).ravel() - np.abs(diag)
    lower = float(np.min(diag - radius))
    return lower - 1e-3 * (abs(lower) + 1.0)


def _sturm_shift(mat: sparse.spmatrix, norm_est: float, floor: float) -> float:
    """Shift estimate for a tridiagonal symmetric ``mat``: lambda_1 and
    lambda_2 by Sturm bisection to the absolute tolerance t = BISECTION_TOL
    ||A||_est, and sigma = lambda_1 - max(GAP_FRACTION (lambda_2 - lambda_1),
    2 t), never below ``floor`` (a shift known to be valid)."""
    t = BISECTION_TOL * norm_est
    lam = eigvalsh_tridiagonal(mat.diagonal(), mat.diagonal(1), select="i",
                               select_range=(0, 1), tol=t)
    return max(lam[0] - max(GAP_FRACTION * (lam[1] - lam[0]), 2 * t), floor)


def shifted_factor(mat: sparse.spmatrix, sigma: float) -> SuperLU:
    """Certified LU factor of ``mat - sigma I``: its positive pivots confirm
    that sigma lies below every eigenvalue of ``mat``. In shift-invert mode
    the eigenvalue nearest sigma is then the smallest."""
    ident = sparse.identity(mat.shape[0], format="csc")
    return _factor_positive_definite(mat - sigma * ident)


def _eigsh_lu(solve, n: int, what: str, shift_invert=None, **kwargs) -> tuple:
    """(eigenvalue, unit eigenvector, LU solves) of ``eigsh(k=1, rng=0)`` on
    ``solve``, one LU solve per call: the shift-invert inverse of the matrix
    ``shift_invert``, or else the operator itself. More than MAX_LU_SOLVES
    solves, or an ArpackError, raise SpectralError naming ``what``."""
    solves = 0

    def counted(b):
        nonlocal solves
        if solves == MAX_LU_SOLVES:
            raise SpectralError(
                f"{what} did not converge in {MAX_LU_SOLVES} LU solves")
        solves += 1
        return solve(b)

    op = LinearOperator((n, n), matvec=counted, dtype=float)
    if shift_invert is not None:  # eigsh(A, OPinv=(A - sigma I)^-1)
        op, kwargs["OPinv"] = shift_invert, op
    try:
        vals, vecs = eigsh(op, k=1, rng=0, **kwargs)
    except ArpackError as exc:
        raise SpectralError(f"{what} failed: {exc}") from exc
    return float(vals[0]), vecs[:, 0], solves


def smallest_eigenpair(
    op: StencilOperator,
    tol: float = 1e-10,
    sigma: float | tuple | None = None,
) -> EigenResult:
    """Lowest eigenpair by ARPACK shift-invert on one certified LU factor.

    ``tol`` is relative: the returned unit vector has
    ||A v - lam v||_2 <= max(tol * min(||A||_est, max(1, |lam|)), 32 eps ||A||_est).
    ``MAX_LU_SOLVES`` caps the LU solves; ``iterations`` reports them.

    ``sigma`` is a shift estimate, a little below lambda_1, or a tuple of
    them in the order to try. Each is checked by the pivots of its factor:
    the first that lies below lambda_1 is used, and each refused one costs
    one factorization. The Gershgorin shift of A, which always lies below,
    is the last resort. Without ``sigma``, a one-dimensional (tridiagonal)
    operator takes its estimate from Sturm bisection (``_sturm_shift``) and
    any other the Gershgorin shift directly. However the shift was found,
    the result is the certified smallest eigenpair.
    """
    if tol <= 0:
        raise SpectralError("tolerance must be positive")
    mat = op.matrix
    n = mat.shape[0]
    norm_est = op.norm_estimate()

    if n == 1:
        field = op.mask.field(np.ones(1) / np.sqrt(op.mask.grid.node_weight))
        return EigenResult(float(mat[0, 0]), field, 0.0, 0)

    lowest = gershgorin_shift(mat)
    if sigma is None:
        sigma = _sturm_shift(mat, norm_est, lowest) if op.mask.grid.dim == 1 else ()
    for estimate in np.atleast_1d(sigma):
        try:
            lu = shifted_factor(mat, estimate)
        except SpectralError:  # the estimate is not below lambda_1
            continue
        sigma = float(estimate)
        break
    else:
        sigma = lowest
        lu = shifted_factor(mat, sigma)
    # tighter than tol * ||A||_est (stiff stencils have huge norms), but not
    # below the floating-point floor eps * ||A||
    eps_floor = 32 * np.finfo(float).eps * norm_est
    # ARPACK stops when the Ritz estimate of (A - sigma I)^-1 is below
    # arpack_tol * |theta|, which bounds ||A v - lam v|| by
    # ||A - sigma I|| * arpack_tol: aim at the smallest target lam allows
    arpack_tol = max(tol * min(norm_est, 1.0), eps_floor) / (norm_est + abs(sigma))
    _, v, solves = _eigsh_lu(lu.solve, n, f"eigensolver (shift {sigma:.6g})",
                             shift_invert=mat, sigma=sigma, which="LM",
                             tol=arpack_tol)
    av = mat @ v
    lam = float(v @ av)
    # scaled by a power of two near ||A||_est, exactly, so that the sum of
    # squares cannot overflow for a huge potential
    scale = np.frexp(norm_est)[1]
    residual = float(np.ldexp(np.linalg.norm(np.ldexp(av - lam * v, -scale)),
                              scale))
    target = max(tol * min(norm_est, max(1.0, abs(lam))), eps_floor)
    if residual > target:
        raise SpectralError(
            f"eigensolver did not converge in {solves} LU solves "
            f"(residual {residual:.3e}, target {target:.3e}, shift {sigma:.6g})"
        )

    # sign fix: nonnegative integral
    if np.sum(v) < 0:
        v = -v
    qn = np.sqrt(np.sum(np.abs(v) ** 2)) * np.sqrt(op.mask.grid.node_weight)
    field = op.mask.field(v / float(qn))
    # v has unit Euclidean norm, so the L2-normalized residual equals this one
    return EigenResult(lam, field, residual, solves)


def onset_threshold(
    mask: DomainMask,
    potential: ScalarField | None = None,
    tol: float = 1e-10,
) -> EigenResult:
    """Ground eigenpair of -(1/4) Laplacian + W with Dirichlet walls.

    The eigenvalue is the threshold above which the quadratic coefficient in
    the condensate functional turns the zero state unstable.
    """
    op = assemble_dirichlet(mask, -0.25, potential)
    return smallest_eigenpair(op, tol=tol)


def hardy_quotient(
    mask: DomainMask,
    lambda_offset: float = 0.0,
    tol: float = 1e-8,
) -> float:
    """Largest mu with M_{d^-2} phi = mu (-Lap + lambda) phi on the mask.

    mu estimates sup over phi of int d^-2 |phi|^2 / (int |grad phi|^2 +
    lambda int |phi|^2); the implied boundary-decay constant is 2/sqrt(mu).
    Nodes closer to the complement than one spacing get zero weight, which
    caps the (never attained) continuum supremum on the grid.

    mu is the largest eigenvalue of S K^-1 S, K = -Lap + lambda (which must
    be positive definite) and S = diag sqrt(w), by ARPACK on the certified
    factor of K to a residual of tol/2 mu. mu is a Rayleigh quotient, so mu
    <= mu_max, and positive pivots of K - W / (mu (1 + delta)) prove mu_max <
    mu (1 + delta). delta = max(tol, 32 eps ||K||_est |phi|^2 / phi^T K phi),
    phi = K^-1 S v: below that floor rounding could refuse a correct mu.
    """
    stiff = assemble_dirichlet(mask, -1.0, None, lambda_offset)
    d = mask.dist[mask.inside]  # at least one spacing
    ok = d >= min(mask.grid.spacing)
    if not ok.any():
        raise SpectralError("no interior nodes clear of the boundary band")
    s = np.where(ok, 1.0 / d, 0.0)  # S, the square root of the weight

    try:
        lu = _factor_positive_definite(stiff.matrix)
    except SpectralError as exc:
        raise SpectralError(f"offset makes the gradient form indefinite "
                            f"({exc}); increase lambda_offset") from exc
    mu, v, _ = _eigsh_lu(lambda x: s * lu.solve(s * x), mask.count,
                         "Hardy quotient", which="LA", tol=tol / 2)
    phi = lu.solve(s * v)
    delta = max(tol, 32 * np.finfo(float).eps * stiff.norm_estimate()
                * float(phi @ phi) / float(phi @ (stiff.matrix @ phi)))
    try:
        _factor_positive_definite(stiff.matrix
                                  - sparse.diags(s**2 / (mu * (1.0 + delta))))
    except SpectralError as exc:
        raise SpectralError(f"Hardy quotient {mu:.6g} is not certified as the "
                            f"largest: K - W / (mu (1 + {delta:.1e})) is "
                            f"indefinite ({exc})") from exc
    return mu
