"""Sparse Dirichlet finite-difference operators and smallest-eigenpair solvers.

Operators are second-order central-difference stencils restricted to the
interior nodes of a mask, with zero Dirichlet values on the outside. A
one-dimensional operator is tridiagonal, and its smallest eigenpair comes
from one LAPACK call: bisection by Sturm counts (stebz) picks the eigenvalue
of index 0, which certifies it as the smallest, and inverse iteration
(stein) gives its vector. Every other operator takes ARPACK in shift-invert
mode (Ericsson & Ruhe 1980; Lehoucq, Sorensen & Yang 1998) on one symmetric
LU factor of the shifted matrix A - sigma I. The shift starts from the
caller's estimate of the smallest eigenvalue lambda_1, a little below it:
close to lambda_1, ARPACK needs the fewest LU solves. By Sylvester's law of
inertia the factor's pivots are all positive exactly when sigma lies below
every eigenvalue, and then the eigenvalue nearest sigma is the smallest: the
pivot check of that one factor certifies the result. A shift the check
refuses costs one more factorization, at the shift just under the
Gershgorin lower bound, which lies below the spectrum by construction.

A symmetric operator is solved on the fundamental domain of its symmetry
group (the symmetry-adapted reduction: Fassler & Stiefel, Group Theoretical
Methods and Their Applications, 1992). ``orbit_map`` takes a group of node
maps and gives each node of the domain its images and its orbit size m;
``Orbits.stencil`` folds a stencil A onto the invariant fields, B = S^T A S,
with the orbit weights sqrt(m_u / m_v). A stencil operator is a Z-matrix,
so it has a nonnegative ground vector, and the sum of its images is an
invariant ground vector: B has the same smallest eigenvalue, and the pivots
that certify a shift for B certify it for A. ``onset_threshold`` folds
every two-dimensional mask that flips along grid axes map onto themselves
exactly (``mirror_orbits``), not a one-dimensional one, which one LAPACK
call solves whole; ``twobody`` folds the pair operator by the exchange and
the reflection of the product domain.

The Hardy quotient takes ARPACK on one certified factor in every dimension,
and the pivots of one more certify its largest eigenvalue from above.

Potentials may be any per-node finite field: integrability conditions of the
continuum theory (W in some L^p class) have no pointwise meaning on a grid
and are not checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, eigh_tridiagonal
from scipy.sparse.linalg import ArpackError, LinearOperator, SuperLU, eigsh, splu

from .geometry import DomainMask, GeometryError
from .grid import ScalarField


# LU solves that one eigensolve may make before it reports no convergence
MAX_LU_SOLVES = 400
# ARPACK's Lanczos basis size on a solve given a start vector (clamped to the
# operator's size); a solve with no start keeps ARPACK's default of 20
START_NCV = 4


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


def assemble_dirichlet(
    mask: DomainMask,
    laplacian_coefficient: float = -1.0,
    potential: ScalarField | None = None,
    shift: float = 0.0,
) -> StencilOperator:
    """c Laplacian + potential + shift on the interior nodes of ``mask``, c =
    ``laplacian_coefficient``, with zero Dirichlet values outside: neighbours
    along axis a couple by c / h_a^2, and the diagonal is
    c (-2 sum_a 1 / h_a^2), plus the potential, plus the shift."""
    if mask.count == 0:
        raise GeometryError("mask has no interior nodes")
    if potential is not None and potential.grid != mask.grid:
        raise SpectralError("potential lives on a different grid")
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
        coupling = np.full(i_lo.size, laplacian_coefficient * inv_h2)
        rows.extend((i_lo, i_hi))
        cols.extend((i_hi, i_lo))
        vals.extend((coupling, coupling))

    diag = laplacian_coefficient * diag
    if potential is not None:
        diag = diag + np.asarray(potential.values)[inside]
    if shift != 0.0:
        diag = diag + shift
    rows.append(np.arange(n_in))
    cols.append(np.arange(n_in))
    vals.append(diag)
    mat = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_in, n_in),
    )
    return StencilOperator(mask, mat.tocsr())


@dataclass
class Orbits:
    """The orbits of a group G of node maps on the fundamental domain
    ``reduced``: ``images`` holds, for each g in G (the identity first), the
    index arrays of the image of every node of ``reduced``, in the order of
    its ``field``; ``stab`` the size of each node's stabilizer. A node's
    orbit has m = |G| / stab distinct nodes."""

    reduced: DomainMask
    images: tuple
    stab: np.ndarray

    @property
    def order(self) -> int:
        return len(self.images)

    @property
    def sizes(self) -> np.ndarray:
        """The orbit size m of each node."""
        return (self.order // self.stab).astype(float)

    def unfold(self, values: np.ndarray) -> np.ndarray:
        """The G-invariant array on the whole grid that takes ``values[u]``
        on every image of node u."""
        out = np.zeros(self.reduced.grid.shape)
        for image in self.images:
            out[image] = values
        return out

    def stencil(self, laplacian_coefficient: float = -1.0,
                potential: ScalarField | None = None,
                isometric: bool = True) -> StencilOperator:
        """The stencil A of ``assemble_dirichlet`` on the G-invariant mask,
        restricted to the G-invariant fields, on the fundamental domain.

        With S the isometry that maps node u onto the unit sum of its orbit,
        sum_{y in orbit(u)} e_y / sqrt(m_u), this is B = S^T A S:
        B_uv = sqrt(m_u / m_v) sum_{y in orbit(v)} A_uy. For u != v the sum
        is k_uv A_uv, with k_uv the number of distinct images of v adjacent
        to u; for u = v it adds the images of u adjacent to u, which occur
        only across the middle of an even-length flipped axis. With
        ``isometric`` false it is M^(1/2) B M^(1/2), M = diag(m): the
        operator on the node values of an invariant field, m_u k_uv A_uv off
        the diagonal, whose integer weights keep it exactly symmetric and
        exactly A for the trivial group. A potential must be G-invariant.
        """
        op = assemble_dirichlet(self.reduced, laplacian_coefficient, potential)
        if self.order == 1:
            return op
        mat, m = op.matrix, self.sizes
        rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
        cols = mat.indices
        # k_uv off the diagonal, and on it the couplings of u to its images;
        # an image of v other than v that is adjacent to u lies off the
        # domain, so only the rows of nodes next to the rest of the mask can
        # have k_uv > 1 or a self term
        rest = (self.unfold(np.ones(m.size)) > 0) & ~self.reduced.inside
        edge = np.zeros_like(rest)
        for a in range(rest.ndim):
            lo, hi = [slice(None)] * rest.ndim, [slice(None)] * rest.ndim
            lo[a], hi[a] = slice(0, -1), slice(1, None)
            edge[tuple(lo)] |= rest[tuple(hi)]
            edge[tuple(hi)] |= rest[tuple(lo)]
        e = np.flatnonzero(edge[self.reduced.inside][rows])
        u, v = rows[e], cols[e]
        coupling = laplacian_coefficient / np.asarray(self.reduced.grid.spacing) ** 2
        hits, to_u = np.zeros(e.size, dtype=int), np.zeros(e.size)
        for image in self.images:
            step = np.abs(np.stack([g[v] - x[u] for g, x in zip(image, self.images[0])]))
            hit = step.sum(axis=0) == 1
            hits += hit
            to_u += np.where(hit, coupling @ step, 0.0)
        # each distinct image is hit once per element of its stabilizer
        k, to_self = np.ones(cols.size), np.zeros(cols.size)
        on_diag = u == v
        k[e] = np.where(on_diag, 1, hits // self.stab[v])
        to_self[e] = np.where(on_diag, to_u / self.stab[u], 0.0)
        mat.data += to_self
        mat.data *= (np.sqrt(m[rows] / m[cols]) if isometric else m[rows]) * k
        return op

    def row_scaled(self, mat: sparse.spmatrix) -> sparse.spmatrix:
        """T B T^-1 with T = diag(sqrt(stab)) for the isometric stencil B:
        its rows are those of A, to which B is similar on the invariant
        fields, and its Gershgorin bound is A's. B's own bound sits lower,
        at its weighted couplings next to the fixed nodes, and a shift that
        far below lambda_1 costs ARPACK more LU solves."""
        s = np.sqrt(self.stab)
        return sparse.diags(s) @ mat @ sparse.diags(1.0 / s)


def orbit_map(reduced: DomainMask, maps) -> Orbits:
    """The orbits of the group of node maps ``maps`` (the identity first;
    each takes the index arrays of nodes and returns those of their images)
    on its fundamental domain ``reduced``."""
    nodes = np.nonzero(reduced.inside)
    images = tuple(tuple(g(*nodes)) for g in maps)
    stab = np.zeros(nodes[0].size, dtype=int)
    for image in images:
        fixed = image[0] == nodes[0]
        for a, b in zip(image[1:], nodes[1:]):
            fixed &= a == b
        stab += fixed
    return Orbits(reduced, images, stab)


def mirror_orbits(mask: DomainMask, potential: ScalarField | None = None) -> Orbits:
    """The orbits of the flips k -> n_a - 1 - k along the grid axes a that
    map ``mask`` and the potential's values on it onto themselves exactly,
    on the fundamental domain: the nodes with k >= n_a // 2 along every
    flipped axis. The group has order 1, 2 or 4 on a plane. A
    one-dimensional mask gets the trivial group: its operator is
    tridiagonal and solved by one LAPACK call, which halving would not
    speed up."""
    inside = mask.inside
    flips = []
    if mask.grid.dim > 1:
        w = None if potential is None else np.where(inside, potential.values, 0.0)
        flips = [a for a in range(mask.grid.dim)
                 if np.array_equal(inside, np.flip(inside, a))
                 and (w is None or np.array_equal(w, np.flip(w, a)))]
    if not flips:
        return orbit_map(mask, (lambda *nodes: nodes,))
    n = mask.grid.n
    keep = inside.copy()
    for a in flips:
        lower = [slice(None)] * mask.grid.dim
        lower[a] = slice(0, n[a] // 2)
        keep[tuple(lower)] = False
    subsets = [()]
    for a in flips:
        subsets += [s + (a,) for s in subsets]

    def flip(axes):
        return lambda *nodes: tuple(n[a] - 1 - k if a in axes else k
                                    for a, k in enumerate(nodes))

    return orbit_map(DomainMask(mask.grid, keep), [flip(s) for s in subsets])


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
    start: np.ndarray | None = None,
) -> EigenResult:
    """Lowest eigenpair, certified as the lowest.

    ``tol`` is relative: the returned unit vector has
    ||A v - lam v||_2 <= max(tol * min(||A||_est, max(1, |lam|)), 32 eps ||A||_est),
    and lam is its Rayleigh quotient.

    A one-dimensional (tridiagonal) operator is solved by LAPACK stebz +
    stein: bisection by Sturm counts picks the eigenvalue of index 0, so the
    smallest, and inverse iteration gives its vector. No LU solve is made,
    and ``iterations`` is 0.

    Every other operator takes ARPACK shift-invert on one LU factor of
    A - sigma I, whose positive pivots certify that sigma lies below
    lambda_1. ``MAX_LU_SOLVES`` caps the LU solves; ``iterations`` reports
    them. ``sigma`` belongs to this path: a shift estimate, a little below
    lambda_1, or a tuple of them in the order to try. The first that the
    pivots admit is used, and each refused one costs one factorization. The
    Gershgorin shift of A, which always lies below, is the last resort and
    the default. ``start``, a nonzero vector of the operator's length, also
    belongs to this path: ARPACK starts from it, with a basis of
    ``START_NCV`` vectors in place of its default 20. A start close to the
    ground vector only saves LU solves: the certified shift, the cap and the
    residual target are the same. Like ARPACK's random start, it must not be
    orthogonal to the ground vector; a nonnegative start never is, as the
    ground vector of a stencil operator on a connected mask is positive.
    """
    if tol <= 0:
        raise SpectralError("tolerance must be positive")
    mat = op.matrix
    n = mat.shape[0]
    arpack_start = {}
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (n,):
            raise SpectralError(f"start vector of shape {start.shape} for an "
                                f"operator of {n} unknowns")
        if not np.all(np.isfinite(start)) or not np.any(start):
            raise SpectralError("start vector must be finite and nonzero")
        arpack_start = {"v0": start, "ncv": min(START_NCV, n)}
    norm_est = op.norm_estimate()

    # tighter than tol * ||A||_est (stiff stencils have huge norms), but not
    # below the floating-point floor eps * ||A||
    eps_floor = 32 * np.finfo(float).eps * norm_est
    if op.mask.grid.dim == 1 or n == 1:  # tridiagonal
        try:
            _, vecs = eigh_tridiagonal(mat.diagonal(), mat.diagonal(1),
                                       select="i", select_range=(0, 0))
        except LinAlgError as exc:  # stein: inverse iteration failed
            raise SpectralError(f"tridiagonal eigensolver failed: {exc}") from exc
        v, solves, how = vecs[:, 0], 0, "by stebz + stein"
    else:
        for estimate in np.atleast_1d(() if sigma is None else sigma):
            try:
                lu = shifted_factor(mat, estimate)
            except SpectralError:  # the estimate is not below lambda_1
                continue
            sigma = float(estimate)
            break
        else:
            sigma = gershgorin_shift(mat)
            lu = shifted_factor(mat, sigma)
        # ARPACK stops when the Ritz estimate of (A - sigma I)^-1 is below
        # arpack_tol * |theta|, which bounds ||A v - lam v|| by
        # ||A - sigma I|| * arpack_tol: aim at the smallest target lam allows
        arpack_tol = (max(tol * min(norm_est, 1.0), eps_floor)
                      / (norm_est + abs(sigma)))
        _, v, solves = _eigsh_lu(lu.solve, n, f"eigensolver (shift {sigma:.6g})",
                                 shift_invert=mat, sigma=sigma, which="LM",
                                 tol=arpack_tol, **arpack_start)
        how = f"in {solves} LU solves (shift {sigma:.6g})"
    av = mat @ v
    lam = float(v @ av)
    # scaled by a power of two near ||A||_est, exactly, so that the sum of
    # squares cannot overflow for a huge potential
    scale = np.frexp(norm_est)[1]
    residual = float(np.ldexp(np.linalg.norm(np.ldexp(av - lam * v, -scale)),
                              scale))
    target = max(tol * min(norm_est, max(1.0, abs(lam))), eps_floor)
    if residual > target:
        raise SpectralError(f"eigensolver did not converge {how}: residual "
                            f"{residual:.3e}, target {target:.3e}")

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

    A two-dimensional mask whose inside and W are exactly invariant under
    flips along grid axes (``mirror_orbits``) is solved on the fundamental
    domain of that flip group, as B = S^T A S (``Orbits.stencil``). A is a
    Z-matrix that commutes with the flips, so it has an invariant ground
    vector, which B keeps: lambda_1(B) = lambda_1(A), and the pivots that
    certify a shift below lambda_1(B) certify it below lambda_1(A). The
    shift is the Gershgorin floor of A's rows (``Orbits.row_scaled``). The
    vector S v is the ground vector of A on the whole mask, with the same
    residual and the same norm, and is returned unfolded, nonnegative and
    normalized as any other. A one-dimensional mask is not folded: its
    operator is tridiagonal and solved by one LAPACK call. A domain folded
    to one node takes that path too.
    """
    orbits = mirror_orbits(mask, potential)
    op = orbits.stencil(-0.25, potential)
    # with the trivial group B is A, whose floor is the solver's default
    sigma = (None if orbits.order == 1
             else gershgorin_shift(orbits.row_scaled(op.matrix)))
    res = smallest_eigenpair(op, tol=tol, sigma=sigma)
    v = np.asarray(res.eigenvector.values)[orbits.reduced.inside]
    unfolded = orbits.unfold(v / np.sqrt(orbits.sizes))
    return EigenResult(res.eigenvalue, ScalarField(mask.grid, unfolded),
                       res.residual, res.iterations)


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
