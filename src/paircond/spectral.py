"""Sparse Dirichlet finite-difference operators and smallest-eigenpair solvers.

Operators are second-order central-difference stencils restricted to the
interior nodes of a mask, with zero Dirichlet values on the outside. A
one-dimensional operator is the tridiagonal (d, e) of ``three_point``, with
no sparse matrix.

Every smallest eigenpair comes from one loop of inverse iteration (Parlett,
The Symmetric Eigenvalue Problem, 1998, ch. 4 and 11) on one certified
factor of A - sigma I: LAPACK's L D L^T (pttrf, pttrs) on a tridiagonal,
``splu`` on any other operator. A factor that completes proves sigma below
every eigenvalue, so from a start not orthogonal to the ground vector the
loop converges to lambda_1. The shift is the
caller's estimate, a little below lambda_1, or the Gershgorin floor, which
lies below the spectrum by construction. A tridiagonal step costs O(n), so
there the shift rises to rho - r (Ritz value rho, residual r) wherever its
factor is certified, and a last factor certifies lambda_1 > rho - target.
Any other factor costs 10-30 solves, so there sigma stays and each step
takes the Ritz pair of a window of three iterates.

Every sparse factorization is a call of ``splu`` (the pttrf factors are
not), one certified factor for symmetric positive-definite matrices. A
stencil in the natural node order has a narrow band, b = max |i - j| (1 in
1D, about the row width in 2D), and up to ``MAX_CHOLESKY_BAND`` it is
factored by banded Cholesky (LAPACK pbtrf): the factor completes, with a
positive, finite diagonal, only for a matrix that is positive definite up
to rounding (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
Thm 10.3). A wider band (3D masks, very wide 2D ones) keeps SuperLU's
symmetric LU, whose pivots are all positive exactly when the matrix is
positive definite (Sylvester's law of inertia).

A symmetric operator is solved on the fundamental domain of its symmetry
group (``mirror_orbits``, ``Orbits``): the onset solve and each condensate
component on the flips of a two-dimensional mask, and ``twobody``'s pair
operator on the exchange and reflection of its product domain.

The Hardy quotient is 1 / lambda_1 of D K D, D = diag(dist), by the same
solver, and one more certified factor proves it from above.

Potentials may be any per-node finite field: integrability conditions of the
continuum theory (W in some L^p class) have no pointwise meaning on a grid
and are not checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import lapack
from scipy.sparse.linalg import splu as superlu

from .geometry import DomainMask, GeometryError
from .grid import ScalarField


# solves with its factor (LU, or pttrs on a tridiagonal) that one eigensolve
# may make before it reports no convergence
MAX_LU_SOLVES = 400


class SpectralError(RuntimeError):
    """Solver failure or operator misuse."""


@dataclass
class StencilOperator:
    """Symmetric stencil c * Laplacian + potential + shift on a mask: the
    sparse ``csr`` matrix, or on a 1D mask the tridiagonal ``bands`` (d, e),
    e = 0 across a gap, whose ``matrix`` is made only when asked for."""

    mask: DomainMask
    csr: sparse.csr_matrix | None = None
    bands: tuple | None = None

    @property
    def matrix(self) -> sparse.csr_matrix:
        if self.csr is None:
            d, e = self.bands
            self.csr = sparse.diags((e, d, e), (-1, 0, 1), format="csr")
        return self.csr

    @property
    def n_unknowns(self) -> int:
        return self.matrix.shape[0] if self.bands is None else self.bands[0].size

    def norm_estimate(self) -> float:
        """Gershgorin bound on the spectral radius."""
        if self.bands is None:
            return float(np.max(np.abs(self.matrix).sum(axis=1)))
        d, e = self.bands
        return float(np.max(np.abs(d) + _radius(e)))


def _radius(e: np.ndarray) -> np.ndarray:
    """The Gershgorin radius |e_(i-1)| + |e_i| of each row of a tridiagonal
    with couplings e."""
    a = np.abs(e)
    return np.concatenate((a, [0.0])) + np.concatenate(([0.0], a))


def three_point(inside: np.ndarray, c: float, inv_dx2: float,
                shift=0.0) -> tuple:
    """(diagonal, off-diagonal) of the tridiagonal -c Lap + shift on the
    nodes of a 1D box, Dirichlet on ``inside``: rows and columns of outside
    nodes are zero. Each diagonal entry is summed, 2 c/dx^2 + shift, before
    it is used: the kinetic and potential parts may nearly cancel."""
    diag = np.where(inside, c * (2.0 * inv_dx2) + shift, 0.0)
    off = np.where(inside[:-1] & inside[1:], -c * inv_dx2, 0.0)
    return diag, off


def assemble_dirichlet(
    mask: DomainMask,
    laplacian_coefficient: float = -1.0,
    potential: ScalarField | None = None,
    shift: float = 0.0,
) -> StencilOperator:
    """c Laplacian + potential + shift on the interior nodes of ``mask``, c =
    ``laplacian_coefficient``, with zero Dirichlet values outside: neighbours
    along axis a couple by c / h_a^2, and the diagonal is
    c (-2 sum_a 1 / h_a^2), plus the potential, plus the shift. On a 1D mask
    the operator is its tridiagonal (d, e), from ``three_point``."""
    if mask.count == 0:
        raise GeometryError("mask has no interior nodes")
    if potential is not None and potential.grid != mask.grid:
        raise SpectralError("potential lives on a different grid")
    grid = mask.grid
    inside = mask.inside
    pot = 0.0 if potential is None else np.asarray(potential.values)
    if grid.dim == 1:
        diag, off = three_point(inside, -laplacian_coefficient,
                                1.0 / grid.spacing[0] ** 2, pot)
        nodes = np.flatnonzero(inside)
        return StencilOperator(mask, bands=(diag[nodes] + shift,
                                            off[nodes[:-1]]))
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
        diag = diag + pot[inside]
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
    """The orbits of a group G of grid symmetries on its fundamental domain
    ``reduced``, one node of each orbit: ``images`` holds, for each g in G
    (the identity first), the index arrays of the image of every node of
    ``reduced``, in the order of its ``field``; ``stab`` the size of each
    node's stabilizer. A node's orbit has m = |G| / stab distinct nodes.

    Every ground solve of the program is reduced this way, by the
    symmetry-adapted reduction of Fassler & Stiefel (Group Theoretical
    Methods and Their Applications, 1992). Let S be the isometry that maps
    node u onto the unit sum of its orbit, sum_{y in orbit(u)} e_y /
    sqrt(m_u). A stencil A that commutes with G (mask and potential exactly
    invariant, as ``mirror_orbits`` checks) is solved as B = S^T A S
    (``stencil``), its restriction to the G-invariant fields: an invariant
    subspace, so the spectrum of B lies inside that of A. A stencil operator
    is a Z-matrix, so it has a nonnegative ground vector v, and sum_g g v is
    a nonzero invariant ground vector: B keeps A's smallest eigenvalue on any
    mask, and the factor that certifies a shift below lambda_1(B) certifies
    it below lambda_1(A). S maps B's ground vector onto A's, with the same
    residual and norm (``ground_state``).
    """

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

    def fold(self, values: np.ndarray) -> np.ndarray:
        """S^T f for an array f on the whole grid: sum_g f(g u) /
        sqrt(|G| stab_u) at each node u of the fundamental domain."""
        return (sum(values[image] for image in self.images)
                / np.sqrt(self.order * self.stab))

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
        restricted to the G-invariant fields, on the fundamental domain:
        B = S^T A S, B_uv = sqrt(m_u / m_v) sum_{y in orbit(v)} A_uy, with
        the isometry S of the class docstring. For u != v the sum is
        k_uv A_uv, with k_uv the number of distinct images of v adjacent to
        u; for u = v it adds the images of u adjacent to u, which occur only
        across the middle of an even-length flipped axis. With
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
        far below lambda_1 costs the eigensolve more LU solves. The diagonal
        is B's, copied: recomputed as (s a_ii) / s it overflows once a_ii
        is within a factor s of the float maximum."""
        s = np.sqrt(self.stab)
        scaled = (sparse.diags(s) @ mat @ sparse.diags(1.0 / s)).tocsr()
        scaled.setdiag(mat.diagonal())
        return scaled

    def ground_state(self, op: StencilOperator, tol: float,
                     sigma: float | None = None,
                     start: np.ndarray | None = None) -> EigenResult:
        """Smallest eigenpair of A from ``op``, its isometric stencil B
        (``stencil``): ``smallest_eigenpair`` of B at the shift estimate
        ``sigma``, or with none at the Gershgorin floor of A's rows
        (``row_scaled``), started from ``start``, a vector of B's length, or
        with none from S^T 1 = sqrt(m), the fold of the solver's start on A:
        B's iteration is then A's restricted to the invariant fields. A
        refused estimate falls back to B's own Gershgorin shift. The
        eigenvector is S v, unfolded onto the whole grid as v / sqrt(m).
        With the trivial group B is A, and the shift and start the solver's
        defaults."""
        if self.order > 1:
            sigma = (gershgorin_shift(self.row_scaled(op.matrix))
                     if sigma is None else sigma)
            start = np.sqrt(self.sizes) if start is None else start
        res = smallest_eigenpair(op, tol=tol, sigma=sigma, start=start)
        v = np.asarray(res.eigenvector.values)[self.reduced.inside]
        field = ScalarField(self.reduced.grid, self.unfold(v / np.sqrt(self.sizes)))
        return EigenResult(res.eigenvalue, field, res.residual, res.iterations)


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


def mirror_orbits(mask: DomainMask, potential: ScalarField | None = None,
                  generators=None) -> Orbits:
    """The orbits of the grid symmetries that map ``mask`` and the
    potential's values on it onto themselves exactly, on a fundamental
    domain.

    ``generators`` are commuting involutions of the box grid, each a pair
    (flipped axes, transpose): the flips k -> n_a - 1 - k along those axes,
    then, with transpose, the swap of axes 0 and 1 (kept only on equal
    spacings). The default is the flip of each single axis, a group of
    order 1, 2 or 4 on a plane; ``twobody`` passes the exchange and the
    reflection of its product domain. The generators that hold generate G
    in subset order: the identity, then each generator times every element
    before it. Each orbit keeps its node of largest column-major flat index:
    for flips the nodes with k >= n_a // 2 along every flipped axis, and on
    the scan's product grid the quarter whose natural node order has the
    narrower band (114 against 227 at h = 0.035). A one-dimensional mask
    gets the trivial group: its operator is the tridiagonal (d, e), whose
    inverse iteration costs O(n) a step, and is not folded."""
    grid, inside, n = mask.grid, mask.inside, mask.grid.n
    if generators is None:
        generators = [((a,), False) for a in range(grid.dim)]

    def moved(f, flips, swap):
        # f at g(k) for the involution g
        f = np.flip(f, tuple(flips))
        return np.swapaxes(f, 0, 1) if swap else f

    fields = [inside]
    if potential is not None:
        fields.append(np.where(inside, potential.values, 0.0))
    group = [(frozenset(), False)]  # (flipped axes, transpose)
    for axes, swap in generators if grid.dim > 1 else ():
        if swap and grid.spacing[0] != grid.spacing[1]:
            continue
        if all(np.array_equal(f, moved(f, axes, swap)) for f in fields):
            # commuting involutions: a product flips the symmetric difference
            group += [(flips ^ set(axes), t != swap) for flips, t in group]
    if len(group) == 1:
        return orbit_map(mask, (lambda *nodes: nodes,))
    flat = np.arange(inside.size).reshape(inside.shape, order="F")
    keep = inside.copy()
    for e in group[1:]:
        keep &= flat >= moved(flat, *e)

    def node_map(flips, swap):
        def g(*nodes):
            out = [n[a] - 1 - k if a in flips else k for a, k in enumerate(nodes)]
            if swap:
                out[:2] = out[1::-1]
            return tuple(out)
        return g

    return orbit_map(DomainMask(grid, keep), [node_map(*e) for e in group])


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
# Widest band b = max |i - j| that ``splu`` factors by banded Cholesky; a
# wider one keeps SuperLU. On 2D boxes of 121 rows (one BLAS thread) the
# band factor is 1.6-3x faster than SuperLU's at b = 79-199, but past
# b = 130 each solve with it is slower, so its lead lasts about 200 solves
# up to b = 129, 63 at b = 139, 37 at b = 159 and 24 at b = 199. A Newton
# factor serves about 13 solves and an eigensolve from the Gershgorin floor
# 10-30: past b = 150 the band loses on the latter.
MAX_CHOLESKY_BAND = 150


class splu:
    """Certified factor of A + diag(``diag``), A symmetric, which must be
    positive definite; ``diag`` is a number or one entry per row.
    ``solve(b)`` gives the inverse times b, ``band`` is b = max |i - j| and
    ``nnz`` counts the entries the factor stores.

    Up to ``MAX_CHOLESKY_BAND`` the lower band, a Fortran-order (b + 1, n)
    array, is packed straight from A's CSR arrays with ``diag`` added to its
    first row, so no sparse matrix is made, factored in place by banded
    Cholesky (LAPACK pbtrf) and solved by pbtrs. The factor completes with a
    positive, finite diagonal only for a matrix that is positive definite up
    to rounding (Higham 2002, Thm 10.3); that completed factor is the
    certificate. A wider band takes SuperLU's symmetric LU (``SYMMETRIC_LU``)
    with its pivots on the diagonal, so U = D L^T, and by Sylvester's law of
    inertia the matrix is positive definite exactly when every pivot is
    positive: there the positive, finite pivots are the certificate. Either
    way a refused matrix raises SpectralError, at no extra factorization.

    Every sparse factorization of the program is a call of this name, in
    ``spectral`` or as ``gp.splu``, which the benchmark's layer tracer and
    the tests wrap to count and time them. It is a class because the tracer
    also wraps every public function of a module: a function would be timed
    twice.
    """

    def __init__(self, mat: sparse.spmatrix, diag=0.0):
        mat = mat.tocsr()
        n = mat.shape[0]
        rows = np.repeat(np.arange(n), np.diff(mat.indptr))
        cols = mat.indices
        band = int(np.max(np.abs(rows - cols), initial=0))
        self.band, self._lu = band, None
        if band <= MAX_CHOLESKY_BAND:
            low = rows >= cols
            rows, cols = rows[low], cols[low]
            # ab[i - j, j] = A[i, j], the lower band storage of pbtrf, in
            # Fortran order; duplicate entries add up as in the sparse matrix
            ab = np.bincount(cols * (band + 1) + (rows - cols),
                             weights=mat.data[low],
                             minlength=(band + 1) * n).reshape(n, band + 1).T
            ab[0] += diag
            self._band, info = lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
            self.nnz = ab.size
            pivots = self._band[0] if info == 0 else np.array([np.nan])
            how = (f"its banded Cholesky factor (band {band}) does not "
                   "complete with a positive, finite diagonal")
        else:
            mat = mat + sparse.diags(np.broadcast_to(diag, n))
            try:
                self._lu = superlu(sparse.csc_matrix(mat), **SYMMETRIC_LU)
            except RuntimeError as exc:  # SuperLU: exactly singular
                raise SpectralError(f"matrix is not positive definite: {exc}") from exc
            if not np.array_equal(self._lu.perm_r, self._lu.perm_c):
                raise SpectralError("matrix is not positive definite: its "
                                    "symmetric LU pivoted off the diagonal")
            self.nnz = self._lu.nnz
            pivots = self._lu.U.diagonal()
            how = "its symmetric LU has a nonpositive or nonfinite pivot"
        if not np.all((pivots > 0) & (pivots < np.inf)):
            raise SpectralError(f"matrix is not positive definite: {how}")

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self._lu is not None:
            return self._lu.solve(b)
        return lapack.dpbtrs(self._band, b, lower=1)[0]


def gershgorin_shift(mat: sparse.spmatrix) -> float:
    """Shift sigma just under the Gershgorin lower bound of ``mat``, so below
    every eigenvalue: ``mat - sigma I`` is strictly diagonally dominant with a
    positive diagonal. The bound holds as well for any matrix whose spectrum
    lies inside that of ``mat``. A radius sums only off-diagonal magnitudes:
    no diagonal near the float maximum is subtracted from itself."""
    mat = mat.tocsr()
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    off = rows != mat.indices
    radius = np.bincount(rows[off], weights=np.abs(mat.data[off]),
                         minlength=mat.shape[0])
    lower = float(np.min(mat.diagonal() - radius))
    return lower - 1e-3 * (abs(lower) + 1.0)


def shifted_factor(mat: sparse.spmatrix, sigma: float) -> splu:
    """Certified factor of ``mat - sigma I``, ``splu(mat, -sigma)``: its
    completion proves that sigma lies below every eigenvalue of ``mat``."""
    return splu(mat, -sigma)


class _TridiagonalFactor:
    """LAPACK pttrf's L D L^T factor of T - sigma I, T the finite tridiagonal
    (d, e), n >= 2; ``solve(b)`` gives (T - sigma I)^-1 b by pttrs. D is
    positive and finite, the certificate, only for sigma below lambda_1(T)
    up to rounding (Higham 2002, Thm 10.3); anything else raises
    SpectralError. pttrf passes a NaN, which ends in D[-1]."""

    def __init__(self, d: np.ndarray, e: np.ndarray, sigma: float):
        diag, off, info = lapack.dpttrf(d - sigma, e)
        if info != 0 or not diag[-1] < np.inf:
            raise SpectralError(f"shift {sigma:.6g} is not certified below the "
                                "spectrum: its pttrf factor has a nonpositive "
                                "or nonfinite pivot")
        self._factor = diag, off

    def solve(self, b: np.ndarray) -> np.ndarray:
        return lapack.dpttrs(*self._factor, b)[0]


def smallest_eigenpair(
    op: StencilOperator,
    tol: float = 1e-10,
    sigma: float | None = None,
    start: np.ndarray | None = None,
) -> EigenResult:
    """Lowest eigenpair, certified as the lowest.

    ``tol`` is relative: the returned unit vector has
    ||A v - lam v||_2 <= max(tol * min(||A||_est, max(1, |lam|)), 32 eps ||A||_est),
    and lam is its Rayleigh quotient.

    Every operator is solved by one loop of inverse iteration (Parlett, The
    Symmetric Eigenvalue Problem, 1998, ch. 4) on a certified factor of
    A - sigma I, whose completion proves sigma < lambda_1: pttrf
    (``_TridiagonalFactor``) on a one-dimensional operator, with no sparse
    matrix made, and ``splu`` (``shifted_factor``) on any other. ``sigma``
    is a shift estimate a little below lambda_1. If its factor refuses it,
    at the cost of that factorization, or none is given, the shift is the
    Gershgorin floor (``gershgorin_shift``), which always lies below and is
    computed only then. Each step solves (A - sigma I) w = v and takes the
    Ritz pair of a window of iterates; the loop stops once the residual r
    meets the target, and ``iterations`` counts its solves, at most
    ``MAX_LU_SOLVES``. The operator's kind picks the accelerator:

    - A tridiagonal step costs O(n), so its window is w alone: rho = sigma
      + c and r = |v - c w| / |w|, c = v.w / w.w, follow from A w = v +
      sigma w with no product by A. sigma rises to rho - r wherever that
      factor is certified, the loop runs on until r reaches the rounding
      floor or stops halving, and a last factor certifies lambda_1 >
      lam - target.
    - Any other factor costs 10-30 solves, so sigma stays and the window
      accelerates: the Rayleigh-Ritz pair of the span of v, w and the
      previous v (an orthonormal basis Q by Householder QR, and the
      smallest eigenpair of the 3 x 3 Q^T A Q), the locally optimal step of
      LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) preconditioned by the
      shifted inverse. The factor at sigma is the certificate.

    ``start``, a nonzero vector of the operator's length, is where the loop
    starts: a start close to the ground vector only saves solves, and it
    must not be orthogonal to the ground vector. The default is positive in
    D A D, D = diag(+-1) making every coupling of a tridiagonal negative,
    and all ones on any other operator. A Z-matrix, as every stencil with a
    negative Laplacian coefficient and D K D are, has a nonnegative ground
    vector, to which no positive start is orthogonal.
    """
    if tol <= 0:
        raise SpectralError("tolerance must be positive")
    n = op.n_unknowns
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (n,):
            raise SpectralError(f"start vector of shape {start.shape} for an "
                                f"operator of {n} unknowns")
        if not np.all(np.isfinite(start)) or not np.any(start):
            raise SpectralError("start vector must be finite and nonzero")
    norm_est = op.norm_estimate()

    # tighter than tol * ||A||_est (stiff stencils have huge norms), but not
    # below the floating-point floor eps * ||A||
    eps_floor = 32 * np.finfo(float).eps * norm_est

    def target_of(lam, unit=1.0, norm=norm_est, floor=eps_floor):
        return max(tol * min(norm, max(unit, abs(lam))), floor)

    # the loop runs on A scaled by a power of two near 1 / ||A||_est,
    # exactly: no solve, Ritz value or residual of it can overflow for a
    # huge potential
    scale = np.frexp(norm_est)[1]
    units = np.ldexp((1.0, norm_est, eps_floor), -scale)
    if op.bands is not None:
        d, e = (np.ldexp(x, -scale) for x in op.bands)
        mat, floor = None, units[2] / 32

        def factor_at(shift):
            return _TridiagonalFactor(d, e, shift)

        def floor_shift():
            lower = float(np.min(d - _radius(e)))
            return lower - 1e-3 * abs(lower) - floor

        v = np.concatenate(([1.0], np.cumprod(np.where(e > 0, -1.0, 1.0))))
    else:
        # A itself is factored and multiplied, and only the product scaled:
        # |A q| <= ||A||_est for orthonormal q, and the window is blind to
        # the scale of w
        mat, floor, v = op.matrix, np.inf, np.ones(n)

        def factor_at(shift):
            return shifted_factor(mat, np.ldexp(shift, scale))

        def floor_shift():
            return np.ldexp(gershgorin_shift(mat), -scale)

    if n == 1:  # exact, with no factor
        v, sigma, solves = np.ones(1), np.nan, 0
    else:
        v = v if start is None else start
        factor = None
        if sigma is not None:
            sigma = np.ldexp(sigma, -scale)
            try:
                factor = factor_at(sigma)
            except SpectralError:  # the estimate is not below lambda_1
                pass
        if factor is None:
            sigma = floor_shift()
            factor = factor_at(sigma)
        r_last, prev = np.inf, ()
        for solves in range(1, MAX_LU_SOLVES + 1):
            w = factor.solve(v)
            if mat is None:
                ww = w @ w
                c = (v @ w) / ww
                size, x = ww ** 0.5, v - c * w
                rho, r = sigma + c, (x @ x) ** 0.5 / size
                v = w / size
            elif not np.all(np.isfinite(w)):  # the solve broke down
                v = v / np.linalg.norm(v)  # the start may not be a unit vector
                break
            else:
                q = np.linalg.qr(np.column_stack((v, w) + prev))[0]
                aq = np.ldexp(mat @ q, -scale)
                theta, c = np.linalg.eigh(q.T @ aq)
                prev, v, rho = (v,), q @ c[:, 0], theta[0]
                r = np.linalg.norm(aq @ c[:, 0] - rho * v)
            if r <= target_of(rho, *units) and (r <= floor or 2 * r > r_last):
                break
            r_last = r
            if mat is None and rho - r > sigma:
                try:
                    factor, sigma = factor_at(rho - r), rho - r
                except SpectralError:  # rho - r is not below lambda_1
                    pass
        # converged on a tridiagonal: a last factor certifies lambda_1 >
        # rho - target
        if mat is None and r <= target_of(rho, *units) < rho - sigma:
            try:
                factor_at(rho - target_of(rho, *units))
            except SpectralError as exc:
                raise SpectralError(
                    f"Rayleigh quotient {np.ldexp(rho, scale):.6g} is not "
                    f"certified as the smallest eigenvalue: {exc}") from exc
    if op.bands is None:
        av = op.matrix @ v
    else:
        diag, off = op.bands
        av = diag * v
        av[1:] += off * v[:-1]
        av[:-1] += off * v[1:]
    lam = float(v @ av)
    residual = float(np.ldexp(np.linalg.norm(np.ldexp(av - lam * v, -scale)),
                              scale))
    target = target_of(lam)
    if not residual <= target:
        raise SpectralError(f"eigensolver did not converge in {solves} solves "
                            f"at the shift {np.ldexp(sigma, scale):.6g}: "
                            f"residual {residual:.3e}, target {target:.3e}")

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
    the condensate functional turns the zero state unstable. It is solved on
    the fundamental domain of the mask's flip group (``mirror_orbits``,
    ``Orbits.ground_state``), and the eigenvector is returned on the whole
    mask, nonnegative and normalized.
    """
    orbits = mirror_orbits(mask, potential)
    return orbits.ground_state(orbits.stencil(-0.25, potential), tol)


def hardy_quotient(
    mask: DomainMask,
    lambda_offset: float = 0.0,
    tol: float = 1e-8,
) -> float:
    """Largest mu with M_{d^-2} phi = mu (-Lap + lambda) phi on the mask.

    mu estimates sup over phi of int d^-2 |phi|^2 / (int |grad phi|^2 +
    lambda int |phi|^2); the implied boundary-decay constant is 2/sqrt(mu).
    Every inside node lies a spacing or more from the complement, so
    D = diag(d) is invertible, and phi = D u turns the problem into
    u = mu D K D u, K = -Lap + lambda: mu = 1 / rho for the smallest
    eigenpair (rho, u) of the symmetric Z-matrix D K D, by
    ``smallest_eigenpair`` at the shift 0, whose factor proves K positive
    definite. rho >= lambda_1 is a Rayleigh quotient, so mu <= mu_max, and a
    completed certified factor of D K D - rho / (1 + delta) I, congruent to
    K - W / (mu (1 + delta)), proves mu_max < mu (1 + delta). delta =
    max(tol, 32 eps ||K||_est |D u|^2 / rho), unit u (= |phi|^2 /
    phi^T K phi): below that floor rounding could refuse a correct mu.
    """
    op = assemble_dirichlet(mask, -1.0, None, lambda_offset)
    norm = op.norm_estimate()
    d = mask.dist[mask.inside]
    if op.bands is not None:
        diag, off = op.bands
        op.bands = (d * d * diag, d[:-1] * d[1:] * off)
    else:
        mat = op.matrix
        rows = np.repeat(np.arange(d.size), np.diff(mat.indptr))
        mat.data *= d[rows] * d[mat.indices]
    res = smallest_eigenpair(op, tol, sigma=0.0)
    rho = res.eigenvalue
    if not rho > 0:
        raise SpectralError(f"offset makes the gradient form indefinite "
                            f"(lambda_1(D K D) = {rho:.6g}); increase "
                            "lambda_offset")
    u = np.asarray(res.eigenvector.values)[mask.inside]
    delta = max(tol, 32 * np.finfo(float).eps * norm
                * float((d * u) @ (d * u)) / (float(u @ u) * rho))
    try:
        shifted_factor(op.matrix, rho / (1.0 + delta))
    except SpectralError as exc:
        raise SpectralError(f"Hardy quotient {1.0 / rho:.6g} is not certified "
                            f"as the largest: D K D - rho / (1 + {delta:.1e})"
                            f" I is indefinite ({exc})") from exc
    return 1.0 / rho
