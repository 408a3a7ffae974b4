"""Matrix Lie algebras, order-4 automorphisms and the four-fold grading.

Elements are real n x n matrices; the algebra is handled through a fixed
basis, so everything downstream works on coordinate vectors.  Complexified
vectors are plain complex coordinate arrays in the same basis.  Eigenspaces
of an order-4 automorphism are never computed with a generic eigensolver:
the averaging projectors P_k = (1/4) sum_m i^(-k*m) tau^m are exact
idempotents and carry no eigenvalue-ordering ambiguity.  The grade-adapted
basis of g^C (`GradedBasis`) is taken from their ranges by an SVD of each
P_k, and brackets in it run block by block, [g_j, g_k] -> g_(j+k).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np


class LieAlgebraError(Exception):
    pass


class NotClosed(LieAlgebraError):
    pass


class DependentBasis(LieAlgebraError):
    pass


class NotOrderFour(LieAlgebraError):
    pass


class DoesNotPreserveAlgebra(LieAlgebraError):
    pass


class BadGrade(LieAlgebraError):
    pass


class EffectivityFailure(LieAlgebraError):
    pass


class NonFinite(LieAlgebraError):
    pass


GRADES = (0, 1, 2, -1)


# The largest 1-norm theta_m at which the tail sum_{k>m} theta^k / k! of the
# exponential series is at most 2^-53, rounded down, for each Taylor degree m.
_TAYLOR_THETA = {4: 1.678394298278e-3, 8: 6.993278480782e-2,
                 12: 3.352136878286e-1, 18: 1.143296112226}
# Slices per stacked product in matrix_exp, the best of 256, 512, 1024 and
# 2048: the stacks _taylor keeps live for a batch (at most 1.4 MB for 5 x 5
# slices at degree 18) stay in a 2 MiB L2 cache.
_BATCH = 1024


def _taylor(A, m):
    """The degree-m Taylor polynomial sum_k A^k / k! of exp at a stack A of
    matrices by Paterson and Stockmeyer (SIAM J. Comput. 2 (1973)): with
    s = isqrt(m) and the powers A ... A^s, Horner's rule in A^s runs over the
    blocks sum_r A^r / (qs + r)!, the top one reaching A^s, so degrees 4, 8,
    12 and 18 take 2, 4, 5 and 7 stacked products.  Each block's identity
    term goes on the diagonal only."""
    s = math.isqrt(m)
    powers = [A]
    for _ in range(1, s):
        powers.append(powers[-1] @ A)
    top = (m - 1) // s   # the top block ends at A^(m - top s), of degree 1 ... s
    P, term = np.zeros(A.shape), np.empty(A.shape)
    for q in reversed(range(top + 1)):
        if q < top:
            P = P @ powers[-1]
        for r in reversed(range(1, m - q * s + 1 if q == top else s)):
            P += np.multiply(powers[r - 1], 1.0 / math.factorial(q * s + r), out=term)
        P.reshape(len(P), -1)[:, ::A.shape[-1] + 1] += 1.0 / math.factorial(q * s)
    return P


def matrix_exp(X):
    """Matrix exponential by scaling and squaring with a Taylor polynomial
    (Moler and Van Loan, SIAM Review 45 (2003), method 3).

    X is one (n, n) matrix or a stack (..., n, n).  Each slice gets the
    degree m in {4, 8, 12, 18} and, above theta_18, the scaling 2^-s that
    its own 1-norm selects; the slices of one degree share batched matrix
    products, run in batches of at most _BATCH slices, so a slice of a stack
    comes out exactly as it would alone.  exp(0) is the exact identity.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim < 2 or X.shape[-1] != X.shape[-2]:
        raise ValueError(f"matrix_exp: expected (..., n, n) matrices, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise NonFinite("matrix_exp: input has non-finite entries")
    A = X.reshape((math.prod(X.shape[:-2]),) + X.shape[-2:])
    out = np.empty_like(A)
    # 1-norms (0 for 0 x 0 matrices): the largest column sum of |A|, over blocks of at
    # most _BATCH slices written [column, row, slice], so no |A| copy of the whole stack
    # and every sum and maximum runs along the slices; the rows are added in order
    norms = np.empty(len(A))
    for lo in range(0, len(A), _BATCH):
        block = A[lo:lo + _BATCH]
        cols = np.abs(block.transpose(2, 1, 0), out=np.empty(block.shape[::-1])).sum(axis=1)
        np.max(cols, axis=0, initial=0.0, out=norms[lo:lo + _BATCH])
    thetas = np.array(list(_TAYLOR_THETA.values()))
    # the smallest degree whose theta bounds the norm; 18 with scaling above theta_18
    band = np.minimum(np.searchsorted(thetas, norms), len(thetas) - 1)
    scaling = np.ceil(np.log2(np.maximum(norms / thetas[-1], 1.0))).astype(int)
    # band by band, and within a band by descending scaling
    order = np.lexsort((-scaling, band))
    starts = np.searchsorted(band[order], np.arange(len(thetas) + 1))
    for i, m in enumerate(_TAYLOR_THETA):
        for lo in range(starts[i], starts[i + 1], _BATCH):
            idx = order[lo:min(lo + _BATCH, starts[i + 1])]
            s = scaling[idx]
            R = _taylor(A[idx] * np.exp2(-s)[:, None, None], m)
            # s is descending, so the slices still to be squared are a prefix
            for k in range(s[0]):
                live = np.count_nonzero(s > k)
                R[:live] = R[:live] @ R[:live]
            out[idx] = R
    return out.reshape(X.shape)


def _nonzero_terms(table):
    """The nonzeros of a bilinear table (i, j, k) as {k: [(i, j, c), ...]}.

    np.nonzero walks the table in C order, so the terms of each k come in
    (i, j) order, the order in which np.einsum("...i,...j,ijk->...k") sums
    them.
    """
    terms = {}
    for i, j, k in zip(*np.nonzero(table)):
        terms.setdefault(int(k), []).append((int(i), int(j), table[i, j, k].item()))
    return terms


def _sparse_product(terms, x, y, out):
    """out[k] += c x[i] y[j] over the terms {k: [(i, j, c), ...]}, each k's in their
    order: the one sparse bilinear kernel, on component-first arrays.

    i and j index the leading axes of x and y (an integer, or a pair for a
    matrix of planes), and x[i] y[j] broadcasts to out[k].  Each product is one
    np.multiply into one fixed temporary, or at a single point a numpy scalar (a
    tenth of a ufunc call's cost); a c other than +-1 scales it with one more
    call, and c = +-1 adds or subtracts with no multiply.  With a real operand
    this equals np.einsum("...i,...j,ijk->...k") bit for bit; a product of two
    complex operands is numpy's complex multiply, which rounds differently.
    """
    tmp = np.empty(out.shape[1:], np.result_type(x, y)) if out.ndim > 1 else None
    for k, row in terms.items():
        for i, j, c in row:
            p = np.multiply(x[i], y[j], out=tmp) if tmp is not None else x[i] * y[j]
            if c not in (1, -1):
                p *= c
            if c == -1:
                out[k] -= p
            else:
                out[k] += p
    return out


def _vec(mats):
    mats = np.asarray(mats, dtype=float)
    return mats.reshape(mats.shape[0], -1)


def _frobenius(M):
    """Frobenius norms of a stack of real matrices, each summed as np.linalg.norm
    sums a single matrix (a dot product of the flattened entries)."""
    flat = M.reshape(M.shape[:-2] + (M.shape[-2] * M.shape[-1],))
    return np.sqrt(np.vecdot(flat, flat))


@dataclass
class LieAlgebraRep:
    """A matrix Lie algebra presented by a basis.

    ambient_dim: size n of the ambient matrices.
    basis: (d, n, n) array of basis matrices.
    structure: (d, d, d) tensor, [b_i, b_j] = sum_k structure[i, j, k] b_k.
    killing: (d, d), killing[i, j] = trace(ad b_i o ad b_j).
    pinv: (d, n*n) left inverse of the vectorised basis, used to expand
        arbitrary matrices in coordinates.
    """

    ambient_dim: int
    basis: np.ndarray
    structure: np.ndarray
    killing: np.ndarray
    pinv: np.ndarray
    name: str = ""

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def matrix(self, xi):
        """Coordinate vector(s) -> ambient matrix(es); supports leading axes."""
        xi = np.asarray(xi)
        return (xi @ _vec(self.basis)).reshape(xi.shape[:-1] + self.basis.shape[1:])

    def coords(self, M, atol: float | None = 1e-8):
        """Expand ambient matrix(es) in the basis (least squares).

        Raises NotClosed when the residual of the expansion exceeds `atol`
        relative to the matrix norm; atol=None projects without checking
        (used for discretised data that is only O(h^2) close to the span).
        """
        M = np.asarray(M)
        flat = M.reshape(M.shape[:-2] + (-1,))
        xi = flat @ self.pinv.T
        if atol is not None:
            recon = xi @ _vec(self.basis)
            scale = max(np.max(np.abs(flat)), 1.0)
            err = np.max(np.abs(recon - flat))
            if err > atol * scale:
                raise NotClosed(f"matrix not in span of basis (residual {err:.3e})")
        return xi

    @functools.cached_property
    def _structure_terms(self):
        return _nonzero_terms(self.structure)

    def bracket_coords(self, xi, eta):
        """Bracket of coordinate vectors with broadcast leading axes: `_sparse_product`
        over the nonzero structure constants (52 of 1000 for se4_r4, 60 for so5_s4),
        at its one grid-last door, each operand copied once, component first, in
        the result type.  Equals np.einsum("...i,...j,ijk->...k", xi, eta, structure)
        bit for bit when an operand is real, and within roundoff when both are
        complex (one complex multiply per term, where einsum forms it from parts)."""
        dtype = np.result_type(xi, eta, self.structure)
        x, y = (np.ascontiguousarray(np.moveaxis(np.asarray(a, dtype), -1, 0)) for a in (xi, eta))
        out = np.zeros((self.dim,) + np.broadcast_shapes(x.shape[1:], y.shape[1:]), dtype)
        out = _sparse_product(self._structure_terms, x, y, out)
        return np.ascontiguousarray(np.moveaxis(out, 0, -1))

    def ad(self, xi):
        """Coordinate matrix of ad(xi): eta -> [xi, eta]."""
        xi = np.asarray(xi)
        return np.einsum("i,ijk->kj", xi, self.structure)


def build_algebra(basis, name: str = "") -> LieAlgebraRep:
    """Build a LieAlgebraRep from a list of square matrices.

    The basis is Frobenius-normalised so that coordinate norms are
    comparable across fixtures.  Fails with NotClosed if some bracket
    leaves the span (relative residual above 1e-8), DependentBasis if the
    matrices are linearly dependent.
    """
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
        raise DependentBasis("basis must be a list of square matrices of equal size")
    norms = _frobenius(basis)
    if np.any(norms < 1e-14):
        raise DependentBasis("zero basis matrix")
    basis = basis / norms[:, None, None]
    d, n, _ = basis.shape
    V = _vec(basis)  # (d, n*n)
    sv = np.linalg.svd(V, compute_uv=False)
    if d > n * n or sv[-1] < 1e-10 * sv[0]:
        raise DependentBasis("basis matrices are linearly dependent")
    pinv = np.linalg.pinv(V).T  # (d, n*n)

    i, j = np.triu_indices(d, 1)
    B = (basis[i] @ basis[j] - basis[j] @ basis[i]).reshape(len(i), n * n)   # [b_i, b_j], i < j
    c = B @ pinv.T
    worst = np.max(np.linalg.norm(B - c @ V, axis=-1) / np.maximum(np.linalg.norm(B, axis=-1), 1.0),
                   initial=0.0)
    if worst > 1e-8:
        raise NotClosed(f"bracket leaves span of basis (residual {worst:.3e})")
    structure = np.zeros((d, d, d))
    structure[i, j] = c
    structure[j, i] = -c

    # trace(ad(b_i) ad(b_j)) with ad(b_i) = structure[i].T and ad(b_j).T = structure[j]
    killing = structure.transpose(0, 2, 1).reshape(d, -1) @ structure.reshape(d, -1).T
    killing = 0.5 * (killing + killing.T)

    return LieAlgebraRep(ambient_dim=n, basis=basis, structure=structure,
                         killing=killing, pinv=pinv, name=name)


def _grade_sum(j: int, k: int) -> int:
    """The grade of [g_j, g_k], in GRADES (grades add mod 4)."""
    return (j + k + 1) % 4 - 1


# a graded structure constant below this fraction of the largest one is the
# roundoff of the change of basis of an exact zero
_GRADED_ZERO = 1e-12


@dataclass(frozen=True)
class GradedBasis:
    """A unitary basis of g^C adapted to g^C = g_0 + g_1 + g_2 + g_-1.

    rows: (d, d) complex; rows[slices[k]] is an orthonormal basis of g_k.
    blocks: (j, k) -> (table, terms), the structure constants of
        [g_j, g_k] -> g_(j+k) in that basis, entries below _GRADED_ZERO of
        the largest dropped, and their nonzero terms for `_sparse_product`.

    Graded coordinates x = conj(rows) xi are stored component first, (d, nu, nv),
    so the grade-k block x[slices[k]] is a slice of (nu, nv) planes; because the
    basis is unitary, pointwise Euclidean norms are the same in both coordinates.
    """

    rows: np.ndarray
    slices: dict
    blocks: dict

    def vector(self, x, k: int):
        """Grade-k graded coordinates (d_k, ...) -> original coordinates, grid-last (..., d)."""
        return np.tensordot(x, self.rows[self.slices[k]], axes=(0, 0))

    def bracket(self, j: int, k: int, x, y):
        """[x, y] for complex component-first blocks x (d_j, ...) in g_j and y (d_k, ...)
        in g_k: the (d_(j+k), ...) block, with no copy or axis move of either."""
        table, terms = self.blocks[j, k]
        out = np.zeros((table.shape[2],) + np.broadcast_shapes(x.shape[1:], y.shape[1:]), complex)
        return _sparse_product(terms, x, y, out)


def _graded_basis(algebra: LieAlgebraRep, projectors: dict) -> GradedBasis:
    """The graded basis from the ranges of the projectors, which must be orthogonal."""
    images = [_complex_image(projectors[k]) for k in GRADES]
    rows = np.concatenate(images)
    if rows.shape[0] != algebra.dim or \
            np.max(np.abs(rows @ rows.conj().T - np.eye(algebra.dim))) > 1e-10:
        raise LieAlgebraError("the grade projectors are not orthogonal: no unitary graded basis")
    ends = np.cumsum([len(b) for b in images])
    slices = {k: slice(e - len(b), e) for k, b, e in zip(GRADES, images, ends)}
    T = np.einsum("ai,bj,ijk,ck->abc", rows, rows, algebra.structure, rows.conj())
    T[np.abs(T) <= _GRADED_ZERO * np.max(np.abs(T), initial=0.0)] = 0.0
    blocks = {}
    for j in GRADES:
        for k in GRADES:
            table = np.ascontiguousarray(T[slices[j], slices[k], slices[_grade_sum(j, k)]])
            blocks[j, k] = (table, _nonzero_terms(table))
    return GradedBasis(rows=rows, slices=slices, blocks=blocks)


@dataclass
class GradedAutomorphism:
    """An order-4 automorphism tau in basis coordinates with its projectors."""

    algebra: LieAlgebraRep
    tau: np.ndarray                     # (d, d) real
    projectors: dict = field(default_factory=dict)  # grade -> (d, d) complex

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @functools.cached_property
    def graded(self) -> GradedBasis:
        """The grade-adapted unitary basis from the ranges of the P_k, built once."""
        return _graded_basis(self.algebra, self.projectors)

    def tau_p(self, split: "SymmetricSplit"):
        """Restriction of tau to p in the split's orthonormal p-basis."""
        Bp = split.p_basis
        return Bp @ self.tau @ Bp.T


def _averaging_projectors(tau):
    d = tau.shape[0]
    powers = [np.eye(d), tau, tau @ tau, tau @ tau @ tau]
    proj = {}
    for k in GRADES:
        P = sum((1j) ** (-k * m) * powers[m] for m in range(4)) / 4.0
        proj[k] = P.astype(complex)
    return proj


def automorphism_from_group_element(algebra: LieAlgebraRep, J) -> GradedAutomorphism:
    """tau = coordinate matrix of X -> J X J^(-1), with averaging projectors.

    Raises DoesNotPreserveAlgebra if conjugation leaves the span,
    NotOrderFour if tau^4 != 1.
    """
    J = np.asarray(J, dtype=float)
    Jinv = np.linalg.inv(J)
    try:
        cols = algebra.coords(J[None] @ algebra.basis @ Jinv[None])
    except NotClosed as exc:
        raise DoesNotPreserveAlgebra(str(exc)) from exc
    tau = cols.T  # tau[:, j] = coords of J b_j J^-1
    d = algebra.dim
    tau4 = np.linalg.matrix_power(tau, 4)
    if np.max(np.abs(tau4 - np.eye(d))) > 1e-8:
        raise NotOrderFour("Ad(J)^4 is not the identity on the algebra")
    return GradedAutomorphism(algebra=algebra, tau=tau, projectors=_averaging_projectors(tau))


def grade_project(aut: GradedAutomorphism, xi, k: int):
    """P_k applied to complex coordinate vector(s) (any leading axes)."""
    if k not in GRADES:
        raise BadGrade(f"grade must be one of {GRADES}, got {k}")
    return np.asarray(xi, dtype=complex) @ aut.projectors[k].T


@dataclass
class SymmetricSplit:
    """The +/-1 eigenspaces of sigma = tau^2, as orthonormal coordinate rows."""

    algebra: LieAlgebraRep
    k_basis: np.ndarray   # (dk, d) orthonormal rows spanning k
    p_basis: np.ndarray   # (dp, d) orthonormal rows spanning p


def _complex_image(P):
    """Orthonormal basis (rows) of the image of a (near-)projector matrix."""
    U, s, _ = np.linalg.svd(P)
    return U[:, s > 0.5].T


def _projector_image(P):
    """`_complex_image` of a real (near-)projector with a deterministic sign:
    the largest-magnitude entry of each row is positive."""
    rows = _complex_image(P)
    for row in rows:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1
    return rows


def symmetric_split(aut: GradedAutomorphism) -> SymmetricSplit:
    """Split g = k + p along sigma = tau^2 and check that ad|p injects on k."""
    d = aut.dim
    sigma = aut.tau @ aut.tau
    Pk = 0.5 * (np.eye(d) + sigma)
    Pp = 0.5 * (np.eye(d) - sigma)
    k_basis = _projector_image(Pk)
    p_basis = _projector_image(Pp)
    if p_basis.shape[0] == 0:
        raise EffectivityFailure("p is trivial: tau^2 = 1, the automorphism is only of order <= 2")
    split = SymmetricSplit(algebra=aut.algebra, k_basis=k_basis, p_basis=p_basis)
    # column m: ad(xi_m)|p in the p-basis for the k-basis row xi_m, as
    # sum_i xi_m[i] ad(b_i)|p with ad(b_i) = structure[i].T
    ads_p = p_basis @ aut.algebra.structure.transpose(0, 2, 1) @ p_basis.T
    stacked = (k_basis @ ads_p.reshape(d, -1)).T
    smin = np.linalg.svd(stacked, compute_uv=False)[-1] if stacked.size else 0.0
    if smin <= 1e-8:
        kernel = _kernel_of_stacked(stacked, k_basis, 1e-8)
        raise EffectivityFailure(
            f"ad|p has kernel on k (smallest singular value {smin:.3e}); "
            f"kernel dimension {kernel.shape[0]}: a tau-invariant ideal should be factored out")
    return split


def _kernel_of_stacked(stacked, k_basis, tol):
    U, s, Vt = np.linalg.svd(stacked)
    null = Vt[s.shape[0] - np.sum(s <= tol):] if np.sum(s <= tol) else Vt[:0]
    return null @ k_basis


@dataclass
class CharacterizationResult:
    residual: float
    converse_ok: bool
    kernel_dim: int
    eigenspace_dim: int


def _characterization_residual(split: SymmetricSplit, aut: GradedAutomorphism, grade: int, sign: float):
    """Shared body of the commutator/anticommutator eigenspace characterisations.

    For xi in g_<grade> the map  ad(xi) o (tau|p) + sign * tau o ad(xi)|p : p -> g
    vanishes; conversely its kernel over all of g^C is exactly g_<grade>.
    """
    algebra, incl_p = split.algebra, split.p_basis.T   # p-coords -> g-coords
    ads = algebra.structure.transpose(0, 2, 1)         # ads[i] = ad(b_i)
    M = ads @ incl_p @ aut.tau_p(split) + sign * aut.tau @ ads @ incl_p
    L = M.reshape(algebra.dim, -1).T.astype(complex)   # (d*dp, d); xi -> L xi flattened

    basis_g = _complex_image(aut.projectors[grade])
    forward = float(np.max(np.abs(L @ basis_g.T), initial=0.0))

    U, s, Vt = np.linalg.svd(L)
    null_dim = int(np.sum(s <= 1e-8 * max(s[0], 1.0)))
    converse_ok = null_dim == basis_g.shape[0]
    if converse_ok and null_dim:
        null = Vt.conj()[L.shape[1] - null_dim:]
        resid = np.max(np.abs(grade_project(aut, null, grade) - null))
        converse_ok = bool(resid <= 1e-8)
    return CharacterizationResult(forward, converse_ok, null_dim, basis_g.shape[0])


def check_g0_characterization(split: SymmetricSplit, aut: GradedAutomorphism) -> CharacterizationResult:
    """g_0 = { xi : [ad xi|p, tau|p] = 0 }, forward residual plus rank converse."""
    return _characterization_residual(split, aut, grade=0, sign=-1.0)


def check_g2_characterization(split: SymmetricSplit, aut: GradedAutomorphism) -> CharacterizationResult:
    """g_2 = { xi : {ad xi|p, tau|p} = 0 }, anticommutator variant."""
    return _characterization_residual(split, aut, grade=2, sign=+1.0)


def stabilizer_subalgebra(split: SymmetricSplit, aut: GradedAutomorphism) -> np.ndarray:
    """Real basis (rows) of h = fixed points of tau on the real algebra.

    P_0 is real because tau is real, so its image over the reals is exactly
    the real points of the grade-0 eigenspace.
    """
    P0 = aut.projectors[0]
    assert np.max(np.abs(P0.imag)) < 1e-12
    return _projector_image(P0.real)
