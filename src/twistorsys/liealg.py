"""Matrix Lie algebras, order-4 automorphisms and the four-fold grading.

Elements are real n x n matrices; the algebra is handled through a fixed
basis, so everything downstream works on coordinate vectors.  Complexified
vectors are plain complex coordinate arrays in the same basis.  Eigenspaces
of an order-4 automorphism are never computed with a generic eigensolver:
the averaging projectors P_k = (1/4) sum_m i^(-k*m) tau^m are exact
idempotents and carry no eigenvalue-ordering ambiguity.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg


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


def matrix_exp(X):
    """Matrix exponential (scaling-and-squaring Pade via scipy).

    X is one (n, n) matrix or a stack (..., n, n); each slice is
    exponentiated on its own, exactly as a single matrix would be.
    exp(0) is the exact identity.
    """
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise NonFinite("matrix_exp: input has non-finite entries")
    return scipy.linalg.expm(X)


def _vec(mats):
    mats = np.asarray(mats, dtype=float)
    return mats.reshape(mats.shape[0], -1)


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
        return np.einsum("...d,dij->...ij", xi, self.basis)

    def coords(self, M, atol: float | None = 1e-8):
        """Expand ambient matrix(es) in the basis (least squares).

        Raises NotClosed when the residual of the expansion exceeds `atol`
        relative to the matrix norm; atol=None projects without checking
        (used for discretised data that is only O(h^2) close to the span).
        """
        M = np.asarray(M)
        flat = M.reshape(M.shape[:-2] + (-1,))
        xi = np.einsum("dk,...k->...d", self.pinv, flat)
        if atol is not None:
            recon = np.einsum("...d,dk->...k", xi, _vec(self.basis))
            scale = max(np.max(np.abs(flat)), 1.0)
            err = np.max(np.abs(recon - flat))
            if err > atol * scale:
                raise NotClosed(f"matrix not in span of basis (residual {err:.3e})")
        return xi

    def bracket_coords(self, xi, eta):
        """Bracket of coordinate vectors via structure constants (any leading axes)."""
        return np.einsum("...i,...j,ijk->...k", xi, eta, self.structure)

    def ad(self, xi):
        """Coordinate matrix of ad(xi): eta -> [xi, eta]."""
        xi = np.asarray(xi)
        return np.einsum("i,ijk->kj", xi, self.structure)


def _unit(d, i):
    e = np.zeros(d)
    e[i] = 1.0
    return e


def build_algebra(basis, name: str = "", atol: float = 1e-8, normalize: bool = True) -> LieAlgebraRep:
    """Build a LieAlgebraRep from a list of square matrices.

    The basis is Frobenius-normalised by default so that coordinate norms
    are comparable across fixtures.  Fails with NotClosed if some bracket
    leaves the span, DependentBasis if the matrices are linearly dependent.
    """
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
        raise DependentBasis("basis must be a list of square matrices of equal size")
    if normalize:
        norms = np.linalg.norm(basis, axis=(1, 2))
        if np.any(norms < 1e-14):
            raise DependentBasis("zero basis matrix")
        basis = basis / norms[:, None, None]
    d, n, _ = basis.shape
    V = _vec(basis)  # (d, n*n)
    sv = np.linalg.svd(V, compute_uv=False)
    if d > n * n or sv[-1] < 1e-10 * sv[0]:
        raise DependentBasis("basis matrices are linearly dependent")
    pinv = np.linalg.pinv(V).T  # (d, n*n)

    structure = np.zeros((d, d, d))
    worst = 0.0
    for i in range(d):
        for j in range(i + 1, d):
            B = basis[i] @ basis[j] - basis[j] @ basis[i]
            c = pinv @ B.reshape(-1)
            recon = (c @ V).reshape(n, n)
            scale = max(np.linalg.norm(B), 1.0)
            worst = max(worst, np.linalg.norm(B - recon) / scale)
            structure[i, j] = c
            structure[j, i] = -c
    if worst > atol:
        raise NotClosed(f"bracket leaves span of basis (residual {worst:.3e})")

    ads = structure.transpose(0, 2, 1)  # ads[i] = ad(b_i), entry [k, j] = structure[i, j, k]
    killing = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            killing[i, j] = np.trace(ads[i] @ ads[j])
    killing = 0.5 * (killing + killing.T)

    return LieAlgebraRep(ambient_dim=n, basis=basis, structure=structure,
                         killing=killing, pinv=pinv, name=name)


@dataclass
class GradedAutomorphism:
    """An order-4 automorphism tau in basis coordinates with its projectors."""

    algebra: LieAlgebraRep
    tau: np.ndarray                     # (d, d) real
    projectors: dict = field(default_factory=dict)  # grade -> (d, d) complex

    @property
    def dim(self) -> int:
        return self.algebra.dim

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


def automorphism_from_group_element(algebra: LieAlgebraRep, J, atol: float = 1e-8) -> GradedAutomorphism:
    """tau = coordinate matrix of X -> J X J^(-1), with averaging projectors.

    Raises DoesNotPreserveAlgebra if conjugation leaves the span,
    NotOrderFour if tau^4 != 1.
    """
    J = np.asarray(J, dtype=float)
    Jinv = np.linalg.inv(J)
    try:
        cols = algebra.coords(J[None] @ algebra.basis @ Jinv[None], atol=atol)
    except NotClosed as exc:
        raise DoesNotPreserveAlgebra(str(exc)) from exc
    tau = cols.T  # tau[:, j] = coords of J b_j J^-1
    d = algebra.dim
    tau4 = np.linalg.matrix_power(tau, 4)
    if np.max(np.abs(tau4 - np.eye(d))) > 1e-8:
        raise NotOrderFour("Ad(J)^4 is not the identity on the algebra")
    return GradedAutomorphism(algebra=algebra, tau=tau, projectors=_averaging_projectors(tau))


def grade_project(aut: GradedAutomorphism, xi, k: int):
    """P_k applied to complex coordinate vector(s)."""
    if k not in GRADES:
        raise BadGrade(f"grade must be one of {GRADES}, got {k}")
    xi = np.asarray(xi, dtype=complex)
    return np.einsum("kd,...d->...k", aut.projectors[k], xi)


@dataclass
class SymmetricSplit:
    """The +/-1 eigenspaces of sigma = tau^2, as orthonormal coordinate rows."""

    algebra: LieAlgebraRep
    sigma: np.ndarray     # (d, d)
    k_basis: np.ndarray   # (dk, d) orthonormal rows spanning k
    p_basis: np.ndarray   # (dp, d) orthonormal rows spanning p

    @property
    def dim_k(self) -> int:
        return self.k_basis.shape[0]

    @property
    def dim_p(self) -> int:
        return self.p_basis.shape[0]


def _projector_image(P, tol: float = 1e-8):
    """Orthonormal basis (rows) of the image of a (near-)projector matrix."""
    U, s, _ = np.linalg.svd(P)
    cols = U[:, s > 0.5]
    # deterministic sign: largest-magnitude entry of each vector positive
    for i in range(cols.shape[1]):
        j = np.argmax(np.abs(cols[:, i]))
        if cols[j, i] < 0:
            cols[:, i] = -cols[:, i]
    return cols.T


def symmetric_split(aut: GradedAutomorphism, effectivity_tol: float = 1e-8) -> SymmetricSplit:
    """Split g = k + p along sigma = tau^2 and check that ad|p injects on k."""
    d = aut.dim
    sigma = aut.tau @ aut.tau
    Pk = 0.5 * (np.eye(d) + sigma)
    Pp = 0.5 * (np.eye(d) - sigma)
    k_basis = _projector_image(Pk)
    p_basis = _projector_image(Pp)
    if p_basis.shape[0] == 0:
        raise EffectivityFailure("p is trivial: tau^2 = 1, the automorphism is only of order <= 2")
    split = SymmetricSplit(algebra=aut.algebra, sigma=sigma, k_basis=k_basis, p_basis=p_basis)
    stacked = np.stack([_ad_restricted_to_p(aut.algebra, split, xi).reshape(-1)
                        for xi in k_basis], axis=1)
    smin = np.linalg.svd(stacked, compute_uv=False)[-1] if stacked.size else 0.0
    if smin <= effectivity_tol:
        kernel = _kernel_of_stacked(stacked, k_basis, effectivity_tol)
        raise EffectivityFailure(
            f"ad|p has kernel on k (smallest singular value {smin:.3e}); "
            f"kernel dimension {kernel.shape[0]}: a tau-invariant ideal should be factored out")
    return split


def _kernel_of_stacked(stacked, k_basis, tol):
    U, s, Vt = np.linalg.svd(stacked)
    null = Vt[s.shape[0] - np.sum(s <= tol):] if np.sum(s <= tol) else Vt[:0]
    return null @ k_basis


def _ad_restricted_to_p(algebra, split, xi):
    """Matrix of ad(xi) restricted to p, in the orthonormal p-basis (real xi in k)."""
    Bp = split.p_basis
    return Bp @ algebra.ad(xi) @ Bp.T


def _characterization_residual(split: SymmetricSplit, aut: GradedAutomorphism, grade: int, sign: float):
    """Shared body of the commutator/anticommutator eigenspace characterisations.

    For xi in g_<grade> the map  ad(xi) o (tau|p) + sign * tau o ad(xi)|p : p -> g
    vanishes; conversely its kernel over all of g^C is exactly g_<grade>.
    """
    algebra, Bp = split.algebra, split.p_basis
    d = algebra.dim
    incl_p = Bp.T                       # p-coords -> g-coords
    tau_p = Bp @ aut.tau @ Bp.T
    maps = []
    for i in range(d):
        ad_i = algebra.ad(_unit(d, i))
        M = ad_i @ incl_p @ tau_p + sign * aut.tau @ ad_i @ incl_p
        maps.append(M.reshape(-1))
    L = np.stack(maps, axis=1).astype(complex)   # (d*dp, d); xi -> L xi flattened

    P = aut.projectors[grade]
    basis_g = _complex_image(P)
    if basis_g.shape[0] == 0:
        forward = 0.0
    else:
        forward = float(np.max(np.abs(L @ basis_g.T)))

    U, s, Vt = np.linalg.svd(L)
    null_dim = int(np.sum(s <= 1e-8 * max(s[0], 1.0)))
    converse_ok = null_dim == basis_g.shape[0]
    if converse_ok and null_dim:
        null = Vt.conj()[L.shape[1] - null_dim:]
        resid = np.max(np.abs(null @ P.T - null))
        converse_ok = bool(resid <= 1e-8)
    return forward, converse_ok, null_dim, basis_g.shape[0]


def _complex_image(P, tol: float = 0.5):
    U, s, _ = np.linalg.svd(P)
    return U[:, s > tol].T


@dataclass
class CharacterizationResult:
    residual: float
    converse_ok: bool
    kernel_dim: int
    eigenspace_dim: int


def check_g0_characterization(split: SymmetricSplit, aut: GradedAutomorphism) -> CharacterizationResult:
    """g_0 = { xi : [ad xi|p, tau|p] = 0 }, forward residual plus rank converse."""
    r, ok, nd, ed = _characterization_residual(split, aut, grade=0, sign=-1.0)
    return CharacterizationResult(r, ok, nd, ed)


def check_g2_characterization(split: SymmetricSplit, aut: GradedAutomorphism) -> CharacterizationResult:
    """g_2 = { xi : {ad xi|p, tau|p} = 0 }, anticommutator variant."""
    r, ok, nd, ed = _characterization_residual(split, aut, grade=2, sign=+1.0)
    return CharacterizationResult(r, ok, nd, ed)


def stabilizer_subalgebra(split: SymmetricSplit, aut: GradedAutomorphism) -> np.ndarray:
    """Real basis (rows) of h = fixed points of tau on the real algebra.

    P_0 is real because tau is real, so its image over the reals is exactly
    the real points of the grade-0 eigenspace.
    """
    P0 = aut.projectors[0]
    assert np.max(np.abs(P0.imag)) < 1e-12
    return _projector_image(P0.real)
