"""Lie-algebra-valued 1-forms sampled on a conformal grid.

Conventions fixed here and used everywhere:
  * conformal coordinate z = u + iv, J^Sigma du = dv;
  * centered second-order stencils, periodic wrap where the grid says so,
    second-order one-sided differences at non-periodic edges (residual
    reports mask edge-contaminated points out);
  * wedge bracket normalised so that (1/2)[alpha ^ alpha](du, dv)
    = [a_u, a_v], i.e. flatness of d + alpha reads
    du a_v - dv a_u + [a_u, a_v] = 0 for matrix groups;
  * pointwise norms are Euclidean on basis coordinates (fixture bases are
    normalised at load), sup over the mask plus root-mean-square.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import liealg


class GridError(Exception):
    pass


class GridTooSmall(GridError):
    pass


class GridMismatch(GridError):
    pass


class AlgebraMismatch(Exception):
    pass


class ZeroLambda(ValueError):
    pass


@dataclass(frozen=True)
class SurfaceGrid:
    """Uniform grid in the conformal coordinate (u, v)."""

    nu: int
    nv: int
    hu: float
    hv: float
    periodic_u: bool = False
    periodic_v: bool = False
    u0: float = 0.0
    v0: float = 0.0

    def __post_init__(self):
        if self.nu < 8 or self.nv < 8:
            raise GridTooSmall("need at least 8 points per direction")
        if self.hu <= 0 or self.hv <= 0:
            raise GridError("spacings must be positive")

    @property
    def h(self) -> float:
        return max(self.hu, self.hv)

    def u_coords(self):
        return self.u0 + self.hu * np.arange(self.nu)

    def v_coords(self):
        return self.v0 + self.hv * np.arange(self.nv)

    def mesh(self):
        return np.meshgrid(self.u_coords(), self.v_coords(), indexing="ij")

    def interior_mask(self, margin: int = 1):
        """Points where `margin` nested centered stencils are edge-free."""
        mask = np.ones((self.nu, self.nv), dtype=bool)
        if not self.periodic_u:
            if 2 * margin >= self.nu:
                raise GridTooSmall("margin eats the whole grid")
            mask[:margin, :] = False
            if margin:
                mask[-margin:, :] = False
        if not self.periodic_v:
            if 2 * margin >= self.nv:
                raise GridTooSmall("margin eats the whole grid")
            mask[:, :margin] = False
            if margin:
                mask[:, -margin:] = False
        return mask


def _centred(f, h, axis, periodic):
    """(f[i+1] - f[i-1]) / 2h along `axis`, through slices into one output: wrapped
    at periodic edges, numpy's second-order one-sided differences at open ones."""
    f = np.asarray(f)
    out = np.empty(f.shape, np.result_type(f, 1.0))
    g, o = np.moveaxis(f, axis, 0), np.moveaxis(out, axis, 0)
    interior = o[1:-1]
    if axis % f.ndim == f.ndim - 1 and f.flags.c_contiguous:
        # along the contiguous last axis, one shift of the flat array: the two
        # points of each row that read a neighbouring row are edges, set below
        interior = out.reshape(-1)[1:-1]
        np.subtract(f.reshape(-1)[2:], f.reshape(-1)[:-2], out=interior)
    else:
        np.subtract(g[2:], g[:-2], out=interior)
    if periodic:
        np.subtract(g[1], g[-1], out=o[0])
        np.subtract(g[0], g[-2], out=o[-1])
        out /= 2.0 * h
    else:
        interior /= 2.0 * h
        o[0] = -1.5 / h * g[0] + 2.0 / h * g[1] + -0.5 / h * g[2]
        o[-1] = 0.5 / h * g[-3] + -2.0 / h * g[-2] + 1.5 / h * g[-1]
    return out


def partial_u(grid: SurfaceGrid, f, axis=0):
    """d/du along `axis`: 0 for a grid-first (nu, nv, ...) field, -2 for a
    component-first (..., nu, nv) one."""
    return _centred(f, grid.hu, axis, grid.periodic_u)


def partial_v(grid: SurfaceGrid, f, axis=1):
    """d/dv along `axis`: 1 for a grid-first field, -1 for a component-first one."""
    return _centred(f, grid.hv, axis, grid.periodic_v)


@dataclass
class LieValuedOneForm:
    grid: SurfaceGrid
    algebra: liealg.LieAlgebraRep
    a_u: np.ndarray  # (nu, nv, d), float64 for real data, complex128 for complex
    a_v: np.ndarray

    def __post_init__(self):
        d = self.algebra.dim
        want = (self.grid.nu, self.grid.nv, d)
        a_u, a_v = np.asarray(self.a_u), np.asarray(self.a_v)
        dtype = np.result_type(a_u, a_v, float)
        self.a_u, self.a_v = a_u.astype(dtype, copy=False), a_v.astype(dtype, copy=False)
        if self.a_u.shape != want or self.a_v.shape != want:
            raise GridMismatch(f"component shape {self.a_u.shape} != {want}")
        if not (np.all(np.isfinite(self.a_u)) and np.all(np.isfinite(self.a_v))):
            raise ValueError("non-finite form components")

    def same_layout(self, other: "LieValuedOneForm"):
        if self.grid != other.grid:
            raise GridMismatch("forms live on different grids")
        if self.algebra is not other.algebra:
            raise AlgebraMismatch("forms valued in different algebras")

    def __add__(self, other):
        self.same_layout(other)
        return LieValuedOneForm(self.grid, self.algebra, self.a_u + other.a_u, self.a_v + other.a_v)

    def __sub__(self, other):
        self.same_layout(other)
        return LieValuedOneForm(self.grid, self.algebra, self.a_u - other.a_u, self.a_v - other.a_v)

    def scaled(self, c):
        return LieValuedOneForm(self.grid, self.algebra, c * self.a_u, c * self.a_v)

    def pointwise_norm(self):
        return np.sqrt(np.sum(np.abs(self.a_u) ** 2 + np.abs(self.a_v) ** 2, axis=-1))


@dataclass
class LieValuedTwoForm:
    grid: SurfaceGrid
    algebra: liealg.LieAlgebraRep
    value: np.ndarray  # (nu, nv, d), the dtype of its 1-forms; evaluation on (du, dv)

    def pointwise_norm(self):
        return np.sqrt(np.sum(np.abs(self.value) ** 2, axis=-1))


@dataclass
class ResidualEntry:
    h: float
    sup: float
    l2: float


@dataclass
class ResidualReport:
    """Named residual with one entry per refinement rung."""

    name: str
    entries: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, h: float, sup: float, l2: float):
        self.entries.append(ResidualEntry(float(h), float(sup), float(l2)))
        return self

    @property
    def final_sup(self) -> float:
        return self.entries[-1].sup

    @property
    def estimated_order(self):
        """Least-squares slope of log(sup) against log(h); None under 3 rungs."""
        if len(self.entries) < 3:
            return None
        hs = np.array([e.h for e in self.entries])
        sups = np.array([max(e.sup, 1e-300) for e in self.entries])
        slope = np.polyfit(np.log(hs), np.log(sups), 1)[0]
        return float(slope)

    def merged(self, other: "ResidualReport") -> "ResidualReport":
        """Both reports' rungs, coarse to fine, and the meta of the finer report over
        the coarser one's, whatever order the rungs ran in."""
        if other.name != self.name:
            raise ValueError("cannot merge reports with different names")
        coarse, fine = sorted((self, other),
                              key=lambda r: -min((e.h for e in r.entries), default=np.inf))
        out = ResidualReport(self.name, list(self.entries) + list(other.entries),
                             {**coarse.meta, **fine.meta})
        out.entries.sort(key=lambda e: -e.h)
        return out

    def as_dict(self):
        return {"name": self.name,
                "entries": [{"h": e.h, "sup": e.sup, "l2": e.l2} for e in self.entries],
                "estimated_order": self.estimated_order}


def masked_report(name, h, pointwise, mask) -> ResidualReport:
    """One-rung report of the sup and root-mean-square of `pointwise` over `mask`."""
    vals = np.asarray(pointwise)[mask]
    if vals.size == 0:
        raise GridTooSmall("empty interior after masking")
    return ResidualReport(name).add(h, float(np.max(vals)), float(np.sqrt(np.mean(vals ** 2))))


# ------------------------------------------------------------- decompositions

def type_decompose(alpha: LieValuedOneForm):
    """alpha = alpha10 + alpha01 with alpha10 = (1/2)(alpha - i alpha o J)."""
    au, av = alpha.a_u, alpha.a_v
    a10 = LieValuedOneForm(alpha.grid, alpha.algebra, 0.5 * (au - 1j * av), 0.5 * (av + 1j * au))
    a01 = LieValuedOneForm(alpha.grid, alpha.algebra, 0.5 * (au + 1j * av), 0.5 * (av - 1j * au))
    return a10, a01


def grade_decompose(alpha: LieValuedOneForm, aut: liealg.GradedAutomorphism):
    """`liealg.grade_project` on both components; returns {grade: form}."""
    if aut.algebra is not alpha.algebra:
        raise AlgebraMismatch("automorphism acts on a different algebra")
    return {k: LieValuedOneForm(alpha.grid, alpha.algebra, liealg.grade_project(aut, alpha.a_u, k),
                                liealg.grade_project(aut, alpha.a_v, k))
            for k in liealg.GRADES}


def exterior_derivative(alpha: LieValuedOneForm) -> LieValuedTwoForm:
    """(d alpha)(du, dv) = du a_v - dv a_u by centered differences."""
    val = partial_u(alpha.grid, alpha.a_v) - partial_v(alpha.grid, alpha.a_u)
    return LieValuedTwoForm(alpha.grid, alpha.algebra, val)


def wedge_bracket(alpha: LieValuedOneForm, beta: LieValuedOneForm) -> LieValuedTwoForm:
    """[alpha ^ beta](du, dv) = [a_u, b_v] - [a_v, b_u]."""
    alpha.same_layout(beta)
    alg = alpha.algebra
    val = alg.bracket_coords(alpha.a_u, beta.a_v) - alg.bracket_coords(alpha.a_v, beta.a_u)
    return LieValuedTwoForm(alpha.grid, alpha.algebra, val)


def curvature_two_form(alpha: LieValuedOneForm) -> LieValuedTwoForm:
    """d alpha + (1/2)[alpha ^ alpha], where (1/2)[alpha ^ alpha](du, dv) = [a_u, a_v]."""
    d = exterior_derivative(alpha)
    return LieValuedTwoForm(alpha.grid, alpha.algebra,
                            d.value + alpha.algebra.bracket_coords(alpha.a_u, alpha.a_v))


def curvature_residual(alpha: LieValuedOneForm) -> ResidualReport:
    """Norms of d alpha + (1/2)[alpha ^ alpha] over the interior."""
    pw = curvature_two_form(alpha).pointwise_norm()
    return masked_report("flatness", alpha.grid.h, pw, alpha.grid.interior_mask(2))


# ------------------------------------------------------------------ loop family

def loop_form(alpha: LieValuedOneForm, aut: liealg.GradedAutomorphism, lam: complex) -> LieValuedOneForm:
    """The spectral-parameter deformation of alpha.

    lam^2 * (grade 2)^(1,0) + lam * (grade 1)^(1,0) + grade 0
      + lam^-1 * (grade -1)^(0,1) + lam^-2 * (grade 2)^(0,1)
    """
    lam = complex(lam)
    if lam == 0:
        raise ZeroLambda("spectral parameter must be nonzero")
    g = grade_decompose(alpha, aut)
    g2_10, g2_01 = type_decompose(g[2])
    g1_10, _ = type_decompose(g[1])
    _, gm1_01 = type_decompose(g[-1])
    total = (g2_10.scaled(lam ** 2) + g1_10.scaled(lam) + g[0]
             + gm1_01.scaled(lam ** -1) + g2_01.scaled(lam ** -2))
    return total


def default_lambda_samples():
    """8th roots of unity on radii 1/2, 1, 2: separates the five Laurent slots."""
    roots = np.exp(2j * np.pi * np.arange(8) / 8.0)
    return [complex(r * w) for r in (0.5, 1.0, 2.0) for w in roots]


# ------------------------------------------------------------ graded coordinates
#
# The loop family's pieces each live in one grade.  Below, alpha is carried in
# the grade-adapted unitary basis of the automorphism (`liealg.GradedBasis`):
# one change of basis, then every grade split is a slice and every wedge
# brackets only its blocks [g_j, g_k] -> g_(j+k).  alpha in graded coordinates
# is one component-first (2, d, nu, nv) array of its (u, v) components; a (1,0)
# part p dz or a (0,1) part q dz-bar is its one (d_k, nu, nv) coefficient, since
# (dz ^ dz-bar)(du, dv) = -2i makes each wedge of two typed parts one bracket.

def _graded(alpha: LieValuedOneForm, aut: liealg.GradedAutomorphism):
    """The grade-adapted basis of `aut` and alpha's (u, v) components in it, (2, d, nu, nv)."""
    if aut.algebra is not alpha.algebra:
        raise AlgebraMismatch("automorphism acts on a different algebra")
    gb, d = aut.graded, alpha.algebra.dim
    # the graded basis is complex: here a real alpha enters complex arithmetic
    x = np.empty((2, d, alpha.grid.nu, alpha.grid.nv), complex)
    for xc, a in zip(x, (alpha.a_u, alpha.a_v)):
        np.matmul(gb.rows.conj(), a.reshape(-1, d).astype(complex).T, out=xc.reshape(d, -1))
    return gb, x


def _dz_parts(x):
    """p and q with x = p dz + q dz-bar, the (1,0) and (0,1) parts that
    `type_decompose` splits off: p = (x_u - i x_v)/2, q = (x_u + i x_v)/2."""
    u, v = x
    return 0.5 * (u - 1j * v), 0.5 * (u + 1j * v)


def _sq_norm(x):
    """Pointwise squared Euclidean norm over the component axes of a real or complex
    (..., nu, nv) field: one grid dot product, with complex parts interleaved."""
    flat = np.ascontiguousarray(x).reshape((-1,) + x.shape[-2:]).view(float)
    sq = np.einsum("k...,k...->...", flat, flat)
    return sq[..., ::2] + sq[..., 1::2] if np.iscomplexobj(x) else sq


def _covariant_closure(grid, gb, c_plus, a):
    """F_2 = d(a dz) + [C ^ a dz] = i(du a + i dv a + [c_+, a]) in the g_2 block,
    for alpha_2^(1,0) = a dz and c_+ = c_u + i c_v from C = alpha_0."""
    return 1j * (partial_u(grid, a, -2) + 1j * partial_v(grid, a, -1)
                 + gb.bracket(0, 2, c_plus, a))


def _laurent_graded(alpha: LieValuedOneForm, aut: liealg.GradedAutomorphism) -> dict:
    """`laurent_curvature` in graded coordinates: {k: (d_k, nu, nv)} with F_k
    in g_k for k = 2, 1, 0, -1 and F_-2 in g_2."""
    gb, x = _graded(alpha, aut)
    grid = alpha.grid
    a, e = _dz_parts(gb.block(x, 2))
    b = _dz_parts(gb.block(x, 1))[0]
    d = _dz_parts(gb.block(x, -1))[1]
    c_u, c_v = gb.block(x, 0)
    c_plus, c_minus = c_u + 1j * c_v, c_u - 1j * c_v
    F1 = 1j * (partial_u(grid, b, -2) + 1j * partial_v(grid, b, -1)
               - 2 * gb.bracket(2, -1, a, d) - gb.bracket(1, 0, b, c_plus))
    F0 = partial_u(grid, c_v, -2) - partial_v(grid, c_u, -1) + gb.bracket(0, 0, c_u, c_v) \
        - 2j * (gb.bracket(2, 2, a, e) + gb.bracket(1, -1, b, d))
    Fm1 = -1j * (partial_u(grid, d, -2) - 1j * partial_v(grid, d, -1)
                 + 2 * gb.bracket(1, 2, b, e) + gb.bracket(0, -1, c_minus, d))
    Fm2 = -1j * (partial_u(grid, e, -2) - 1j * partial_v(grid, e, -1)
                 + gb.bracket(0, 2, c_minus, e))
    return {2: _covariant_closure(grid, gb, c_plus, a), 1: F1, 0: F0, -1: Fm1, -2: Fm2}


def laurent_curvature(alpha: LieValuedOneForm, aut: liealg.GradedAutomorphism) -> dict:
    """Coefficients F_k of the loop family's curvature F(lam) = sum_k lam^k F_k.

    With lam^2 A + lam B + C + lam^-1 D + lam^-2 E the terms of `loop_form`,
    the lam^+-3 and lam^+-4 terms are wedges of two (1,0)-forms or two
    (0,1)-forms, which vanish on a surface (for the stencils too), leaving
        F_2 = dA + [C ^ A]              F_-2 = dE + [C ^ E]
        F_1 = dB + [A ^ D] + [B ^ C]    F_-1 = dD + [B ^ E] + [C ^ D]
        F_0 = dC + [A ^ E] + [B ^ D] + (1/2)[C ^ C].
    With A = a dz, B = b dz, D = d dz-bar, E = e dz-bar and c_+- = c_u +- i c_v,
    on (du, dv) these are one bracket per wedge:
        F_2 = i(du a + i dv a + [c_+, a])
        F_1 = i(du b + i dv b - 2[a, d] - [b, c_+])
        F_0 = dC + [c_u, c_v] - 2i([a, e] + [b, d])
        F_-1 = -i(du d - i dv d + 2[b, e] + [c_-, d])
        F_-2 = -i(du e - i dv e + [c_-, e]).
    F_2 is the covariant-closure two-form.  Each F_k lies in one grade (F_-2
    in g_2), so the coefficients are formed in the grade-adapted basis and
    mapped back; returns {k: (nu, nv, d) array} for k = 2, 1, 0, -1, -2.
    """
    gb = aut.graded
    return {k: gb.vector(Fk, liealg._grade_sum(k, 0))
            for k, Fk in _laurent_graded(alpha, aut).items()}


def zero_curvature_scan(alpha: LieValuedOneForm, aut: liealg.GradedAutomorphism,
                        lam_samples=None) -> ResidualReport:
    """Max curvature residual of the loop family over the sample set.

    Each F(lam) = sum_k lam^k F_k is evaluated from the Laurent coefficients
    in the grade-adapted unitary basis, where F_k lies in grade k (F_-2 in
    g_2), so its pointwise norm is
        |F(lam)|^2 = |lam^2 F_2 + lam^-2 F_-2|^2 + |lam|^2 |F_1|^2 + |F_0|^2
                     + |lam|^-2 |F_-1|^2
    and a sample touches only the g_2 block.  meta carries the number of
    samples and the masked sup of each coefficient (laurent_sup_2 ...
    laurent_sup_-2), which says which power of lam a large residual comes from.
    """
    if lam_samples is None:
        lam_samples = default_lambda_samples()
    lam_samples = [complex(lam) for lam in lam_samples]
    if not lam_samples:
        raise ZeroLambda("need at least one spectral sample")
    if 0 in lam_samples:
        raise ZeroLambda("spectral parameter must be nonzero")
    if not np.isfinite(lam_samples).all():
        raise ValueError(f"spectral parameters must be finite: {lam_samples}")
    grid = alpha.grid
    mask = grid.interior_mask(2)

    def report(sq):
        return masked_report("zero_curvature_scan", grid.h, np.sqrt(sq), mask)

    F = _laurent_graded(alpha, aut)
    sq = {k: _sq_norm(Fk) for k, Fk in F.items()}
    out = ResidualReport("zero_curvature_scan", meta={"n_lambda": len(lam_samples)})
    for k in F:
        out.meta[f"laurent_sup_{k}"] = report(sq[k]).final_sup
    samples = [report(_sq_norm(lam ** 2 * F[2] + lam ** -2 * F[-2]) + abs(lam) ** 2 * sq[1]
                      + sq[0] + sq[-1] / abs(lam) ** 2).entries[0] for lam in lam_samples]
    return out.add(grid.h, max(e.sup for e in samples), max(e.l2 for e in samples))


def constant_form(grid: SurfaceGrid, algebra, xi_u, xi_v) -> LieValuedOneForm:
    ones = np.ones((grid.nu, grid.nv, 1))
    return LieValuedOneForm(grid, algebra, ones * np.asarray(xi_u)[None, None, :],
                            ones * np.asarray(xi_v)[None, None, :])
