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


def partial_u(grid: SurfaceGrid, f):
    """d/du along axis 0; f has shape (nu, nv, ...)."""
    f = np.asarray(f)
    if grid.periodic_u:
        return (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / (2.0 * grid.hu)
    return np.gradient(f, grid.hu, axis=0, edge_order=2)


def partial_v(grid: SurfaceGrid, f):
    f = np.asarray(f)
    if grid.periodic_v:
        return (np.roll(f, -1, axis=1) - np.roll(f, 1, axis=1)) / (2.0 * grid.hv)
    return np.gradient(f, grid.hv, axis=1, edge_order=2)


@dataclass
class LieValuedOneForm:
    grid: SurfaceGrid
    algebra: liealg.LieAlgebraRep
    a_u: np.ndarray  # (nu, nv, d) complex
    a_v: np.ndarray

    def __post_init__(self):
        d = self.algebra.dim
        want = (self.grid.nu, self.grid.nv, d)
        self.a_u = np.asarray(self.a_u, dtype=complex)
        self.a_v = np.asarray(self.a_v, dtype=complex)
        if self.a_u.shape != want or self.a_v.shape != want:
            raise GridMismatch(f"component shape {self.a_u.shape} != {want}")
        if not (np.all(np.isfinite(self.a_u)) and np.all(np.isfinite(self.a_v))):
            raise ValueError("non-finite form components")

    def same_layout(self, other: "LieValuedOneForm"):
        if self.grid != other.grid:
            raise GridMismatch("forms live on different grids")
        if self.algebra is not other.algebra and self.algebra.dim != other.algebra.dim:
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
    value: np.ndarray  # (nu, nv, d) complex; evaluation on (du, dv)

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
        if other.name != self.name:
            raise ValueError("cannot merge reports with different names")
        out = ResidualReport(self.name, list(self.entries) + list(other.entries),
                             {**self.meta, **other.meta})
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


def report_from_pointwise(name, grid, pointwise, margin: int = 1) -> ResidualReport:
    return masked_report(name, grid.h, pointwise, grid.interior_mask(margin))


# ------------------------------------------------------------- decompositions

def type_decompose(alpha: LieValuedOneForm):
    """alpha = alpha10 + alpha01 with alpha10 = (1/2)(alpha - i alpha o J)."""
    au, av = alpha.a_u, alpha.a_v
    a10 = LieValuedOneForm(alpha.grid, alpha.algebra, 0.5 * (au - 1j * av), 0.5 * (av + 1j * au))
    a01 = LieValuedOneForm(alpha.grid, alpha.algebra, 0.5 * (au + 1j * av), 0.5 * (av - 1j * au))
    return a10, a01


def grade_decompose(alpha: LieValuedOneForm, aut: liealg.GradedAutomorphism):
    """Componentwise projector application; returns {grade: form}."""
    if aut.algebra.dim != alpha.algebra.dim:
        raise AlgebraMismatch("automorphism acts on a different algebra")
    out = {}
    for k in liealg.GRADES:
        P = aut.projectors[k]
        out[k] = LieValuedOneForm(alpha.grid, alpha.algebra,
                                  np.einsum("kd,uvd->uvk", P, alpha.a_u),
                                  np.einsum("kd,uvd->uvk", P, alpha.a_v))
    return out


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
    d = exterior_derivative(alpha)
    w = wedge_bracket(alpha, alpha)
    return LieValuedTwoForm(alpha.grid, alpha.algebra, d.value + 0.5 * w.value)


def curvature_residual(alpha: LieValuedOneForm, margin: int = 2, name: str = "flatness") -> ResidualReport:
    """Norms of d alpha + (1/2)[alpha ^ alpha] over the interior."""
    F = curvature_two_form(alpha)
    return report_from_pointwise(name, alpha.grid, F.pointwise_norm(), margin=margin)


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


def zero_curvature_scan(alpha: LieValuedOneForm, aut: liealg.GradedAutomorphism,
                        lam_samples=None, margin: int = 2) -> ResidualReport:
    """Max curvature residual of the loop family over the sample set."""
    if lam_samples is None:
        lam_samples = default_lambda_samples()
    lam_samples = list(lam_samples)
    if not lam_samples:
        raise ZeroLambda("need at least one spectral sample")
    sup = 0.0
    l2 = 0.0
    for lam in lam_samples:
        rep = curvature_residual(loop_form(alpha, aut, lam), margin=margin)
        sup = max(sup, rep.entries[0].sup)
        l2 = max(l2, rep.entries[0].l2)
    out = ResidualReport("zero_curvature_scan", meta={"n_lambda": len(lam_samples)})
    return out.add(alpha.grid.h, sup, l2)


def constant_form(grid: SurfaceGrid, algebra, xi_u, xi_v) -> LieValuedOneForm:
    ones = np.ones((grid.nu, grid.nv, 1))
    return LieValuedOneForm(grid, algebra,
                            ones * np.asarray(xi_u, dtype=complex)[None, None, :],
                            ones * np.asarray(xi_v, dtype=complex)[None, None, :])
