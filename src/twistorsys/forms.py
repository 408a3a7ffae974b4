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
    g, o = f.swapaxes(axis, 0), out.swapaxes(axis, 0)   # only axis 0 of each is read
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
        interior = out
    if np.iscomplexobj(out):
        # numpy's complex division by the real 2h multiplies each part by 1 / (2h);
        # two real passes give the same values (up to the sign of a zero part) faster
        interior.real *= 1.0 / (2.0 * h)
        interior.imag *= 1.0 / (2.0 * h)
    else:
        interior /= 2.0 * h
    if not periodic:
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
    # (nu, nv, d), float64 for real data, complex128 for complex; either may be a
    # grid-first view of component-first (d, nu, nv) planes, as g^-1 dg of a frame is
    a_u: np.ndarray
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


def _masked(plane, mask):
    """The values of a (nu, nv) plane over `mask`, in order: the flat view of the
    plane when the mask is all true, as on a periodic grid, with no gather."""
    plane = np.asarray(plane)
    return plane.reshape(-1) if mask.all() else plane[mask]


def masked_report(name, h, pointwise, mask) -> ResidualReport:
    """One-rung report of the sup and root-mean-square of `pointwise` over `mask`."""
    vals = _masked(pointwise, mask)
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


# ------------------------------------------------------------ graded coordinates
#
# The loop family's pieces each live in one grade.  Below, alpha is carried in
# the grade-adapted unitary basis of the automorphism (`liealg.GradedBasis`):
# every grade split is a slice of its rows, and every wedge brackets only its
# blocks [g_j, g_k] -> g_(j+k).  alpha = P dz + Q dz-bar, with the graded dz
# coefficients P = conj(rows) (a_u - i a_v)/2 and Q = conj(rows) (a_u + i a_v)/2
# formed straight from alpha, one component-first (d_k, nu, nv) block per grade.
# A (1,0) part of grade k is P_k dz and a (0,1) part Q_k dz-bar, and
# (dz ^ dz-bar)(du, dv) = -2i makes each wedge of two typed parts one bracket.
# With a = P_2, e = Q_2, b = P_1, d = Q_-1 and C = alpha_0 = P_0 dz + Q_0 dz-bar
# the five Laurent coefficients are, with D = du + i dv and D-bar = du - i dv,
#     F_2 = i(D a + 2[Q_0, a])
#     F_1 = i(D b - 2[a, d] - 2[b, Q_0])
#     F_0 = i(D P_0 - D-bar Q_0) - 2i([P_0, Q_0] + [a, e] + [b, d])
#     F_-1 = -i(D-bar d + 2[b, e] + 2[P_0, d])
#     F_-2 = -i(D-bar e + 2[P_0, e]).

# the graded checks, each with the grades of P and of Q that it reads
GRADED_CHECKS = {"holomorphicity": ((), (1,)),
                 "covariant_closure": ((2,), (0,)),
                 "zero_curvature_scan": ((2, 1, 0), (2, 0, -1))}


# the radii |lam| of the spectral circles over which the default scan takes its sup
CIRCLE_RADII = (0.5, 1.0, 2.0)

# lines per tile of the tiled passes (the graded pass and the frame chain), like
# liealg._BATCH a measured constant: on the benchmark's n = 128 rungs, tiles of 16,
# 24, 32, 48 and 64 rows put the graded pass's peak resident memory at 55.1, 55.2,
# 55.3, 55.6 and 57.7 MB (58.2 MB untiled), and below 32 rows the fixed cost of
# each tile made the pass slower
_TILE_ROWS = 32


def _tiles(n, periodic, halo=1):
    """(lines, keep, dest) for each tile of at most _TILE_ROWS lines of an axis of n
    lines: the lines the tile reads, a slice or, where a halo wraps, an index array,
    and the slice `keep` of those that it writes to the lines `dest`.  A tile reads
    `halo` lines on each side, the wrapped neighbours on a periodic axis, and at an
    open edge the lines that `halo` nested one-sided stencils read; it reads at least
    8 lines (a SurfaceGrid's least, and more than the 2 halo + 1 that those stencils
    read for halo <= 3), so that `halo` nested `_centred(..., periodic=False)` over
    them give every kept line the whole axis's stencils."""
    for lo in range(0, n, _TILE_ROWS):
        hi = min(lo + _TILE_ROWS, n)
        stop = hi + halo if periodic else min(hi + halo, n)
        start = min(lo - halo, stop - 8)
        if periodic:
            lines = slice(start, stop) if 0 <= start and stop <= n else np.arange(start, stop) % n
        else:
            start = max(start, 0)
            lines = slice(start, stop)
        yield lines, slice(lo - start, hi - start), slice(lo, hi)


def _components(alpha: LieValuedOneForm):
    """alpha's components a_u and a_v as (d, nu, nv) views of either layout."""
    return [np.moveaxis(a, -1, 0) for a in (alpha.a_u, alpha.a_v)]


def _dz_coefficients(u, v, gb: liealg.GradedBasis, p_grades, q_grades):
    """({k: P_k}, {k: Q_k}) for the grades named, each (d_k, rows, nv) complex, from
    alpha's components u = a_u and v = a_v as (d, rows, nv) planes over some grid
    rows, with alpha = P dz + Q dz-bar in graded coordinates:
    P_k = conj(rows_k) (a_u - i a_v)/2 and Q_k = conj(rows_k) (a_u + i a_v)/2.  One
    product per side, over the basis rows of its grades; each block is a view of it."""
    d, shape = u.shape[0], u.shape[1:]
    u, v = u.reshape(d, -1), v.reshape(d, -1)
    x = np.empty(u.shape, complex)
    out = []
    for sign, grades in ((-1, p_grades), (1, q_grades)):
        basis = {k: gb.rows[gb.slices[k]] for k in liealg.GRADES if k in grades}
        blocks = {}
        if basis:
            # x = u -+ i v, written as its parts when alpha is real
            if np.iscomplexobj(u) or np.iscomplexobj(v):
                np.multiply(v, sign * 1j, out=x)
                x += u
            else:
                x.real = u
                np.multiply(v, sign, out=x.imag)
            # the 1/2 scales the rows, exactly (it only lowers the exponent)
            prod = 0.5 * np.concatenate(list(basis.values())).conj() @ x
            ends = np.cumsum([len(b) for b in basis.values()])
            blocks = {k: prod[e - len(b):e].reshape((len(b),) + shape)
                      for (k, b), e in zip(basis.items(), ends)}
        out.append(blocks)
    return out


def _sq_norm(x):
    """Pointwise squared Euclidean norm over the component axes of a real or complex
    (..., nu, nv) field: one grid dot product, with complex parts interleaved."""
    flat = np.ascontiguousarray(x).reshape((-1,) + x.shape[-2:]).view(float)
    sq = np.einsum("k...,k...->...", flat, flat)
    return sq[..., ::2] + sq[..., 1::2] if np.iscomplexobj(x) else sq


def _dz_derivative(grid, x, conj=False):
    """D x = du x + i dv x, or D-bar x = du x - i dv x with `conj`, of (..., rows, nv)
    planes over the lines of a row tile of `_tiles`, whose u stencil does not wrap."""
    out = partial_v(grid, x, -1)
    out *= -1j if conj else 1j
    out += _centred(x, grid.hu, -2, False)
    return out


def _laurent(grid, gb: liealg.GradedBasis, P, Q):
    """The Laurent coefficients (k, F_k) in graded coordinates, (d_k, rows, nv) each,
    for k = 2, 1, 0, -1, -2 (F_-2 in g_2), each formed when the previous one is taken,
    from the dz coefficients P_2, P_1, P_0 and Q_2, Q_0, Q_-1 (F_2 reads only P_2, Q_0)
    over the lines of a row tile of `_tiles`."""
    a, Q0 = P[2], Q[0]
    F = _dz_derivative(grid, a)
    F += 2 * gb.bracket(0, 2, Q0, a)
    F *= 1j
    yield 2, F
    b, e, d, P0 = P[1], Q[2], Q[-1], P[0]
    F = _dz_derivative(grid, b)
    F -= 2 * gb.bracket(2, -1, a, d)
    F -= 2 * gb.bracket(1, 0, b, Q0)
    F *= 1j
    yield 1, F
    F = gb.bracket(0, 0, P0, Q0)
    F += gb.bracket(2, 2, a, e)
    F += gb.bracket(1, -1, b, d)
    F *= -2
    F += _dz_derivative(grid, P0)
    F -= _dz_derivative(grid, Q0, conj=True)
    F *= 1j
    yield 0, F
    F = _dz_derivative(grid, d, conj=True)
    F += 2 * gb.bracket(1, 2, b, e)
    F += 2 * gb.bracket(0, -1, P0, d)
    F *= -1j
    yield -1, F
    F = _dz_derivative(grid, e, conj=True)
    F += 2 * gb.bracket(0, 2, P0, e)
    F *= -1j
    yield -2, F


def laurent_curvature(alpha: LieValuedOneForm, aut: liealg.GradedAutomorphism) -> dict:
    """Coefficients F_k of the loop family's curvature F(lam) = sum_k lam^k F_k.

    With lam^2 A + lam B + C + lam^-1 D + lam^-2 E the terms of `loop_form`,
    the lam^+-3 and lam^+-4 terms are wedges of two (1,0)-forms or two
    (0,1)-forms, which vanish on a surface (for the stencils too), leaving
        F_2 = dA + [C ^ A]              F_-2 = dE + [C ^ E]
        F_1 = dB + [A ^ D] + [B ^ C]    F_-1 = dD + [B ^ E] + [C ^ D]
        F_0 = dC + [A ^ E] + [B ^ D] + (1/2)[C ^ C].
    On (du, dv) each wedge is one bracket of dz coefficients (see the formulas
    above `GRADED_CHECKS`); F_2 is the covariant-closure two-form.  Each F_k lies
    in one grade (F_-2 in g_2), so the coefficients are formed in the
    grade-adapted basis, by the core of `graded_checks` over the same row tiles,
    and mapped back; returns {k: (nu, nv, d) array} for k = 2, 1, 0, -1, -2.
    """
    if aut.algebra is not alpha.algebra:
        raise AlgebraMismatch("automorphism acts on a different algebra")
    gb, grid = aut.graded, alpha.grid
    u, v = _components(alpha)
    grades = GRADED_CHECKS["zero_curvature_scan"]
    out = {}
    for lines, keep, dest in _tiles(grid.nu, grid.periodic_u):
        P, Q = _dz_coefficients(u[:, lines], v[:, lines], gb, *grades)
        for k, Fk in _laurent(grid, gb, P, Q):
            if k not in out:
                out[k] = np.empty((grid.nu, grid.nv, alpha.algebra.dim), complex)
            out[k][dest] = gb.vector(Fk[:, keep], liealg._grade_sum(k, 0))
    return out


def _tile_planes(grid, gb: liealg.GradedBasis, u, v, names, lam_samples):
    """(key, plane) for each real per-point plane that the reports of the graded
    checks `names` read, over the grid rows of alpha's components u and v (see
    `_dz_coefficients`): 2|Q_1|^2 ("holomorphicity"), s_k = |F_k|^2 (k), and for the
    scan either 2|<F_2, F_-2>| ("c") or, for each explicit sample lam,
    |lam^2 F_2 + lam^-2 F_-2|^2 (("lam", its index))."""
    P, Q = _dz_coefficients(u, v, gb, *({k for name in names for k in GRADED_CHECKS[name][i]}
                                        for i in (0, 1)))
    if "holomorphicity" in names:
        # the (0,1) part Q_1 dz-bar has components (Q_1, -i Q_1)
        yield "holomorphicity", 2 * _sq_norm(Q.pop(1))
    if names.isdisjoint(("covariant_closure", "zero_curvature_scan")):
        return
    F = {}
    for k, Fk in _laurent(grid, gb, P, Q):
        yield k, _sq_norm(Fk)
        if "zero_curvature_scan" not in names:
            return
        if k in (2, -2):
            F[k] = Fk
        del Fk   # dropped before the next coefficient is formed
    if lam_samples is None:
        yield "c", 2 * np.abs(np.einsum("k...,k...->...", F[2].conj(), F[-2]))
    else:
        for i, lam in enumerate(lam_samples):
            yield ("lam", i), _sq_norm(lam ** 2 * F[2] + lam ** -2 * F[-2])


def _scan(grid, s, lam_samples) -> ResidualReport:
    """`zero_curvature_scan`'s report from the planes s of `_tile_planes`."""
    mask = grid.interior_mask(2)

    def report(sq):
        return masked_report("zero_curvature_scan", grid.h, np.sqrt(sq), mask).entries[0]

    out = ResidualReport("zero_curvature_scan")
    for k in (2, 1, 0, -1, -2):
        out.meta[f"laurent_sup_{k}"] = float(np.sqrt(np.max(_masked(s[k], mask))))
    if lam_samples is None:
        entries = [report(r ** 4 * s[2] + r ** -4 * s[-2] + s["c"] + r ** 2 * s[1] + s[0]
                          + s[-1] / r ** 2) for r in CIRCLE_RADII]
        out.meta.update({f"circle_sup_{r:g}": e.sup for r, e in zip(CIRCLE_RADII, entries)})
    else:
        out.meta["n_lambda"] = len(lam_samples)
        entries = [report(s["lam", i] + abs(lam) ** 2 * s[1] + s[0] + s[-1] / abs(lam) ** 2)
                   for i, lam in enumerate(lam_samples)]
    return out.add(grid.h, max(e.sup for e in entries), max(e.l2 for e in entries))


def graded_checks(alpha: LieValuedOneForm, aut: liealg.GradedAutomorphism, names,
                  lam_samples=None) -> dict:
    """{name: report} for the graded checks `names` (keys of GRADED_CHECKS) of alpha,
    from one pass that forms only the dz coefficients those checks read, and each
    once: `ellsys.holomorphicity_residual`, `ellsys.covariant_closure_residual` and
    `zero_curvature_scan` (on the circles of CIRCLE_RADII, or at `lam_samples`) are
    this pass for one check each.

    The pass runs over tiles of grid rows (`_tiles`): each tile forms its dz
    coefficients and Laurent coefficients, with the u stencil of the whole grid,
    and writes only the real per-point planes of `_tile_planes` into whole-grid
    planes, from which the reports are taken as `masked_report` takes them."""
    if aut.algebra is not alpha.algebra:
        raise AlgebraMismatch("automorphism acts on a different algebra")
    names = set(names)
    if "zero_curvature_scan" in names and lam_samples is not None:
        lam_samples = [complex(lam) for lam in lam_samples]
        if not lam_samples:
            raise ZeroLambda("need at least one spectral sample")
        if 0 in lam_samples:
            raise ZeroLambda("spectral parameter must be nonzero")
        if not np.isfinite(lam_samples).all():
            raise ValueError(f"spectral parameters must be finite: {lam_samples}")
    grid, gb = alpha.grid, aut.graded
    u, v = _components(alpha)
    planes = {}
    for lines, keep, dest in _tiles(grid.nu, grid.periodic_u):
        for key, plane in _tile_planes(grid, gb, u[:, lines], v[:, lines], names, lam_samples):
            if key not in planes:
                planes[key] = np.empty((grid.nu, grid.nv))
            planes[key][dest] = plane[keep]
    out = {}
    if "holomorphicity" in names:
        out["holomorphicity"] = masked_report("holomorphicity", grid.h,
                                              np.sqrt(planes.pop("holomorphicity")),
                                              grid.interior_mask(1))
    if "covariant_closure" in names:
        out["covariant_closure"] = masked_report("covariant_closure", grid.h,
                                                 np.sqrt(planes[2]), grid.interior_mask(2))
    if "zero_curvature_scan" in names:
        out["zero_curvature_scan"] = _scan(grid, planes, lam_samples)
    return out


def zero_curvature_scan(alpha: LieValuedOneForm, aut: liealg.GradedAutomorphism,
                        lam_samples=None) -> ResidualReport:
    """Max curvature residual of the loop family over the circles |lam| = r of
    CIRCLE_RADII, or at the explicit samples `lam_samples`.

    F(lam) = sum_k lam^k F_k is evaluated from the Laurent coefficients in the
    grade-adapted unitary basis, where F_k lies in grade k (F_-2 in g_2), so with
    s_k = |F_k|^2 its pointwise norm is
        |F(lam)|^2 = |lam^2 F_2 + lam^-2 F_-2|^2 + |lam|^2 s_1 + s_0 + |lam|^-2 s_-1.
    At an explicit sample the g_2 block is summed as a vector, which keeps a
    residual where the two terms nearly cancel.  By default, on |lam| = r with
    c = <F_2, F_-2>, the g_2 term is r^4 s_2 + r^-4 s_-2 + 2 Re(e^(4i theta) c),
    whose sup over theta is exact with 2|c| in place of the real part: the circle
    value r^4 s_2 + r^-4 s_-2 + 2|c| + r^2 s_1 + s_0 + r^-2 s_-1 has no term that
    can cancel and is never below any sample of its circle.  meta carries the
    masked sup of each coefficient (laurent_sup_2 ... laurent_sup_-2), which says
    which power of lam a large residual comes from, and either the circle sup of
    each radius (circle_sup_0.5, circle_sup_1, circle_sup_2) or the number of
    samples (n_lambda).
    """
    return graded_checks(alpha, aut, ["zero_curvature_scan"], lam_samples)["zero_curvature_scan"]


def constant_form(grid: SurfaceGrid, algebra, xi_u, xi_v) -> LieValuedOneForm:
    ones = np.ones((grid.nu, grid.nv, 1))
    return LieValuedOneForm(grid, algebra, ones * np.asarray(xi_u)[None, None, :],
                            ones * np.asarray(xi_v)[None, None, :])
