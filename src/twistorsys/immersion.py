"""Conformal immersions into model spaces on conformal grids.

Fixtures ship analytic first derivatives and adapted frames, so the
conformality invariant holds at roundoff and every discretised quantity
(second fundamental form, connection coefficients, divergences) is built
from centered stencils applied to smooth sampled data.  Frame components:
tangent indices run over (e1, e2), normal indices over the normal frame
rows.  Hodge star on 1-forms: *du = dv, *dv = -du.  A fixture's builder
returns (phi, (d_u phi, d_v phi), frames), each vector the list of its m
components (a plane, a row that broadcasts to one, or a number), and frames
(e1, e2, then the normals) None where Gram-Schmidt completes them from the
coordinate axes; `build_immersion` writes each sampled plane once (`_planes`).

Every sampled vector and every derived Hom(T, N) quantity is stored once,
component-first: each of its components is one contiguous (nu, nv) plane,
the grid axes last.  The chart is (m, nu, nv), its derivatives
(2, m, nu, nv), the frames (e1, e2, then the normal frame) (2 + q, m, nu, nv),
each skew k x k connection its k(k - 1)/2 upper-triangle planes, H and
nabla_perp H (q, nu, nv), a Hom(T, N)-valued 1-form such as II
(2, q, 2, nu, nv) as slot, normal row and tangent column, and its divergence
(q, 2, nu, nv).  II_minus is never stored whole: each of its (q, 2, nu, nv)
slots is formed where it is read (`TwistorField.II_minus_slot`).  A
contraction over the ambient index is one grid dot product (`_grid_dot`); a
product by a 2 x 2 or q x q field (j_T, j_N, a Kahler J, a
connection) is a term list of plane products (`_plane_product`,
`_connection_product`) for the one sparse kernel `liealg._sparse_product`, so
numpy's inner loops run over whole planes.  A reader that needs grid-first
(nu, nv, ...) arrays takes the `_pointwise` view at its own boundary.  A lift
is its frame components j_T and j_N; the ambient (nu, nv, m, m) j that only
the ambient-matrix checks read is formed from them, grid-first, when read.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import liealg, symspace
from .forms import ResidualReport, SurfaceGrid, _sq_norm, masked_report, partial_u, partial_v


class ImmersionError(Exception):
    pass


class NotConformal(ImmersionError):
    pass


class BranchPoint(ImmersionError):
    pass


class NotImmersed(ImmersionError):
    pass


class FrameDiscontinuity(ImmersionError):
    pass


def _dilate(mask, iterations):
    """Binary dilation of a 2-d mask by the 4-neighbour cross, `iterations`
    times, with nothing set beyond the border."""
    for _ in range(iterations):
        grown = mask.copy()
        grown[1:] |= mask[:-1]
        grown[:-1] |= mask[1:]
        grown[:, 1:] |= mask[:, :-1]
        grown[:, :-1] |= mask[:, 1:]
        mask = grown
    return mask


def _pointwise(a):
    """The grid-first (nu, nv, ...) view of a component-first (..., nu, nv) array."""
    return np.moveaxis(a, (-2, -1), (0, 1))


@dataclass
class ImmersionField:
    """A sampled conformal immersion with adapted frames, stored component-first.

    Derived geometry (II, H, the frame connection and nabla_perp H) is
    computed on first access and cached on the field, so every check on
    the same field shares one copy.  A field must therefore not be mutated
    after `build_immersion` returns it.
    """

    grid: SurfaceGrid
    space: symspace.ModelSpace
    phi_planes: np.ndarray         # (m, nu, nv) the sampled chart
    dphi_planes: np.ndarray        # (2, m, nu, nv) its analytic d_u and d_v
    conformal_factor: np.ndarray   # (nu, nv), lambda^2 = |d_u phi|^2
    frame_planes: np.ndarray       # (2 + q, m, nu, nv) orthonormal e1, e2, then the normal frame
    branch_mask: np.ndarray = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.branch_mask is None:
            self.branch_mask = np.zeros((self.grid.nu, self.grid.nv), dtype=bool)

    @property
    def ambient_dim(self) -> int:
        return self.phi_planes.shape[0]

    @property
    def normal_rank(self) -> int:
        return self.frame_planes.shape[0] - 2

    @property
    def lam(self):
        return np.sqrt(self.conformal_factor)

    @functools.cached_property
    def II(self) -> SecondFundamentalForm:
        return second_fundamental_form(self)

    @functools.cached_property
    def H(self):
        """(q, nu, nv): the mean curvature as returned by `mean_curvature`."""
        return mean_curvature(self.II)

    @functools.cached_property
    def connection_planes(self):
        """(om_u, om_v, wn_u, wn_v) as returned by `frame_connection`."""
        return frame_connection(self)

    @functools.cached_property
    def grad_H(self):
        """(nabla_perp_du H, nabla_perp_dv H) as returned by `normal_connection_derivative`."""
        return normal_connection_derivative(self, self.H)

    def report_mask(self, margin: int = 1):
        mask = self.grid.interior_mask(margin)
        if self.branch_mask.any():
            bad = _dilate(self.branch_mask, max(margin, 1) + 1)
            mask = mask & ~bad
        return mask

    def conformality_residual(self) -> float:
        U, V = self.dphi_planes
        nu2, nv2, cross = _grid_dot(U, U), _grid_dot(V, V), _grid_dot(U, V)
        scale = max(float(np.mean(nu2)), 1e-30)
        mask = ~self.branch_mask
        return float(np.max(np.maximum(np.abs(nu2 - nv2), 2.0 * np.abs(cross))[mask]) / scale)


@dataclass
class TwistorField:
    """A lift j of `field`, given by its frame components j_T and j_N alone.

    The components are stored component-first, (2, 2, nu, nv) and
    (q, q, nu, nv), for the canonical and the octonion lift alike.  The
    vertical geometry of the lift (the covariant divergence of II_minus and
    the ambient (nu, nv, m, m) matrix of j) is computed on first access and
    cached on the lift, so every check on the same lift shares one copy; a
    residual that takes (field, tw) reads these from tw, which must be a lift
    of that field.  II_minus itself is not stored: `II_minus_slot` forms one
    slot afresh for each reader.  Like its field, a lift must not be mutated
    after it is built.
    """

    field: ImmersionField
    sign: int                  # +1 or -1: requested orientation component
    j_T_planes: np.ndarray     # (2, 2, nu, nv) frame components on the tangent
    j_N_planes: np.ndarray     # (q, q, nu, nv) frame components on the normal
    eps: int                   # rotation sense on the normal frame

    def II_minus_slot(self, a):
        """Slot a of the j-anticommuting part of the field's II, (q, 2, nu, nv),
        formed on each call into an array the caller owns."""
        return _anticommuting(self, self.field.II.planes[a].copy())

    @functools.cached_property
    def div_minus(self):
        """d^(nabla, nabla_perp) * II_minus on (du, dv), as `_hom_covariant_divergence`
        of the slots of II_minus, each formed as the divergence reads it."""
        return _hom_covariant_divergence(self.field, map(self.II_minus_slot, range(2)))

    @functools.cached_property
    def j_ambient(self):
        """(nu, nv, m, m): j = sum_a f_a x (sum_b j[a, b] f_b) over the frame vectors f_a,
        summed over the tangent frame with j_T, then over the normal frame with j_N,
        and the two sums added: one formula for every lift."""
        F = self.field.frame_planes
        # each sum in place on its first term, a fresh outer product
        T, N = (functools.reduce(operator.iadd, map(_outer, frame, _plane_product(block, frame)))
                for frame, block in ((F[:2], self.j_T_planes), (F[2:], self.j_N_planes)))
        T += N
        return T


@dataclass
class SecondFundamentalForm:
    """II as a Hom(T, N)-valued 1-form in frame slots, stored component-first.

    planes[a, p, b] = <II(e_a, e_b), n_p>, symmetric in the slots a, b.
    """

    planes: np.ndarray   # (2, q, 2, nu, nv)


# --------------------------------------------------------------------- fixtures

def _grid(n, lo_u, hi_u, lo_v, hi_v, periodic=False):
    cells = n if periodic else n - 1
    return SurfaceGrid(nu=n, nv=n, hu=(hi_u - lo_u) / cells, hv=(hi_v - lo_v) / cells,
                       periodic_u=periodic, periodic_v=periodic, u0=lo_u, v0=lo_v)


def _planes(vectors, shape):
    """The `vectors`, each a list of its m components (a plane, a row or column that
    broadcasts to `shape`, or a number), written into one component-first (k, m) + shape
    array."""
    out = np.empty((len(vectors), len(vectors[0])) + shape)
    for planes, vector in zip(out, vectors):
        for plane, c in zip(planes, vector):
            plane[...] = c
    return out


def _coordinate_plane(U, V, m, axes):
    """The (i, j) = axes coordinate plane of R^m; the other axes, in order, are its normals."""
    i, j = axes
    if i == j or not {i, j} <= set(range(m)):
        raise ValueError(f"axes {axes!r} are not two distinct coordinates 0..{m - 1}")
    phi = [0.0] * m
    phi[i], phi[j] = U, V
    unit = np.eye(m)   # the constant coordinate fields
    return phi, (unit[i], unit[j]), [unit[i], unit[j], *(unit[k] for k in range(m) if k not in axes)]


def _round_sphere(p, U, V):
    # stereographic chart of the round 2-sphere of radius r inside R^3 x {0}
    r = p["r"]
    D = 1.0 + U ** 2 + V ** 2
    phi = [2 * r * U / D, 2 * r * V / D, r * (U ** 2 + V ** 2 - 1) / D, 0.0]
    dphi_u = [2 * r * (D - 2 * U ** 2) / D ** 2, -4 * r * U * V / D ** 2, 4 * r * U / D ** 2, 0.0]
    dphi_v = [-4 * r * U * V / D ** 2, 2 * r * (D - 2 * V ** 2) / D ** 2, 4 * r * V / D ** 2, 0.0]
    lam = 2 * r / D
    return phi, (dphi_u, dphi_v), [[c / lam for c in dphi_u], [c / lam for c in dphi_v],
                                   [c / r for c in phi], [0.0, 0.0, 0.0, 1.0]]


def _clifford_torus(p, U, V):
    a = p["a"]
    cu, su, cv, sv = np.cos(U), np.sin(U), np.cos(V), np.sin(V)
    e1, e2 = [-su, cu, 0.0, 0.0], [0.0, 0.0, -sv, cv]
    s2 = 1.0 / math.sqrt(2.0)
    return ([a * c for c in (cu, su, cv, sv)], ([a * c for c in e1], [a * c for c in e2]),
            [e1, e2, [s2 * c for c in (cu, su, cv, sv)], [s2 * c for c in (-cu, -su, cv, sv)]])


def _clifford_torus_s4(p, U, V):
    # the same torus as a minimal surface of the unit 4-sphere in R^5
    cu, su, cv, sv = np.cos(U), np.sin(U), np.cos(V), np.sin(V)
    e1, e2 = [-su, cu, 0.0, 0.0, 0.0], [0.0, 0.0, -sv, cv, 0.0]
    s2 = 1.0 / math.sqrt(2.0)
    return ([s2 * c for c in (cu, su, cv, sv, 0.0)], ([s2 * c for c in e1], [s2 * c for c in e2]),
            [e1, e2, [s2 * c for c in (cu, su, -cv, -sv, 0.0)], [0.0, 0.0, 0.0, 0.0, 1.0]])


def _product_torus(p, U, V):
    r1 = p["r1"]
    r2 = p["r2"]
    cu, su = np.cos(U / r1), np.sin(U / r1)
    cv, sv = np.cos(V / r2), np.sin(V / r2)
    e1, e2 = [-su, cu, 0.0, 0.0], [0.0, 0.0, -sv, cv]
    return ([r1 * cu, r1 * su, r2 * cv, r2 * sv], (e1, e2),
            [e1, e2, [cu, su, 0.0, 0.0], [0.0, 0.0, cv, sv]])


def _helicoid(p, U, V):
    ch, sh = np.cosh(U), np.sinh(U)
    cv, sv = np.cos(V), np.sin(V)
    dphi_u = [ch * cv, ch * sv, 0.0, 0.0]
    dphi_v = [-sh * sv, sh * cv, 1.0, 0.0]
    return ([sh * cv, sh * sv, V, 0.0], (dphi_u, dphi_v),
            [[c / ch for c in dphi_u], [c / ch for c in dphi_v],
             [sv / ch, -cv / ch, sh / ch, 0.0], [0.0, 0.0, 0.0, 1.0]])


def _revolution_torus_chart(eps):
    """Closed-form isothermal chart of the torus of revolution R=1, r=1/2+eps."""
    R, r = 1.0, 0.5 + eps
    a = R / r
    s = math.sqrt(a ** 2 - 1.0) / 2.0
    k = math.sqrt((a + 1.0) / (a - 1.0))
    period_u = 2.0 * math.pi / math.sqrt(a ** 2 - 1.0)
    return R, r, s, k, period_u


def _perturbed_torus(p, U, V):
    # non-CMC torus of revolution in R^3 x {0}; u is the flat isothermal
    # coordinate along the profile, v the azimuth
    eps = p["eps"]
    R, r, s, k, _ = _revolution_torus_chart(eps)
    theta = 2.0 * np.arctan2(k * np.sin(s * U), np.cos(s * U))
    ct, st = np.cos(theta), np.sin(theta)
    cv, sv = np.cos(V), np.sin(V)
    rho = R + r * ct
    e1, e2 = [-st * cv, -st * sv, ct, 0.0], [-sv, cv, 0.0, 0.0]
    return ([rho * cv, rho * sv, r * st, 0.0], ([rho * c for c in e1], [rho * c for c in e2]),
            [e1, e2, [ct * cv, ct * sv, st, 0.0], [0.0, 0.0, 0.0, 1.0]])


def _saddle_arclength(x):
    """Arclength of y = 3 x^2 from 0: (x sqrt(1+36x^2) + asinh(6x)/6) / 2."""
    return 0.5 * (x * np.sqrt(1.0 + 36.0 * x ** 2) + np.arcsinh(6.0 * x) / 6.0)


def _invert_arclength(svals):
    x = np.array(svals, dtype=float)
    for _ in range(60):
        f = _saddle_arclength(x) - svals
        x = x - f / np.sqrt(1.0 + 36.0 * x ** 2)
    return x


def _lagrangian_graph(p, U, V):
    potential = p["potential"]
    if potential == "saddle":
        # gradient graph of x1^2 - x2^2: conformal as-is since Hess^2 = 4 I
        s5 = 1.0 / math.sqrt(5.0)
        e1, e2 = [1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, -2.0]
        return ([U, 2 * U, V, -2 * V], (e1, e2),
                [[s5 * c for c in vector] for vector in
                 (e1, e2, (-2.0, 1.0, 0.0, 0.0), (0.0, 0.0, 2.0, 1.0))])
    if potential == "cubic":
        # gradient graph of x1^3: a cylinder over the parabola y1 = 3 x1^2,
        # parametrised by arclength u of the profile (isothermal, lambda = 1)
        x = _invert_arclength(U[:, :1])   # U is constant along v: one column broadcasts
        xp = 1.0 / np.sqrt(1.0 + 36.0 * x ** 2)   # dx/du along the profile
        e1, e2 = [xp, 6.0 * x * xp, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]
        return ([x, 3.0 * x ** 2, V, 0.0], (e1, e2),
                [e1, e2, [-6.0 * x * xp, xp, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    raise KeyError(f"unknown potential {potential!r}")


def _graph(p, U, V):
    # generic graph over the plane: a non-conformal negative control
    amp = p["amplitude"]
    return ([U, V, amp * np.sin(U) * np.sin(V), 0.0],
            ([1.0, 0.0, amp * np.cos(U) * np.sin(V), 0.0],
             [0.0, 1.0, amp * np.sin(U) * np.cos(V), 0.0]), None)


def _branched_disk(p, U, V):
    # image of z -> z^2: conformal with a branch point at the origin
    return ([U ** 2 - V ** 2, 2 * U * V, 0.0, 0.0],
            ([2 * U, 2 * V, 0.0, 0.0], [-2 * V, 2 * U, 0.0, 0.0]), None)


def _octonion_graph(p, U, V):
    # the holomorphic curve (z, z^2) inside the first two complex slots of R^8
    return ([U, V, U ** 2 - V ** 2, 2 * U * V] + [0.0] * 4,
            ([1.0, 0.0, 2 * U, 2 * V] + [0.0] * 4, [0.0, 1.0, -2 * V, 2 * U] + [0.0] * 4), None)


class SurfaceFixture(NamedTuple):
    builder: Callable   # (p, U, V) -> (phi, (d_u phi, d_v phi), frames or None)
    space: str          # the model space the fixture lives in
    params: dict        # name -> default; builder and domain read p[name]
    domain: Callable    # p -> (lo_u, hi_u, lo_v, hi_v[, periodic]) of the chart


def _box(a):
    return lambda p: (-a, a, -a, a)


def _torus(p):
    return 0.0, 2 * math.pi, 0.0, 2 * math.pi, True


# the cubic graph's chart: the profile arclength between x = 0.15 and 0.75
_CUBIC_ARCLENGTH = tuple(float(s) for s in _saddle_arclength(np.array([0.15, 0.75])))


FIXTURES = {
    "plane": SurfaceFixture(lambda p, U, V: _coordinate_plane(U, V, 4, (0, 1)), "euclidean4",
                            {}, _box(1.0)),
    "graph": SurfaceFixture(_graph, "euclidean4", {"amplitude": 0.3}, _box(1.0)),
    "round_sphere": SurfaceFixture(_round_sphere, "euclidean4", {"r": 1.0}, _box(0.8)),
    "clifford_torus": SurfaceFixture(_clifford_torus, "euclidean4",
                                     {"a": 1.0 / math.sqrt(2.0)}, _torus),
    "clifford_torus_s4": SurfaceFixture(_clifford_torus_s4, "sphere4", {}, _torus),
    "product_torus": SurfaceFixture(
        _product_torus, "complex2", {"r1": 1.0, "r2": 0.6},
        lambda p: (0.0, 2 * math.pi * p["r1"], 0.0, 2 * math.pi * p["r2"], True)),
    "perturbed_torus": SurfaceFixture(
        _perturbed_torus, "euclidean4", {"eps": 0.1},
        lambda p: (0.0, _revolution_torus_chart(p["eps"])[4], 0.0, 2 * math.pi, True)),
    "helicoid": SurfaceFixture(_helicoid, "euclidean4", {}, _box(0.7)),
    "lagrangian_plane": SurfaceFixture(lambda p, U, V: _coordinate_plane(U, V, 4, (0, 2)),
                                       "complex2", {}, _box(1.0)),
    "lagrangian_graph": SurfaceFixture(
        _lagrangian_graph, "complex2", {"potential": "saddle"},
        lambda p: ((*_CUBIC_ARCLENGTH, 0.0, 0.6) if p["potential"] == "cubic"
                   else (-1.0, 1.0, -1.0, 1.0))),
    # the plane as a holomorphic curve in the Kahler plane: maximally non-Lagrangian
    "complex_line": SurfaceFixture(lambda p, U, V: _coordinate_plane(U, V, 4, (0, 1)), "complex2",
                                   {}, _box(1.0)),
    "branched_disk": SurfaceFixture(_branched_disk, "euclidean4", {}, _box(1.0)),
    "octonion_plane": SurfaceFixture(lambda p, U, V: _coordinate_plane(U, V, 8, p["axes"]),
                                     "euclidean8", {"axes": (0, 1)}, _box(1.0)),
    "octonion_graph": SurfaceFixture(_octonion_graph, "euclidean8", {}, _box(0.6)),
}


def list_fixture_kinds():
    return sorted(FIXTURES)


def fixture_params(kind, params=None):
    """The params `build_immersion(kind, params)` reads: `params` over their defaults."""
    return {**FIXTURES[kind].params, "allow_nonconformal": False, **(params or {})}


def check_param_values(kind, params=None):
    """Build the fixture's smallest grid and sample it at the first point of its
    chart, so that a param value it cannot take raises (ValueError, KeyError,
    ArithmeticError, forms.GridError) before any rung; returns the sampled chart
    point as an (m, 1, 1) array."""
    p = fixture_params(kind, params)
    grid = _grid(8, *FIXTURES[kind].domain(p))
    with np.errstate(divide="raise", invalid="raise"):
        phi, _, _ = FIXTURES[kind].builder(p, np.full((1, 1), grid.u0), np.full((1, 1), grid.v0))
    return _planes([phi], (1, 1))[0]


def build_immersion(kind, params=None, n=32, space=None) -> ImmersionField:
    """Sample a named fixture surface with adapted frames on an n x n grid
    of its chart domain, with the params `fixture_params(kind, params)`.

    Analytic fixtures carry exact derivatives and frames; graph-type
    fixtures fall back to deterministic Gram-Schmidt frames.  Raises
    NotConformal above a conformality residual of 1e-6 unless params
    allow_nonconformal, BranchPoint when degenerate points dominate the grid.
    """
    if kind not in FIXTURES:
        raise KeyError(f"unknown fixture kind {kind!r}")
    p = fixture_params(kind, params)
    grid = _grid(n, *FIXTURES[kind].domain(p))
    # the open mesh: builders broadcast a (nu, 1) column of u against a (1, nv) row of v
    shape = (grid.nu, grid.nv)
    phi, dphi, frames = FIXTURES[kind].builder(p, *np.meshgrid(grid.u_coords(), grid.v_coords(),
                                                               indexing="ij", sparse=True))
    if space is None:
        space = symspace.model_space(FIXTURES[kind].space)
    m = len(phi)
    if space.ambient_dim != m:
        raise ValueError(f"fixture {kind!r} is {m}-dimensional, "
                         f"model space expects {space.ambient_dim}")

    # rebound, so that each builder plane is freed once it is written
    phi, dphi = _planes([phi], shape)[0], _planes(dphi, shape)
    conf = np.sum(dphi[0] ** 2, axis=0)
    branch = conf < 1e-10
    if np.mean(branch) > 0.1:
        raise BranchPoint(f"fixture {kind!r}: {np.mean(branch):.0%} of the grid is degenerate")

    if frames is None:
        frames, disc = _gram_schmidt_frames(dphi, branch)
    else:
        frames, disc = _planes(frames, shape), False

    out = ImmersionField(grid=grid, space=space, phi_planes=phi, dphi_planes=dphi,
                         conformal_factor=conf, frame_planes=frames, branch_mask=branch,
                         meta={"kind": kind, "params": p,
                               "frame_discontinuity": disc})
    resid = out.conformality_residual()
    out.meta["conformality_residual"] = resid
    if resid > 1e-6 and not p["allow_nonconformal"]:
        raise NotConformal(f"fixture {kind!r} conformality residual {resid:.3e} > 1.0e-06")
    return out


# <a, b> at every grid point of two component-first (m, nu, nv) fields
_grid_dot = functools.partial(np.einsum, "m...,m...->...")


def _plane_product(M, X, out=None):
    """M X on component planes: out[p] += sum_r M[p, r] X[r] by `liealg._sparse_product`.

    Each M[p, r] is a (nu, nv) plane, or anything that broadcasts against the block
    X[r] (..., nu, nv), such as a constant or a plane of a broadcast view; `out`
    (k, ..., nu, nv), zeros when not given, may be a view with moved axes.  A term
    whose M[p, r] is one value over the whole grid, and that value zero (a zero
    entry of a canonical lift's rotations or of a Kahler J), adds no term.  Returns out.
    """
    if out is None:
        out = np.zeros(M.shape[:1] + X.shape[1:])
    terms = {p: [((p, r), r, 1) for r in range(len(X))
                 if any((c := np.asarray(M[p, r])).strides) or c.flat[0] != 0]
             for p in range(len(out))}
    return liealg._sparse_product(terms, M, X, out)


def _connection_product(W, X, out):
    """out[a] += sum_b w[a, b] X[b] by `liealg._sparse_product`, in the order of b, for
    a skew w stored as the upper-triangle planes W of `frame_connection`: w[b, a]
    enters with c = -1, and an all-zero plane adds no term.  `out` may be a view
    with moved axes: -B w is this product on the transposed B and out."""
    terms = {a: [] for a in range(len(X))}
    for i, (a, b) in enumerate(itertools.combinations(range(len(X)), 2)):
        if W[i].any():
            terms[a].append((i, b, 1))
            terms[b].append((i, a, -1))
    return liealg._sparse_product(terms, W, X, out)


def _gram_schmidt_frames(dphi, branch):
    """(frames, whether a frame jumps by more than 0.5 between neighbours) by modified
    Gram-Schmidt on the component planes of dphi (2, m, nu, nv): the (m, m, nu, nv)
    frames of `ImmersionField`, e1, e2 and then the normal frame from the coordinate
    axes in order."""
    U, V = dphi
    frames = np.empty((len(U),) + U.shape)
    e1, e2, normal = frames[0], frames[1], frames[2:]
    np.divide(U, np.sqrt(np.maximum(_grid_dot(U, U), 1e-30)), out=e1)
    np.subtract(V, _grid_dot(V, e1) * e1, out=e2)
    e2 /= np.maximum(np.sqrt(_grid_dot(e2, e2)), 1e-30)
    found, jump = 0, _max_neighbor_jump(e1)
    for axis in range(len(e1)):
        if found == len(normal):
            break
        # the axis minus its projection e1[axis] e1, reduced in place by the rest
        cand = normal[found]
        np.multiply(e1, -e1[axis], out=cand)
        cand[axis] += 1.0
        for prev in (e2, *normal[:found]):
            cand -= _grid_dot(cand, prev) * prev
        norms = np.sqrt(_grid_dot(cand, cand))
        if np.min(norms[~branch]) < 0.35:
            continue
        # sign is coherent by construction: the component along the generating
        # axis equals |cand|^2 before normalisation, hence positive everywhere
        cand /= np.maximum(norms, 1e-30)
        jump = max(jump, _max_neighbor_jump(cand))
        found += 1
    if found < len(normal):
        raise FrameDiscontinuity("could not complete a stable normal frame from the axes")
    return frames, jump > 0.5


def _max_neighbor_jump(f):
    """The largest |f(p) - f(p')| over neighbouring grid points p, p' of an (m, nu, nv) field."""
    sq = (_grid_dot(d, d) for d in (np.diff(f, axis=1), np.diff(f, axis=2)))
    return math.sqrt(max(float(np.max(s, initial=0.0)) for s in sq))


# ---------------------------------------------------------- second fundamental

def second_fundamental_form(field: ImmersionField) -> SecondFundamentalForm:
    """II(e_a, e_b) in normal-frame coefficients by centered differences.

    For the sphere target the ambient covariant derivative is the R^5
    derivative projected to the sphere tangent space; since the normal
    frame is orthogonal to the position, taking normal components of the
    raw derivative is exactly that projection.
    """
    grid = field.grid
    d_u, d_v = field.dphi_planes
    inv = 1.0 / np.maximum(field.conformal_factor, 1e-30)
    normals = field.frame_planes[2:]
    hom = np.empty((2, len(normals), 2) + inv.shape)
    for a, b in ((0, 0), (0, 1), (1, 1)):
        # one slot of second derivatives at a time; the mixed one averages both orders
        D = partial_v(grid, d_v, axis=-1) if a else partial_u(grid, (d_u, d_v)[b], axis=-2)
        if a != b:
            D += partial_v(grid, d_u, axis=-1)
            D *= 0.5
        for p, n in enumerate(normals):
            np.multiply(_grid_dot(n, D), inv, out=hom[a, p, b])
    hom[1, :, 0] = hom[0, :, 1]
    return SecondFundamentalForm(planes=hom)


def mean_curvature(II: SecondFundamentalForm):
    """H = (1/2) trace II in normal-frame coefficients: (q, nu, nv)."""
    return 0.5 * (II.planes[0, :, 0] + II.planes[1, :, 1])


# ----------------------------------------------------------------- twistor lift

def twistor_lift(field: ImmersionField, sign: int = +1) -> TwistorField:
    """Canonical lift: +pi/2 rotation on the tangent, +/-pi/2 on the normal.

    The normal rotation sense eps is fixed by the requested orientation
    component: the 4-frame (e1, j e1, n1, j n1) must be positively
    (sign=+1) or negatively oriented against the ambient volume form (for
    the sphere, the volume form contracted with the outward position).
    """
    if field.normal_rank != 2:
        raise NotImmersed("canonical lifts need normal rank 2")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    cols = list(field.frame_planes)
    if field.space.kind == "sphere4":
        cols = [field.phi_planes / field.space.radius] + cols
    det = _column_det(cols)
    mask = field.report_mask(0)
    if np.min(np.abs(det[mask])) < 1e-6:
        raise NotImmersed("degenerate adapted frame")
    signs = sign * np.sign(det[mask])
    eps = signs.min()
    if eps != signs.max():
        raise FrameDiscontinuity("orientation flips across the grid")
    return _frame_rotation_lift(field, sign, +1, int(eps))


def flip_tangent_orientation(field: ImmersionField, tw: TwistorField) -> TwistorField:
    """The anti-holomorphic twin: reverse the tangent rotation, keep the normal."""
    return _frame_rotation_lift(field, tw.sign, -1, tw.eps)


def _outer(a, b):
    """(nu, nv, m, m): the pointwise outer product of two (m, nu, nv) fields."""
    return np.einsum("iuv,juv->uvij", a, b)


def _column_det(cols):
    """det of the m x m matrices whose columns are the m component-first (m, ...) fields `cols`.

    The exterior product cols[k] ^ ... ^ cols[m-1] is kept as its minors, one
    per set of rows, and each earlier column expands them along itself (the
    first column of the larger minor): m 2^(m-1) products of grid planes in
    place of one LAPACK factorisation per point.
    """
    m = len(cols)
    minors = {(): 1.0}
    for k, rows in enumerate(reversed(cols), 1):
        expanded = {}
        for S in itertools.combinations(range(m), k):
            # one product per term, added or subtracted in place by its sign
            det = rows[S[0]] * minors[S[1:]]
            for t, i in enumerate(S[1:], 1):
                if t % 2:
                    det -= rows[i] * minors[S[:t] + S[t + 1:]]
                else:
                    det += rows[i] * minors[S[:t] + S[t + 1:]]
            expanded[S] = det
        minors = expanded
    return minors[tuple(range(m))]


def _frame_rotation_lift(field: ImmersionField, sign, s, eps) -> TwistorField:
    """j = s (e2 x e1 - e1 x e2) + eps (n2 x n1 - n1 x n2): a +/-pi/2 frame
    rotation on each factor, stored as its constant frame components; the
    ambient j is formed only when `TwistorField.j_ambient` is read."""
    grid_shape = (field.grid.nu, field.grid.nv)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])[..., None, None]
    # constant in frames: read-only views of one 2x2 matrix
    j_T = np.broadcast_to(s * rot, (2, 2) + grid_shape)
    j_N = np.broadcast_to(eps * rot, (2, 2) + grid_shape)
    return TwistorField(field=field, sign=sign, j_T_planes=j_T, j_N_planes=j_N, eps=eps)


# ------------------------------------------------------------------ connections

def frame_connection(field: ImmersionField):
    """Connection coefficients of the tangent and normal frames.

    Returns (om_u, om_v, wn_u, wn_v): per direction, the skew part (1/2)(<f_a, d f_b>
    - <f_b, d f_a>) of <f_a, d f_b> by centered differences of the frames, stored as
    its (k(k - 1)/2, nu, nv) planes a < b in `itertools.combinations` order.
    """
    grid = field.grid
    E, N = field.frame_planes[:2], field.frame_planes[2:]

    def coeff(F, dF):
        pairs = list(itertools.combinations(range(len(F)), 2))
        out = np.empty((len(pairs),) + F.shape[2:])
        for w, (a, b) in zip(out, pairs):
            np.subtract(_grid_dot(F[a], dF[b]), _grid_dot(F[b], dF[a]), out=w)
            w *= 0.5
        return out

    return (coeff(E, partial_u(grid, E, axis=-2)), coeff(E, partial_v(grid, E, axis=-1)),
            coeff(N, partial_u(grid, N, axis=-2)), coeff(N, partial_v(grid, N, axis=-1)))


def _anticommuting(tw: TwistorField, A):
    """pi_minus(A) = (1/2)(A + j_N A j_T): the part of the Hom(T, N) field A,
    of shape (..., q, 2, nu, nv), that anticommutes with the lift, written
    over A in place; returns A.

    The conjugation C(A) = j_N A j_T is an involution on Hom(T, N), and
    A - pi_minus(A) is the j-commuting part.  The right product by j_T is
    the left product by its transpose on the transposed planes.
    """
    jA = np.empty(A.shape[-4:])
    for i in np.ndindex(A.shape[:-4]):
        # both columns of j_N A before either is added to A, each column b to
        # every column c as j_T[b, c] times it
        jA.fill(0.0)
        _plane_product(tw.j_N_planes, A[i], out=jA)
        _plane_product(tw.j_T_planes.swapaxes(0, 1), jA.swapaxes(0, 1), out=A[i].swapaxes(0, 1))
    A *= 0.5
    return A


def _hom_covariant_divergence(field: ImmersionField, slots):
    """sum_dir nabla_dir of the dir-slot of a Hom-valued 1-form.

    slots gives the form's two (q, 2, nu, nv) slots, evaluated on the
    orthonormal tangent vectors, in order: a (2, q, 2, nu, nv) array, or an
    iterable that forms each slot as it is read.  They are rescaled by lambda
    to coordinate components before differencing, into an array of this
    call's own, so the result, (q, 2, nu, nv), is the value of
    d^(nabla, nabla_perp) of the Hodge-starred form on (du, dv).
    """
    grid = field.grid
    om_u, om_v, wn_u, wn_v = field.connection_planes
    lam = field.lam
    slots, div = iter(slots), None
    for om, wn in ((om_u, wn_u), (om_v, wn_v)):
        B = lam * next(slots)
        if div is None:
            div = partial_u(grid, B, axis=-2)
        else:
            for c in range(B.shape[1]):
                div[:, c] += partial_v(grid, B[:, c], axis=-1)
        _connection_product(wn, B, div)
        # - B om = om B^T on the transposed planes, om being skew
        _connection_product(om, B.swapaxes(0, 1), div.swapaxes(0, 1))
        del B   # one slot at a time: freed before the next is formed
    return div


def normal_connection_derivative(field: ImmersionField, H):
    """(nabla_perp_du H, nabla_perp_dv H) in normal coefficients, each (q, nu, nv)."""
    grid = field.grid
    _, _, wn_u, wn_v = field.connection_planes
    return (_connection_product(wn_u, H, partial_u(grid, H, axis=-2)),
            _connection_product(wn_v, H, partial_v(grid, H, axis=-1)))


def vertical_harmonicity_residual(field: ImmersionField, tw: TwistorField) -> ResidualReport:
    """Norm of d^(nabla, nabla_perp) * II_minus over the interior."""
    return masked_report("vertical_harmonicity", field.grid.h, np.sqrt(_sq_norm(tw.div_minus)),
                         field.report_mask(2))


def holomorphic_H_residual(field: ImmersionField, tw: TwistorField) -> ResidualReport:
    """Norm of nabla_perp_du H + j nabla_perp_dv H (the anti-holomorphic part)."""
    G_u, G_v = field.grad_H
    resid = G_u + _plane_product(tw.j_N_planes, G_v)
    return masked_report("holomorphic_H", field.grid.h, np.sqrt(_sq_norm(resid)),
                         field.report_mask(2))


def _grad_H_hom(field: ImmersionField):
    """nabla_perp H as a Hom(T, N)-valued 1-form in frame slots: (q, 2, nu, nv)."""
    G_u, G_v = field.grad_H
    inv = 1.0 / np.maximum(field.lam, 1e-30)
    out = np.empty(G_u.shape[:1] + (2,) + G_u.shape[1:])
    for b, G in enumerate((G_u, G_v)):
        np.multiply(G, inv, out=out[:, b])
    return out


def divergence_identity_residual(field: ImmersionField, tw: TwistorField) -> ResidualReport:
    """Pointwise identity  * d * II_minus = 2 pi_minus(nabla_perp H).

    Holds for every conformal immersion into the shipped space forms,
    solutions and non-solutions alike.
    """
    resid = _anticommuting(tw, _grad_H_hom(field))
    resid *= -2.0
    resid += 1.0 / np.maximum(field.conformal_factor, 1e-30) * tw.div_minus
    return masked_report("divergence_identity", field.grid.h, np.sqrt(_sq_norm(resid)),
                         field.report_mask(2))


def codazzi_identity_residual(field: ImmersionField) -> ResidualReport:
    """Traced Codazzi identity in the field's model space:
    (* d * II)(X) = (R(e_i, X) e_i)^perp + 2 nabla_perp_X H, X in (e1, e2).

    In a space form R(e_i, X) e_i = c (sum_i <X, e_i> e_i - 2 X) is tangent,
    so its normal part is zero and the identity reads * d * II = 2 nabla_perp H
    for every curvature constant c: this residual does not test c.
    """
    resid = _hom_covariant_divergence(field, field.II.planes)
    resid *= 1.0 / np.maximum(field.conformal_factor, 1e-30)
    resid -= 2.0 * _grad_H_hom(field)
    return masked_report("codazzi_identity", field.grid.h, np.sqrt(_sq_norm(resid)),
                         field.report_mask(2))


def curvature_commutator_residual(field: ImmersionField, tw: TwistorField) -> ResidualReport:
    """Pointwise |[R(dphi e1, dphi e2), j]| in the field's model space:
    algebraic, no differencing."""
    Rop = symspace.curvature_operator(field.space, *map(_pointwise, field.frame_planes[:2]))
    comm = Rop @ tw.j_ambient - tw.j_ambient @ Rop
    return masked_report("curvature_commutator", field.grid.h, liealg._frobenius(comm),
                         field.report_mask(0))
