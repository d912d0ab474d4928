"""Pointwise evaluation of the nonlocal operators attached to a kernel.

For a kernel K this module evaluates, at a point x or at each row of an
(m, dim) array of points,

    L u(x)     = p.v. Int (u(y) - u(x)) K(x, y) dy,
    B(u, v)(x) = 1/2 Int (u(y) - u(x)) (v(y) - v(x)) K(x, y) dy,

and so the drifted combination L u + B(u, h), whose two terms share
one rule (``build_rule`` with ``fns=(u, h)``).  The principal value is
handled by an inner rule whose nodes come in antipodal pairs (y, 2x - y)
sharing one weight, so the odd part of the integrand cancels exactly and
the remaining even part is integrable.  The radial direction uses
Gauss-Jacobi nodes adapted to the r^(1-2s) behaviour near the centre,
the annulus uses geometric panels with Gauss-Legendre nodes (panel edges
are forced onto any known kink radii of the integrand), and the far
field beyond the quadrature radius is accounted for by a kernel tail
mass.  That mass, like every exterior integral of the package, comes
from ``far_field``: along each ray from a start radius outwards, in
closed form for the kernel mass of a constant field and otherwise on
geometric Gauss-Legendre panels.  For a function g that equals g_inf
beyond a declared radius the rays stop there, because

    Int (g - g(x)) K = Int (g - g_inf) K + (g_inf - g(x)) Int K

for any constant g_inf.

The rules of m points are built in one pass and equal, bit for bit, the
rules of the points taken one by one: the radii and panel edges are set
point by point, the kernel values at all nodes come from chunks of at
most ``_KERNEL_CHUNK_BYTES`` of temporaries, and the m tail masses from
one ``far_field`` call.  For a separable field a kernel value is
P + Q b(y) (``AnisotropyField.split``) with b(x) evaluated once per
point or node; along a ray P and Q are fixed per node and direction
(``_ray_constants``), and a sample is one profile call at k . y.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .kernels import KernelSpec

__all__ = [
    "SmoothFunction",
    "QuadratureScheme",
    "PointRule",
    "build_rule",
    "far_field",
    "nonlocal_laplacian",
    "carre_du_champ",
    "gaussian",
    "bump",
    "tanh_drift",
    "interval_power",
    "scaled",
    "shifted",
]


# --------------------------------------------------------------------------
# function wrapper


@dataclass
class SmoothFunction:
    """A scalar function on R^N with the metadata the quadrature needs.

    ``fn`` must accept an array of shape (m, dim) and return shape (m,).
    ``support_radius`` declares that the function equals ``far_value``
    (default 0, i.e. compact support) outside the closed ball of that
    radius about the origin; ``None`` means no such radius is known.
    ``kink_points`` / ``kink_spheres`` list locations where the function
    is only finitely smooth, so panel edges can be aligned with them.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    dim: int
    support_radius: float | None = None
    kink_points: tuple = ()
    kink_spheres: tuple = ()  # entries (center, radius)
    far_value: float = 0.0  # constant value beyond support_radius

    def __call__(self, x: np.ndarray) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        single = arr.ndim == 1
        pts = np.atleast_2d(arr)
        vals = np.asarray(self.fn(pts), dtype=float).reshape(pts.shape[0])
        return float(vals[0]) if single and vals.size == 1 else vals

    def radial_breakpoints(self, x: np.ndarray) -> list[float]:
        """Distances from x at which smoothness may fail."""
        x = np.asarray(x, dtype=float).reshape(self.dim)
        out: list[float] = []
        for p in self.kink_points:
            out.append(float(np.linalg.norm(x - np.asarray(p, dtype=float).reshape(self.dim))))
        for center, radius in self.kink_spheres:
            d = float(np.linalg.norm(x - np.asarray(center, dtype=float).reshape(self.dim)))
            out.append(abs(d - radius))
            out.append(d + radius)
        return [r for r in out if r > 0.0]


def gaussian(dim: int, width: float = 1.0, center: Sequence[float] | None = None,
             amplitude: float = 1.0) -> SmoothFunction:
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)

    def fn(pts: np.ndarray) -> np.ndarray:
        z = (pts - c) / width
        return amplitude * np.exp(-0.5 * np.einsum("mi,mi->m", z, z))

    # effective support: |g| < 1e-16 amplitude outside ~8.6 widths
    reach = float(np.linalg.norm(c) + 8.6 * width)
    return SmoothFunction(fn, dim, support_radius=reach)


def bump(dim: int, center: Sequence[float] | None = None, radius: float = 1.0,
         amplitude: float = 1.0) -> SmoothFunction:
    """C-infinity bump: a exp(1 - 1/(1 - |z|^2)) on |z| < 1, z = (x-c)/r."""
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)

    def fn(pts: np.ndarray) -> np.ndarray:
        z = (pts - c) / radius
        r2 = np.einsum("mi,mi->m", z, z)
        out = np.zeros(pts.shape[0])
        inside = r2 < 1.0
        out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        return out

    reach = float(np.linalg.norm(c) + radius)
    return SmoothFunction(fn, dim, support_radius=reach)


def tanh_drift(dim: int, amplitude: float = 0.3,
               slope: float = 2.0) -> SmoothFunction:
    """Smoothed step a tanh(k x_0) along the first axis, with plateaus +-a.

    It is declared with support radius 40 and ``far_value=0``: 0 is the
    mean of the two plateaus over antipodal points x + z and x - z, and
    for slopes k >= 1/2 that mean vanishes to rounding once |z_0| is a
    few units.  The pointwise rules and the lattice far field
    (``far_field``) stop their rays at |x| + 40 and close the rest with
    this far value.  Where K(x, x + z) = K(x, x - z), as for constant
    fields, the closure is exact up to the rays nearly parallel to the
    plateaus (about 1e-11 of the maximum drift far field of a 2D box
    lattice, s = 1/2, 24 directions).  For separable fields the antipodal
    kernel values differ: on a 16-cell box lattice with a
    ``separable_sum`` field of amplitude 0.1 the closure moves the drift
    far field S by about 3e-6 of max|S|, while the default scheme leaves
    S about 8e-5 of max|S| from converged values.  That error comes from
    the panels: 16 radial nodes do not resolve the oscillation of the
    ridge b(y) = 0.1 sin(y_1 + y_2) along far rays (6e-5 at tolerance
    1e-10, 9e-6 at 32 nodes), and the tail tolerance 1e-6 stops the
    panels early (3e-5 at 128 nodes).  ``tests/test_far_field.py``
    measures these numbers.
    """

    def fn(pts: np.ndarray) -> np.ndarray:
        return amplitude * np.tanh(slope * pts[:, 0])

    return SmoothFunction(fn, dim, support_radius=40.0)


def interval_power(alpha: float, dim: int = 1) -> SmoothFunction:
    """(1 - |x|^2)_+^alpha; C^alpha across the unit sphere."""

    def fn(pts: np.ndarray) -> np.ndarray:
        r2 = np.einsum("mi,mi->m", pts, pts)
        return np.where(r2 < 1.0, np.maximum(0.0, 1.0 - r2) ** alpha, 0.0)

    if dim == 1:
        kinks: dict = {"kink_points": ((-1.0,), (1.0,))}
    else:
        kinks = {"kink_spheres": ((np.zeros(dim), 1.0),)}
    return SmoothFunction(fn, dim, support_radius=1.0, **kinks)


def scaled(f: SmoothFunction, factor: float) -> SmoothFunction:
    return SmoothFunction(lambda pts: factor * f(pts), f.dim,
                          support_radius=f.support_radius,
                          kink_points=f.kink_points, kink_spheres=f.kink_spheres,
                          far_value=factor * f.far_value)


def shifted(f: SmoothFunction, constant: float) -> SmoothFunction:
    """f + constant; keeps the support bookkeeping via far_value."""
    return SmoothFunction(lambda pts: f(pts) + constant, f.dim,
                          support_radius=f.support_radius,
                          kink_points=f.kink_points, kink_spheres=f.kink_spheres,
                          far_value=f.far_value + constant)


# --------------------------------------------------------------------------
# quadrature scheme


# Inner Gauss-Jacobi radius and least tolerance radius of a pointwise rule,
# growth of consecutive geometric panels, and the radius where the panels
# of ``far_field`` end whatever they add.
_INNER_RADIUS = 0.125
_OUTER_RADIUS = 32.0
_PANEL_RATIO = 2.0
_FAR_CAP = 1e12


@dataclass(frozen=True)
class QuadratureScheme:
    """Resolution parameters for the pointwise and lattice rules.

    ``tail_tolerance`` sets the kernel mass a pointwise rule may leave to
    its analytic tail bound, and it is the relative stop of every
    ``far_field`` panel integral: a node's panels end once one adds
    less than this fraction of the node's running total, or once they
    pass the radius ``_FAR_CAP``.
    """

    radial_order: int = 16
    angular_count: int = 24
    polar_order: int = 8
    tail_tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if self.angular_count % 2:
            raise DomainError("angular_count must be even")


@dataclass
class PointRule:
    """Quadrature rule for the region |y - x| <= quad_radius, plus tail.

    ``offsets``/``weights`` define a node rule containing the kernel
    factor: sums of w * (u(x + z) - u(x)) approximate the principal
    value integral over the covered region.  ``tail_mass`` is the kernel
    mass beyond ``quad_radius``.
    """

    x: np.ndarray
    offsets: np.ndarray
    weights: np.ndarray
    tail_mass: float
    quad_radius: float


@functools.cache
def _gauss_rule(n: int, beta: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule on (-1, 1) for the
    weight (1 + x)^beta, beta > -1.

    beta = 0 is Gauss-Legendre from numpy's ``leggauss``.  Otherwise the
    rule is Gauss-Jacobi with alpha = 0 by Golub-Welsch: the nodes are the
    eigenvalues of the symmetric tridiagonal Jacobi matrix of the monic
    recurrence, and the weights are the weight's total mass 2^(beta+1) /
    (beta + 1) times the squared first components of the eigenvectors.
    Every rule is built once per process and shared by all callers, so
    the arrays are read-only.
    """
    if beta == 0.0:
        x, w = np.polynomial.legendre.leggauss(n)
    else:
        k = np.arange(1, n, dtype=float)
        ab = 2.0 * k + beta
        diag = np.concatenate([[beta / (beta + 2.0)], beta * beta / (ab * (ab + 2.0))])
        off = 2.0 * k * (k + beta) / (ab * np.sqrt(ab * ab - 1.0))
        x, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        w = 2.0 ** (beta + 1.0) / (beta + 1.0) * vecs[0] ** 2
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _directions(dim: int, quad: QuadratureScheme) -> tuple[np.ndarray, np.ndarray]:
    """Full antipodally-symmetric direction set with surface weights."""
    if dim == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if dim == 2:
        m = quad.angular_count
        th = 2.0 * np.pi * (np.arange(m) + 0.5) / m
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
        return dirs, np.full(m, 2.0 * np.pi / m)
    if dim == 3:
        npol = quad.polar_order + (quad.polar_order % 2)  # even, avoids equator
        u, wu = _gauss_rule(npol)
        m = quad.angular_count
        ph = 2.0 * np.pi * (np.arange(m) + 0.5) / m
        st = np.sqrt(1.0 - u**2)
        dirs = np.empty((npol * m, 3))
        w = np.empty(npol * m)
        for i in range(npol):
            sl = slice(i * m, (i + 1) * m)
            dirs[sl, 0] = st[i] * np.cos(ph)
            dirs[sl, 1] = st[i] * np.sin(ph)
            dirs[sl, 2] = u[i]
            w[sl] = wu[i] * 2.0 * np.pi / m
        return dirs, w
    raise DomainError(f"pointwise rules support dim <= 3, got {dim}")


def _half_set(dirs: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # representative of each antipodal pair: first nonzero coordinate > 0
    positive = np.zeros(len(dirs), dtype=bool)
    for i in range(len(dirs)):
        for c in dirs[i]:
            if abs(c) > 1e-14:
                positive[i] = c > 0
                break
    return dirs[positive], w[positive]


def _panel_edges(r0: float, r1: float, ratio: float, breaks: Sequence[float]) -> list[float]:
    pts = sorted({r0, r1, *(b for b in breaks if r0 * (1 + 1e-12) < b < r1 * (1 - 1e-12))})
    edges: list[float] = []
    for a, b in zip(pts[:-1], pts[1:]):
        edges.append(a)
        c = a
        while c * ratio < b * (1.0 - 1e-12):
            c *= ratio
            edges.append(c)
    edges.append(r1)
    return edges


# Bytes of temporaries one kernel chunk may hold; ``_chunk_rows`` divides
# it by the peak cost of a kernel sample.  Under tracemalloc, with one
# chunk per call, a sample of ``far_field`` (live and per-node arrays
# included) peaks in dims 1-3 at 9.0, 8.6 and 8.6 doubles for the kernel
# mass of the separable fields of ``spec_from_config``, and for the tanh
# drift, which forms the points y, at 10.0, 10.7 and 13.6 for them and at
# 8.7, 9.6 and 12.5 for a constant field; a row of ``_kernel_at_offsets``
# at 9.0, 9.2 and 12.0, a sample of the lattice's self-cell moments at
# 3.2, 3.1 and 3.1, and an entry of a row chunk of the lattice's pair
# forms at 2.0 for a constant field and 3.0 for a separable one (the
# gather keys, the gathered forms and the node terms).  dim + 11 doubles
# bounds them all.  ``lattice.assemble`` adds its drift block in row
# chunks of the same budget.
_KERNEL_CHUNK_BYTES = 1 << 22


def _chunk_rows(spec: KernelSpec, samples_per_row: int) -> int:
    """Rows of ``samples_per_row`` kernel samples that fit in one chunk."""
    return max(1, _KERNEL_CHUNK_BYTES // (8 * (spec.dim + 11) * samples_per_row))


def _kernel_at_offsets(spec: KernelSpec, pts: np.ndarray, offsets: np.ndarray,
                       ends: np.ndarray) -> np.ndarray:
    """K(x_i, x_i + z) for the offsets z; rows ends[i-1]:ends[i] belong to
    x_i = pts[i].  b(x_i) and k . x_i are evaluated once per point, and
    per row the forms of z and b(x_i + z) = f(k . x_i + k . z).  Each row
    is computed alone, so the chunking does not change a value."""
    fld = spec.field
    constant = fld.variant == "constant"
    kx, bx = (None, None) if constant else fld.node_terms(pts)
    step = _chunk_rows(spec, 1)
    out = np.empty(len(offsets))
    for lo in range(0, len(offsets), step):
        hi = min(lo + step, len(offsets))
        own = np.searchsorted(ends, np.arange(lo, hi), side="right")
        z = offsets[lo:hi]
        if constant:
            xs = pts[own]
            q = fld.quadratic_form(xs + z, xs)
        else:
            p, q = fld.split(z, bx[own])
            q = p + q * fld.ridge(kx[own] + z @ fld.wave)
        out[lo:hi] = spec.prefactor * q ** (-spec.bounds.exponent)
    return out


def _ray_constants(spec: KernelSpec, pts: np.ndarray,
                   dirs: np.ndarray) -> tuple[np.ndarray, ...]:
    """(P, Q, k . x_i, k . theta_d) of a separable field: along the ray
    y = x_i + rho theta_d the form is rho^2 (P + Q f(k . x_i + rho k . theta_d)),
    with P and Q of shape (node, direction)."""
    fld = spec.field
    kx, bx = fld.node_terms(pts)
    p, q = fld.split(dirs, bx[:, None])
    return p, q, kx, dirs @ fld.wave


def _ray_kernel(spec: KernelSpec, rays: tuple[np.ndarray, ...], nodes,
                rho: np.ndarray) -> np.ndarray:
    """K(x_i, x_i + rho theta_d) for a separable field, for the nodes
    ``rays[k][nodes]`` of the ``_ray_constants``; ``rho`` has shape
    (node, radius, direction), or (radius, direction) for every node.
    One profile call, one multiply-add and one power per sample."""
    p, q, kx, kt = rays
    form = q[nodes, None] * spec.field.ridge(kx[nodes, None, None] + rho * kt) + p[nodes, None]
    return spec.prefactor * (rho * rho * form) ** (-spec.bounds.exponent)


def _ellipticity_tail(spec: KernelSpec, radius: float | np.ndarray) -> float | np.ndarray:
    """Bound on the kernel mass beyond ``radius`` from the lower ellipticity
    bound: sigma_N lower^(-(N+2s)/2) radius^(-2s) / (2s)."""
    sigma = 2.0 * np.pi ** (spec.dim / 2.0) / math.gamma(spec.dim / 2.0)
    return (spec.prefactor * sigma * spec.bounds.lower ** (-spec.bounds.exponent)
            * radius ** (-2.0 * spec.s) / (2.0 * spec.s))


def _support_exits(pts: np.ndarray, dirs: np.ndarray, radius: float) -> np.ndarray:
    """Distance along each ray from x_i to its exit from the ball of the
    given radius about the origin; -inf where the ray misses the ball."""
    b = pts @ dirs.T
    disc = b * b - np.einsum("ia,ia->i", pts, pts)[:, None] + radius * radius
    with np.errstate(invalid="ignore"):
        return np.where(disc > 0.0, np.sqrt(disc) - b, -np.inf)


def far_field(spec: KernelSpec, pts: np.ndarray, start: np.ndarray,
              quad: QuadratureScheme, g: SmoothFunction | None = None) -> np.ndarray:
    """Exterior integral per node along the rays of ``_directions``.

    ``start[i, k]`` is the radius where ray k of ``_directions(spec.dim,
    quad)`` begins for node x_i.  Returns, for each row x_i of ``pts``,

        Sum_theta w_theta Int_{start[i, theta]}^{end_i}
            rho^(N-1) (g(x_i + rho theta) - g_inf) K(x_i, x_i + rho theta) drho

    with g_inf = ``g.far_value``.  The integrand vanishes beyond
    end_i = |x_i| + ``g.support_radius``; without a support radius
    end_i is infinite.  ``g=None`` means g = 1, g_inf = 0: the kernel
    mass beyond ``start``, in closed form for constant fields and
    otherwise completed by the ellipticity bound beyond the last panel.
    Panels grow by ``_PANEL_RATIO`` and are split where a ray leaves
    the ball of radius ``g.support_radius``, the edge of g's support; a
    node stops once all its rays reach end_i, its radius passes
    ``_FAR_CAP``, or the magnitude of its latest panel is below
    ``quad.tail_tolerance`` of the running sum of those magnitudes.  The
    magnitude integrates |g - g_inf| K, so that a signed integrand can
    neither stall the test nor stop it where its rays cancel.
    For a constant field A the kernel along a ray is
    rho^(N-1) K = kdir(theta) rho^(-1-2s) with kdir(theta) = K(0, theta),
    so no quadratic form is evaluated; for a separable field P and Q
    come once per node and ray (``_ray_constants``), and a sample is one
    profile call.  Sample points y are formed only to evaluate g.
    Each panel step takes the live nodes in chunks of at most
    ``_KERNEL_CHUNK_BYTES`` of temporaries; every node is computed alone,
    so the chunking does not change a value.
    """
    dirs, aw = _directions(spec.dim, quad)
    s = spec.s
    constant = spec.field.variant == "constant"
    if constant:
        q_unit = np.einsum("da,ab,db->d", dirs, spec.field.matrix, dirs)
        kdir = spec.prefactor * q_unit ** (-spec.bounds.exponent)
        if g is None:
            return np.einsum("d,d,id->i", aw, kdir, start ** (-2.0 * s)) / (2.0 * s)
    else:
        rays = _ray_constants(spec, pts, dirs)
    end = np.full(len(pts), np.inf)
    split = np.full(np.shape(start), -np.inf)
    if g is not None and g.support_radius is not None:
        end = np.linalg.norm(pts, axis=1) + g.support_radius
        split = _support_exits(pts, dirs, g.support_radius)
    stop = np.maximum(start, end[:, None])
    gl_x, gl_w = _gauss_rule(quad.radial_order)
    total = np.zeros(len(pts))
    size = np.zeros(len(pts))  # running sum of panel magnitudes, the total's scale
    a = np.array(start, dtype=float)
    rows = _chunk_rows(spec, quad.radial_order * len(dirs))
    live = np.flatnonzero((a < stop).any(axis=1))
    while live.size:
        # the next chunk of live nodes takes one panel step, and those that
        # go on rejoin the end of the queue
        idx, live = live[:rows], live[rows:]
        lo = a[idx]
        edge = np.where(lo < split[idx], split[idx], stop[idx])
        hi = np.minimum(lo * _PANEL_RATIO, edge)
        mid = 0.5 * (lo + hi)[:, None, :]
        half = 0.5 * (hi - lo)[:, None, :]
        rho = mid + half * gl_x[None, :, None]  # (node, radius, direction)
        wr = half * gl_w[None, :, None]
        if constant:  # kv is rho^(N-1) K here
            wf, kv = wr, kdir * rho ** (-1.0 - 2.0 * s)
        else:
            wf, kv = wr * rho ** (spec.dim - 1), _ray_kernel(spec, rays, idx, rho)
        if g is not None:
            y = pts[idx, None, None, :] + rho[..., None] * dirs
            wf = wf * (g(y.reshape(-1, spec.dim)).reshape(rho.shape) - g.far_value)
        panel = np.einsum("ird,d,ird->i", wf, aw, kv)
        # a signed g can cancel between rays, and a panel sum near 0 then
        # says nothing about the panels still to come
        mag = np.abs(panel) if g is None else np.einsum("ird,d,ird->i", np.abs(wf), aw, kv)
        total[idx] += panel
        size[idx] += mag
        a[idx] = hi
        done = ((mag < quad.tail_tolerance * size[idx])
                | (hi.min(axis=1) > _FAR_CAP) | (hi >= stop[idx]).all(axis=1))
        live = np.concatenate([live, idx[~done]])
    if g is None:
        total += _ellipticity_tail(spec, a.min(axis=1))
    return total


def _tolerance_radius(spec: KernelSpec, quad: QuadratureScheme) -> float:
    """Radius R with (upper kernel bound tail mass) <= tail_tolerance."""
    r = (_ellipticity_tail(spec, 1.0) / quad.tail_tolerance) ** (1.0 / (2.0 * spec.s))
    return float(min(max(r, _OUTER_RADIUS), _FAR_CAP))


def _rule_radii(spec: KernelSpec, x: np.ndarray, quad: QuadratureScheme,
                fns: Sequence[SmoothFunction],
                need_tolerance_radius: bool) -> tuple[float, float, list[float]]:
    """Inner radius, quadrature radius and kink radii of the rule at x."""
    breaks: list[float] = []
    for f in fns:
        breaks.extend(f.radial_breakpoints(x))
    supports = [f.support_radius for f in fns]
    r_target = _INNER_RADIUS * 4.0
    if supports and all(r is not None for r in supports):
        r_target = max(r_target, max(float(np.linalg.norm(x)) + r for r in supports))
    if need_tolerance_radius or not supports or any(r is None for r in supports):
        r_target = max(r_target, _tolerance_radius(spec, quad))

    r_in = _INNER_RADIUS
    pos_breaks = [b for b in breaks if b > 0]
    if pos_breaks:
        r_in = min(r_in, 0.5 * min(pos_breaks))
    r_in = min(r_in, r_target / 8.0)
    return r_in, r_target, pos_breaks


def build_rule(spec: KernelSpec, x: np.ndarray, quad: QuadratureScheme,
               fns: Sequence[SmoothFunction] = (),
               need_tolerance_radius: bool = False) -> PointRule | list[PointRule]:
    """Assemble the pointwise rule at x for the given integrand functions.

    The quadrature radius covers the supports of all ``fns`` (relative
    to x); if any function has unbounded support, or
    ``need_tolerance_radius`` is set, the radius is grown until the
    kernel tail bound drops below the scheme's tail tolerance.

    A point of shape (dim,) gives its rule; an (m, dim) array gives the
    list of the m rules, each equal to the rule of its point alone.  The
    radii, kink radii and panel edges are set point by point, then the
    kernel values at every node of every point come in chunks of
    ``_KERNEL_CHUNK_BYTES`` (``_kernel_at_offsets``) and all tail masses
    from one ``far_field`` call.
    """
    arr = np.asarray(x, dtype=float)
    pts = arr if arr.ndim == 2 else arr.reshape(1, spec.dim)
    if pts.shape[1] != spec.dim:
        raise DomainError(f"points must have {spec.dim} coordinates, got shape {arr.shape}")
    dirs, aw = _directions(spec.dim, quad)
    hdirs, haw = _half_set(dirs, aw)
    s = spec.s
    dim = spec.dim
    # the inner ball pairs each node with its mirror image; a constant
    # field gives both the same kernel value
    mirrored = spec.field.variant != "constant"
    gj_x, gj_w = _gauss_rule(quad.radial_order, 1.0 - 2.0 * s)
    gl_x, gl_w = _gauss_rule(quad.radial_order)

    # per point, nodes +inner, -inner, annulus and their weights without
    # the kernel factor
    offsets: list[np.ndarray] = []
    factors: list[np.ndarray] = []
    radii = np.empty(len(pts))
    for i, xi in enumerate(pts):
        r_in, radii[i], breaks = _rule_radii(spec, xi, quad, fns, need_tolerance_radius)
        # inner ball: Gauss-Jacobi in the radius with weight rho^(1-2s)
        rho_in = 0.5 * r_in * (1.0 + gj_x)
        w_in = (0.5 * r_in) ** (2.0 - 2.0 * s) * gj_w
        offs_p = (rho_in[:, None, None] * hdirs[None, :, :]).reshape(-1, dim)
        radial_fac = (w_in * rho_in ** (2.0 * s - 1.0) * rho_in ** (dim - 1))[:, None]
        w_pairs = (radial_fac * haw[None, :]).reshape(-1)
        # annulus: geometric Gauss-Legendre panels honouring kink radii
        edges = _panel_edges(r_in, radii[i], _PANEL_RATIO, breaks)
        width = 0.5 * np.subtract(edges[1:], edges[:-1])[:, None]
        rho = (width * gl_x + 0.5 * np.add(edges[1:], edges[:-1])[:, None]).reshape(-1)
        wr = (width * gl_w).reshape(-1)
        offsets.append(np.concatenate([
            offs_p, -offs_p, (rho[:, None, None] * dirs[None, :, :]).reshape(-1, dim)]))
        factors.append(np.concatenate([
            w_pairs, w_pairs, ((wr * rho ** (dim - 1))[:, None] * aw[None, :]).reshape(-1)]))

    counts = np.array([len(o) for o in offsets], dtype=int)
    ends = np.cumsum(counts)
    starts = ends - counts
    offsets = np.concatenate(offsets or [np.empty((0, dim))])
    weights = _kernel_at_offsets(spec, pts, offsets, ends)
    # one kernel value per antipodal pair: the mean of the two, or for a
    # constant field the value at the +inner node
    n_pair = quad.radial_order * len(hdirs)
    plus = starts[:, None] + np.arange(n_pair)
    kbar = 0.5 * (weights[plus] + weights[plus + n_pair]) if mirrored else weights[plus]
    weights[plus] = weights[plus + n_pair] = kbar
    weights *= np.concatenate(factors or [np.empty(0)])
    tails = far_field(spec, pts, np.repeat(radii[:, None], len(dirs), axis=1), quad)
    rules = [PointRule(x=xi, offsets=offsets[lo:hi], weights=weights[lo:hi],
                       tail_mass=float(tail), quad_radius=float(r))
             for xi, lo, hi, tail, r in zip(pts, starts, ends, tails, radii)]
    return rules[0] if arr.ndim < 2 else rules


# --------------------------------------------------------------------------
# operator applications

_DEFAULT = QuadratureScheme()


def nonlocal_laplacian(u: SmoothFunction, spec: KernelSpec, x: np.ndarray,
                       quad: QuadratureScheme = _DEFAULT,
                       rule: PointRule | Sequence[PointRule] | None = None) -> float | np.ndarray:
    """L u(x) = p.v. Int (u(y) - u(x)) K(x, y) dy.

    The far field contributes -u(x) times the kernel tail mass, exact
    whenever u vanishes beyond the quadrature radius.  An (m, dim) array
    of points, or a list of their rules, gives the array of the m values.
    """
    if rule is None:
        rule = build_rule(spec, x, quad, fns=(u,))
    if isinstance(rule, PointRule):
        return _laplacian_at(u, rule)
    return np.array([_laplacian_at(u, r) for r in rule])


def _laplacian_at(u: SmoothFunction, rule: PointRule) -> float:
    ux = u(rule.x)
    vals = u(rule.x + rule.offsets)
    return float(np.dot(rule.weights, vals - ux) + (u.far_value - ux) * rule.tail_mass)


def carre_du_champ(u: SmoothFunction, v: SmoothFunction, spec: KernelSpec,
                   x: np.ndarray, quad: QuadratureScheme = _DEFAULT,
                   rule: PointRule | Sequence[PointRule] | None = None) -> float | np.ndarray:
    """B(u, v)(x) = 1/2 Int (u(y) - u(x)) (v(y) - v(x)) K(x, y) dy.

    The integrand is O(|y - x|^(2 - N - 2s)) near x, so no principal
    value is needed; the paired-node rule is reused unchanged.  Points
    and rules batch as in ``nonlocal_laplacian``.
    """
    if rule is None:
        both_supported = u.support_radius is not None and v.support_radius is not None
        rule = build_rule(spec, x, quad, fns=(u, v),
                          need_tolerance_radius=not both_supported)
    if isinstance(rule, PointRule):
        return _carre_du_champ_at(u, v, rule)
    return np.array([_carre_du_champ_at(u, v, r) for r in rule])


def _carre_du_champ_at(u: SmoothFunction, v: SmoothFunction, rule: PointRule) -> float:
    ux, vx = u(rule.x), v(rule.x)
    du = u(rule.x + rule.offsets) - ux
    dv = v(rule.x + rule.offsets) - vx
    val = 0.5 * float(np.dot(rule.weights, du * dv))
    if u.support_radius is not None and v.support_radius is not None:
        reach = float(np.linalg.norm(rule.x))
        if max(u.support_radius, v.support_radius) + reach <= rule.quad_radius + 1e-9:
            val += 0.5 * (u.far_value - ux) * (v.far_value - vx) * rule.tail_mass
    return val

