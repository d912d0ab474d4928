"""Pointwise evaluation of the nonlocal operators attached to a kernel.

For a kernel K this module evaluates, at a point x or at each row of an
(m, dim) array of points,

    L u(x)     = p.v. Int (u(y) - u(x)) K(x, y) dy,
    B(u, v)(x) = 1/2 Int (u(y) - u(x)) (v(y) - v(x)) K(x, y) dy,

and so the drifted combination L u + B(u, h), whose two terms can share
one rule set (``pointwise_forms``).  The principal value is
handled by an inner rule whose nodes come in antipodal pairs (y, 2x - y)
sharing one weight, so the odd part of the integrand cancels exactly and
the remaining even part is integrable.  The radial direction uses
Gauss-Jacobi nodes adapted to the r^(1-2s) behaviour near the centre,
the annulus uses geometric panels with Gauss-Legendre nodes (panel edges
are forced onto any known kink radii of the integrand), and the far
field beyond the quadrature radius is accounted for by a kernel tail
mass.  That mass, like every exterior integral of the package, comes
from ``far_field``: along each ray from a start radius outwards, on
geometric Gauss-Legendre panels until a closed form takes over.  The
kernel mass of a constant field is closed form on every ray; that of a
separable field whose profile declares its period is closed by the
Fourier series of the kernel along the ray once the ray is a few
periods out (``_ray_closures``).  A function g that equals a constant
beyond a declared plateau or radius closes there, because

    Int (g - g(x)) K = Int (g - g_inf) K + (g_inf - g(x)) Int K

for any constant g_inf.

The rules of m points come in blocks of consecutive points
(``_rule_blocks``) and equal, bit for bit, the rules of the points taken
one by one: the radii and panel edges are set point by point and the m
tail masses come from one far-field pass, then each block holds the
nodes and weights of its points, as many as one kernel chunk of at most
``_KERNEL_CHUNK_BYTES`` of temporaries takes.  The one evaluator,
``pointwise_forms``, reads the blocks as they come, so the nodes it holds
at once do not grow with m, and values all its forms on a block before
the next.  Every kernel value of the module and of the lattice's self-cell
moments is a sample on a ray y = x + rho theta, from constants fixed per
node and direction (``_ray_constants``): kdir(theta) rho^(-N-2s) for a
constant field, and for a separable field P and Q
(``AnisotropyField.split``) with b(x) evaluated once per node, a sample
being one profile call at k . y.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DomainError
from .kernels import KernelSpec

__all__ = [
    "SmoothFunction",
    "QuadratureScheme",
    "far_field",
    "pointwise_forms",
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
    ``plateau`` = (e, c, g_plus, g_minus) declares that the function
    equals g_plus where y . e >= c and g_minus where y . e <= -c;
    ``far_field`` closes its rays where they enter one.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    dim: int
    support_radius: float | None = None
    kink_points: tuple = ()
    kink_spheres: tuple = ()  # entries (center, radius)
    far_value: float = 0.0  # constant value beyond support_radius
    plateau: tuple | None = None

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

    The plateaus are declared from |x_0| = 20/|k| on, where tanh rounds
    to +-1, and ``far_field`` closes each ray where it enters one with the
    kernel mass beyond: exactly for constant fields, within the tail
    tolerance for separable ones.  On a 16-cell box lattice with a
    ``separable_sum`` field of amplitude 0.1 the default scheme leaves
    the drift far field S 1.2e-10 of max|S| from converged values.
    Stopping the rays at |x| + 40 instead, and taking the rest to cancel
    between antipodal rays as the support radius below says, leaves
    3.3e-6, since the kernel values at x + z and x - z differ.
    ``tests/test_far_field.py`` measures these numbers.

    The function is also declared with support radius 40 and
    ``far_value=0``: 0 is the mean of the two plateaus over antipodal
    points x + z and x - z, which vanishes to rounding once |z_0| is a
    few units.  The pointwise rules cover |x| + 40 with their panels and
    close the rest with this far value.
    """

    def fn(pts: np.ndarray) -> np.ndarray:
        return amplitude * np.tanh(slope * pts[:, 0])

    axis = np.eye(dim)[0]
    side = math.copysign(amplitude, slope)
    return SmoothFunction(fn, dim, support_radius=40.0,
                          plateau=(axis, 20.0 / abs(slope), side, -side))


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


def _mapped_plateau(f: SmoothFunction, value: Callable[[float], float]) -> tuple | None:
    if f.plateau is None:
        return None
    e, c, upper, lower = f.plateau
    return e, c, value(upper), value(lower)


def scaled(f: SmoothFunction, factor: float) -> SmoothFunction:
    return SmoothFunction(lambda pts: factor * f(pts), f.dim,
                          support_radius=f.support_radius,
                          kink_points=f.kink_points, kink_spheres=f.kink_spheres,
                          far_value=factor * f.far_value,
                          plateau=_mapped_plateau(f, lambda v: factor * v))


def shifted(f: SmoothFunction, constant: float) -> SmoothFunction:
    """f + constant; keeps the support bookkeeping via far_value."""
    return SmoothFunction(lambda pts: f(pts) + constant, f.dim,
                          support_radius=f.support_radius,
                          kink_points=f.kink_points, kink_spheres=f.kink_spheres,
                          far_value=f.far_value + constant,
                          plateau=_mapped_plateau(f, lambda v: v + constant))


# --------------------------------------------------------------------------
# quadrature scheme


# Inner Gauss-Jacobi radius and least tolerance radius of a pointwise rule,
# growth of consecutive geometric panels, and the radius where the panels
# of ``far_field`` end whatever they add.
_INNER_RADIUS = 0.125
_OUTER_RADIUS = 32.0
_PANEL_RATIO = 2.0
_FAR_CAP = 1e12
# Growth of the panels of a ray's kernel mass in ``far_field``: on [r, 4r]
# the pole of rho^(-1-2s) at 0 lies 5/3 half-widths from the centre, where
# 16 Gauss-Legendre nodes are exact to rounding; the profile of a separable
# field is resolved by the one-period bound on a panel instead.
_MASS_PANEL_RATIO = 4.0
# The closure of a ray of a separable field (``_ray_closures``): the first
# trapezoid rule over one period and its largest size, the size of the
# Fourier coefficients past a quarter of the rule, relative to their mean,
# below which the rule has resolved the profile, and the most terms of the
# integration-by-parts series.
_PERIOD_SAMPLES = 64
_PERIOD_SAMPLES_MAX = 4096
_RESOLVED = 1e-13
_SERIES_TERMS = 32


@dataclass(frozen=True)
class QuadratureScheme:
    """Resolution parameters for the pointwise and lattice rules.

    ``tail_tolerance`` sets the kernel mass a pointwise rule may leave to
    its analytic tail bound, and it bounds what a ``far_field`` ray
    leaves out: a ray of a separable field closes where the remainder
    bound of its closure series falls below this fraction of the
    closure's leading term, and a ray that no closure ends stops once a
    panel adds less than this fraction of the ray's running magnitude,
    or once it passes the radius ``_FAR_CAP``.
    """

    radial_order: int = 16
    angular_count: int = 24
    polar_order: int = 8
    tail_tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if self.angular_count % 2:
            raise DomainError("angular_count must be even")


@dataclass
class _PointRule:
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


def _half_set(dirs: np.ndarray) -> np.ndarray:
    # representative of each antipodal pair: first nonzero coordinate > 0
    lead = np.argmax(np.abs(dirs) > 1e-14, axis=1)
    return np.flatnonzero(dirs[np.arange(len(dirs)), lead] > 0.0)


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
# 8.7, 9.6 and 12.5 for a constant field; a node of a pointwise rule
# block, its offset and weight included, at 9.1, 8.6 and 7.9 with one
# point to a block (2.2, 3.6 and 7.9 in the default budget's blocks), a
# sample of the lattice's self-cell moments at 3.2, 3.1 and 3.1, and an
# entry of a row chunk of the lattice's pair forms at 2.0 for a constant
# field and 3.0 for a separable one (the gather keys, the gathered forms
# and the node terms).  dim + 11 doubles
# bounds them all.  ``lattice.assemble`` adds its drift block in row
# chunks of the same budget.
_KERNEL_CHUNK_BYTES = 1 << 22


def _chunk_rows(spec: KernelSpec, samples_per_row: int) -> int:
    """Rows of ``samples_per_row`` kernel samples that fit in one chunk."""
    return max(1, _KERNEL_CHUNK_BYTES // (8 * (spec.dim + 11) * samples_per_row))


def _ray_constants(spec: KernelSpec, pts: np.ndarray,
                   dirs: np.ndarray) -> tuple[np.ndarray, ...]:
    """The constants of the kernel along the rays y = x_i + rho theta_d.

    For a constant field (kdir,): K = kdir_d rho^(-N-2s) with kdir =
    prefactor (theta^T A theta)^(-(N+2s)/2), which does not depend on x_i.
    For a separable field (P, Q, k . x_i, k . theta_d): the form is
    rho^2 (P + Q f(k . x_i + rho k . theta_d)), with P and Q of shape
    (node, direction), and b(x_i) is evaluated once per node."""
    fld = spec.field
    if fld.variant == "constant":
        q_unit = np.einsum("da,ab,db->d", dirs, fld.matrix, dirs)
        return (spec.prefactor * q_unit ** (-spec.exponent),)
    kx, bx = fld.node_terms(pts)
    p, q = fld.split(dirs, bx[:, None])
    return p, q, kx, dirs @ fld.wave


def _ray_profile(spec: KernelSpec, p: np.ndarray, q: np.ndarray,
                 phase: np.ndarray) -> np.ndarray:
    """(P + Q f(phase))^(-(N+2s)/2) for broadcasting P, Q and phases: along a
    ray of a separable field the kernel is prefactor rho^(-N-2s) times this
    (``_ray_constants``).  One profile call and one power per sample."""
    form = q * spec.field.ridge(phase)
    form += p
    return np.power(form, -spec.exponent, out=form)


def _ray_kernel(spec: KernelSpec, rays: tuple[np.ndarray, ...], i: int,
                d: np.ndarray | slice, rho: np.ndarray) -> np.ndarray:
    """|rho|^(N+2s) K(x_i, x_i + rho theta_d) from the ``_ray_constants`` of
    x_i, on the grid of the radii rho by the directions d.  A radius may be
    negative: P and Q are even in theta, so the node x_i - rho theta_d
    takes the constants of theta_d at the phase k . x_i - rho k . theta_d."""
    if spec.field.variant == "constant":
        kdir = rays[0][d]
        return np.broadcast_to(kdir, (len(rho),) + kdir.shape)
    p, q, kx, kt = rays
    return spec.prefactor * _ray_profile(spec, p[i, d], q[i, d],
                                         kx[i] + np.multiply.outer(rho, kt[d]))


def _ellipticity_tail(spec: KernelSpec, radius: float | np.ndarray) -> float | np.ndarray:
    """Bound on the kernel mass per unit solid angle beyond ``radius`` from
    the lower ellipticity bound: lower^(-(N+2s)/2) radius^(-2s) / (2s)."""
    return (spec.prefactor * spec.lower ** (-spec.exponent)
            * radius ** (-2.0 * spec.s) / (2.0 * spec.s))


def _ray_reach(g: SmoothFunction, x: np.ndarray,
               theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the rays y = x_r + rho theta_r of ``far_field``: the radius where
    g is last evaluated, and the constant gamma that g - g_inf equals
    beyond it.

    If g declares a plateau, a ray that enters it before ``_FAR_CAP``
    reaches the point where it enters, and gamma is the plateau value less
    g_inf; a ray that does not, such as one parallel to the plateaus, has
    no reach.  The support radius is then not read.  Without a plateau a
    ray reaches |x| + ``g.support_radius``, or nothing without a support
    radius, with gamma = 0.
    """
    m = len(x)
    if g.plateau is None:
        reach = (np.full(m, np.inf) if g.support_radius is None
                 else np.sqrt(np.einsum("ra,ra->r", x, x)) + g.support_radius)
        return reach, np.zeros(m)
    e, c, upper, lower = g.plateau
    u, v = np.einsum("ra,a->r", x, e), np.einsum("ra,a->r", theta, e)
    # the plateau on the side the ray heads to; a ray along the plateaus is
    # on one only if it starts there
    side = np.where(v != 0.0, np.sign(v), np.sign(u))
    with np.errstate(divide="ignore"):
        enter = np.where(v != 0.0, (c - side * u) / np.abs(v),
                         np.where(np.abs(u) >= c, 0.0, np.inf))
    on = enter <= _FAR_CAP
    gamma = np.where(on, np.where(side > 0.0, upper, lower) - g.far_value, 0.0)
    return np.where(on, enter, np.inf), gamma


def _support_exit(radius: float, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Distance along each ray y = x_r + rho theta_r to its exit from the
    ball of the given radius about the origin; -inf where it misses it."""
    b = np.einsum("ra,ra->r", x, theta)
    disc = b * b - np.einsum("ra,ra->r", x, x) + radius * radius
    return np.where(disc > 0.0, np.sqrt(np.maximum(disc, 0.0)) - b, -np.inf)


@functools.cache
def _series_factors(s: float) -> tuple[np.ndarray, np.ndarray]:
    """The term counts K = 2 ... ``_SERIES_TERMS`` of the closure series and
    log (a)_K / (a + K - 1), a = 1 + 2s, the factor of their remainder bound
    (``_ray_closures``)."""
    a = 1.0 + 2.0 * s
    terms = np.arange(2, _SERIES_TERMS + 1)
    log_fac = np.array([math.lgamma(a + k) - math.lgamma(a) - math.log(a + k - 1.0)
                        for k in terms])
    terms.setflags(write=False)
    log_fac.setflags(write=False)
    return terms, log_fac


def _ray_closures(spec: KernelSpec, p: np.ndarray, q: np.ndarray, kx: np.ndarray,
                  kt: np.ndarray, radius: np.ndarray,
                  tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Where the rays of a separable field with a declared period close, and
    their kernel mass C(R) = Int_R^inf rho^(N-1) K drho beyond that radius.

    Rays are given by their ``_ray_constants`` P, Q, k . x and k . theta and
    close at ``radius`` or later.  Along a ray rho^(N-1) K = prefactor
    rho^(-a) Phi(k . x + rho k . theta) with a = 1 + 2s and Phi = (P + Q
    f)^(-(N+2s)/2) periodic.  Its Fourier coefficients c_n come from the
    trapezoid rule over one period, doubled in size until the coefficients
    past a quarter of the rule are below ``_RESOLVED`` of c_0.  With w =
    2 pi k . theta / period, K-fold integration by parts of each mode gives

        C(R) = prefactor [c_0 R^(-2s)/(2s)
               - Sum_{j<K} (a)_j R^(-a-j) w^(-j-1) Psi_{j+1}(phase at R)]

    with Psi_m(t) = Sum_{n != 0} c_n e^{int} / (in)^m, plus a remainder of at
    most (a)_K |w|^(-K) M_K R^(1-a-K) / (a+K-1), M_K = Sum_{n != 0} |c_n|
    |n|^(-K).  A ray closes at the least R where, for some K up to
    ``_SERIES_TERMS``, that bound is ``tol`` of the bound R^(-a) M_1 / |w|
    on the series' first term, and uses that K.  Where that R passes
    ``_FAR_CAP`` (k . theta = 0 or nearly), or where Phi is constant, the
    ray closes at ``radius`` with Phi frozen at its phase there, which is
    exact for k . theta = 0 and for a constant Phi.  Each ray is computed
    alone.
    """
    fld = spec.field
    s = spec.s
    a = 1.0 + 2.0 * s
    terms, log_fac = _series_factors(s)
    nu = 2.0 * np.pi / fld.period
    omega = nu * kt
    stop = np.empty(len(radius))
    mass = np.empty(len(radius))
    todo = np.arange(len(radius))
    size = _PERIOD_SAMPLES
    while todo.size:
        ridge = fld.ridge(fld.period * np.arange(size) / size)
        n = np.arange(1, size // 4 + 1)
        # Psi_m = 2 Sum_n n^(-m) Re((-i)^m A_n) with A_n = c_n e^{int}: the
        # real parts of A and then the imaginary ones against these weights
        m = np.arange(1, _SERIES_TERMS + 1)
        power = 2.0 * n[:, None] ** -m.astype(float)
        turn = np.array([1.0, 0.0, -1.0, 0.0])  # Re (-i)^m by m mod 4
        modes = np.concatenate([power * turn[m % 4], power * turn[(m - 1) % 4]])
        rows = _chunk_rows(spec, size + _SERIES_TERMS)
        unresolved = []
        for lo in range(0, todo.size, rows):
            r = todo[lo:lo + rows]
            phi = np.multiply.outer(q[r], ridge)
            phi += p[r, None]
            c = np.fft.rfft(np.power(phi, -spec.exponent, out=phi), axis=1) / size
            c0, cn = c[:, 0].real, c[:, 1:len(n) + 1]
            if size < _PERIOD_SAMPLES_MAX:
                fine = np.abs(c[:, len(n) + 1:]).max(axis=1) <= _RESOLVED * c0
                unresolved.append(r[~fine])
                r, c0, cn = r[fine], c0[fine], cn[fine]
            # M_1 = 2 Sum |c_n| / n, and M_K <= 2 |c_1| + 2^(1-K) Sum_{n>=2} |c_n|
            mod = np.abs(cn)
            m_1 = 2.0 * np.einsum("rn,n->r", mod, 1.0 / n)
            m_k = 2.0 * (mod[:, :1] + mod[:, 1:].sum(axis=1)[:, None] * 0.5 ** terms)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                log_r = ((log_fac + np.log(m_k / (tol * m_1)[:, None])) / (terms - 1)
                         - np.log(np.abs(omega[r]))[:, None])
                best = np.argmin(log_r, axis=1)
                # a ray with a constant profile takes the frozen closure, exact there
                rc = np.where(m_1 > 0.0, np.exp(log_r[np.arange(len(r)), best]), np.inf)
                frozen = ~(rc <= _FAR_CAP)
                big_r = np.where(frozen, radius[r], np.maximum(radius[r], rc))
                # e^{int} for n = 1, 2, ... as powers of e^{it}
                wave = np.exp(1j * nu * (kx[r] + kt[r] * big_r))
                amp = cn * np.cumprod(np.repeat(wave[:, None], len(n), axis=1), axis=1)
                psi = np.einsum("rn,nm->rm", np.concatenate([amp.real, amp.imag], axis=1),
                                modes)
                # Sum_{j<K} (a)_j R^(-a-j) w^(-j-1) Psi_{j+1}
                coef = np.cumprod(np.concatenate(
                    [(big_r ** -a / omega[r])[:, None],
                     (a + np.arange(_SERIES_TERMS - 1)) / (omega[r] * big_r)[:, None]],
                    axis=1), axis=1)
                used = np.arange(_SERIES_TERMS) < terms[best][:, None]
                series = np.where(used, coef * psi, 0.0).sum(axis=1)
            closed = c0 * big_r ** (-2.0 * s) / (2.0 * s) - series
            f = np.flatnonzero(frozen)
            if f.size:
                rf = r[f]
                closed[f] = (_ray_profile(spec, p[rf], q[rf], kx[rf] + kt[rf] * big_r[f])
                             * big_r[f] ** (-2.0 * s) / (2.0 * s))
            stop[r] = big_r
            mass[r] = closed
        todo = np.concatenate(unresolved) if unresolved else todo[:0]
        size *= 2
    return stop, spec.prefactor * mass


def far_field(spec: KernelSpec, pts: np.ndarray, start: np.ndarray,
              quad: QuadratureScheme,
              g: SmoothFunction | None = None) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Exterior integrals per node along the rays of ``_directions``.

    ``start[i, k]`` is the radius where ray k of ``_directions(spec.dim,
    quad)`` begins for node x_i.  Returns, for each row x_i of ``pts``,
    the kernel mass T_i beyond ``start``; with ``g`` the pair (T, G) with

        G_i = Sum_theta w_theta Int_{start[i, theta]}^inf
                  rho^(N-1) (g(x_i + rho theta) - g_inf) K(x_i, x_i + rho theta) drho

    and g_inf = ``g.far_value``; T does not depend on ``g``.  Each (node,
    direction) pair is a ray that advances on its own, and its kernel
    mass T_r is

    - closed form for a constant field A: along a ray rho^(N-1) K =
      kdir(theta) rho^(-1-2s) with kdir(theta) = K(0, theta);
    - for a separable field with a declared period, panels out to the
      radius of ``_ray_closures`` plus its closure there;
    - otherwise panels until one adds less than ``quad.tail_tolerance``
      of the ray's running sum, completed by the ellipticity bound.

    For G a ray evaluates g on panels out to its reach (``_ray_reach``)
    and closes with gamma times its kernel mass beyond: exactly past a
    plateau that g declares, whatever the field, and with 0 past |x_i| +
    ``g.support_radius``, where the rest is taken to cancel with the
    antipodal ray (``tanh_drift``).  A ray with no reach stops once g -
    g_inf varies over a panel by less than the tail tolerance of the
    running sum of |g - g_inf| K, or once it passes ``_FAR_CAP``, and
    closes with g - g_inf frozen at its last sample.  The sum integrates
    |g - g_inf| because a signed g can cancel within a panel, and a panel
    sum near 0 then says nothing about the panels still to come.

    Panels are Gauss-Legendre and grow by ``_PANEL_RATIO``, or by
    ``_MASS_PANEL_RATIO`` for the kernel mass.  Without a plateau they
    are split where a ray leaves the ball of radius ``g.support_radius``,
    and on a ray of a separable field that has an end each spans at most
    one period of the profile along the ray.  P and Q of a separable
    field come once per ray (``_ray_constants``), and a sample is one
    profile call; sample points y are formed only to evaluate g.  The
    live rays take panel steps in chunks of at most
    ``_KERNEL_CHUNK_BYTES`` of temporaries; every ray is computed alone
    and a node sums its rays in direction order, so the chunking does not
    change a value.
    """
    rays = _ray_constants(spec, pts, _directions(spec.dim, quad)[0])
    return _ray_integrals(spec, pts, rays, start, quad, g)


def _ray_integrals(spec: KernelSpec, pts: np.ndarray, rays: tuple[np.ndarray, ...],
                   start: np.ndarray, quad: QuadratureScheme,
                   g: SmoothFunction | None) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """``far_field`` from the ``_ray_constants`` of ``pts`` along
    ``_directions``, which the caller has formed."""
    dirs, aw = _directions(spec.dim, quad)
    s = spec.s
    fld = spec.field
    constant = fld.variant == "constant"
    n_dirs = len(dirs)
    rows = _chunk_rows(spec, quad.radial_order)
    gl_x, gl_w = _gauss_rule(quad.radial_order)
    if constant:
        (kdir,) = rays
        mass = np.einsum("d,d,id->i", aw, kdir, start ** (-2.0 * s)) / (2.0 * s)
        if g is None:
            return mass
    else:
        p, q, kx, kt = rays
        with np.errstate(divide="ignore"):
            period = (np.full(n_dirs, np.inf) if fld.period is None
                      else fld.period / np.abs(kt))

    def march(a: np.ndarray, stop: np.ndarray, total: np.ndarray,
              g: SmoothFunction | None) -> None:
        # every live ray takes one panel step, a chunk at a time, and adds
        # its panel of (g - g_inf) K (of K for g=None) to total.  Samples
        # are laid out (radial node, ray), so that every broadcast runs
        # along the rays, and the steps work in place: numpy's check for an
        # elidable temporary costs more than an operation on these arrays.
        ratio = _MASS_PANEL_RATIO if g is None else _PANEL_RATIO
        size = np.zeros_like(a) if np.isinf(stop).any() else None
        live = np.flatnonzero(a < stop).astype(np.int32)
        while live.size:
            going = []
            for lo in range(0, live.size, rows):
                idx = live[lo:lo + rows]
                i, d = np.divmod(idx, n_dirs)
                lo_r, end = a[idx], stop[idx]
                closes = end < np.inf
                hi = np.minimum(lo_r * ratio, end)
                if g is not None and g.plateau is None and g.support_radius is not None:
                    split = _support_exit(g.support_radius, pts[i], dirs[d])
                    hi = np.where(lo_r < split, np.minimum(hi, split), hi)
                if not constant:
                    hi = np.where(closes, np.minimum(hi, lo_r + period[d]), hi)
                half = 0.5 * (hi - lo_r)
                rho = np.multiply.outer(gl_x, half)
                rho += 0.5 * (lo_r + hi)
                wk = rho ** (-1.0 - 2.0 * s)  # rho^(N-1) K, then times the weights
                if constant:
                    wk *= kdir[d] * half
                else:
                    phase = rho * kt[d]
                    phase += kx[i]
                    wk *= _ray_profile(spec, p[i, d], q[i, d], phase)
                    wk *= spec.prefactor * half
                wk *= gl_w[:, None]
                if g is None:
                    panel = wk.sum(axis=0)
                else:
                    y = np.empty((spec.dim,) + rho.shape)
                    for c in range(spec.dim):
                        np.multiply(rho, dirs[d, c], out=y[c])
                        y[c] += pts[i, c]
                    w = g(y.reshape(spec.dim, -1).T).reshape(rho.shape)
                    w -= g.far_value
                    panel = np.einsum("kr,kr->r", wk, w)
                    rest[idx] -= wk.sum(axis=0)
                total[idx] += panel
                a[idx] = hi
                done = (hi >= end) | (hi > _FAR_CAP)
                # a ray with an end runs to it; one without stops once a
                # panel's |g - g_inf - beta| K adds less than the tail
                # tolerance of the running sum of its |g - g_inf| K, with
                # beta = g - g_inf at the panel's end (0 for the kernel mass)
                test = np.flatnonzero(~done & ~closes)
                if test.size:
                    if g is None:
                        size[idx[test]] += panel[test]
                        done[test] = panel[test] < quad.tail_tolerance * size[idx[test]]
                    else:
                        wt, wkt = w[:, test], wk[:, test]
                        size[idx[test]] += np.einsum("kr,kr->r", wkt, np.abs(wt))
                        dev = np.einsum("kr,kr->r", wkt, np.abs(wt - wt[-1]))
                        done[test] = dev < quad.tail_tolerance * size[idx[test]]
                out = np.flatnonzero(done)
                if g is None:  # an open ray's kernel mass past its last panel
                    out = out[~closes[out]]
                    total[idx[out]] += _ellipticity_tail(spec, hi[out])
                elif out.size:
                    _, beta = _ray_reach(g, pts[i[out]], dirs[d[out]])
                    beta = np.where(closes[out], beta, w[-1, out])
                    total[idx[out]] += beta * rest[idx[out]]
                going.append(idx[~done])
            live = np.concatenate(going)

    # ray r runs from node r // n_dirs along direction r % n_dirs
    a = np.array(start, dtype=float).reshape(-1)
    stop = np.empty_like(a)  # where its panels end
    if constant:
        ray_mass = (kdir * start ** (-2.0 * s)).reshape(-1) / (2.0 * s)
    else:
        ray_mass = np.zeros_like(a)
        for lo in range(0, a.size, rows):
            r = np.arange(lo, min(lo + rows, a.size))
            i, d = np.divmod(r, n_dirs)
            if fld.period is None:
                stop[r] = np.inf
            else:
                stop[r], ray_mass[r] = _ray_closures(spec, p[i, d], q[i, d], kx[i], kt[d],
                                                     a[r], quad.tail_tolerance)
        march(a, stop, ray_mass, None)
        mass = np.einsum("id,d->i", ray_mass.reshape(np.shape(start)), aw)
        if g is None:
            return mass
        a[:] = np.reshape(start, -1)
    # the kernel mass of each ray beyond its last panel, with which it
    # closes: past its reach g - g_inf is gamma (``_ray_reach``), and on a
    # ray with no end it is frozen at its last sample
    rest = ray_mass
    total = np.empty_like(a)
    for lo in range(0, a.size, rows):
        r = np.arange(lo, min(lo + rows, a.size))
        i, d = np.divmod(r, n_dirs)
        reach, gamma = _ray_reach(g, pts[i], dirs[d])
        stop[r] = np.maximum(reach, a[r])
        # a ray that starts on its plateau is closed already
        total[r] = np.where(a[r] < stop[r], 0.0, gamma * rest[r])
    march(a, stop, total, g)
    return mass, np.einsum("id,d->i", total.reshape(np.shape(start)), aw)


def _tolerance_radius(spec: KernelSpec, quad: QuadratureScheme) -> float:
    """Radius R with (upper kernel bound tail mass) <= tail_tolerance."""
    sigma = 2.0 * np.pi ** (spec.dim / 2.0) / math.gamma(spec.dim / 2.0)
    r = (sigma * _ellipticity_tail(spec, 1.0) / quad.tail_tolerance) ** (1.0 / (2.0 * spec.s))
    return float(min(max(r, _OUTER_RADIUS), _FAR_CAP))


def _rule_radii(spec: KernelSpec, x: np.ndarray, quad: QuadratureScheme,
                fns: Sequence[SmoothFunction]) -> tuple[float, float, list[float]]:
    """Inner radius, quadrature radius and kink radii of the rule at x.

    A point whose distance from the origin, or whose quadrature radius, is
    not finite (|x| overflows, say) gets no rule: DomainError.
    """
    with np.errstate(over="ignore"):
        reach = float(np.linalg.norm(x))
    if not math.isfinite(reach):
        raise DomainError(f"the rule point {x.tolist()} has no finite distance "
                          f"from the origin ({reach})")
    breaks: list[float] = []
    for f in fns:
        breaks.extend(f.radial_breakpoints(x))
    supports = [f.support_radius for f in fns]
    r_target = _INNER_RADIUS * 4.0
    if supports and all(r is not None for r in supports):
        r_target = max(r_target, max(reach + r for r in supports))
    else:
        r_target = max(r_target, _tolerance_radius(spec, quad))
    if not math.isfinite(r_target):
        raise DomainError(f"the rule point {x.tolist()} has the quadrature "
                          f"radius {r_target}")

    r_in = _INNER_RADIUS
    pos_breaks = [b for b in breaks if b > 0]
    if pos_breaks:
        r_in = min(r_in, 0.5 * min(pos_breaks))
    r_in = min(r_in, r_target / 8.0)
    return r_in, r_target, pos_breaks


def _points(spec: KernelSpec, x: np.ndarray) -> tuple[np.ndarray, bool]:
    """x as an (m, dim) array of points, and whether it was one point of
    shape (dim,).  Any other shape raises DomainError."""
    arr = np.asarray(x, dtype=float)
    if arr.shape == (spec.dim,):
        return arr.reshape(1, spec.dim), True
    if arr.ndim != 2 or arr.shape[1] != spec.dim:
        raise DomainError(f"points must have shape ({spec.dim},) or (m, {spec.dim}), "
                          f"got {arr.shape}")
    return arr, False


def _spans(counts: Sequence[int], budget: int) -> Iterator[tuple[int, int]]:
    """Consecutive ranges lo:hi of items whose counts sum to at most
    ``budget``; an item larger than the budget is a range of its own."""
    lo, total = 0, 0
    for i, c in enumerate(counts):
        if i > lo and total + c > budget:
            yield lo, i
            lo, total = i, 0
        total += c
    if lo < len(counts):
        yield lo, len(counts)


def _rule_blocks(spec: KernelSpec, pts: np.ndarray, quad: QuadratureScheme,
                 fns: Sequence[SmoothFunction]) -> Iterator[list[_PointRule]]:
    """The rules of the points of ``pts``, a block of consecutive points at
    a time.

    The radii and panel edges are set point by point, the ray constants
    (``_ray_constants``) are formed once, and all tail masses come from
    them in one far-field pass (``_ray_integrals``); then each block of points whose nodes
    fit in one kernel chunk (``_chunk_rows``; a point with more nodes is a
    block of its own) gets its nodes and weights in arrays of that block,
    which its rules slice.  A node x_i + rho theta_d takes its kernel value
    from the constants of its ray, as ``far_field`` does, and both nodes of
    an inner pair take the mean of their two values.  Every value is
    computed per point, so the blocks do not change one.
    """
    dirs, aw = _directions(spec.dim, quad)
    half = _half_set(dirs)
    s = spec.s
    dim = spec.dim
    gj_x, gj_w = _gauss_rule(quad.radial_order, 1.0 - 2.0 * s)
    gl_x, gl_w = _gauss_rule(quad.radial_order)
    n_pair = quad.radial_order * len(half)

    inner = np.empty(len(pts))
    radii = np.empty(len(pts))
    edges = []
    for i, xi in enumerate(pts):
        inner[i], radii[i], breaks = _rule_radii(spec, xi, quad, fns)
        edges.append(_panel_edges(inner[i], radii[i], _PANEL_RATIO, breaks))
    rays = _ray_constants(spec, pts, dirs)
    tails = _ray_integrals(spec, pts, rays, np.repeat(radii[:, None], len(dirs), axis=1),
                           quad, None)
    # per point, nodes +inner, -inner, then the annulus
    counts = [2 * n_pair + (len(e) - 1) * quad.radial_order * len(dirs) for e in edges]

    for first, last in _spans(counts, _chunk_rows(spec, 1)):
        ends = np.cumsum(counts[first:last])
        starts = ends - counts[first:last]
        offsets = np.empty((ends[-1], dim))
        weights = np.empty(ends[-1])
        for i, a in zip(range(first, last), starts):
            # inner ball: Gauss-Jacobi in the radius with weight rho^(1-2s),
            # which leaves rho^(-2) of rho^(N-1) K; the nodes of a pair are
            # +-rho theta
            rho_in = 0.5 * inner[i] * (1.0 + gj_x)
            w_in = (0.5 * inner[i]) ** (2.0 - 2.0 * s) * gj_w * rho_in ** -2.0
            signed = np.concatenate([rho_in, -rho_in])
            b = a + 2 * n_pair
            offsets[a:b] = (signed[:, None, None] * dirs[half]).reshape(-1, dim)
            k_in = _ray_kernel(spec, rays, i, half, signed)
            k_in = 0.5 * (k_in[:len(rho_in)] + k_in[len(rho_in):])
            weights[a:a + n_pair] = weights[a + n_pair:b] = (
                np.outer(w_in, aw[half]) * k_in).reshape(-1)
            # annulus: geometric Gauss-Legendre panels honouring kink radii,
            # which weigh rho^(N-1) K = rho^(-1-2s) (rho^(N+2s) K)
            width = 0.5 * np.subtract(edges[i][1:], edges[i][:-1])[:, None]
            rho = (width * gl_x + 0.5 * np.add(edges[i][1:], edges[i][:-1])[:, None]).reshape(-1)
            wr = (width * gl_w).reshape(-1) * rho ** (-1.0 - 2.0 * s)
            c = b + len(rho) * len(dirs)
            offsets[b:c] = (rho[:, None, None] * dirs).reshape(-1, dim)
            weights[b:c] = (np.outer(wr, aw)
                            * _ray_kernel(spec, rays, i, slice(None), rho)).reshape(-1)
        yield [_PointRule(x=pts[i], offsets=offsets[lo:hi], weights=weights[lo:hi],
                          tail_mass=float(tails[i]), quad_radius=float(radii[i]))
               for i, lo, hi in zip(range(first, last), starts, ends)]


# --------------------------------------------------------------------------
# operator applications

_DEFAULT = QuadratureScheme()


def pointwise_forms(spec: KernelSpec, x: np.ndarray,
                    forms: Sequence[tuple[SmoothFunction, SmoothFunction | None]],
                    quad: QuadratureScheme = _DEFAULT) -> np.ndarray:
    """Several pointwise forms at x on one rule set: a form (u, None) is
    L u and a form (u, v) is B(u, v).

    One rule set serves the distinct functions of the forms.  Its
    quadrature radius covers all their supports (relative to x); if any
    function has unbounded support, the radius is grown until the kernel
    tail bound drops below the scheme's tail tolerance.  Its panel edges
    honour all their kinks.  The rules are read a block at a time
    (``_rule_blocks``): the nodes x + z of a block are formed once, and
    each distinct function is called once at the block's points and once
    at its nodes.  So the nodes held at once do not grow with the points.

    The far field of L u contributes (u_inf - u(x)) times the kernel tail
    mass, exact whenever u equals its far value u_inf beyond the
    quadrature radius.  The integrand of B(u, v) is O(|y - x|^(2 - N -
    2s)) near x, so it needs no principal value and takes the paired-node
    rule unchanged; its far field counts only where both supports lie
    within the quadrature radius.

    A point of shape (dim,) gives the ``len(forms)`` values, an (m, dim)
    array of points shape (len(forms), m), each value equal bit for bit to
    that of its point alone, and of its form alone on a rule set of the
    same radii and kinks.
    """
    pts, single = _points(spec, x)
    fns = list({id(f): f for form in forms for f in form if f is not None}.values())
    out = np.empty((len(forms), len(pts)))
    first = 0
    for rules in _rule_blocks(spec, pts, quad, fns):
        xs = np.array([r.x for r in rules])
        y = np.empty((sum(len(r.weights) for r in rules), spec.dim))
        lo = 0
        for r in rules:
            np.add(r.x, r.offsets, out=y[lo:lo + len(r.weights)])
            lo += len(r.weights)
        at = {id(f): (f(xs), f(y)) for f in fns}
        lo = 0
        for k, r in enumerate(rules):
            hi = lo + len(r.weights)
            for j, (u, v) in enumerate(forms):
                ux, uy = at[id(u)]
                if v is None:
                    out[j, first + k] = (np.dot(r.weights, uy[lo:hi] - ux[k])
                                         + (u.far_value - ux[k]) * r.tail_mass)
                    continue
                vx, vy = at[id(v)]
                val = 0.5 * np.dot(r.weights, (uy[lo:hi] - ux[k]) * (vy[lo:hi] - vx[k]))
                if u.support_radius is not None and v.support_radius is not None:
                    reach = float(np.linalg.norm(r.x))
                    if max(u.support_radius, v.support_radius) + reach <= r.quad_radius + 1e-9:
                        val += 0.5 * (u.far_value - ux[k]) * (v.far_value - vx[k]) * r.tail_mass
                out[j, first + k] = val
            lo = hi
        first += len(rules)
    return out[:, 0] if single else out


def _one_form(vals: np.ndarray) -> float | np.ndarray:
    """The one row of ``pointwise_forms``: a float for one point."""
    return float(vals[0]) if vals.ndim == 1 else vals[0]


def nonlocal_laplacian(u: SmoothFunction, spec: KernelSpec,
                       x: np.ndarray) -> float | np.ndarray:
    """L u(x) = p.v. Int (u(y) - u(x)) K(x, y) dy on the default scheme.

    The form (u, None) of ``pointwise_forms`` alone, on the rules of u:
    one point of shape (dim,) gives a float, an (m, dim) array of points
    the array of the m values.
    """
    return _one_form(pointwise_forms(spec, x, [(u, None)]))


def carre_du_champ(u: SmoothFunction, v: SmoothFunction, spec: KernelSpec,
                   x: np.ndarray) -> float | np.ndarray:
    """B(u, v)(x) = 1/2 Int (u(y) - u(x)) (v(y) - v(x)) K(x, y) dy on the
    default scheme.

    The form (u, v) of ``pointwise_forms`` alone, on the rules of u and v;
    points give values as in ``nonlocal_laplacian``.
    """
    return _one_form(pointwise_forms(spec, x, [(u, v)]))
