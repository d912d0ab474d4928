"""Boundary-layer integrals and barrier behavior of distance powers.

Near a smooth boundary the generator applied to the barrier d^alpha blows
up like d^(alpha - 2s), with a sign controlled by alpha: above the
threshold alpha = s the normalized quantity is eventually positive, below
it negative, and at the threshold it drains to zero.  The coefficient in
the flat-boundary limit factorizes into a one-dimensional profile integral
and a transverse-layer constant C_star; the layer integral J at fixed
first coordinate carries the anisotropy through a determinant identity.
All three have closed forms in gamma functions.  C_star and J are also
summed directly on one fixed polar rule (``_layer_rule``, orders 64 and
128, whose difference is the error estimate), the independent second
route; no adaptive quadrature runs.

``barrier_scan`` measures the normalized quantity on a geometric ladder of
boundary distances with the pointwise quadrature engine and reports sign
behavior plus the decay of the first-order (drift) term.  Note the global
drift form does not vanish at the boundary: its far-field part tends to a
constant, so only the normalized combination d^(2s-alpha) B decays.  That
is enough for the barrier argument, which needs the drift to be lower
order than the leading d^(alpha - 2s) blow-up.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError
from .extrapolate import fit_rate
from .kernels import KernelSpec
from .operators import (
    QuadratureScheme,
    SmoothFunction,
    _gauss_rule,
    pointwise_forms,
)

__all__ = [
    "BarrierConfig",
    "BarrierReport",
    "SignCheck",
    "C_star",
    "C_star_quadrature",
    "J_quadrature",
    "J_closed_form",
    "half_space_reference",
    "flat_limit_reference",
    "barrier_scan",
]


# --------------------------------------------------------------------------
# transverse-layer constant


def _validate_order(s: float) -> None:
    if not 0.0 < s < 1.0:
        raise DomainError(f"order s must lie in (0, 1), got {s}")


def _c_star_closed(N: int, s: float) -> float:
    if N == 1:
        return 1.0
    return float(np.pi ** ((N - 1) / 2.0) * math.gamma(s + 0.5)
                 / math.gamma((N + 2.0 * s) / 2.0))


_C_STAR_VERIFIED: dict = {}


def C_star_quadrature(N: int, s: float) -> float:
    """Direct quadrature of the transverse-layer integral.

    Integrates (1 + |z|^2)^(-(N + 2s)/2) over z in R^(N-1) in polar form:
    the area of the unit sphere S^(N-2) (2 for N = 2, 2 pi for N = 3)
    times Int_0^inf rho^(N-2) (1 + rho^2)^(-(N + 2s)/2) d rho on the
    tan-mapped radial nodes of ``_layer_rule``.  Like ``J_quadrature`` it
    runs orders 64 and 128 and returns the order-128 value; their
    difference is the error estimate, and ResolutionError is raised when
    it exceeds 1e-7 relative.  The radial integral is summed from the
    integrand, not from the Beta-function reduction behind the closed
    form, so it stays a second route.
    """
    if N < 1:
        raise DomainError(f"dimension must be >= 1, got {N}")
    _validate_order(s)
    if N == 1:
        return 1.0
    p = (N + 2.0 * s) / 2.0
    sphere = 2.0 * math.pi ** ((N - 1) / 2.0) / math.gamma((N - 1) / 2.0)
    vals = []
    for n in _LAYER_ORDERS:
        rho, weights, _, _ = _layer_rule(2, n)  # radial weights without rho^(N-2)
        vals.append(sphere * float(weights @ (rho ** (N - 2) * (1.0 + rho * rho) ** -p)))
    val = vals[-1]
    err = abs(vals[-1] - vals[0])
    if err > 1e-7 * max(abs(val), 1.0):
        raise ResolutionError(
            "transverse-layer quadrature reported error %.2g" % err)
    return val


def C_star(N: int, s: float) -> float:
    """Transverse-layer constant, with its two evaluations reconciled.

    The closed form comes from radial reduction to a Beta integral; the
    first call per (N, s) also runs the direct quadrature and requires
    agreement to 1e-6.  N = 1 has no transverse directions and returns 1
    by the empty-product convention.
    """
    if N < 1:
        raise DomainError(f"dimension must be >= 1, got {N}")
    _validate_order(s)
    if N == 1:
        return 1.0
    key = (N, s)
    cached = _C_STAR_VERIFIED.get(key)
    if cached is not None:
        return cached
    closed = _c_star_closed(N, s)
    direct = C_star_quadrature(N, s)
    if abs(closed - direct) > 1e-6:
        raise ResolutionError(
            "transverse-layer routes disagree: closed %.10g vs direct %.10g"
            % (closed, direct))
    _C_STAR_VERIFIED[key] = closed
    return closed


# --------------------------------------------------------------------------
# layer integral at fixed first coordinate


def _validate_layer_matrix(matrix) -> np.ndarray:
    A = np.atleast_2d(np.asarray(matrix, dtype=float))
    n = A.shape[0]
    if A.shape != (n, n) or np.abs(A - A.T).max() > 1e-12 * np.abs(A).max():
        raise DomainError("layer matrix must be symmetric")
    if np.linalg.eigvalsh(A).min() <= 0.0:
        raise DomainError("layer matrix must be positive definite")
    return A


@functools.cache
def _layer_rule(N: int, n: int):
    """n-point tensor rule for the transverse integral over R^(N-1).

    Polar form: directions e with weights (the two signs in N = 2, n
    equispaced angles with the periodic trapezoid rule in N = 3) times
    Int_0^inf rho^(N-2) g(rho e) d rho.  The radius is rho = tan psi with
    psi = pi/4 (1 + m(x)) and Gauss-Legendre nodes x on (-1, 1), where
    m'(x) = 35/16 (1 - x^2)^3.  The integrand behaves like cos(psi)^(2s)
    at psi = pi/2, which caps plain Gauss-Legendre in psi at algebraic
    order; under m it vanishes to order 3 + 8s in x instead.  Built on
    first use and shared by all callers, so the arrays are read-only.
    """
    x, w = _gauss_rule(n)
    m = (35.0 * x - 35.0 * x**3 + 21.0 * x**5 - 5.0 * x**7) / 16.0
    psi = 0.25 * np.pi * (1.0 + m)
    rho = np.tan(psi)
    weights = (w * (35.0 / 16.0) * (1.0 - x * x) ** 3 * 0.25 * np.pi
               / np.cos(psi) ** 2 * rho ** (N - 2))
    if N == 2:
        dirs, dir_weights = np.array([[-1.0], [1.0]]), np.ones(2)
    else:
        phi = 2.0 * np.pi * np.arange(n) / n
        dirs = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        dir_weights = np.full(n, 2.0 * np.pi / n)
    for a in (rho, weights, dirs, dir_weights):
        a.setflags(write=False)
    return rho, weights, dirs, dir_weights


# the two orders whose difference is the error estimate of J_quadrature
_LAYER_ORDERS = (64, 128)


def J_quadrature(A, y1: float, s: float) -> float:
    """Transverse integral of the kernel at fixed first coordinate y1.

    Integrates (y1, z)^T A (y1, z)^(-(N + 2s)/2) over z in R^(N-1) with
    the fixed tensor rule of ``_layer_rule`` at orders 64 and 128, and
    returns the order-128 value; their difference is the error estimate,
    and ResolutionError is raised when it exceeds 1e-4 relative.  The rule
    reads the quadratic form itself, not the determinant identity of
    ``J_closed_form``.
    """
    A = _validate_layer_matrix(A)
    _validate_order(s)
    y1 = float(y1)
    if y1 == 0.0:
        raise DomainError("first coordinate must be nonzero")
    N = A.shape[0]
    p = (N + 2.0 * s) / 2.0
    if N == 1:
        return float(abs(A[0, 0] * y1 * y1) ** -p)
    if N > 3:
        raise DomainError("direct transverse quadrature supports N <= 3")
    c0 = A[0, 0] * y1 * y1
    vals = []
    for n in _LAYER_ORDERS:
        rho, weights, dirs, dir_weights = _layer_rule(N, n)
        # q(rho e) = c0 + rho lin(e) + rho^2 quad(e)
        lin = 2.0 * y1 * (dirs @ A[0, 1:])
        quad_e = np.einsum("ki,ij,kj->k", dirs, A[1:, 1:], dirs)
        q = c0 + rho[:, None] * (lin + rho[:, None] * quad_e)
        vals.append(float(weights @ q ** -p @ dir_weights))
    val = vals[-1]
    err = abs(vals[-1] - vals[0])
    if err > 1e-4 * max(abs(val), 1.0):
        raise ResolutionError(
            "transverse quadrature did not converge (error %.2g); the "
            "integrand decays too slowly for the requested accuracy" % err)
    return val


def J_closed_form(A, y1: float, s: float, variant: str = "coupled") -> float:
    """Closed form of the layer integral via the determinant identity.

    ``coupled`` is the general formula |Det A'|^s |Det A|^-(1+2s)/2 times
    the y1 power and C_star; ``block`` is the form valid when the first
    row carries no coupling, with a11^-s |Det A|^-1/2 instead.  For
    block-diagonal matrices the two are the same algebraic quantity.
    """
    A = _validate_layer_matrix(A)
    _validate_order(s)
    y1 = float(y1)
    if y1 == 0.0:
        raise DomainError("first coordinate must be nonzero")
    N = A.shape[0]
    detA = float(np.linalg.det(A))
    detAp = float(np.linalg.det(A[1:, 1:])) if N > 1 else 1.0
    cs = _c_star_closed(N, s)
    power = abs(y1) ** -(1.0 + 2.0 * s)
    if variant == "coupled":
        return float(power * detAp ** s * detA ** (-(1.0 + 2.0 * s) / 2.0) * cs)
    if variant == "block":
        if N > 1 and np.abs(A[0, 1:]).max() > 1e-12 * np.abs(A).max():
            raise DomainError(
                "block variant needs a coupling-free first row")
        return float(A[0, 0] ** -s * power * detA ** -0.5 * cs)
    raise DomainError(f"unknown variant {variant!r}")


# --------------------------------------------------------------------------
# flat-boundary limit constants


def half_space_reference(alpha: float, s: float) -> float:
    """Profile integral of the flat-boundary barrier limit.

    Principal value of the symmetrized difference of (1 + t)_+^alpha
    against the one-dimensional kernel power,

        I(alpha, s) = Int_0^inf ((1 + t)^alpha + (1 - t)_+^alpha - 2)
                      t^(-1 - 2s) dt,

    in closed form.  Continued analytically in s, the three terms are
    B(-2s, 2s - alpha), B(-2s, 1 + alpha) and 0 (B the Beta function), and
    the reflection formula turns their sum into

        I(alpha, s) = gamma(1 + alpha) gamma(2s - alpha) sin(pi (alpha - s))
                      / (sin(pi s) gamma(1 + 2s)).

    Zero at alpha = s, -pi/4 at (1/4, 1/2) and 3 pi/4 at (3/4, 1/2).
    Needs alpha < 2s for the far field to integrate.
    """
    _validate_order(s)
    if not 0.0 < alpha < 2.0 * s:
        raise DomainError(
            f"profile integral needs 0 < alpha < 2s, got alpha={alpha}")
    return (math.gamma(1.0 + alpha) * math.gamma(2.0 * s - alpha)
            * math.sin(math.pi * (alpha - s))
            / (math.sin(math.pi * s) * math.gamma(1.0 + 2.0 * s)))


def flat_limit_reference(spec: KernelSpec, alpha: float) -> float:
    """Flat-boundary limit of the normalized barrier quantity.

    Constant fields only: the limit factorizes into the profile integral,
    the transverse-layer constant, and the determinant weight of the
    matrix written in boundary-normal coordinates (first axis normal).
    """
    if spec.field.variant != "constant":
        raise DomainError("flat-boundary reference needs a constant field")
    s = spec.s
    N = spec.dim
    A = np.atleast_2d(spec.field.matrix)
    detA = float(np.linalg.det(A))
    detAp = float(np.linalg.det(A[1:, 1:])) if N > 1 else 1.0
    weight = detAp ** s * detA ** (-(1.0 + 2.0 * s) / 2.0)
    return float(spec.prefactor * _c_star_closed(N, s) * weight
                 * half_space_reference(alpha, s))


# --------------------------------------------------------------------------
# barrier scan


@dataclass(frozen=True)
class BarrierConfig:
    """Scan setup for the boundary layer of a ball or interval.

    The domain is the ball of the given radius about the origin (an
    interval in one dimension); scan points run along the positive first
    axis at boundary distances in (d_min, delta].  ``mesh`` is the
    resolution scale of the singular quadrature; distances below four
    times it are not scanned because the blow-up cannot be resolved
    there, and the resolved floor is reported.
    """

    domain: str
    alpha: float
    delta: float
    spec: KernelSpec
    h: SmoothFunction | None = None
    radius: float = 1.0
    points: int = 8
    mesh: float = 0.005
    d_min: float | None = None

    def __post_init__(self) -> None:
        if self.domain not in ("interval", "ball"):
            raise DomainError(f"domain must be interval or ball, got "
                              f"{self.domain!r}")
        dim = self.spec.dim
        if self.domain == "interval" and dim != 1:
            raise DomainError("interval domain needs a one-dimensional kernel")
        if dim > 3:
            raise DomainError("scan quadrature supports dimension <= 3")
        s = self.spec.s
        if not 0.0 < self.alpha < 2.0 * s + 1.0:
            raise DomainError(
                f"exponent alpha must lie in (0, 2s + 1), got {self.alpha}")
        if self.radius <= 0.0:
            raise DomainError("radius must be positive")
        if not 0.0 < self.delta < self.radius:
            raise DomainError("layer width must lie in (0, radius)")
        if self.points < 2:
            raise DomainError("need at least two scan points")
        if self.mesh <= 0.0:
            raise DomainError("mesh must be positive")
        if self.floor <= 0.0 or self.floor >= self.delta:
            raise DomainError(
                f"scan floor {self.floor:.4g} must lie below the layer "
                f"width {self.delta:.4g}")

    @property
    def floor(self) -> float:
        return self.d_min if self.d_min is not None else 4.0 * self.mesh


@dataclass(frozen=True)
class SignCheck:
    alpha: float
    min_value: float
    max_value: float
    expected: str
    consistent: bool


@dataclass(frozen=True)
class BarrierReport:
    alpha: float
    distances: np.ndarray
    normalized_values: np.ndarray
    drift_values: np.ndarray
    min_normalized: float
    max_normalized: float
    drift_rate: float
    d_min: float
    sign_checks: tuple


def _distance_power(dim: int, radius: float, alpha: float) -> SmoothFunction:
    center = np.zeros(dim)

    def fn(pts: np.ndarray) -> np.ndarray:
        d = radius - np.linalg.norm(pts - center, axis=1)
        return np.maximum(d, 0.0) ** alpha

    # kinks: the boundary sphere and the norm's cone point at the center
    return SmoothFunction(fn, dim, support_radius=radius,
                          kink_points=(tuple(center),),
                          kink_spheres=((tuple(center), radius),))


_SCAN_QUAD = QuadratureScheme(radial_order=32)


def barrier_scan(config: BarrierConfig) -> BarrierReport:
    """Measure the normalized barrier quantity through the boundary layer.

    Reports d^(2s - alpha) (L d^alpha + B(h, d^alpha)) on a geometric
    distance ladder, the raw drift column with its log-log rate, and the
    sign consistency of the two reference exponents on either side of the
    threshold alpha = s (evaluated on a smaller window where the
    asymptotic sign has set in).  Every rule uses ``_SCAN_QUAD``, radial
    order 32.  The forms L d^alpha and B(h, d^alpha) of every exponent on
    one ladder come from one ``pointwise_forms`` call: one rule set when
    the sign window's ladder is the distance ladder, else one per ladder.
    """
    spec = config.spec
    s = spec.s
    dim = spec.dim
    r = config.radius
    floor = config.floor

    def evaluate(alphas: list[float], dists: np.ndarray) -> list[tuple]:
        # (normalized values, drift column) per exponent, all on one rule
        # set: d^alpha has the same support and kinks for every alpha
        xs = np.zeros((len(dists), dim))
        xs[:, 0] = r - dists
        us = [_distance_power(dim, r, a) for a in alphas]
        forms = [(u, None) for u in us]
        if config.h is not None:
            forms += [(u, config.h) for u in us]
        vals = pointwise_forms(spec, xs, forms, _SCAN_QUAD)
        drifts = vals[len(us):] if config.h is not None else np.zeros_like(vals)
        return [(dists ** (2.0 * s - a) * (lap + drift), drift)
                for a, lap, drift in zip(alphas, vals, drifts)]

    refs = ((s / 2.0, "negative"), ((1.0 + s) / 2.0, "positive"))
    ref_alphas = [a for a, _ in refs]
    distances = np.geomspace(config.delta, floor, config.points)
    window = min(config.delta, 0.05 * r)
    ladder = np.geomspace(max(window, floor * 1.5), floor, 3)
    if np.array_equal(ladder, distances):
        (normalized, drifts), *scans = evaluate([config.alpha, *ref_alphas], distances)
    else:
        [(normalized, drifts)] = evaluate([config.alpha], distances)
        scans = evaluate(ref_alphas, ladder)

    significant = np.abs(drifts) > 1e-13
    if significant.sum() >= 2:
        drift_rate = fit_rate(distances[significant], drifts[significant])
    else:
        drift_rate = np.inf

    checks: list[SignCheck] = []
    for (a_ref, expected), (vals, _) in zip(refs, scans):
        lo, hi = float(vals.min()), float(vals.max())
        ok = hi < 0.0 if expected == "negative" else lo > 0.0
        checks.append(SignCheck(a_ref, lo, hi, expected, ok))

    return BarrierReport(config.alpha, distances, normalized, drifts,
                         float(normalized.min()), float(normalized.max()),
                         float(drift_rate), floor, tuple(checks))
