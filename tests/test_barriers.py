"""Boundary-layer integrals and barrier sign behavior.

Oracle strategy: the transverse-layer constant C_star has a closed form
through Gamma functions (radial reduction of the layer integral to a Beta
integral); a fixed radial rule over the transverse plane provides the
independent route.  The layer integral J likewise has both a closed form
and a direct fixed-rule quadrature.  Special values frozen here:

    C_star(2, 1/2) = 2        (antiderivative t/sqrt(1+t^2))
    C_star(3, 1/2) = pi       (polar coordinates)
    C_star(2, 1/4) = 2.3962804695   (Gamma(3/4) sqrt(pi) / Gamma(5/4))

Half-space limit constants of the normalized barrier quantity come in
closed form; here they are checked against adaptive and 40-digit
quadrature of the symmetrized difference integral, and two exact values
at s = 1/2 are frozen from the antiderivative of the quarter- and
three-quarter-power barriers:

    half_space_reference(1/4, 1/2) = -pi/4
    half_space_reference(3/4, 1/2) = +3 pi/4
    half_space_reference(s, s)     =  0     (the threshold exponent)

The interval scan is cross-checked pointwise against a direct scipy
evaluation of the symmetrized 1D difference integral with the boundary
crossings as explicit breakpoints.
"""

import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from nonlocal_dv.barriers import (
    BarrierConfig,
    C_star,
    C_star_quadrature,
    J_closed_form,
    J_quadrature,
    _c_star_closed,
    barrier_scan,
    flat_limit_reference,
    half_space_reference,
)
from nonlocal_dv.errors import DomainError
from nonlocal_dv.extrapolate import fit_rate, richardson_limit
from nonlocal_dv.kernels import (
    AnisotropyField,
    KernelSpec,
    normalization_constant,
)
from nonlocal_dv.operators import SmoothFunction, gaussian


def const_spec(dim, s, matrix=None, normalized=False):
    m = np.eye(dim) if matrix is None else np.asarray(matrix, dtype=float)
    return KernelSpec(AnisotropyField.constant(m),
                      s=s, lower=0.25,
                      normalized=normalized)


def random_spd(rng, n):
    B = rng.standard_normal((n, n))
    return B @ B.T + 0.5 * np.eye(n)


# --------------------------------------------------------------------------
# C_star


def test_c_star_special_values():
    assert C_star(2, 0.5) == pytest.approx(2.0, rel=1e-12)
    assert C_star(3, 0.5) == pytest.approx(np.pi, rel=1e-12)
    assert C_star(2, 0.25) == pytest.approx(2.3962804695, abs=1e-9)


def test_c_star_degenerate_dimension():
    # zero transverse directions: empty product convention
    assert C_star(1, 0.3) == 1.0
    assert C_star(1, 0.8) == 1.0


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_c_star_dual_route_agreement(N, s):
    closed = C_star(N, s)
    direct = C_star_quadrature(N, s)
    assert abs(closed - direct) <= 1e-6


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_c_star_quadrature_matches_closed_form(N):
    # the fixed radial rule against the Gamma-function closed form, across
    # the whole range of s
    for s in np.linspace(0.05, 0.95, 19):
        closed = _c_star_closed(N, s)
        assert abs(C_star_quadrature(N, s) - closed) <= 1e-12 * closed


def test_c_star_invalid():
    with pytest.raises(DomainError):
        C_star(2, 0.0)
    with pytest.raises(DomainError):
        C_star(0, 0.5)


# --------------------------------------------------------------------------
# layer integral J


def test_j_identity_matrix_reduces_to_c_star():
    val = J_quadrature(np.eye(2), 1.0, 0.5)
    assert val == pytest.approx(C_star(2, 0.5), rel=1e-8)
    closed = J_closed_form(np.eye(2), 1.0, 0.5)
    assert closed == pytest.approx(C_star(2, 0.5), rel=1e-12)


def test_j_y1_scaling():
    s = 0.35
    A = np.array([[2.0, 0.4], [0.4, 1.0]])
    ratio = J_quadrature(A, 2.0, s) / J_quadrature(A, 1.0, s)
    assert ratio == pytest.approx(2.0 ** -(1 + 2 * s), rel=1e-8)


def test_j_homogeneity_in_matrix():
    s = 0.45
    A = np.array([[1.5, -0.3], [-0.3, 0.8]])
    factor = 3.0 ** (-(2 + 2 * s) / 2.0)
    assert J_closed_form(3.0 * A, 0.7, s) == pytest.approx(
        factor * J_closed_form(A, 0.7, s), rel=1e-12)
    assert J_quadrature(3.0 * A, 0.7, s) == pytest.approx(
        factor * J_quadrature(A, 0.7, s), rel=1e-7)


def test_j_block_variant_identity():
    # with no coupling the two closed forms are the same algebraic quantity
    rng = np.random.default_rng(7)
    for n in (2, 3):
        for _ in range(3):
            A = random_spd(rng, n)
            A[0, 1:] = 0.0
            A[1:, 0] = 0.0
            a = J_closed_form(A, 1.3, 0.5, variant="coupled")
            b = J_closed_form(A, 1.3, 0.5, variant="block")
            assert a == pytest.approx(b, rel=1e-13)


def test_j_block_quadrature_cross_check():
    s = 0.4
    A = np.diag([2.0, 0.7])
    assert J_quadrature(A, 0.9, s) == pytest.approx(
        J_closed_form(A, 0.9, s, variant="block"), rel=1e-4)


def test_j_coupled_closed_vs_quadrature():
    rng = np.random.default_rng(23)
    for n in (2, 3):
        for _ in range(3 if n == 2 else 2):
            A = random_spd(rng, n)
            assert abs(A[0, 1]) > 1e-3  # coupling genuinely present
            y1 = 0.6 + rng.random()
            qv = J_quadrature(A, y1, 0.5)
            cv = J_closed_form(A, y1, 0.5)
            assert abs(qv - cv) / cv < 1e-3


@pytest.mark.parametrize("n", [2, 3])
def test_j_fixed_rule_matches_closed_form(n):
    # the tensor rule reads the quadratic form, the closed form the
    # determinant identity; they agree to rounding, also away from s = 1/2
    rng = np.random.default_rng(31)
    for s in (0.2, 0.5, 0.8):
        for _ in range(3):
            A = random_spd(rng, n)
            y1 = (0.5 + rng.random()) * rng.choice([-1.0, 1.0])
            assert J_quadrature(A, y1, s) == pytest.approx(
                J_closed_form(A, y1, s), rel=1e-10)


def test_j_invalid_inputs():
    with pytest.raises(DomainError):
        J_quadrature(np.eye(2), 0.0, 0.5)
    with pytest.raises(DomainError):
        J_closed_form(np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0, 0.5)  # not SPD
    with pytest.raises(DomainError):
        J_closed_form(np.array([[1.0, 0.3], [0.3, 1.0]]), 1.0, 0.5,
                      variant="block")  # coupling present


# --------------------------------------------------------------------------
# half-space reference constants


def test_half_space_reference_threshold_zero():
    for s in (0.3, 0.5, 0.7):
        assert half_space_reference(s, s) == pytest.approx(0.0, abs=1e-7)


def test_half_space_reference_exact_values():
    assert half_space_reference(0.25, 0.5) == pytest.approx(-np.pi / 4, abs=1e-8)
    assert half_space_reference(0.75, 0.5) == pytest.approx(3 * np.pi / 4, abs=1e-8)


def _profile_quad(alpha, s):
    """The profile integral by adaptive quadrature, split at t = 1, with
    the reported error."""
    def f(t):
        g = (1.0 + t) ** alpha + max(1.0 - t, 0.0) ** alpha - 2.0
        return g * t ** (-1.0 - 2.0 * s)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        v1, e1 = quad(f, 0.0, 1.0, limit=200)
        v2, e2 = quad(f, 1.0, np.inf, limit=200)
    return v1 + v2, e1 + e2


def test_half_space_reference_matches_quadrature():
    # the closed form against adaptive quadrature of the defining integral,
    # wherever the quadrature resolves it
    compared = 0
    for s in np.linspace(0.1, 0.9, 9):
        for frac in np.linspace(0.05, 0.95, 10):
            alpha = 2.0 * s * frac
            ref, err = _profile_quad(alpha, s)
            if err > 1e-7 * max(abs(ref), 1.0):
                continue
            compared += 1
            assert abs(half_space_reference(alpha, s) - ref) <= (
                1e-6 * max(abs(ref), 1.0))
    assert compared >= 75


@pytest.mark.parametrize("alpha, s", [(0.1, 0.9), (1.7, 0.9), (0.05, 0.3),
                                      (0.35, 0.2), (1.2, 0.75), (1.89, 0.95)])
def test_half_space_reference_matches_high_precision(alpha, s):
    # 40-digit tanh-sinh quadrature of the same integral, also at orders
    # where the double-precision adaptive rule fails.  Near 0 the even part
    # (1 + t)^a + (1 - t)^a - 2 is summed from its series, and the
    # substitutions t = v^m and u = w^k remove the endpoint powers:
    # Int_0^1 g t^(-1-2s) dt = m Int_0^1 g(t)/t^2 dv,  m = 1/(2 - 2s), and
    # Int_1^inf ((1 + t)^a - 2) t^(-1-2s) dt
    #     = k Int_0^1 (1 + w^k)^a dw - 1/s,  k = 1/(2s - a)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        a, s_mp = mp.mpf(alpha), mp.mpf(s)

        def g_over_t2(t):
            if t < mp.mpf("1e-3"):
                return 2 * sum(mp.binomial(a, 2 * k) * t ** (2 * k - 2)
                               for k in range(1, 12))
            return ((1 + t) ** a + (1 - t) ** a - 2) / t ** 2

        m = 1 / (2 - 2 * s_mp)
        k = 1 / (2 * s_mp - a)
        near = m * mp.quad(lambda v: g_over_t2(v ** m), [0, 1])
        far = k * mp.quad(lambda w: (1 + w ** k) ** a, [0, 1]) - 1 / s_mp
        ref = float(near + far)
    assert half_space_reference(alpha, s) == pytest.approx(ref, rel=1e-13)


def test_half_space_reference_integrability_limit():
    with pytest.raises(DomainError):
        half_space_reference(0.8, 0.3)  # needs alpha < 2s


def test_flat_limit_reference_matches_half_space():
    spec = const_spec(1, 0.5)
    assert flat_limit_reference(spec, 0.25) == pytest.approx(-np.pi / 4, abs=1e-8)
    # kernel matrix scaling passes straight through the reference
    spec2 = const_spec(1, 0.5, matrix=[[2.0]])
    assert flat_limit_reference(spec2, 0.25) == pytest.approx(
        2.0 ** -1.0 * flat_limit_reference(spec, 0.25), rel=1e-12)


# --------------------------------------------------------------------------
# barrier scan


def interval_reference(alpha, s, d, radius=1.0):
    """Direct 1D evaluation of the generator on the interval barrier.

    Symmetrized difference integral with the two boundary crossings as
    explicit breakpoints; the far field beyond both supports integrates
    in closed form.
    """
    x = radius - d

    def u(y):
        return max(radius - abs(y), 0.0) ** alpha

    ux = u(x)
    T = radius + x

    def f(t):
        return (u(x + t) + u(x - t) - 2 * ux) * t ** (-1 - 2 * s)

    v1, _ = quad(f, 0, d, limit=200)
    v2, _ = quad(f, d, T, points=[2 * radius - d], limit=200)
    return v1 + v2 - 2 * ux * T ** (-2 * s) / (2 * s)


def test_scan_matches_direct_quadrature():
    s = 0.5
    for alpha in (0.25, 0.75):
        cfg = BarrierConfig("interval", alpha, 0.1, const_spec(1, s), points=4)
        rep = barrier_scan(cfg)
        for d, nv in zip(rep.distances, rep.normalized_values):
            ref = d ** (2 * s - alpha) * interval_reference(alpha, s, d)
            assert nv == pytest.approx(ref, rel=1e-4)


def test_scan_sign_above_threshold():
    cfg = BarrierConfig("interval", 0.75, 0.1, const_spec(1, 0.5), points=6)
    rep = barrier_scan(cfg)
    assert rep.min_normalized > 0.15
    assert rep.max_normalized > rep.min_normalized
    assert rep.d_min == pytest.approx(0.02)
    assert np.all(rep.distances <= 0.1 + 1e-12)
    assert np.all(rep.distances >= rep.d_min - 1e-12)


def test_scan_sign_below_threshold():
    cfg = BarrierConfig("interval", 0.25, 0.3, const_spec(1, 0.5), points=6)
    rep = barrier_scan(cfg)
    assert rep.max_normalized < -0.7


def test_scan_threshold_exponent_decays():
    # at alpha = s the normalized quantity stays bounded and drains to 0
    cfg = BarrierConfig("interval", 0.5, 0.1, const_spec(1, 0.5), points=5)
    rep = barrier_scan(cfg)
    assert np.all(np.abs(rep.normalized_values) < 1.5)
    assert abs(rep.normalized_values[-1]) < abs(rep.normalized_values[0])


def test_scan_extrapolates_to_flat_limit():
    s, alpha = 0.5, 0.25
    spec = const_spec(1, s)
    cfg = BarrierConfig("interval", alpha, 0.08, spec, points=3)
    rep = barrier_scan(cfg)
    ext = richardson_limit(list(rep.normalized_values), ratio=2.0)
    target = flat_limit_reference(spec, alpha)
    assert ext.limit == pytest.approx(target, rel=2e-2)


def test_scan_sign_check_entries():
    s = 0.5
    cfg = BarrierConfig("interval", 0.5, 0.1, const_spec(1, s), points=4)
    rep = barrier_scan(cfg)
    assert len(rep.sign_checks) == 2
    below, above = rep.sign_checks
    assert below.alpha == pytest.approx(s / 2)
    assert below.expected == "negative"
    assert below.consistent and below.max_value < 0
    assert above.alpha == pytest.approx((1 + s) / 2)
    assert above.expected == "positive"
    assert above.consistent and above.min_value > 0


@pytest.mark.parametrize("s", [0.3, 0.7])
def test_scan_sign_checks_other_orders(s):
    cfg = BarrierConfig("interval", s, 0.1, const_spec(1, s), points=3)
    rep = barrier_scan(cfg)
    assert all(c.consistent for c in rep.sign_checks)


def test_scan_drift_columns():
    s, alpha = 0.5, 0.75
    h = gaussian(1, width=0.9)
    cfg = BarrierConfig("interval", alpha, 0.1, const_spec(1, s), h=h, points=5)
    rep = barrier_scan(cfg)
    assert np.all(np.abs(rep.drift_values) > 1e-3)
    # the far field pins the drift term at an O(1) level, so the raw
    # log-log exponent sits near zero rather than at alpha - 2s + 1
    assert rep.drift_rate < 0.3
    normalized_drift = rep.distances ** (2 * s - alpha) * rep.drift_values
    assert abs(fit_rate(rep.distances, normalized_drift) - (2 * s - alpha)) <= 0.2


def test_scan_no_drift_gives_zero_column():
    cfg = BarrierConfig("interval", 0.75, 0.1, const_spec(1, 0.5), points=3)
    rep = barrier_scan(cfg)
    assert np.all(rep.drift_values == 0.0)
    assert rep.drift_rate == np.inf


def test_scan_constant_drift_vanishes():
    hc = SmoothFunction(lambda p: np.full(p.shape[0], 0.7), 1,
                        support_radius=0.5, far_value=0.7)
    cfg = BarrierConfig("interval", 0.75, 0.1, const_spec(1, 0.5), h=hc,
                        points=3)
    rep = barrier_scan(cfg)
    assert np.all(np.abs(rep.drift_values) < 1e-12)


def test_scan_ball_2d_above_threshold():
    cfg = BarrierConfig("ball", 0.75, 0.05, const_spec(2, 0.5), points=3)
    rep = barrier_scan(cfg)
    assert rep.min_normalized > 0.0


def test_scan_normalization_prefactor_passthrough():
    base = BarrierConfig("interval", 0.75, 0.1, const_spec(1, 0.5), points=3)
    norm = BarrierConfig("interval", 0.75, 0.1,
                         const_spec(1, 0.5, normalized=True), points=3)
    a = barrier_scan(base).normalized_values
    b = barrier_scan(norm).normalized_values
    c = normalization_constant(1, 0.5)
    assert np.allclose(b, c * a, rtol=1e-12)


def test_config_validation():
    spec = const_spec(1, 0.5)
    with pytest.raises(DomainError):
        BarrierConfig("interval", 0.0, 0.1, spec)  # alpha at zero
    with pytest.raises(DomainError):
        BarrierConfig("interval", 2.5, 0.1, spec)  # alpha >= 2s + 1
    with pytest.raises(DomainError):
        BarrierConfig("interval", 0.5, -0.1, spec)
    with pytest.raises(DomainError):
        BarrierConfig("triangle", 0.5, 0.1, spec)
    with pytest.raises(DomainError):
        BarrierConfig("interval", 0.5, 0.1, const_spec(2, 0.5))  # dim mismatch
    with pytest.raises(DomainError):
        BarrierConfig("interval", 0.5, 0.01, spec)  # layer below scan floor
