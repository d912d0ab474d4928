"""Kernel construction, ellipticity checks, and normalization."""

import math

import numpy as np
import pytest

from nonlocal_dv import operators
from nonlocal_dv.errors import DomainError, EllipticityError
from nonlocal_dv.kernels import (
    AnisotropyField,
    KernelSpec,
    fractional_kernel,
    normalization_constant,
    spec_from_config,
)
from nonlocal_dv.lattice import LatticeDomain, _pair_form_chunks


def ray_kernel(spec, x, y):
    """K(x_i, y_i) for paired rows, from the per-ray constants of x_i along
    the direction of y_i - x_i, as far_field and the self-cell moments take
    them; one ``_ray_constants`` call for all rows."""
    x, y = np.atleast_2d(x), np.atleast_2d(y)
    z = y - x
    rho = np.linalg.norm(z, axis=1)
    rays = operators._ray_constants(spec, x, z / rho[:, None])
    scaled = [operators._ray_kernel(spec, rays, i, slice(i, i + 1), rho[i:i + 1])[0, 0]
              for i in range(len(x))]
    return np.array(scaled) * rho ** (-2.0 * spec.exponent)


def lattice_forms(spec, dom):
    """The pair forms q of every interior node against every box node."""
    return np.concatenate([q for _, q in _pair_form_chunks(spec, dom)])


def test_normalization_half_in_1d_is_inverse_pi():
    assert normalization_constant(1, 0.5) == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_normalization_rejects_bad_order():
    for s in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DomainError):
            normalization_constant(1, s)


def test_constant_field_hand_value():
    # A = diag(4, 1), offset e1, s = 1/2: q = 4, K = 4^(-3/2) = 0.125
    spec = KernelSpec(
        AnisotropyField.constant(np.diag([4.0, 1.0])),
        s=0.5, lower=1.0,
    )
    x = np.array([0.0, 0.0])
    y = np.array([1.0, 0.0])
    assert ray_kernel(spec, x, y)[0] == pytest.approx(0.125, rel=1e-14)
    # the same offset on a lattice of unit spacing, nodes (0.5, 0.5) and
    # (1.5, 0.5): q = 4
    q = lattice_forms(spec, LatticeDomain.box([0.0, 0.0], [2.0, 2.0], [2, 2]))
    assert q.shape == (4, 4)
    assert q[0, 2] == 4.0 and q[0, 2] ** -spec.exponent == 0.125


def test_kernel_scaling_constant_field():
    # K = q^(-(N+2s)/2) with the lattice pair forms q: a lattice scaled by
    # lam scales every q by lam^2, so K by lam^(-(N+2s))
    spec = fractional_kernel(2, 0.3, normalized=False)

    def kernel(lam):
        q = lattice_forms(spec, LatticeDomain.box([-lam, -0.5 * lam],
                                                  [lam, 0.5 * lam], [4, 2]))
        return q[q > 0.0] ** -spec.exponent

    k1 = kernel(1.0)
    assert k1.size == 8 * 7  # every pair of the 8 nodes
    for lam in (0.5, 2.0, 7.0):
        np.testing.assert_allclose(kernel(lam), lam ** (-(2 + 2 * 0.3)) * k1,
                                   rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("variant", ["constant", "sum", "product"])
def test_swap_symmetry(variant):
    rng = np.random.default_rng(7)
    base = np.array([[2.0, 0.5], [0.5, 1.5]])
    # a ridge along an oblique wave vector whose profile is not odd
    name = {"sum": "separable_sum", "product": "separable_product"}.get(variant, variant)
    field = AnisotropyField(name, base, wave=np.array([1.0, -0.5]),
                            profile=lambda t: 0.4 * np.sin(t) + 0.2 * np.cos(2.0 * t))
    spec = KernelSpec(field, s=0.6, lower=0.5)
    # the ray from x towards y against the ray from y towards x
    x, y = rng.normal(size=(2, 20, 2))
    np.testing.assert_allclose(ray_kernel(spec, x, y), ray_kernel(spec, y, x),
                               rtol=1e-13, atol=0.0)


def test_nonsymmetric_matrix_rejected():
    with pytest.raises(EllipticityError):
        AnisotropyField.constant(np.array([[1.0, 0.5], [0.2, 1.0]]))


def test_indefinite_matrix_rejected():
    with pytest.raises(EllipticityError):
        AnisotropyField.constant(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_spec_checks_keep_their_error_types():
    field = AnisotropyField.constant(np.eye(2))
    for lower in (0.0, -1.0, float("nan")):
        with pytest.raises(EllipticityError):
            KernelSpec(field, s=0.5, lower=lower)
    for s in (0.0, 1.0, float("nan")):
        with pytest.raises(DomainError):
            KernelSpec(field, s=s, lower=1.0)
    assert KernelSpec(field, s=0.25, lower=1.0).exponent == 1.25


def test_normalized_prefactor_applied():
    x, y = np.array([0.0]), np.array([0.9])
    raw = ray_kernel(fractional_kernel(1, 0.5, normalized=False), x, y)
    nrm = ray_kernel(fractional_kernel(1, 0.5, normalized=True), x, y)
    assert nrm == pytest.approx(raw / math.pi, rel=1e-13)


def test_spec_from_config_constant():
    cfg = {
        "variant": "constant",
        "matrix": [[2.0, 0.0], [0.0, 1.0]],
        "s": 0.5,
        "normalized": False,
    }
    spec = spec_from_config(cfg)
    assert spec.dim == 2
    assert spec.s == 0.5
    got = ray_kernel(spec, np.zeros(2), np.array([1.0, 0.0]))[0]
    assert got == pytest.approx(2.0 ** -1.5, rel=1e-13)


def per_point_profile(t):
    # defined for one phase only: it answers a batch with a scalar
    return 0.3 * float(np.sin(t[0]))


def _ridge_sum(profile):
    return AnisotropyField("separable_sum", np.diag([2.0, 1.5]),
                           wave=np.ones(2), profile=profile)


def test_profile_answer_of_wrong_shape_raises():
    # the profile is called once on the 1-D array of phases; a per-point
    # profile answers with a scalar, not an array of them
    spec = KernelSpec(_ridge_sum(per_point_profile), s=0.5, lower=1.0)
    with pytest.raises(DomainError, match="shape"):
        ray_kernel(spec, np.array([[0.1, 0.2]]), np.array([[0.5, -0.3]]))
    with pytest.raises(DomainError, match="shape"):
        lattice_forms(spec, LatticeDomain.box([-1.0, -1.0], [1.0, 1.0], [2, 2]))
    with pytest.raises(DomainError, match="shape"):
        spec.field.ridge(np.array([[0.1, 0.2], [-0.4, 0.3]]))


def test_profile_error_on_batch_propagates():
    # an error of the profile on the batch is the user's failure and must
    # reach the caller
    def profile(t):
        if np.size(t) > 1:
            raise RuntimeError("batch evaluation failed")
        return per_point_profile(t)

    spec = KernelSpec(_ridge_sum(profile), s=0.5, lower=1.0)
    with pytest.raises(RuntimeError, match="batch evaluation failed"):
        ray_kernel(spec, np.array([[0.1, 0.2], [-0.4, 0.3]]),
                   np.array([[0.5, 0.2], [0.4, 0.3]]))
    with pytest.raises(RuntimeError, match="batch evaluation failed"):
        lattice_forms(spec, LatticeDomain.box([-1.0, -1.0], [1.0, 1.0], [2, 2]))


def test_separable_field_needs_wave_and_profile():
    with pytest.raises(EllipticityError, match="profile"):
        AnisotropyField("separable_sum", np.eye(2), wave=np.ones(2))
    with pytest.raises(EllipticityError, match="wave"):
        AnisotropyField("separable_product", np.eye(2), wave=np.ones(3), profile=np.sin)


# --------------------------------------------------------------------------
# one formula: z^T A(x, y) z = P + Q b(y) against A(x, y) formed explicitly

_BASES = {
    1: [[1.3]],
    2: [[1.2, 0.3], [0.3, 0.8]],
    3: [[1.1, 0.2, 0.0], [0.2, 0.9, 0.1], [0.0, 0.1, 1.4]],
}
_WAVES = {1: [0.8], 2: [1.0, -0.6], 3: [0.7, 0.4, -1.1]}
_PROFILES = {
    "sin": lambda t: 0.3 * np.sin(t),
    "exp": lambda t: 0.4 * np.exp(-t * t) - 0.1,
}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_builtin_matrix_fn_is_base_plus_bump(dim):
    # the built-in field of the config: M(y) = B + a sin(y_1 + ... + y_N) I
    cfg = {"variant": "separable_sum", "matrix": _BASES[dim], "s": 0.5, "amplitude": 0.3}
    field = spec_from_config(cfg).field
    phase = np.random.default_rng(dim).uniform(-12.0, 12.0, size=50)
    assert np.array_equal(field.matrix, np.asarray(_BASES[dim]))
    assert np.array_equal(field.wave, np.ones(dim))
    assert np.array_equal(field.profile(phase), 0.3 * np.sin(phase))


def explicit_form(field, x, y, z):
    return np.einsum("...i,...ij,...j->...", z, field.pair_matrices(x, y), z)


def looped(profile):
    """The profile applied phase by phase, a loop the caller writes."""
    return lambda t: np.array([profile(t[i:i + 1])[0] for i in range(len(t))])


@pytest.mark.parametrize("variant, per_point", [
    ("constant", False),
    ("separable_sum", False),
    ("separable_sum", True),
    ("separable_product", False),
    ("separable_product", True),
])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_separable_form_matches_pair_matrices(dim, variant, per_point):
    # the one formula A = C0 + (b(x) + b(y)) C1 + b(x) b(y) C2, as every
    # kernel sample forms it, against A(x, y) formed from M(x) and M(y)
    profiles = [None] if variant == "constant" else list(_PROFILES.values())
    for profile in profiles:
        if per_point:
            # a per-point profile is refused; looped over by the caller it serves
            bare = AnisotropyField(variant, _BASES[dim], wave=np.asarray(_WAVES[dim]),
                                   profile=lambda t, f=profile: float(f(t[:1])[0]))
            with pytest.raises(DomainError):
                ray_kernel(KernelSpec(bare, s=0.4, lower=0.1),
                           np.ones((2, dim)), np.zeros((2, dim)))
            profile = looped(profile)
        field = AnisotropyField(variant, _BASES[dim], wave=np.asarray(_WAVES[dim]),
                                profile=profile)
        _check_one_formula(KernelSpec(field, s=0.4, lower=0.1))


_NON_SQUARE = {1: ([-1.0], [1.0], [8]),
               2: ([-1.0, -0.5], [1.0, 0.5], [8, 4]),
               3: ([-1.0, -0.5, -0.5], [1.0, 0.5, 0.5], [4, 2, 2])}


def _check_one_formula(spec):
    field, dim, p = spec.field, spec.dim, spec.exponent
    rng = np.random.default_rng(dim)
    # K(x, y) on paired rows, from the ray constants of x
    x, y = rng.uniform(-2.0, 2.0, size=(2, 30, dim))
    np.testing.assert_allclose(ray_kernel(spec, x, y),
                               explicit_form(field, x, y, x - y) ** -p, rtol=1e-14, atol=0.0)
    pts = np.round(8.0 * x[:4]) / 8.0
    # the lattice pair forms, gathered from the offset table: on a cube, on
    # a box with a margin whose axes have different node counts (which
    # pins the axis order of the gather) and on a ball off the origin.
    # Row r holds interior node i = rows[r] against every box node j
    lower, upper, cells = _NON_SQUARE[dim]
    for dom in (LatticeDomain.box([-1.0] * dim, [1.0] * dim, [4] * dim),
                LatticeDomain.box(lower, upper, cells, margin=0.3),
                LatticeDomain.ball([0.5, -0.25, 0.125][:dim], 1.0, 4, margin=0.3)):
        grid = dom.points
        rows = np.flatnonzero(dom.interior_mask)
        r, j = np.nonzero(rows[:, None] != np.arange(len(grid)))
        i = rows[r]
        want = explicit_form(field, grid[i], grid[j], grid[i] - grid[j])
        q = np.concatenate([q for _, q in _pair_form_chunks(spec, dom)])
        np.testing.assert_allclose(q[r, j], want, rtol=1e-14, atol=0.0)
    # the ray samples: K(x_i, x_i + rho theta_d) from per-ray constants, as
    # far_field and the self-cell moments take them, and the values of the
    # rule nodes, on radii from the inner pairs' (signed: a pair's second
    # node is at -rho) out to the annulus, along the rule's directions and
    # along random ones
    quad = operators.QuadratureScheme()
    dirs = rng.normal(size=(5, dim))
    dirs = np.concatenate([operators._directions(dim, quad)[0],
                           dirs / np.linalg.norm(dirs, axis=1, keepdims=True)])
    rho = np.exp(rng.uniform(math.log(1e-3), math.log(50.0), size=(4, 6)))
    rho *= rng.choice([-1.0, 1.0], size=rho.shape)
    rays = operators._ray_constants(spec, pts, dirs)
    got = np.stack([operators._ray_kernel(spec, rays, i, slice(None), rho[i])
                    for i in range(len(pts))])
    got *= np.abs(rho)[..., None] ** (-2.0 * p)
    z = rho[..., None, None] * dirs
    xb = np.broadcast_to(pts[:, None, None, :], z.shape)
    want = explicit_form(field, xb.reshape(-1, dim), (xb + z).reshape(-1, dim),
                         z.reshape(-1, dim)) ** -p
    np.testing.assert_allclose(got.reshape(-1), want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("variant", ["constant", "separable_sum"])
def test_pair_forms_keep_their_digits_far_from_the_origin(variant):
    # a 16-cell box of width 2 centred at (100, 100): from the Gram matrix
    # of the raw coordinates the forms lost digits like |x|^2/h^2 (3.5e-10
    # relative here); the dyadic nodes make the explicit differences exact
    cfg = {"variant": variant, "matrix": _BASES[2], "s": 0.5}
    if variant != "constant":
        cfg["amplitude"] = 0.3
    spec = spec_from_config(cfg)
    dom = LatticeDomain.box([99.0, 99.0], [101.0, 101.0], [16, 16])
    grid = dom.points
    i, j = np.nonzero(~np.eye(len(grid), dtype=bool))
    want = explicit_form(spec.field, grid[i], grid[j], grid[i] - grid[j])
    q = np.concatenate([q for _, q in _pair_form_chunks(spec, dom)])
    np.testing.assert_allclose(q[i, j], want, rtol=1e-13, atol=0.0)
