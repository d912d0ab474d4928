"""Kernel construction, ellipticity checks, and normalization."""

import math

import numpy as np
import pytest

from nonlocal_dv.errors import DomainError, EllipticityError, SingularityError
from nonlocal_dv.kernels import (
    AnisotropyField,
    EllipticityBounds,
    KernelSpec,
    fractional_kernel,
    kernel_eval,
    normalization_constant,
    spec_from_config,
)


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
        EllipticityBounds(1.0, 4.0, 0.5, 2),
    )
    x = np.array([0.0, 0.0])
    y = np.array([1.0, 0.0])
    assert kernel_eval(spec, x, y) == pytest.approx(0.125, rel=1e-14)


def test_kernel_scaling_constant_field():
    spec = fractional_kernel(2, 0.3, normalized=False)
    x = np.array([0.2, -0.1])
    z = np.array([0.7, 0.4])
    k1 = kernel_eval(spec, x, x + z)
    for lam in (0.5, 2.0, 7.0):
        k2 = kernel_eval(spec, x, x + lam * z)
        assert k2 == pytest.approx(lam ** (-(2 + 2 * 0.3)) * k1, rel=1e-12)


@pytest.mark.parametrize("variant", ["constant", "sum", "product"])
def test_swap_symmetry(variant):
    rng = np.random.default_rng(7)
    if variant == "constant":
        field = AnisotropyField.constant(np.array([[2.0, 0.5], [0.5, 1.5]]))
    else:
        def mfn(pts):
            out = np.tile(np.eye(2), (len(pts), 1, 1))
            out[:, 0, 0] = 2.0 + 0.4 * np.sin(pts[:, 0])
            out[:, 1, 1] = 1.5 + 0.3 * np.cos(pts[:, 1])
            out[:, 0, 1] = out[:, 1, 0] = 0.2 * np.sin(pts.sum(axis=1))
            return out

        maker = AnisotropyField.separable_sum if variant == "sum" else AnisotropyField.separable_product
        field = maker(mfn, 2)
    spec = KernelSpec(field, EllipticityBounds(0.5, 4.0, 0.6, 2))
    for _ in range(20):
        x, y = rng.normal(size=2), rng.normal(size=2)
        assert kernel_eval(spec, x, y) == pytest.approx(kernel_eval(spec, y, x), rel=1e-13)


def test_coincident_points_raise():
    spec = fractional_kernel(1, 0.5)
    with pytest.raises(SingularityError):
        kernel_eval(spec, np.array([0.3]), np.array([0.3]))


def test_nonsymmetric_matrix_rejected():
    with pytest.raises(EllipticityError):
        AnisotropyField.constant(np.array([[1.0, 0.5], [0.2, 1.0]]))


def test_indefinite_matrix_rejected():
    with pytest.raises(EllipticityError):
        AnisotropyField.constant(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_normalized_prefactor_applied():
    x, y = np.array([0.0]), np.array([0.9])
    raw = kernel_eval(fractional_kernel(1, 0.5, normalized=False), x, y)
    nrm = kernel_eval(fractional_kernel(1, 0.5, normalized=True), x, y)
    assert nrm == pytest.approx(raw / math.pi, rel=1e-13)


def test_spec_from_config_constant():
    cfg = {
        "variant": "constant",
        "matrix": [[2.0, 0.0], [0.0, 1.0]],
        "s": 0.5,
        "gamma": 1.0,
        "Gamma": 2.0,
        "normalized": False,
    }
    spec = spec_from_config(cfg)
    assert spec.dim == 2
    assert spec.s == 0.5
    got = kernel_eval(spec, np.zeros(2), np.array([1.0, 0.0]))
    assert got == pytest.approx(2.0 ** -1.5, rel=1e-13)


def per_point_matrix(p):
    # defined for one point only: a batch of points fails on the float()
    return np.diag([2.0 + float(np.sin(p[0])), 1.5])


def test_matrix_fn_answer_of_wrong_shape_raises():
    # matrix_fn is called once on the batch; a per-point function answers
    # with a single (dim, dim) matrix, not a stack of them
    field = AnisotropyField.separable_sum(lambda pts: per_point_matrix(pts[0]), 2)
    with pytest.raises(DomainError, match="shape"):
        field.single_point_matrices(np.array([[0.1, 0.2]]))
    with pytest.raises(DomainError, match="shape"):
        field.single_point_matrices(np.array([[0.1, 0.2], [-0.4, 0.3]]))


def test_matrix_fn_error_on_batch_propagates():
    # an error of matrix_fn on the batch is the user's failure and must
    # reach the caller
    def mfn(pts):
        if np.ndim(pts) == 2:
            raise RuntimeError("batch evaluation failed")
        return per_point_matrix(pts)

    field = AnisotropyField.separable_sum(mfn, 2)
    with pytest.raises(RuntimeError, match="batch evaluation failed"):
        field.single_point_matrices(np.array([[0.1, 0.2], [-0.4, 0.3]]))


# --------------------------------------------------------------------------
# z^T A(x, y) z from the one-point matrices M(x) and M(y)

_BASES = {
    1: [[1.3]],
    2: [[1.2, 0.3], [0.3, 0.8]],
    3: [[1.1, 0.2, 0.0], [0.2, 0.9, 0.1], [0.0, 0.1, 1.4]],
}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_builtin_matrix_fn_is_base_plus_bump(dim):
    cfg = {"variant": "separable_sum", "matrix": _BASES[dim], "s": 0.5, "amplitude": 0.3}
    pts = np.random.default_rng(dim).uniform(-4.0, 4.0, size=(50, dim))
    want = np.asarray(_BASES[dim]) + 0.3 * np.sin(pts.sum(axis=1))[:, None, None] * np.eye(dim)
    assert np.array_equal(spec_from_config(cfg).field.matrix_fn(pts), want)


def one_point_fn(field):
    """The field's M at one point: answers in shape (dim, dim)."""
    fn = field.matrix_fn
    return lambda p: fn(np.reshape(p, (1, field.dim)))[0]


def looped(field):
    """The same field from its per-point M, which the caller loops over
    the batch: the package calls matrix_fn once per batch."""
    one = one_point_fn(field)
    return AnisotropyField(field.variant, field.dim,
                           matrix_fn=lambda pts: np.array([one(p) for p in pts]))


def explicit_form(field, x, y, z):
    return np.einsum("...i,...ij,...j->...", z, field.pair_matrices(x, y), z)


@pytest.mark.parametrize("variant, per_point", [
    ("constant", False),
    ("separable_sum", False),
    ("separable_sum", True),
    ("separable_product", False),
    ("separable_product", True),
])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_separable_form_matches_pair_matrices(dim, variant, per_point):
    cfg = {"variant": variant, "matrix": _BASES[dim], "s": 0.5, "amplitude": 0.3}
    field = spec_from_config(cfg).field
    rng = np.random.default_rng(dim)
    if per_point:
        # the bare per-point M is refused; looped over by the caller it serves
        bare = AnisotropyField(field.variant, dim, matrix_fn=one_point_fn(field))
        with pytest.raises(DomainError):
            bare.quadratic_form(rng.normal(size=(1, dim)), rng.normal(size=(1, dim)))
        field = looped(field)
    x, y = rng.uniform(-2.0, 2.0, size=(2, 30, dim))
    np.testing.assert_allclose(field.quadratic_form(x, y), explicit_form(field, x, y, x - y),
                               rtol=1e-14, atol=0.0)
    if variant == "constant":
        return
    # any z, not only x - y
    z = rng.normal(size=(30, dim))
    mx, my = field.single_point_matrices(x), field.single_point_matrices(y)
    np.testing.assert_allclose(field.separable_form(field.point_terms(mx, z), my, z),
                               explicit_form(field, x, y, z), rtol=1e-14, atol=0.0)
    # hoisted as along rays: the terms of x_i and theta_d, computed once,
    # serve y = x_i + rho theta_d at every radius, and z = rho theta_d
    # scales the form by rho^2
    xs, dirs = x[:3], rng.normal(size=(4, dim))
    rho = rng.uniform(0.1, 5.0, size=(3, 5, 4))
    ys = xs[:, None, None, :] + rho[..., None] * dirs
    tx = field.point_terms(field.single_point_matrices(xs)[:, None], dirs)
    mys = field.single_point_matrices(ys.reshape(-1, dim)).reshape(ys.shape + (dim,))
    got = rho * rho * field.separable_form(tx[:, None], mys, dirs)
    xb = np.broadcast_to(xs[:, None, None, :], ys.shape).reshape(-1, dim)
    zb = (rho[..., None] * dirs).reshape(-1, dim)
    np.testing.assert_allclose(got.reshape(-1), explicit_form(field, xb, ys.reshape(-1, dim), zb),
                               rtol=1e-14, atol=0.0)
