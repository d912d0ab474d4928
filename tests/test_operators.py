"""Pointwise operator values against independently computed references.

Frozen reference values were produced with scipy.integrate adaptive
quadrature on the symmetrised second-difference form of the integral,
which shares no code with the node rules under test.
"""

import math

import numpy as np
import pytest
from conftest import rules
from scipy.special import roots_jacobi, roots_legendre

from nonlocal_dv import operators, verify
from nonlocal_dv.barriers import BarrierConfig, barrier_scan
from nonlocal_dv.spectral import maxprinciple_violation_demo
from nonlocal_dv.errors import DomainError
from nonlocal_dv.extrapolate import richardson_limit
from nonlocal_dv.kernels import (
    AnisotropyField,
    KernelSpec,
    fractional_kernel,
    spec_from_config,
)
from nonlocal_dv.operators import (
    QuadratureScheme,
    SmoothFunction,
    bump,
    carre_du_champ,
    gaussian,
    interval_power,
    nonlocal_laplacian,
    pointwise_forms,
    scaled,
    tanh_drift,
)


def gaussian_at_origin(dim, s):
    # closed form for exp(-|x|^2/2): value 2^s Gamma(dim/2+s)/Gamma(dim/2)
    return -(2.0**s) * math.gamma(dim / 2 + s) / math.gamma(dim / 2)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_gaussian_origin_1d(s):
    spec = fractional_kernel(1, s, normalized=True)
    got = nonlocal_laplacian(gaussian(1), spec, np.array([0.0]))
    assert got == pytest.approx(gaussian_at_origin(1, s), abs=1e-9)


@pytest.mark.parametrize("s", [0.3, 0.5])
def test_gaussian_origin_3d(s):
    spec = fractional_kernel(3, s, normalized=True)
    got = nonlocal_laplacian(gaussian(3), spec, np.zeros(3))
    assert got == pytest.approx(gaussian_at_origin(3, s), abs=1e-9)


# adaptive-quadrature references for exp(-x^2/2), normalized kernel
GAUSS_OFF_CENTER = {
    (0.5, 0.6): -0.542755681423,
    (0.3, 0.6): -0.599317092405,
    (0.7, -0.35): -0.723237196122,
}


@pytest.mark.parametrize("s,x", sorted(GAUSS_OFF_CENTER))
def test_gaussian_off_center_1d(s, x):
    spec = fractional_kernel(1, s, normalized=True)
    got = nonlocal_laplacian(gaussian(1), spec, np.array([x]))
    assert got == pytest.approx(GAUSS_OFF_CENTER[(s, x)], abs=2e-9)


# adaptive-quadrature references for the profile constant c(s) in
# L (1-x^2)_+^(1+s) = -c(s) (1 - (1+2s) x^2) on (-1, 1)
PROFILE_CONSTANT = {0.3: 1.161569954074, 0.5: 1.5, 0.7: 2.111687886093}


@pytest.mark.parametrize("s", sorted(PROFILE_CONSTANT))
def test_power_profile_shape(s):
    spec = fractional_kernel(1, s, normalized=True)
    u = interval_power(1.0 + s)
    c = PROFILE_CONSTANT[s]
    for x in (0.0, 0.2, 0.45, 0.62):
        got = nonlocal_laplacian(u, spec, np.array([x]))
        assert got == pytest.approx(-c * (1.0 - (1.0 + 2 * s) * x * x), abs=5e-7)


def _aniso_2d_spec():
    A = np.array([[2.0, 0.7], [0.7, 1.0]])
    return KernelSpec(AnisotropyField.constant(A), s=0.5, lower=0.5)


# the default scheme with every polynomial order doubled
_DOUBLED = QuadratureScheme(radial_order=32, angular_count=48, polar_order=16)


def test_anisotropic_2d_reference():
    # reference from per-angle adaptive radial quadrature plus exact tail
    spec = _aniso_2d_spec()
    u = gaussian(2, width=0.9)
    x = np.array([0.3, -0.2])
    (got,) = pointwise_forms(spec, x, [(u, None)], _DOUBLED)
    assert got == pytest.approx(-6.080733673283, abs=1e-8)


def test_refinement_converges():
    spec = _aniso_2d_spec()
    u = gaussian(2, width=0.9)
    x = np.array([0.3, -0.2])
    ref = -6.080733673283
    errs = [abs(pointwise_forms(spec, x, [(u, None)], quad)[0] - ref)
            for quad in (QuadratureScheme(), _DOUBLED)]
    assert errs[1] < errs[0]
    assert errs[1] < 1e-8


def test_product_rule_on_shared_rule():
    # L(uv) = u Lv + v Lu + 2 B(u, v) must hold to roundoff when every
    # term is evaluated on the same node rule
    spec = fractional_kernel(1, 0.5, normalized=True)
    u = gaussian(1, width=0.8)
    v = gaussian(1, width=1.3, center=[0.4])
    uv = SmoothFunction(lambda p: u(p) * v(p), 1,
                        support_radius=min(u.support_radius, v.support_radius))
    x = np.array([0.2])
    lhs, lv, lu, buv = pointwise_forms(spec, x, [(uv, None), (v, None), (u, None), (u, v)])
    rhs = u(x) * lv + v(x) * lu + 2.0 * buv
    assert lhs == pytest.approx(rhs, abs=1e-11)


def test_carre_du_champ_symmetric():
    spec = _aniso_2d_spec()
    u = gaussian(2, width=0.9)
    h = SmoothFunction(lambda p: 0.45 * np.tanh(p[:, 0]), 2)
    x = np.array([0.3, -0.2])
    assert carre_du_champ(u, h, spec, x) == pytest.approx(
        carre_du_champ(h, u, spec, x), rel=1e-13)


def test_drifted_is_sum_of_parts():
    # L u + B(u, h) on one rule shared by both terms, against each term on
    # its own rule
    spec = _aniso_2d_spec()
    u = gaussian(2, width=0.9)
    h = SmoothFunction(lambda p: 0.45 * np.tanh(p[:, 0]), 2)
    x = np.array([0.3, -0.2])
    lap, drift = pointwise_forms(spec, x, [(u, None), (u, h)])
    whole = lap + drift
    parts = (nonlocal_laplacian(u, spec, x) + carre_du_champ(u, h, spec, x))
    assert whole == pytest.approx(parts, rel=1e-6)


def test_limit_toward_classical_laplacian():
    # order s -> 1 with normalized kernel recovers Delta g(0) = -1 for
    # the unit gaussian; extrapolate in (1 - s)
    vals = []
    for s in (0.9, 0.95, 0.975):
        spec = fractional_kernel(1, s, normalized=True)
        vals.append(pointwise_forms(spec, np.array([0.0]), [(gaussian(1), None)],
                                    QuadratureScheme(radial_order=24))[0])
    limit = richardson_limit(vals, ratio=2.0).limit
    assert limit == pytest.approx(-1.0, abs=1e-2)


def test_inner_nodes_are_antipodal_pairs():
    spec = _aniso_2d_spec()
    quad = QuadratureScheme()
    rule = rules(spec, np.array([0.1, 0.2]), quad, (gaussian(2),))
    # the rule opens with one +node per radius and half-set direction
    m = quad.radial_order * quad.angular_count // 2
    plus = rule.offsets[:m]
    minus = rule.offsets[m:2 * m]
    assert np.allclose(plus, -minus)
    assert np.allclose(rule.weights[:m], rule.weights[m:2 * m])
    assert np.all(rule.weights >= 0)


def test_maximum_point_sign():
    # at a strict global max the generator must be strictly negative
    spec = fractional_kernel(2, 0.5, normalized=True)
    u = bump(2, radius=1.5)
    assert nonlocal_laplacian(u, spec, np.zeros(2)) < 0


def test_tail_mass_drops_with_radius():
    # quadrature radius tracks the integrand support; the kernel mass
    # left beyond it decays like R^(-2s)
    spec = fractional_kernel(1, 0.5, normalized=True)
    r1 = rules(spec, np.array([0.0]), QuadratureScheme(), (bump(1, radius=2.0),))
    r2 = rules(spec, np.array([0.0]), QuadratureScheme(), (bump(1, radius=8.0),))
    assert 0 < r2.tail_mass < r1.tail_mass
    assert r1.tail_mass == pytest.approx(4.0 * r2.tail_mass, rel=1e-10)


# --------------------------------------------------------------------------
# point arrays: one batch equals its points one by one, bit for bit

_MATRICES = {
    1: [[1.3]],
    2: [[1.2, 0.3], [0.3, 0.8]],
    3: [[1.1, 0.2, 0.0], [0.2, 0.9, 0.1], [0.0, 0.1, 1.4]],
}


def _batch_case(dim, variant):
    spec = spec_from_config({"variant": variant, "matrix": _MATRICES[dim], "s": 0.4})
    # kinked u: breakpoints, inner radius and quadrature radius all move
    # with the point; the points span the kink sphere and lie at several radii
    power, b = interval_power(0.7, dim), bump(dim, radius=0.8)
    u = SmoothFunction(lambda p: power(p) + b(p), dim, support_radius=1.0,
                       kink_points=power.kink_points,
                       kink_spheres=power.kink_spheres)
    h = tanh_drift(dim, amplitude=0.3)
    pts = np.random.default_rng(dim).uniform(-1.2, 1.2, size=(4, dim))
    return spec, u, h, pts


def _assert_same_rule(got, want):
    assert np.array_equal(got.x, want.x)
    assert np.array_equal(got.offsets, want.offsets)
    assert np.array_equal(got.weights, want.weights)
    assert got.tail_mass == want.tail_mass
    assert got.quad_radius == want.quad_radius


@pytest.mark.parametrize("variant", ["constant", "separable_sum", "separable_product"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_batch_equals_points(dim, variant):
    spec, u, h, pts = _batch_case(dim, variant)
    quad = QuadratureScheme()
    for fns in ((u,), (u, h)):
        batch = rules(spec, pts, quad, fns)
        assert len(batch) == len(pts)
        for x, rule in zip(pts, batch):
            _assert_same_rule(rule, rules(spec, x, quad, fns))
    assert len({r.quad_radius for r in batch}) == len(pts)
    lap = nonlocal_laplacian(u, spec, pts)
    drift = carre_du_champ(u, h, spec, pts)
    # L u + B(u, h) with both terms on the shared rules of (u, h)
    shared = pointwise_forms(spec, pts, [(u, None), (u, h)])
    whole = shared[0] + shared[1]
    for k, x in enumerate(pts):
        one = nonlocal_laplacian(u, spec, x)
        assert isinstance(one, float) and lap[k] == one
        assert drift[k] == carre_du_champ(u, h, spec, x)
        at_x = pointwise_forms(spec, x, [(u, None), (u, h)])
        assert at_x.shape == (2,)
        assert whole[k] == at_x[0] + at_x[1]


@pytest.mark.parametrize("variant", ["constant", "separable_product"])
def test_batch_across_kernel_chunks(monkeypatch, variant):
    spec, u, h, pts = _batch_case(2, variant)
    quad = QuadratureScheme()
    want = [rules(spec, x, quad, (u, h)) for x in pts]
    values = pointwise_forms(spec, pts, [(u, None), (u, h)])
    # 1000 rows per chunk: chunk edges fall inside points, and one point
    # spans several chunks
    monkeypatch.setattr(operators, "_KERNEL_CHUNK_BYTES", 1000 * 8 * (2 + 11))
    assert operators._chunk_rows(spec, 1) == 1000
    got = rules(spec, pts, quad, (u, h))
    assert min(len(r.weights) for r in got) > 2000
    for g, w in zip(got, want):
        _assert_same_rule(g, w)
    assert np.array_equal(pointwise_forms(spec, pts, [(u, None), (u, h)]), values)


@pytest.mark.parametrize("variant", ["constant", "separable_sum", "separable_product"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_rule_weights_are_isotropic_weights_times_kernel_ratio(dim, variant):
    # fns with support radii fix the radii and panels whatever the field,
    # so a field's rule has the nodes of the isotropic rule of the same s,
    # and each weight is the isotropic weight times K / K_iso at its offset,
    # with K from A(x, y) formed explicitly: this pins the geometric
    # factors.  Both nodes of an inner pair +-z take the mean of the two
    # values (K_iso is the same at +-z)
    spec, u, h, pts = _batch_case(dim, variant)
    iso = fractional_kernel(dim, spec.s)
    quad = QuadratureScheme()
    n_pair = quad.radial_order * len(operators._directions(dim, quad)[0]) // 2
    plus, minus = slice(0, n_pair), slice(n_pair, 2 * n_pair)
    for got, ref in zip(rules(spec, pts, quad, (u, h)), rules(iso, pts, quad, (u, h))):
        z = got.offsets
        assert np.array_equal(z, ref.offsets)
        x = np.broadcast_to(got.x, z.shape)
        form = np.einsum("mi,mij,mj->m", z, spec.field.pair_matrices(x, x + z), z)
        ratio = (spec.prefactor * form ** -spec.exponent
                 / (iso.prefactor * np.einsum("mi,mi->m", z, z) ** -spec.exponent))
        ratio[plus] = ratio[minus] = 0.5 * (ratio[plus] + ratio[minus])
        np.testing.assert_allclose(got.weights, ref.weights * ratio, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("variant", ["constant", "separable_sum", "separable_product"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_streamed_blocks_equal_points(monkeypatch, dim, variant):
    # a budget of about two points of nodes: the evaluator reads the rules
    # in several blocks whose edges fall between the points of one call,
    # for one form or for several on a shared rule set, with every value
    # unchanged
    spec, u, h, pts = _batch_case(dim, variant)
    quad = QuadratureScheme()
    lap = [nonlocal_laplacian(u, spec, x) for x in pts]
    drift = [carre_du_champ(u, h, spec, x) for x in pts]
    whole = [a + b for a, b in (pointwise_forms(spec, x, [(u, None), (u, h)]) for x in pts)]
    counts = [len(r.weights) for r in rules(spec, pts, quad, (u,))]
    rows = counts[0] + counts[1]
    monkeypatch.setattr(operators, "_KERNEL_CHUNK_BYTES", rows * 8 * (dim + 11))
    assert operators._chunk_rows(spec, 1) == rows
    blocks = [len(b) for b in operators._rule_blocks(spec, pts, quad, (u,))]
    assert len(blocks) > 1 and max(blocks) > 1
    assert nonlocal_laplacian(u, spec, pts).tolist() == lap
    assert carre_du_champ(u, h, spec, pts).tolist() == drift
    shared = pointwise_forms(spec, pts, [(u, None), (u, h)])
    assert len(list(operators._rule_blocks(spec, pts, quad, (u, h)))) > 1
    got = shared[0] + shared[1]
    assert got.tolist() == whole


@pytest.mark.parametrize("variant", ["constant", "separable_sum", "separable_product"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_forms_equal_each_form_alone(monkeypatch, dim, variant):
    # u and w = 2u have the same support and kinks, so every form of the
    # two below, taken alone, has a rule set of the same radii and kinks
    # as the shared one; each row equals it bit for bit, at every point of
    # the batch and at the point alone, with one point to a block and with
    # blocks that split points
    spec, u, h, pts = _batch_case(dim, variant)
    w = scaled(u, 2.0)
    forms = [(u, None), (w, None), (u, w), (w, u), (u, u)]
    want = np.array([pointwise_forms(spec, pts, [form])[0] for form in forms])
    for bytes_ in (None, 1000 * 8 * (dim + 11)):
        if bytes_ is not None:
            monkeypatch.setattr(operators, "_KERNEL_CHUNK_BYTES", bytes_)
        got = pointwise_forms(spec, pts, forms)
        assert got.shape == (len(forms), len(pts))
        assert np.array_equal(got, want)
        for k, x in enumerate(pts):
            assert np.array_equal(pointwise_forms(spec, x, forms), want[:, k])


def _counted(f, calls):
    """f with each call recorded in ``calls`` as its number of rows."""
    def fn(p):
        calls.append(len(p))
        return f(p)
    return SmoothFunction(fn, f.dim, support_radius=f.support_radius,
                          kink_points=f.kink_points, kink_spheres=f.kink_spheres,
                          far_value=f.far_value, plateau=f.plateau)


def test_each_function_is_called_once_per_block(monkeypatch):
    # on a rule set of several blocks each distinct function of the forms
    # is called twice per block, at the block's points and at its nodes,
    # however many forms name it
    spec, u, h, pts = _batch_case(2, "separable_sum")
    counts = [len(r.weights) for r in rules(spec, pts, QuadratureScheme(), (u, h))]
    monkeypatch.setattr(operators, "_KERNEL_CHUNK_BYTES", (counts[0] + counts[1]) * 8 * (2 + 11))
    blocks = [len(b) for b in operators._rule_blocks(spec, pts, QuadratureScheme(), (u, h))]
    assert len(blocks) > 1 and max(blocks) > 1
    calls = {"u": [], "h": []}
    cu, ch = _counted(u, calls["u"]), _counted(h, calls["h"])
    pointwise_forms(spec, pts, [(cu, None), (cu, ch), (ch, None), (ch, cu), (cu, cu)])
    nodes = [sum(counts[lo:lo + n]) for lo, n in zip(np.cumsum([0] + blocks), blocks)]
    for seen in calls.values():
        assert seen == [n for pair in zip(blocks, nodes) for n in pair]


@pytest.fixture
def rule_sets(monkeypatch):
    """``rule_sets()`` reads how many rule sets ``_rule_blocks`` has begun."""
    begun = []
    real = operators._rule_blocks

    def counted(*args, **kwargs):
        begun.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(operators, "_rule_blocks", counted)
    return lambda: len(begun)


def _barrier_config(delta):
    # the barrier-check of the benchmark's small_mix workload (delta 0.02)
    spec = spec_from_config({"variant": "constant", "matrix": _MATRICES[2], "s": 0.5,
                             "normalized": True})
    return BarrierConfig("ball", 0.75, delta, spec, h=tanh_drift(2, amplitude=0.3),
                         points=3, mesh=0.0025)


def test_barrier_scan_shares_one_rule_set(monkeypatch, rule_sets):
    # the sign ladder is the distance ladder at delta 0.02 (floor 0.01):
    # L and B(., h) of alpha and of both reference exponents on one rule
    # set, with d^alpha of each exponent and h each valued once at the
    # nodes (nine node calls when every form had a call of its own)
    rows = []
    real = SmoothFunction.__call__

    def counted(self, x):
        rows.append(len(np.atleast_2d(x)))
        return real(self, x)

    monkeypatch.setattr(SmoothFunction, "__call__", counted)
    rep = barrier_scan(_barrier_config(0.02))
    assert np.array_equal(rep.distances, np.geomspace(0.02, 0.01, 3))
    assert rule_sets() == 1
    nodes = [n for n in rows if n > len(rep.distances)]
    assert len(nodes) == 4 and len(set(nodes)) == 1


def test_barrier_scan_with_its_own_sign_ladder(rule_sets):
    # at delta 0.1 the sign window (0.05) gives a ladder of its own
    barrier_scan(_barrier_config(0.1))
    assert rule_sets() == 2


def test_shared_rule_sets_of_the_demo_and_the_identities(rule_sets):
    maxprinciple_violation_demo(0.5)
    assert rule_sets() == 1
    # two per dimension, 1 and 2
    assert verify._check_operator_identities(np.random.default_rng(0)).passed
    assert rule_sets() == 1 + 4


def test_carre_du_champ_memory_does_not_grow_with_points(traced_memory):
    # 20 points of this rule set hold 76,800 nodes, two blocks of at most
    # 40,329; with four times the points only the per-point radii, tail
    # masses and values grow, not the nodes held at once (with the whole
    # rule set held, the peak on 80 points is 2.4 times that on 20)
    spec = spec_from_config({"variant": "separable_product",
                             "matrix": _MATRICES[2], "s": 0.5})
    u, h = gaussian(2, width=0.7), tanh_drift(2, amplitude=0.3)
    rng = np.random.default_rng(0)
    carre_du_champ(u, h, spec, rng.uniform(-1.0, 1.0, size=(2, 2)))  # first-call allocations
    peaks = []
    for m in (20, 80):
        pts = rng.uniform(-1.0, 1.0, size=(m, 2))
        with traced_memory() as memory:
            carre_du_champ(u, h, spec, pts)
            peaks.append(memory().peak)
    assert peaks[1] <= 1.1 * peaks[0]


def test_point_shapes():
    spec = fractional_kernel(1, 0.5, normalized=True)
    u = gaussian(1)
    one = nonlocal_laplacian(u, spec, np.array([0.3]))
    batch = nonlocal_laplacian(u, spec, np.array([[0.3]]))
    assert isinstance(one, float)
    assert batch.shape == (1,) and batch[0] == one
    for dim in (1, 2, 3):
        spec = fractional_kernel(dim, 0.5)
        none = np.empty((0, dim))
        assert nonlocal_laplacian(gaussian(dim), spec, none).shape == (0,)
        assert carre_du_champ(gaussian(dim), bump(dim), spec, none).shape == (0,)
        forms = [(gaussian(dim), None), (gaussian(dim), bump(dim))]
        assert pointwise_forms(spec, none, forms).shape == (2, 0)
        assert rules(spec, none, QuadratureScheme(), ()) == []
    with pytest.raises(DomainError):
        pointwise_forms(fractional_kernel(2, 0.5), np.zeros((2, 4)), [(gaussian(2), None)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape", [(3,), (2, 2, 2), (1, 1, 2)])
def test_points_of_another_shape_raise(shape):
    # x is one point (dim,) or an (m, dim) array; before, (3,) and
    # (2, 2, 2) raised a bare ValueError from a reshape and (1, 1, 2) was
    # taken as one point
    spec = fractional_kernel(2, 0.5)
    u, v = gaussian(2), bump(2)
    x = np.zeros(shape)
    with pytest.raises(DomainError, match="points must have shape"):
        pointwise_forms(spec, x, [(u, None), (u, v)])
    with pytest.raises(DomainError, match="points must have shape"):
        nonlocal_laplacian(u, spec, x)
    with pytest.raises(DomainError, match="points must have shape"):
        carre_du_champ(u, v, spec, x)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("point, message", [
    ([1e200, 0.0], "no finite distance from the origin \\(inf\\)"),
    ([0.0, -np.inf], "no finite distance from the origin \\(inf\\)"),
    ([np.nan, 0.3], "no finite distance from the origin \\(nan\\)"),
], ids=["overflowing-norm", "infinite", "nan"])
def test_point_without_finite_distance_gets_no_rule(monkeypatch, point, message):
    # before, [1e200, 0] ran to nan through three RuntimeWarnings; now each
    # entry point raises before any node is made (no far field, no kernel)
    def no_nodes(*args, **kwargs):
        raise AssertionError("a rule node was made")

    monkeypatch.setattr(operators, "far_field", no_nodes)
    monkeypatch.setattr(operators, "_ray_constants", no_nodes)
    monkeypatch.setattr(operators, "_ray_kernel", no_nodes)
    spec = fractional_kernel(2, 0.5)
    u, v = gaussian(2, 0.7), bump(2)
    pts = np.array([[0.1, 0.2], point])
    with pytest.raises(DomainError, match=message):
        pointwise_forms(spec, pts, [(u, None), (u, v)])
    with pytest.raises(DomainError, match=message):
        nonlocal_laplacian(u, spec, pts)
    with pytest.raises(DomainError, match=message):
        carre_du_champ(u, v, spec, pts)


@pytest.mark.filterwarnings("error")
def test_infinite_support_radius_gets_no_rule():
    spec = fractional_kernel(2, 0.5)
    g = gaussian(2)
    wide = SmoothFunction(g, 2, support_radius=np.inf)
    with pytest.raises(DomainError, match="quadrature radius inf"):
        nonlocal_laplacian(wide, spec, np.array([0.1, 0.2]))


def test_batch_makes_one_far_field_call(monkeypatch):
    # each rule set of a batch forms its ray constants once and takes all
    # its tail masses from them in one far-field pass (what far_field runs)
    calls = {"_ray_constants": [], "_ray_integrals": []}

    def counting(name):
        real = getattr(operators, name)

        def counted(spec, pts, *args, **kwargs):
            calls[name].append(len(pts))
            return real(spec, pts, *args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(operators, name, counting(name))
    spec, u, h, pts = _batch_case(2, "separable_product")
    nonlocal_laplacian(u, spec, pts)
    carre_du_champ(u, h, spec, pts)
    pointwise_forms(spec, pts, [(u, None), (u, h)])
    assert calls == {name: [len(pts)] * 3 for name in calls}


# orders of the package's Gauss rules: the polar rule (8), the radial
# rules (16 by default, 32 in the barrier scan and verify), the layer
# rules (64, 128) and the bump mass (128, 256); the Jacobi rules carry
# beta = 1 - 2s for the radial orders
_LEGENDRE_ORDERS = (8, 16, 32, 64, 128, 256)
_JACOBI_ORDERS = (16, 32, 64)


@pytest.mark.parametrize("n", _LEGENDRE_ORDERS)
def test_gauss_legendre_rule_matches_scipy(n):
    x, w = operators._gauss_rule(n)
    xs, ws = roots_legendre(n)
    assert np.abs(x - xs).max() <= 1e-15
    assert np.abs(w - ws).max() <= 1e-13


@pytest.mark.parametrize("n", _JACOBI_ORDERS)
def test_gauss_jacobi_rule_matches_scipy(n):
    k = np.arange(2 * n)
    for s in np.linspace(0.05, 0.95, 19):
        beta = 1.0 - 2.0 * s
        x, w = operators._gauss_rule(n, beta)
        xs, ws = roots_jacobi(n, 0.0, beta)
        assert np.abs(x - xs).max() <= 1e-14
        # this bound is scipy's error: at n = 64 its weights are up to
        # 3e-11 relative from a 34-digit Golub-Welsch, ours 2e-13; the
        # moments below are the tight check
        assert np.abs(w / ws - 1.0).max() <= 1e-10
        # exact on degree 2n - 1: the moments of (1 + x)^k for the weight
        # (1 + x)^beta are 2^(beta + k + 1) / (beta + k + 1)
        moments = ((1.0 + x)[None, :] ** k[:, None]) @ w
        exact = 2.0 ** (beta + k + 1.0) / (beta + k + 1.0)
        assert np.abs(moments / exact - 1.0).max() <= 1e-13


def test_gauss_rules_are_cached_and_read_only():
    for beta in (0.0, 0.4):
        x, w = operators._gauss_rule(16, beta)
        assert operators._gauss_rule(16, beta)[0] is x
        for arr in (x, w):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
