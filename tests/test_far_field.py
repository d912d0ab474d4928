"""The exterior integrals of ``operators.far_field`` against exact values.

A ``separable_sum`` field with zero amplitude and base matrix A/2 is the
constant field A, but its kernel mass takes the separable route
(``operators._ray_closures``), so it can be checked against the
constant-field closed form.  The drift far field of ``assemble`` stops
its rays where the drift enters a declared plateau or leaves its declared
support, and adds the rest through the kernel mass; with neither
declared the rays run on until the drift stops varying, which gives the
reference.
"""

import numpy as np
import pytest
from conftest import pair_weights, rules

from nonlocal_dv import operators
from nonlocal_dv.kernels import AnisotropyField, KernelSpec, spec_from_config
from nonlocal_dv.lattice import LatticeDomain, _box_exit_distances, _self_cell_moments, assemble
from nonlocal_dv.operators import (
    QuadratureScheme,
    SmoothFunction,
    _directions,
    bump,
    far_field,
    shifted,
    tanh_drift,
)

_MATRICES = {
    1: [[1.3]],
    2: [[1.2, 0.3], [0.3, 0.8]],
    3: [[1.1, 0.2, 0.0], [0.2, 0.9, 0.1], [0.0, 0.1, 1.4]],
}
_LATTICES = {
    1: ([-1.0], [1.0], [16], 0.5),
    2: ([-1.0, -1.0], [1.0, 1.0], [8, 8], 0.25),
    3: ([-1.0] * 3, [1.0] * 3, [4, 4, 4], 0.5),
}


@pytest.mark.parametrize("s", [0.3, 0.7])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_panel_kernel_mass_matches_closed_form(dim, s):
    a = np.asarray(_MATRICES[dim])
    const = spec_from_config({"variant": "constant", "matrix": a.tolist(), "s": s})
    panels = spec_from_config({"variant": "separable_sum", "matrix": (a / 2).tolist(),
                               "s": s, "amplitude": 0.0})
    quad = QuadratureScheme(angular_count=8, polar_order=2)
    n_dirs = len(_directions(dim, quad)[0])
    rng = np.random.default_rng(dim)
    for x in rng.uniform(-1.0, 1.0, size=(3, dim)):
        for r in (0.5, 3.0, 40.0):
            start = np.full((1, n_dirs), r)
            exact = far_field(const, x[None, :], start, quad)
            got = far_field(panels, x[None, :], start, quad)
            assert got == pytest.approx(exact, rel=1e-5)
    lower, upper, cells, margin = _LATTICES[dim]
    dom = LatticeDomain.box(lower, upper, cells, margin=margin)
    exact = assemble(dom, const, quad=quad).box_tail
    got = assemble(dom, panels, quad=quad).box_tail
    np.testing.assert_allclose(got, exact, rtol=1e-5)


# reaches past the box, on a plateau, so both terms of the split count
_BUMP = shifted(bump(2, center=[0.4, 0.0], radius=1.0, amplitude=0.5), 0.3)


@pytest.mark.parametrize("variant, drift", [
    ("constant", _BUMP),
    ("separable_sum", _BUMP),
    ("constant", tanh_drift(2, amplitude=0.3, slope=2.0)),
])
def test_drift_far_field_cut_at_support(variant, drift):
    spec = spec_from_config({"variant": variant, "matrix": _MATRICES[2], "s": 0.5})
    dom = LatticeDomain.box([-1.0, -1.0], [1.0, 1.0], [8, 8], margin=0.25)
    # the unbounded side has no support radius, so no panel edge where a
    # ray leaves it, and its rays cross the bump's edge, where the bump is
    # not analytic, inside a panel: 16 nodes per panel leave about 4e-7 of
    # max|S| there, 64 nodes about 2e-10
    quad = QuadratureScheme(tail_tolerance=1e-12, radial_order=64, angular_count=8)
    cut = assemble(dom, spec, drift=drift, quad=quad).drift_far
    unbounded = SmoothFunction(drift.fn, drift.dim)
    assert unbounded.support_radius is None and unbounded.far_value == 0.0
    full = assemble(dom, spec, drift=unbounded, quad=quad).drift_far
    assert np.abs(full).max() > 0.0
    np.testing.assert_allclose(cut, full, rtol=0.0, atol=1e-9 * np.abs(full).max())


def test_drift_far_field_split_at_support_exit():
    # at the default 16 nodes, the panel edge where each ray leaves the
    # ball of the support radius keeps the bump's edge in a short panel:
    # about 7e-11 of max|S| from the 64-node values, 6e-7 without the edge
    spec = spec_from_config({"variant": "constant", "matrix": _MATRICES[2], "s": 0.5})
    dom = LatticeDomain.box([-1.0, -1.0], [1.0, 1.0], [8, 8], margin=0.25)
    got = assemble(dom, spec, drift=_BUMP, quad=QuadratureScheme(angular_count=8)).drift_far
    fine = QuadratureScheme(tail_tolerance=1e-12, radial_order=64, angular_count=8)
    ref = assemble(dom, spec, drift=_BUMP, quad=fine).drift_far
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-9 * np.abs(ref).max())


# nodes of 40-cell box lattices on [-1.3, 1.3]^2 where one panel of the
# tanh drift sums to nearly 0 over its rays while each ray still adds about
# 1e-2: a stop on the panel sum loses 1e-4 of the far field there, with
# (first case) and without (second case) a panel edge at the support exit
_CANCELLING = [
    ([[2.2073872906685277, -0.1874812713828642],
      [-0.18748127138286427, 2.2883280870706737]], 0.2898360228401422, [-0.925, 1.275]),
    ([[1.4981354596968544, 0.5814691021108505],
      [0.5814691021108503, 1.1847300125004432]], 0.39870519819088523, [-0.625, -0.775]),
]


@pytest.mark.parametrize("matrix, amplitude, node", _CANCELLING)
def test_drift_far_field_stop_ignores_cancelling_rays(matrix, amplitude, node):
    spec = spec_from_config({"variant": "constant", "s": 0.5, "matrix": matrix})
    drift = tanh_drift(2, amplitude=amplitude, slope=2.0)
    quad = QuadratureScheme()
    x = np.array([node])
    start = _box_exit_distances(x, np.full(2, -1.3), np.full(2, 1.3),
                                _directions(2, quad)[0])
    got = far_field(spec, x, start, quad, g=drift)
    ref = far_field(spec, x, start, QuadratureScheme(tail_tolerance=1e-12), g=drift)
    np.testing.assert_allclose(got, ref, rtol=1e-9)


@pytest.mark.parametrize("variant", ["constant", "separable_sum", "separable_product"])
def test_far_field_chunks_change_no_bit(monkeypatch, variant):
    spec = spec_from_config({"variant": variant, "matrix": _MATRICES[2], "s": 0.5})
    dom = LatticeDomain.box([-1.0, -1.0], [1.0, 1.0], [8, 8], margin=0.25)
    drift = tanh_drift(2, amplitude=0.3, slope=2.0)
    quad = QuadratureScheme(angular_count=8)
    n_dirs = len(_directions(2, quad)[0])
    samples = quad.radial_order * n_dirs
    start = np.random.default_rng(2).uniform(0.2, 3.0, size=(len(dom.points), n_dirs))
    whole = assemble(dom, spec, drift=drift, quad=quad)
    mass = far_field(spec, dom.points, start, quad)
    assert operators._chunk_rows(spec, samples) >= len(dom.points)
    # three nodes per chunk, so every panel step of the 100 nodes is split
    monkeypatch.setattr(operators, "_KERNEL_CHUNK_BYTES", 3 * 8 * (2 + 11) * samples)
    assert operators._chunk_rows(spec, samples) == 3
    chunked = assemble(dom, spec, drift=drift, quad=quad)
    assert np.array_equal(far_field(spec, dom.points, start, quad), mass)
    assert np.array_equal(chunked.box_tail, whole.box_tail)
    assert np.array_equal(chunked.drift_far, whole.drift_far)
    # the self-cell moments are chunked the same way
    assert np.array_equal(pair_weights(chunked), pair_weights(whole))


@pytest.mark.parametrize("case", ["constant-box", "separable_sum-box", "ball", "interval"])
def test_far_field_rows_are_the_interior_rows_of_the_box(case):
    # assemble takes the far field at the interior nodes alone; every ray
    # is computed alone, so T and S there are, bit for bit, the interior
    # rows of one far_field call on every box node
    dim = 1 if case == "interval" else 2
    variant = "separable_sum" if case == "separable_sum-box" else "constant"
    spec = spec_from_config({"variant": variant, "matrix": _MATRICES[dim], "s": 0.5})
    if case == "ball":
        dom = LatticeDomain.ball([0.25, 0.0], 1.0, 8, margin=0.3)
    else:
        lower, upper, cells, margin = _LATTICES[dim]
        dom = LatticeDomain.box(lower, upper, cells, margin=margin)
    drift = tanh_drift(dim, amplitude=0.3, slope=2.0)
    quad = QuadratureScheme(angular_count=8)
    start = _box_exit_distances(dom.points, dom.lower, dom.upper,
                                _directions(dim, quad)[0])
    tails, far = far_field(spec, dom.points, start, quad, g=drift)
    far += (drift.far_value - drift(dom.points)) * tails
    mask = dom.interior_mask
    assert not mask.all()
    op = assemble(dom, spec, drift=drift, quad=quad)
    assert np.array_equal(op.box_tail, tails[mask])
    assert np.array_equal(op.drift_far, far[mask])
    plain = assemble(dom, spec, quad=quad)
    assert np.array_equal(plain.box_tail, far_field(spec, dom.points, start, quad)[mask])


def test_far_field_memory_is_bounded_in_bytes(monkeypatch, traced_memory):
    # 196 nodes x 384 samples per panel step would hold about 8 MB at once;
    # in chunks the call stays within the budget plus a few arrays of one
    # double per node and ray (about 6, measured on 2D boxes of 10 to 40 cells)
    spec = spec_from_config({"variant": "separable_product", "matrix": _MATRICES[2], "s": 0.5})
    dom = LatticeDomain.box([-1.0, -1.0], [1.0, 1.0], [10, 10], margin=0.3)
    drift = tanh_drift(2, amplitude=0.3, slope=2.0)
    quad = QuadratureScheme()
    dirs = _directions(2, quad)[0]
    start = _box_exit_distances(dom.points, dom.lower, dom.upper, dirs)
    budget = 1 << 20
    monkeypatch.setattr(operators, "_KERNEL_CHUNK_BYTES", budget)
    far_field(spec, dom.points[:1], start[:1], quad, g=drift)  # first-call allocations
    with traced_memory() as memory:
        far_field(spec, dom.points, start, quad, g=drift)
        peak = memory().peak
    assert peak < budget + 8 * 8 * len(dom.points) * len(dirs)


@pytest.mark.parametrize("variant", ["separable_sum", "separable_product"])
def test_profile_sees_each_node_once_and_only_phases(variant):
    # b(x) = f(k . x) is evaluated once per node or point, not on a copy
    # of x for every sample, and the profile only ever receives 1-D arrays
    # of phases: no sample forms an (m, dim, dim) stack.  No sample phase
    # k . y lands on a node phase here
    spec = spec_from_config({"variant": variant, "matrix": _MATRICES[2], "s": 0.5})
    seen = []

    def recording(t):
        seen.append(np.array(t))
        return spec.field.profile(t)

    field = AnisotropyField(variant, spec.field.matrix, wave=spec.field.wave,
                            profile=recording, period=spec.field.period)
    counted = KernelSpec(field, s=spec.s, lower=spec.lower)
    pts = np.array([[0.1, -0.2], [0.7, 0.4], [-0.5, 0.9]])
    node_phases = pts @ field.wave
    quad = QuadratureScheme(angular_count=8)
    start = np.full((len(pts), 8), 0.3)
    drift = tanh_drift(2, amplitude=0.3, slope=2.0)
    for stage in (lambda: far_field(counted, pts, start, quad),
                  lambda: far_field(counted, pts, start, quad, g=drift),
                  lambda: rules(counted, pts, quad, (drift,)),
                  lambda: _self_cell_moments(counted, pts, quad, 0.25)):
        seen.clear()
        stage()
        assert all(t.ndim == 1 for t in seen)
        phases = np.concatenate(seen)
        assert len(phases) > 100 * len(pts)
        assert [(phases == k).sum() for k in node_phases] == [1] * len(pts)


@pytest.mark.parametrize("variant", ["separable_sum", "separable_product"])
def test_per_point_profile_through_hoisted_kernels(variant):
    # b(x) is evaluated once per node and b(y) on arrays of samples; a
    # per-point profile that the caller loops over each batch gives the
    # values of the batch profile at both
    spec = spec_from_config({"variant": variant, "matrix": _MATRICES[2], "s": 0.5})
    fn = spec.field.profile
    field = AnisotropyField(variant, spec.field.matrix, wave=spec.field.wave,
                            profile=lambda t: np.array([fn(np.array([ti]))[0] for ti in t]),
                            period=spec.field.period)
    looped = KernelSpec(field, s=spec.s, lower=spec.lower)
    dom = LatticeDomain.box([-1.0, -1.0], [1.0, 1.0], [4, 4])
    drift = tanh_drift(2, amplitude=0.3, slope=2.0)
    quad = QuadratureScheme(angular_count=4, tail_tolerance=1e-4)
    want = assemble(dom, spec, drift=drift, quad=quad)
    got = assemble(dom, looped, drift=drift, quad=quad)
    np.testing.assert_allclose(pair_weights(got), pair_weights(want), rtol=1e-13, atol=0.0)
    for name in ("box_tail", "drift_far"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-13, atol=0.0)
    pts = dom.points[:3]
    for g, w in zip(rules(looped, pts, quad, (drift,)), rules(spec, pts, quad, (drift,))):
        np.testing.assert_allclose(g.weights, w.weights, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(g.tail_mass, w.tail_mass, rtol=1e-13, atol=0.0)


# nodes of the 16-cell box lattice on [-1, 1]^2 with margin 0.3: the four
# where the default drift far field is furthest from the order-64 values,
# and (last) the node of max|S| over the lattice
_FAR_NODES = np.array([[1.3125, -1.0625], [-1.3125, -0.0625], [-1.0625, 1.3125],
                       [-0.9375, 0.0625], [-0.3125, -1.3125]])


def test_drift_far_field_convergence_on_separable_field():
    # S_i = Int_{outside the box} (h - h(x_i)) K for a separable_sum field,
    # whose M(y) = base + 0.1 sin(y_1 + y_2) I oscillates along every ray
    spec = spec_from_config({"variant": "separable_sum", "matrix": _MATRICES[2], "s": 0.5})
    dom = LatticeDomain.box([-1.0, -1.0], [1.0, 1.0], [16, 16], margin=0.3)
    drift = tanh_drift(2, amplitude=0.3, slope=2.0)

    def far(order, tolerance, g=drift):
        quad = QuadratureScheme(radial_order=order, tail_tolerance=tolerance)
        start = _box_exit_distances(_FAR_NODES, dom.lower, dom.upper, _directions(2, quad)[0])
        mass, g_part = far_field(spec, _FAR_NODES, start, quad, g=g)
        return g_part + (g.far_value - g(_FAR_NODES)) * mass

    ref = far(256, 1e-12)  # orders 64 and 128 agree with it to 3e-14 of max|S|
    scale = np.abs(ref).max()

    def err(order, tolerance, g=drift):
        return np.abs(far(order, tolerance, g) - ref).max() / scale

    # the default scheme (16 nodes, tolerance 1e-6): 1.2e-10 of max|S|
    # (7.6e-5 when the panels ran on to the tolerance)
    assert err(16, 1e-6) < 1e-8
    # the error is the closures': one period per panel resolves the ridge
    # b(y) = 0.1 sin(y_1 + y_2), so 128 nodes leave the same 1.2e-10, and
    # the tail tolerance sets it: 8.3e-13 at 1e-8, and at 1e-10 the 1.5e-13
    # of the 16-node panels (2.3e-15 at 32 nodes)
    assert err(128, 1e-6) < 1e-8
    tail = [err(16, tol) for tol in (1e-6, 1e-8, 1e-10)]
    assert tail[0] > tail[1] > tail[2]
    assert tail[1] < 1e-11 and tail[2] < 1e-12
    assert err(32, 1e-10) < 1e-14
    # with neither plateau nor support the rays run on until the drift
    # stops varying and agree to 1.2e-15; with the support alone they stop
    # at |x| + 40 and the antipodal closure is 3.3e-6 off, since the
    # kernel values at x + z and x - z differ
    assert err(256, 1e-12, SmoothFunction(drift.fn, 2)) < 1e-13
    assert err(256, 1e-12, SmoothFunction(drift.fn, 2, support_radius=40.0)) > 1e-6

def _tilted_tanh(dim, e, amplitude=0.3, slope=2.0):
    # a tanh(k y . e), its plateaus declared where tanh rounds to +-1
    def fn(pts):
        return amplitude * np.tanh(slope * (pts @ e))

    return SmoothFunction(fn, dim, support_radius=40.0,
                          plateau=(e, 20.0 / slope, amplitude, -amplitude))


@pytest.mark.parametrize("variant, dim", [
    ("constant", 1), ("constant", 2), ("constant", 3), ("separable_sum", 2), ("separable_sum", 3),
])
def test_plateau_closure_matches_rays_run_on(variant, dim):
    # the rays close where they enter a plateau; with the plateau and the
    # support stripped they run on until g stops varying.  For dim > 1 the
    # plateaus are parallel to the first direction, whose rays never enter
    # one and so run on in both.  They agree to 3e-15 of max|S|
    a = np.asarray(_MATRICES[dim])
    cfg = {"variant": variant, "matrix": (a if variant == "constant" else a / 2).tolist(),
           "s": 0.5}
    spec = spec_from_config(cfg)
    quad = QuadratureScheme(radial_order=64, tail_tolerance=1e-12, angular_count=8,
                            polar_order=2)
    theta = _directions(dim, quad)[0][0]
    e = np.array([1.0]) if dim == 1 else np.concatenate([[-theta[1], theta[0]],
                                                         np.zeros(dim - 2)])
    drift = _tilted_tanh(dim, e)
    if dim > 1:
        assert np.einsum("da,a->d", _directions(dim, quad)[0], e)[0] == 0.0
    lower, upper, cells, margin = _LATTICES[dim]
    dom = LatticeDomain.box(lower, upper, cells, margin=margin)
    closed = assemble(dom, spec, drift=drift, quad=quad).drift_far
    stripped = SmoothFunction(drift.fn, dim)
    run_on = assemble(dom, spec, drift=stripped, quad=quad).drift_far
    scale = np.abs(run_on).max()
    assert scale > 0.0
    np.testing.assert_allclose(closed, run_on, rtol=0.0, atol=1e-10 * scale)


def test_far_field_samples_on_the_separable_lattice():
    # the lattice of the benchmark's eigen-separable-sum command (16 cells,
    # margin 0.3, 484 nodes).  While every node stepped all its rays until
    # its slowest ray was done, and the separable kernel mass ran its panels
    # out to the tail tolerance, assembly handed the profile 5,475,472 phases
    # and the drift 1,556,452 points (484 of them the node values).  The
    # drift's points cannot halve as the phases do: the rays of the drift
    # run to where they enter a plateau, up to 88 units out on the rays
    # nearly parallel to the plateaus, in panels of at most one period of
    # the profile
    spec = spec_from_config({"variant": "separable_sum", "matrix": _MATRICES[2], "s": 0.5})
    phases, points = [], []

    def profile(t):
        phases.append(np.array(t))
        return spec.field.profile(t)

    def fn(pts):
        points.append(np.array(pts))
        return drift.fn(pts)

    field = AnisotropyField("separable_sum", spec.field.matrix, wave=spec.field.wave,
                            profile=profile, period=spec.field.period)
    drift = tanh_drift(2, amplitude=0.3, slope=2.0)
    counted = SmoothFunction(fn, 2, support_radius=drift.support_radius,
                             plateau=drift.plateau)
    dom = LatticeDomain.box([-1.0, -1.0], [1.0, 1.0], [16, 16], margin=0.3)
    assemble(dom, KernelSpec(field, s=spec.s, lower=spec.lower), drift=counted)
    assert sum(len(t) for t in phases) <= 5475472 // 2
    assert sum(len(p) for p in points) <= 0.8 * 1556452
    # no panel is evaluated with zero width: its first and last of 16 nodes
    # differ.  A call takes the nodes in order, each for all rays of the
    # step; the first call of the drift is the node values
    order = QuadratureScheme().radial_order
    for y in points[1:]:
        panel = y.reshape(order, -1, 2)
        assert np.all(np.any(panel[0] != panel[-1], axis=1))
    for t in phases:
        if len(t) % order == 0:
            panel = t.reshape(order, -1)
            assert np.all(panel[0] != panel[-1])
