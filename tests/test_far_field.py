"""The exterior integrals of ``operators.far_field`` against exact values.

A ``separable_sum`` field with zero amplitude and base matrix A/2 is the
constant field A, but it takes the geometric-panel route, so its kernel
mass can be checked against the constant-field closed form.  The drift
far field of ``assemble`` stops its rays at the drift's declared support
and adds the rest through the kernel mass; with no support declared the
rays run on, which gives the reference.
"""

import numpy as np
import pytest

from nonlocal_dv.kernels import spec_from_config
from nonlocal_dv.lattice import LatticeDomain, _box_exit_distances, assemble
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
