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
from nonlocal_dv.lattice import LatticeDomain, assemble
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
    # the two sides place their panels differently, and a ray crosses the
    # bump's edge, where the bump is not analytic, inside a panel: 16 nodes
    # per panel leave about 4e-7 of max|S| there, 64 nodes about 2e-10
    quad = QuadratureScheme(tail_tolerance=1e-12, radial_order=64, angular_count=8)
    cut = assemble(dom, spec, drift=drift, quad=quad).drift_far
    unbounded = SmoothFunction(drift.fn, drift.dim)
    assert unbounded.support_radius is None and unbounded.far_value == 0.0
    full = assemble(dom, spec, drift=unbounded, quad=quad).drift_far
    assert np.abs(full).max() > 0.0
    np.testing.assert_allclose(cut, full, rtol=0.0, atol=1e-9 * np.abs(full).max())
