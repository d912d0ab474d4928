"""Property tests: every pair form against a pairwise double sum.

The lattice evaluates 1/2 Sum W_ij du dv through the row-sum identity on
centred inputs (``_box_pair_form``).  Here each form is compared with a
direct sum over node pairs on random lattices: dims 1-3, random order s,
SPD base matrices, margins and all three anisotropy variants.  Errors
are measured against the sum of the absolute pair terms, which equals
the value itself for energies (u = v).  Nearly constant inputs (level 1,
oscillation 1e-6) lose about six digits unless the inputs are centred.
An operator keeps only the interior rows of W; the double sums run over
every row of the box, from the weights of the same lattice with every
node made interior.  The package holds no W: every form streams it
through one pass over its chunks (``_pair_pass``), which is compared
here with the W that the tests gather (``conftest.pair_weights``).
"""

import dataclasses

import numpy as np
from conftest import pair_weights
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nonlocal_dv import lattice, recovery, verify
from nonlocal_dv.kernels import spec_from_config
from nonlocal_dv.lattice import LatticeDomain, _box_pair_form, assemble, kernel_form
from nonlocal_dv.operators import QuadratureScheme, SmoothFunction
from nonlocal_dv.rate import drift_pairing

REL = 1e-12

# the identities do not depend on the quadrature, so a coarse scheme keeps
# the variable-field tails cheap
_QUAD = QuadratureScheme(radial_order=4, angular_count=8, polar_order=2)

_CELLS = {1: (6, 16), 2: (3, 6), 3: (2, 3)}


def _pairwise_rows(W, u, v):
    """rho_i = 1/2 Sum_j W_ij (u_j - u_i)(v_j - v_i), and the same sum
    of absolute terms, one row at a time."""
    rows = np.empty(len(u))
    scale = np.empty(len(u))
    for i in range(len(u)):
        terms = 0.5 * W[i] * (u - u[i]) * (v - v[i])
        rows[i] = terms.sum()
        scale[i] = np.abs(terms).sum()
    return rows, scale


def _close(value, reference, scale):
    return abs(value - reference) <= REL * scale


def _whole_box(op, quad):
    """The operator of the same lattice with every node interior: its
    pair weights are W on every row of the box, and their interior rows
    are those of ``op`` bit for bit."""
    dom = op.domain
    whole = dataclasses.replace(dom, interior_mask=np.ones(len(dom.points), dtype=bool))
    box = assemble(whole, op.spec, quad=quad)
    assert np.array_equal(pair_weights(box)[dom.interior_mask], pair_weights(op))
    return box


@st.composite
def lattice_cases(draw):
    dim = draw(st.integers(1, 3))
    variant = draw(st.sampled_from(["constant", "separable_sum",
                                    "separable_product"]))
    s = draw(st.floats(0.2, 0.8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    matrix = q @ np.diag(rng.uniform(0.6, 2.5, size=dim)) @ q.T
    spec = spec_from_config({"variant": variant, "matrix": matrix.tolist(),
                             "s": s, "normalized": True})
    cells = draw(st.integers(*_CELLS[dim]))
    margin = draw(st.sampled_from([0.0, 0.3, 0.6]))
    dom = LatticeDomain.box([-1.0] * dim, [1.0] * dim, [cells] * dim,
                            margin=margin)
    return spec, dom, rng


def _inputs(rng, n, near_constant):
    if near_constant:
        return 1.0 + 1e-6 * rng.normal(size=n), 1.0 + 1e-6 * rng.normal(size=n)
    return rng.normal(size=n), rng.normal(size=n)


_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True,
                     database=None, suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(case=lattice_cases(), near_constant=st.booleans())
def test_energy_forms_match_pairwise_sum(case, near_constant):
    spec, dom, rng = case
    op = assemble(dom, spec, quad=_QUAD)
    box = _whole_box(op, _QUAD)
    W = pair_weights(box)
    mask = dom.interior_mask
    vol = dom.cell_volume
    u, v = _inputs(rng, op.n, near_constant)

    # pair form of a lattice with no exterior node, where it has no
    # exterior columns: inputs on every node stay nearly constant here
    a_box, b_box = _inputs(rng, len(dom.points), near_constant)
    for a, b in ((a_box, a_box), (a_box, b_box)):
        rows, scale = _pairwise_rows(W, a, b)
        form = _box_pair_form(box, a[None], b[None], 0.0)[0][0]
        assert _close(form, rows.sum() * vol, scale.sum() * vol)

    # full form: zero extension to the box plus the beyond-box tail
    full_u = np.zeros(len(dom.points))
    full_v = np.zeros(len(dom.points))
    full_u[mask] = u
    full_v[mask] = v
    rows, scale = _pairwise_rows(W, full_u, full_v)
    tail = u * v * op.box_tail
    ref = (rows.sum() + tail.sum()) * vol
    assert _close(kernel_form(op, u, v), ref,
                  (scale.sum() + np.abs(tail).sum()) * vol)
    # a stack of pairs gives each pair's form bit for bit: every pair takes
    # its own product on each chunk of W in their one pass
    stacked = kernel_form(op, np.stack([u, v, u], axis=1), np.stack([v, u, u], axis=1))
    assert list(stacked) == [kernel_form(op, u, v), kernel_form(op, v, u),
                             kernel_form(op, u)]

    # per node: the pair rows of the zero extension plus half the tail are
    # 1/2 [M(uv) - u Mv - v Mu] for the drift-free matrix M
    M = op.matrix
    bracket = 0.5 * (M @ (u * v) - u * (M @ v) - v * (M @ u))
    ref_rows = rows[mask] + 0.5 * tail
    assert np.all(np.abs(bracket - ref_rows)
                  <= REL * (scale[mask] + 0.5 * np.abs(tail)))


@st.composite
def drifts(draw, dim):
    kind = draw(st.sampled_from(["tanh", "near_constant", "constant"]))
    if kind == "tanh":
        amp = draw(st.floats(0.1, 0.45))
        return kind, SmoothFunction(lambda p: amp * np.tanh(2.0 * p[:, 0]),
                                    dim, support_radius=40.0)
    if kind == "near_constant":
        return kind, SmoothFunction(
            lambda p: 1.0 + 1e-6 * np.sin(3.0 * p.sum(axis=1)), dim,
            support_radius=40.0)
    return kind, SmoothFunction(lambda p: np.full(len(p), 0.7), dim,
                                support_radius=0.5, far_value=0.7)


@_SETTINGS
@given(case=lattice_cases(), data=st.data())
def test_drift_forms_match_pairwise_sum(case, data):
    spec, dom, rng = case
    kind, drift = data.draw(drifts(dom.dim))
    op = assemble(dom, spec, drift=drift, quad=_QUAD)
    W = pair_weights(_whole_box(op, _QUAD))
    mask = dom.interior_mask
    h = op.drift_values
    f = rng.uniform(0.0, 1.0, size=op.n)
    full_f = np.zeros(len(dom.points))
    full_f[mask] = f

    rows, scale = _pairwise_rows(W, full_f, h)
    far = f * op.drift_far
    ref = (rows.sum() - far.sum()) * dom.cell_volume
    pairing = drift_pairing(op, f)
    assert _close(pairing, ref,
                  (scale.sum() + np.abs(far).sum()) * dom.cell_volume)

    # the matrix applied to interior data u (zero outside) is, per row, the
    # Laplace form Sum_j W_ij (u_j - u_i) - T_i u_i plus the drift form
    # 1/2 Sum_j W_ij (h_j - h_i)(u_j - u_i) minus half the far integral
    u = rng.normal(size=op.n)
    full_u = np.zeros(len(dom.points))
    full_u[mask] = u
    ref_rows = np.empty(op.n)
    row_scale = np.empty(op.n)
    for a, i in enumerate(np.nonzero(mask)[0]):
        du = full_u - full_u[i]
        du_abs = np.abs(full_u) + abs(full_u[i])
        tail = op.box_tail[a] * u[a]
        dh = 0.5 * W[i] * (h - h[i])
        far_u = 0.5 * op.drift_far[a] * u[a]
        ref_rows[a] = W[i] @ du - tail + dh @ du - far_u
        row_scale[a] = ((np.abs(W[i]) + np.abs(dh)) @ du_abs
                        + abs(tail) + abs(far_u))
    assert np.all(np.abs(op.matrix @ u - ref_rows) <= REL * row_scale)

    if kind == "constant":
        assert pairing == 0.0
        # the drift block is exactly zero: the matrix is the drift-free one
        assert np.array_equal(op.matrix, assemble(dom, spec, quad=_QUAD).matrix)


def _verify_operators(monkeypatch):
    """Every operator that the lattice checks of ``verify`` assemble."""
    ops = []
    for module in (verify, recovery):
        real = module.assemble

        def keeping(*args, _real=real, **kwargs):
            ops.append(_real(*args, **kwargs))
            return ops[-1]

        monkeypatch.setattr(module, "assemble", keeping)
    verify.run_suite(3, ["operator_identities", "rate_minimization",
                         "scalar_error_form", "diffusion_exponent",
                         "drift_identifiability", "eigen_consistency"])
    return ops


def test_pair_pass_matches_gathered_weights(monkeypatch):
    # on every lattice that verify builds, the products that the pass
    # forms a chunk at a time agree with the products on the gathered W
    # to rounding, on the scale |W| |C| of their terms, and the block it
    # gathers is W's, bit for bit
    ops = _verify_operators(monkeypatch)
    assert len({(len(op.domain.points), op.n) for op in ops}) >= 5
    rng = np.random.default_rng(11)
    for op in ops:
        W = pair_weights(op)
        cols = rng.normal(size=(2, len(op.domain.points), 4))
        rows = np.flatnonzero(rng.uniform(size=op.n) < 0.5)
        box_cols = np.flatnonzero(rng.uniform(size=len(op.domain.points)) < 0.5)
        prod, block = lattice._pair_pass(op, cols, (rows, box_cols))
        for p, c in zip(prod, cols):
            assert np.all(np.abs(p - W @ c) <= 1e-14 * (np.abs(W) @ np.abs(c)))
        assert np.array_equal(block, W[np.ix_(rows, box_cols)])

