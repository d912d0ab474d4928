"""Lattice assembly: exact discrete identities and benchmark solves."""

import dataclasses
import json

import numpy as np
import pytest
from conftest import pair_weights

from nonlocal_dv import cli, lattice, operators, spectral
from nonlocal_dv.errors import CapacityError, DomainError, EllipticityError
from nonlocal_dv.kernels import (
    AnisotropyField,
    KernelSpec,
    fractional_kernel,
    spec_from_config,
)
from nonlocal_dv.lattice import (
    _PAIR_BYTES_LIMIT,
    GridFunction,
    LatticeDomain,
    _pair_form_chunks,
    _pair_peak_bytes,
    assemble,
    estimate_shift,
    kernel_form,
)
from nonlocal_dv.operators import (
    QuadratureScheme,
    SmoothFunction,
    bump,
    pointwise_forms,
    tanh_drift,
)


@pytest.fixture(scope="module")
def op_1d():
    spec = fractional_kernel(1, 0.5, normalized=True)
    dom = LatticeDomain.interval(-1.0, 1.0, 100, margin=1.0)
    return assemble(dom, spec)


def test_zero_function_zero_energy(op_1d):
    assert kernel_form(op_1d, np.zeros(op_1d.n)) == 0.0


def test_row_sum_is_negative_exterior_mass(op_1d):
    # constant-1 interior data: only the exterior mass survives in each row
    M = op_1d.matrix
    mask = op_1d.domain.interior_mask
    ext = pair_weights(op_1d)[:, ~mask].sum(axis=1) + op_1d.box_tail
    rows = M @ np.ones(op_1d.n)
    assert np.abs(rows + ext).max() < 1e-12
    assert (rows < 0).all()


def test_symmetric_negative_definite(op_1d):
    M = op_1d.matrix
    assert np.abs(M - M.T).max() == 0.0
    assert np.linalg.eigvalsh(M).max() < 0.0


def test_integration_by_parts_exact(op_1d):
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = rng.normal(size=op_1d.n)
        v = rng.normal(size=op_1d.n)
        lhs = float(u @ (op_1d.matrix @ v)) * op_1d.domain.cell_volume
        scale = max(abs(lhs), 1.0)
        assert abs(lhs + kernel_form(op_1d, u, v)) < 1e-10 * scale


def test_hat_function_against_brute_force():
    spec = fractional_kernel(1, 0.4, normalized=False)
    dom = LatticeDomain.interval(-1.0, 1.0, 24, margin=0.5)
    op = assemble(dom, spec, self_cell=False)
    x = dom.interior_points[:, 0]
    hat = np.maximum(0.0, 1.0 - np.abs(x) / 0.6)

    # independent double loop over all box nodes
    full = np.zeros(len(dom.points))
    full[dom.interior_mask] = hat
    pts = dom.points[:, 0]
    acc = 0.0
    for i in range(len(pts)):
        for j in range(len(pts)):
            if i == j:
                continue
            k = abs(pts[i] - pts[j]) ** (-(1 + 2 * 0.4))
            acc += 0.5 * (full[i] - full[j]) ** 2 * k * dom.spacing
    acc += float(np.sum(hat**2 * op.box_tail))
    acc *= dom.cell_volume
    assert kernel_form(op, hat) == pytest.approx(acc, rel=1e-12)


@pytest.mark.parametrize("s", [0.3, 0.7])
def test_seminorm_scaling_law(s):
    # u(./lam) on the lam-scaled lattice: energy follows lam^(N-2s) exactly
    spec = fractional_kernel(1, s, normalized=False)
    u_fn = bump(1, radius=0.7)
    vals = {}
    for lam in (1.0, 0.5, 0.25):
        dom = LatticeDomain.interval(-lam, lam, 64, margin=lam)
        op = assemble(dom, spec)
        vals[lam] = kernel_form(op, u_fn(dom.interior_points / lam))
    for lam in (0.5, 0.25):
        assert vals[lam] == pytest.approx(lam ** (1 - 2 * s) * vals[1.0], rel=1e-12)


def test_maximum_principle_with_small_drift():
    spec = fractional_kernel(1, 0.5, normalized=True)
    dom = LatticeDomain.interval(-1.0, 1.0, 60, margin=1.0)
    h_fn = SmoothFunction(lambda p: 0.45 * np.tanh(p[:, 0]), 1,
                          support_radius=40.0)
    op = assemble(dom, spec, drift=h_fn)
    assert op.drift_oscillation() < 1.0
    rng = np.random.default_rng(2)
    rhs = -rng.uniform(0.0, 1.0, size=op.n)  # rhs <= 0
    sol = np.linalg.solve(op.matrix, rhs)
    assert sol.min() >= 0.0


def test_fractional_poisson_benchmark():
    # (unit kernel, s=1/2) solution of L u = -1 on (-1,1) is sqrt(1-x^2)
    spec = fractional_kernel(1, 0.5, normalized=True)
    errs = {}
    for n in (50, 100):
        dom = LatticeDomain.interval(-1.0, 1.0, n, margin=1.0)
        op = assemble(dom, spec)
        sol = np.linalg.solve(op.matrix, -np.ones(op.n))
        x = dom.interior_points[:, 0]
        err = np.abs(sol - np.sqrt(1.0 - x**2))
        errs[n] = (err.max(), err[np.abs(x) < 0.5].max())
    assert errs[100][0] < 0.1  # boundary layer controls the sup error
    assert errs[100][1] < 0.02
    assert errs[100][1] < errs[50][1]


def test_matrix_apply_matches_pointwise_operator():
    spec = fractional_kernel(1, 0.5, normalized=True)
    h_fn = SmoothFunction(lambda p: 0.45 * np.tanh(p[:, 0]), 1,
                          support_radius=40.0)
    u_fn = bump(1, radius=0.8)
    sup_err = {}
    for n in (40, 80):
        dom = LatticeDomain.interval(-1.0, 1.0, n, margin=1.0)
        op = assemble(dom, spec, drift=h_fn)
        applied = op.matrix @ u_fn(dom.interior_points)
        xs = dom.interior_points
        ks = [k for k in range(0, len(xs), max(1, n // 8)) if abs(xs[k, 0]) <= 0.5]
        # L u + B(u, h) pointwise, both terms on one shared rule
        lap, drift = pointwise_forms(spec, xs[ks], [(u_fn, None), (u_fn, h_fn)])
        pointwise = lap + drift
        sup_err[n] = np.abs(applied[ks] - pointwise).max()
    assert sup_err[80] < sup_err[40]
    assert sup_err[80] < 5e-4


def test_ball_domain_2d():
    spec = fractional_kernel(2, 0.5, normalized=True)
    dom = LatticeDomain.ball([0.0, 0.0], 1.0, 14, margin=0.3)
    frac = dom.n_interior / 14**2
    assert 0.6 < frac < 0.9  # about pi/4
    op = assemble(dom, spec)
    sol = np.linalg.solve(op.matrix, -np.ones(op.n))
    assert sol.min() > 0.0
    r = np.linalg.norm(dom.interior_points, axis=1)
    # radial symmetry of the solution
    center = sol[np.argmin(r)]
    assert center == pytest.approx(sol.max(), rel=1e-12)


def test_capacity_and_domain_errors(traced_memory):
    # the byte limit is checked before the first n_total^2 allocation
    with traced_memory() as memory:
        with pytest.raises(CapacityError):
            assemble(LatticeDomain.interval(-1.0, 1.0, 9000),
                     fractional_kernel(1, 0.5))
        peak = memory().peak
    assert peak < 2**20
    # every lattice of up to 8000 nodes with no margin passes the check
    assert _pair_peak_bytes(LatticeDomain.box([-1.0] * 3, [1.0] * 3, [20] * 3)) \
        <= _PAIR_BYTES_LIMIT
    spec = fractional_kernel(2, 0.5)
    with pytest.raises(DomainError):
        assemble(LatticeDomain.interval(-1.0, 1.0, 10), spec)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_positive_pair_form_raises_ellipticity_error():
    # M(y) = diag(0.6, 1) + 0.7 sin(y_1 + y_2) I is indefinite in the lower
    # corner of the box, so some pair forms of the product are negative:
    # a typed failure, not NaN weights, and no warning from the far field
    # before it
    field = AnisotropyField("separable_product", np.diag([0.6, 1.0]),
                            wave=np.ones(2), profile=lambda t: 0.7 * np.sin(t))
    spec = KernelSpec(field, s=0.5, lower=0.05)
    dom = LatticeDomain.box([-1.0, -1.0], [1.0, 1.0], [8, 8])
    assert np.concatenate([q for _, q in _pair_form_chunks(spec, dom)]).min() < 0.0
    with pytest.raises(EllipticityError, match="pair form"):
        assemble(dom, spec)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("with_drift", [False, True])
def test_field_not_elliptic_beyond_the_box_raises_ellipticity_error(with_drift):
    # on [0.5, 1]^2 the phase y_1 + y_2 stays in [1, 2], where the field
    # above is positive definite, so every pair form of the box is
    # positive; the rays beyond the box meet the phases where it is not,
    # and their kernel mass is NaN: a typed failure, not a NaN diagonal
    field = AnisotropyField("separable_product", np.diag([0.6, 1.0]),
                            wave=np.ones(2), profile=lambda t: 0.7 * np.sin(t))
    spec = KernelSpec(field, s=0.5, lower=0.05)
    dom = LatticeDomain.box([0.5, 0.5], [1.0, 1.0], [4, 4])
    q = np.concatenate([q for _, q in _pair_form_chunks(spec, dom)])
    assert q[~np.eye(dom.n_interior, dtype=bool)].min() > 0.0
    drift = tanh_drift(2, amplitude=0.3) if with_drift else None
    with pytest.raises(EllipticityError, match="beyond the box"):
        assemble(dom, spec, drift=drift)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_drift_not_finite_beyond_the_box_raises_domain_error():
    # a drift that is finite on the box but NaN beyond |x_0| = 2, inside
    # its declared support: a typed failure, not a NaN diagonal
    spec = fractional_kernel(2, 0.5)
    dom = LatticeDomain.box([-1.0, -1.0], [1.0, 1.0], [6, 6], margin=0.3)
    drift = SmoothFunction(lambda p: np.sqrt(2.0 - np.abs(p[:, 0])), 2,
                           support_radius=5.0)
    assert np.isfinite(drift(dom.points)).all()
    with pytest.raises(DomainError, match="drift far field"):
        assemble(dom, spec, drift=drift)


@pytest.mark.parametrize("variant", ["constant", "separable_sum",
                                     "separable_product"])
@pytest.mark.parametrize("dim", [2, 3])
def test_pair_peak_estimate_bounds_measured_peak(variant, dim, traced_memory):
    # the capacity check reads this estimate; it must cover what assembly
    # and the largest pair pass really hold, and not by much more, whatever
    # the field: that pass gathers every row of W on every box column, one
    # chunk at a time, into a block beside the matrix.  A margin of one
    # cell makes n_int < n_total; at 3600 and 3375 box nodes a 4 MiB chunk
    # is under 5% of the n_int (n_total + n_int) doubles, and a coarse rule
    # keeps the kernel samples quick
    spec = spec_from_config({"variant": variant, "matrix": np.eye(dim).tolist(),
                             "s": 0.5})
    cells = 58 if dim == 2 else 13
    dom = LatticeDomain.box([-1.0] * dim, [1.0] * dim, [cells] * dim,
                            margin=2.0 / cells)
    quad = QuadratureScheme(radial_order=4, angular_count=4, polar_order=2)
    assemble(LatticeDomain.box([-1.0] * dim, [1.0] * dim, [4] * dim), spec, quad=quad)
    with traced_memory() as memory:
        op = assemble(dom, spec, quad=quad)
        assembled = memory().peak
        _largest_pair_pass(op)
        peak = memory().peak
    assert dom.n_interior < len(dom.points)
    estimate = _pair_peak_bytes(dom)
    assert peak <= 1.05 * estimate
    assert estimate <= 1.05 * peak
    assert assembled <= _assemble_bytes(dom)


def _largest_pair_pass(op):
    """The pair pass that gathers the largest block that
    ``_pair_peak_bytes`` allows: every row of W on every box column, with
    one product."""
    n_total = len(op.domain.points)
    return lattice._pair_pass(op, np.ones((1, n_total, 1)),
                              (np.arange(op.n), np.arange(n_total)))


def _assemble_bytes(dom):
    """What ``assemble`` alone may hold: the matrix, one chunk of
    temporaries (a row chunk of W among them), and the self-cell moments
    and per-node vectors, dim + 8 doubles a box node."""
    n_int = dom.n_interior
    return (8 * n_int ** 2 + operators._KERNEL_CHUNK_BYTES
            + 8 * (dom.dim + 8) * len(dom.points))


def test_assemble_peak_memory_constant_field(traced_memory):
    # the pair forms and weights are formed in place: at peak, assembly
    # holds W and the interior matrix, no second n_total x n_total array
    spec = fractional_kernel(2, 0.5)
    dom = LatticeDomain.box([-1.0, -1.0], [1.0, 1.0], [24, 24], margin=0.5)
    assemble(LatticeDomain.box([-1.0, -1.0], [1.0, 1.0], [4, 4]), spec)
    n_total = len(dom.points)
    with traced_memory() as memory:
        assemble(dom, spec)
        peak = memory().peak
    assert peak < 2.5 * 8 * n_total ** 2


def test_assemble_retained_memory_with_drift(traced_memory):
    # after assembly only the interior rows of W, the one interior matrix
    # and per-node vectors stay alive; the Laplace and drift blocks are
    # not kept beside it
    spec = fractional_kernel(2, 0.5)
    drift = tanh_drift(2, amplitude=0.3)
    dom = LatticeDomain.box([-1.0, -1.0], [1.0, 1.0], [24, 24], margin=0.5)
    assemble(LatticeDomain.box([-1.0, -1.0], [1.0, 1.0], [4, 4]), spec,
             drift=drift)
    n_total = len(dom.points)
    n_int = dom.n_interior
    with traced_memory() as memory:
        op = assemble(dom, spec, drift=drift)
        kept = memory().current
    assert op.matrix.shape == (n_int, n_int)
    assert kept <= 8 * (n_int * n_total + 1.5 * n_int ** 2)


@pytest.mark.parametrize("with_drift", [False, True])
def test_assemble_peak_is_the_pair_form_peak(with_drift, traced_memory):
    # through assembly and the largest pair pass, only the interior
    # matrix, the gathered block of W and chunk-sized temporaries are
    # alive: the n_int (n_total + n_int) doubles that the capacity check
    # counts.  With no margin n_int = n_total, and at 3600 nodes a 4 MiB
    # chunk is 4% of them
    spec = fractional_kernel(2, 0.5)
    drift = tanh_drift(2, amplitude=0.3) if with_drift else None
    dom = LatticeDomain.box([-1.0, -1.0], [1.0, 1.0], [60, 60])
    assemble(LatticeDomain.box([-1.0, -1.0], [1.0, 1.0], [4, 4]), spec,
             drift=drift)
    with traced_memory() as memory:
        op = assemble(dom, spec, drift=drift)
        assembled = memory().peak
        _largest_pair_pass(op)
        peak = memory().peak
    estimate = _pair_peak_bytes(dom)
    assert peak <= 1.05 * estimate
    assert estimate <= 1.05 * peak
    # assembly alone holds about half of it: W is streamed, not kept
    assert assembled <= _assemble_bytes(dom) < 0.55 * estimate


def test_memory_holds_the_matrix_and_frees_the_block_factor(monkeypatch, traced_memory):
    # a timing-free guard: assembly streams W and holds the matrix, and
    # when the dense oracle starts, W (n_int n_total doubles, 4.7 MB here)
    # was never built and the iteration's block inverses
    # (2 (n_int/2)^2 doubles, 1.3 MB) are gone: what is traced then is the
    # matrix and vectors of one double per node
    spec = fractional_kernel(2, 0.5)
    drift = tanh_drift(2, amplitude=0.3)
    dom = LatticeDomain.box([-1.0, -1.0], [1.0, 1.0], [24, 24], margin=0.3)
    n_total, n_int = len(dom.points), dom.n_interior
    # first-call allocations (cached rules and directions)
    spectral.principal_eigenpair(assemble(
        LatticeDomain.box([-1.0, -1.0], [1.0, 1.0], [4, 4], margin=0.3), spec, drift=drift))
    at_oracle = []
    oracle = spectral.perron_eigenvalue

    def traced(op):
        at_oracle.append(memory().current)
        return oracle(op)

    monkeypatch.setattr(spectral, "perron_eigenvalue", traced)
    with traced_memory() as memory:
        op = assemble(dom, spec, drift=drift)
        peak = memory().peak
        spectral.principal_eigenpair(op)
    assert peak <= _assemble_bytes(dom)
    assert len(at_oracle) == 1
    blocks = 2 * 8 * (n_int // 2) ** 2
    assert 32 * 8 * n_total < blocks / 4
    assert at_oracle[0] <= 8 * n_int ** 2 + 32 * 8 * n_total


def _count_weight_passes(monkeypatch):
    """Record each pass of the pair-weight chunk routine."""
    passes = []
    real = lattice._pair_weight_chunks

    def counting(*args, **kwargs):
        passes.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(lattice, "_pair_weight_chunks", counting)
    return passes


def test_solving_never_builds_the_pair_weights(monkeypatch, tmp_path):
    # assembly makes one pass over the chunks of W and keeps none of
    # them; the iteration, its shift, the bracket and the dense oracle
    # read the matrix alone, so the eigen path makes no second pass
    passes = _count_weight_passes(monkeypatch)
    spec = fractional_kernel(2, 0.5)
    drift = tanh_drift(2, amplitude=0.3)
    dom = LatticeDomain.box([-1.0, -1.0], [1.0, 1.0], [24, 24], margin=0.3)
    op = assemble(dom, spec, drift=drift)
    assert passes == [dom]
    pair = spectral.principal_eigenpair(op, dense_check=True)
    assert pair.dense_lambda1 is not None
    assert passes == [dom]

    # the same through the command line handler
    ops = []
    real = cli.assemble

    def keeping(*args, **kwargs):
        ops.append(real(*args, **kwargs))
        return ops[-1]

    monkeypatch.setattr(cli, "assemble", keeping)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kernel": {"variant": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]], "s": 0.5},
        "domain": {"shape": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0],
                   "cells": 24, "margin": 0.3},
        "drift": {"kind": "tanh", "amplitude": 0.3, "slope": 2.0},
        "eigen": {"dense_check": True},
    }))
    passes.clear()
    assert cli.main(["eigen", "--config", str(cfg),
                     "--output-dir", str(tmp_path / "out")]) == 0
    assert len(ops) == 1 and len(passes) == 1
    # a pair form streams W once more, for every pair of its stack
    kernel_form(ops[0], np.ones((ops[0].n, 3)))
    assert len(passes) == 2


@pytest.mark.parametrize("with_drift", [False, True])
def test_streamed_weights_are_bit_identical_to_whole_w(monkeypatch, with_drift):
    # W gathered in one chunk is the reference, formed whole as assembly
    # used to form it; in row chunks of 8 (the last one shorter on two of
    # the lattices) assembly and a pass give the same bits: the weights,
    # and the matrix with its drift product W @ h
    spec = spec_from_config({"variant": "separable_sum",
                             "matrix": [[1.2, 0.3], [0.3, 0.8]], "s": 0.4,
                             "amplitude": 0.3})
    for dom in (LatticeDomain.box([-1.0, -0.5], [1.0, 0.5], [8, 4], margin=0.3),
                LatticeDomain.ball([0.0, 0.0], 1.0, 11, margin=0.3),
                LatticeDomain.box([-1.0, -1.0], [1.0, 1.0], [13, 13], margin=0.3)):
        drift = tanh_drift(2, amplitude=0.3) if with_drift else None
        ops, weights, rows = [], [], []
        for budget in (1 << 30, 8 * (2 + 11) * 11 * len(dom.points)):
            monkeypatch.setattr(operators, "_KERNEL_CHUNK_BYTES", budget)
            rows.append([len(w) for _, w in lattice._pair_form_chunks(spec, dom)])
            ops.append(assemble(dom, spec, drift=drift))
            weights.append(pair_weights(ops[-1]))
        assert rows[0] == [dom.n_interior]
        assert len(rows[1]) >= 3 and set(rows[1][:-1]) == {8}
        whole, streamed = ops
        assert np.array_equal(streamed.matrix, whole.matrix)
        assert np.array_equal(weights[1], weights[0])


def test_assemble_takes_the_far_field_at_interior_nodes_alone(monkeypatch):
    # the margin nodes are quadrature points of the exterior mass: no row
    # of theirs is read, so far_field sees the interior nodes and no other
    seen = []
    real = lattice.far_field

    def counting(spec, pts, *args, **kwargs):
        seen.append(np.array(pts))
        return real(spec, pts, *args, **kwargs)

    monkeypatch.setattr(lattice, "far_field", counting)
    dom = LatticeDomain.box([-1.0, -1.0], [1.0, 1.0], [8, 8], margin=0.3)
    spec = fractional_kernel(2, 0.5)
    for drift in (None, tanh_drift(2, amplitude=0.3)):
        seen.clear()
        op = assemble(dom, spec, drift=drift)
        assert len(seen) == 1
        assert np.array_equal(seen[0], dom.interior_points)
        assert len(seen[0]) == dom.n_interior < len(dom.points)
    assert op.box_tail.shape == op.drift_far.shape == (dom.n_interior,)
    assert op.drift_values.shape == (len(dom.points),)


@pytest.mark.parametrize("variant", ["constant", "separable_sum"])
def test_pair_weights_are_the_interior_rows_of_the_box(variant):
    # the weights of a lattice with a margin are, bit for bit, the
    # interior rows of the weights of the whole box (every node made
    # interior); the matrix is a C-ordered gather of their interior columns
    spec = spec_from_config({"variant": variant, "matrix": [[1.2, 0.3], [0.3, 0.8]],
                             "s": 0.4})
    drift = tanh_drift(2, amplitude=0.3)
    for dom in (LatticeDomain.box([-1.0, -0.5], [1.0, 0.5], [8, 4], margin=0.3),
                LatticeDomain.ball([0.0, 0.0], 1.0, 8, margin=0.3)):
        op = assemble(dom, spec, drift=drift)
        whole = pair_weights(assemble(_whole_box(dom), spec))
        mask = dom.interior_mask
        assert pair_weights(op).shape == (dom.n_interior, len(dom.points))
        assert np.array_equal(pair_weights(op), whole[mask])
        assert op.matrix.flags.c_contiguous
        # off the diagonal, the drift-free matrix is W on interior pairs
        plain = assemble(dom, spec).matrix
        off = ~np.eye(op.n, dtype=bool)
        assert np.array_equal(plain[off], whole[np.ix_(mask, mask)][off])


def test_drift_block_in_row_chunks_is_bit_identical(monkeypatch):
    # the drift block B_ij = 1/2 W_ij (h_j - h_i), formed whole on the
    # drift-free matrix as the reference, against assembly with W in one
    # chunk and in chunks of 8 rows (the last one shorter), the chunks the
    # drift block follows
    spec = fractional_kernel(2, 0.4)
    drift = tanh_drift(2, amplitude=0.3)
    dom = LatticeDomain.box([-1.0, -1.0], [1.0, 1.0], [10, 10], margin=0.3)
    op = assemble(dom, spec, drift=drift)
    mask = dom.interior_mask
    W = pair_weights(op)
    hc = op.drift_values - op.drift_values[0]
    hc_int = hc[mask]
    lap = assemble(dom, spec).matrix
    block = lap * hc_int
    block -= hc_int[:, None] * lap
    block *= 0.5
    b_rows = 0.5 * (W @ hc - hc_int * W.sum(axis=1))
    np.fill_diagonal(block, -b_rows - 0.5 * op.drift_far)
    assert op.n % 8 != 0
    assert np.array_equal(op.matrix, lap + block)

    def chunk_rows():
        return [len(w) for _, w in lattice._pair_weight_chunks(spec, dom, None)]

    assert chunk_rows() == [op.n]
    monkeypatch.setattr(operators, "_KERNEL_CHUNK_BYTES", 8 * (2 + 11) * 8 * len(dom.points))
    assert chunk_rows() == [8] * (op.n // 8) + [op.n % 8]
    assert np.array_equal(assemble(dom, spec, drift=drift).matrix, op.matrix)


def test_pair_forms_in_row_chunks_are_bit_identical(monkeypatch):
    # the offset table gathered in one chunk against chunks of 7 rows,
    # which the gather rounds up to 8, on a box whose axes have different
    # node counts
    spec = spec_from_config({"variant": "separable_product",
                             "matrix": [[1.2, 0.3], [0.3, 0.8]], "s": 0.4,
                             "amplitude": 0.3})
    dom = LatticeDomain.box([-1.0, -0.5], [1.0, 0.5], [8, 4], margin=0.3)
    whole = np.concatenate([q for _, q in _pair_form_chunks(spec, dom)])
    n = len(dom.points)
    assert n % 7 != 0
    monkeypatch.setattr(operators, "_KERNEL_CHUNK_BYTES", 8 * (2 + 11) * 7 * n)
    chunked = np.concatenate([q for _, q in _pair_form_chunks(spec, dom)])
    assert np.array_equal(chunked, whole)


def _whole_box(dom):
    """The lattice of ``dom`` with every box node interior, so that its
    pair weights hold every row of the box."""
    return dataclasses.replace(dom, interior_mask=np.ones(len(dom.points), dtype=bool))


def test_self_cell_weights_sit_on_axis_neighbour_pairs():
    # the self-cell moments go to the pairs of nodes i and i + e_a, both
    # ways and alike, on a box whose axes have different node counts; on
    # the interior rows of a lattice with a margin they are the rows of
    # the whole box
    spec = spec_from_config({"variant": "separable_sum",
                             "matrix": [[1.2, 0.3], [0.3, 0.8]], "s": 0.4,
                             "amplitude": 0.3})
    dom = LatticeDomain.box([-1.0, -0.5], [1.0, 0.5], [8, 4], margin=0.3)
    box = _whole_box(dom)
    added = (pair_weights(assemble(box, spec))
             - pair_weights(assemble(box, spec, self_cell=False)))
    k = np.indices(dom.shape).reshape(2, -1).T
    neighbours = np.abs(k[:, None, :] - k[None, :, :]).sum(axis=2) == 1
    assert np.array_equal(added != 0.0, neighbours)
    assert np.array_equal(added, added.T)
    rows = dom.interior_mask
    assert not rows.all()
    on_rows = (pair_weights(assemble(dom, spec))
               - pair_weights(assemble(dom, spec, self_cell=False)))
    assert np.array_equal(on_rows, added[rows])


def test_estimate_shift_dominance(op_1d):
    C = estimate_shift(op_1d)
    M = op_1d.matrix - C * np.eye(op_1d.n)
    off = np.abs(M).sum(axis=1) - np.abs(np.diag(M))
    assert (np.diag(M) < 0).all()
    assert (np.abs(np.diag(M)) >= off).all()


def test_grid_function_serialization(tmp_path, op_1d):
    g = GridFunction(op_1d.domain, np.cos(op_1d.domain.interior_points[:, 0]))
    path = tmp_path / "field.csv"
    g.save(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,x0,value"
    assert len(lines) == op_1d.n + 1
    # every cell must round-trip as a plain number
    back = np.array([float(line.split(",")[2]) for line in lines[1:]])
    assert np.array_equal(back, g.values)
    meta = (tmp_path / "field.json").read_text()
    assert '"spacing"' in meta and '"n_interior"' in meta