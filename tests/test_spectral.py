"""Principal eigenpair solver, sup/min-max characterizations, sign demos.

Frozen reference: the principal eigenvalue of the half-Laplacian on (-1,1)
was extrapolated from dense symmetric solves at n=50..400 (observed mesh
rate 1.01, Richardson limit 1.1577636 / 1.1577434 from successive triples).
"""

import dataclasses
import warnings

import numpy as np
import pytest

from nonlocal_dv import spectral
from nonlocal_dv.errors import (
    ConvergenceError,
    DomainError,
    OracleInconsistencyError,
    PositivityError,
)
from nonlocal_dv.kernels import fractional_kernel
from nonlocal_dv.lattice import LatticeDomain, assemble
from nonlocal_dv.operators import (
    SmoothFunction,
    bump,
    carre_du_champ,
    nonlocal_laplacian,
    tanh_drift,
)
from nonlocal_dv.spectral import (
    dense_eigenpair,
    maxprinciple_violation_demo,
    minmax_value,
    perron_eigenvalue,
    principal_eigenpair,
    principal_left_vector,
)

HALF_LAPLACIAN_INTERVAL_LAMBDA1 = 1.157764


def drifted_op(n=60, s=0.5, amp=0.4, potential=None):
    spec = fractional_kernel(1, s, normalized=True)
    dom = LatticeDomain.interval(-1.0, 1.0, n, margin=1.0)
    h_fn = SmoothFunction(lambda p: amp * np.tanh(2.0 * p[:, 0]), 1,
                          support_radius=40.0)
    return assemble(dom, spec, drift=h_fn if amp else None, potential=potential)


def drifted_box_op(cells=8, amp=0.4):
    spec = fractional_kernel(2, 0.5, normalized=True)
    dom = LatticeDomain.box([-1.0, -1.0], [1.0, 1.0], [cells, cells],
                            margin=0.25)
    return assemble(dom, spec, drift=tanh_drift(2, amplitude=amp))


def test_interval_reference_value():
    op = drifted_op(n=100, amp=0.0)
    pair = principal_eigenpair(op, tol=1e-9, max_iter=300)
    rel = abs(pair.lambda1 - HALF_LAPLACIAN_INTERVAL_LAMBDA1)
    assert rel / HALF_LAPLACIAN_INTERVAL_LAMBDA1 < 0.02
    assert pair.residual < 1e-9
    assert pair.phi1.values.max() == pytest.approx(1.0)
    assert pair.phi1.values.min() > 0.0


def test_spectral_shift_identity():
    rng = np.random.default_rng(11)
    op_a = drifted_op(n=40, potential=lambda p: np.cos(3 * p[:, 0]))
    shift = 3.7
    op_b = dataclasses.replace(op_a, matrix=op_a.matrix + shift * np.eye(op_a.n))
    la = dense_eigenpair(op_a).lambda1
    lb = dense_eigenpair(op_b).lambda1
    assert abs(lb - (la - shift)) < 1e-9
    pa = principal_eigenpair(op_a, tol=1e-10, max_iter=400)
    pb = principal_eigenpair(op_b, tol=1e-10, max_iter=400)
    assert abs(pb.lambda1 - (pa.lambda1 - shift)) < 1e-8
    del rng


def test_symmetric_case_matches_eigvalsh():
    op = drifted_op(n=50, amp=0.0, potential=lambda p: p[:, 0] ** 2)
    pair = principal_eigenpair(op, tol=1e-10, max_iter=400)
    sym = np.linalg.eigvalsh(-op.matrix).min()
    assert pair.lambda1 == pytest.approx(sym, abs=1e-8)


def test_iteration_agrees_with_dense_nonsymmetric():
    op = drifted_op(n=60, amp=0.45, potential=lambda p: 0.5 * np.sin(2 * p[:, 0]))
    tol = 1e-9
    pair = principal_eigenpair(op, tol=tol, max_iter=400)
    dense = dense_eigenpair(op)
    assert abs(pair.lambda1 - dense.lambda1) < 10 * tol * max(1.0, abs(dense.lambda1))
    assert pair.phi1.values.min() > 0.0
    align = np.abs(pair.phi1.values - dense.phi1.values).max()
    assert align < 1e-6


def test_potential_monotonicity():
    op_a = drifted_op(n=40, potential=lambda p: np.zeros(len(p)))
    op_b = drifted_op(n=40, potential=lambda p: 0.8 * bump(1, radius=0.7)(p))
    la = principal_eigenpair(op_a, tol=1e-10, max_iter=400).lambda1
    lb = principal_eigenpair(op_b, tol=1e-10, max_iter=400).lambda1
    assert la >= lb - 1e-12


def test_oscillation_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        op = drifted_op(n=30, amp=0.8)  # osc about 1.6
        principal_eigenpair(op, tol=1e-8, max_iter=300)
    assert any("oscillation" in str(w.message) for w in caught)


def test_convergence_error_carries_residual():
    op = drifted_op(n=40)
    with pytest.raises(ConvergenceError) as err:
        principal_eigenpair(op, tol=1e-14, max_iter=2)
    assert "residual" in str(err.value)


def test_dense_rejects_complex_only_spectrum():
    op = drifted_op(n=2, amp=0.0)
    rot = dataclasses.replace(op, matrix=np.array([[0.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(PositivityError):
        dense_eigenpair(rot)


def test_iteration_rejects_sign_changing_candidate():
    op = drifted_op(n=2, amp=0.0)
    # smallest eigenvalue of [[1,.5],[.5,2]] has a sign-changing eigenvector
    bad = dataclasses.replace(op, matrix=-np.array([[1.0, 0.5], [0.5, 2.0]]))
    with pytest.raises(PositivityError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            principal_eigenpair(bad, tol=1e-10, max_iter=200)


# (cells, drift amplitude, potential) of the eleven lattices that the
# eigen_consistency check of ``verify`` builds
EIGEN_CONSISTENCY_LATTICES = [
    (40, 0.0, None),
    (50, 0.0, lambda p: p[:, 0] ** 2),
    (60, 0.45, lambda p: 0.5 * np.sin(2.0 * p[:, 0])),
    (50, 0.3, None),
    (40, 0.3, lambda p: np.cos(3.0 * p[:, 0])),
    (60, 0.0, None),
    (45, 0.2, lambda p: bump(1, radius=0.7)(p)),
    (55, 0.4, lambda p: 0.3 * p[:, 0] ** 2),
    (50, 0.45, None),
    (60, 0.35, lambda p: np.cos(2.0 * p[:, 0])),
    (50, 0.35, None),
]


LEAF = spectral._INVERSE_LEAF


def eigen_consistency_op(cells, amp, potential):
    spec = fractional_kernel(1, 0.5, normalized=True)
    dom = LatticeDomain.interval(-1.0, 1.0, cells, margin=1.0)
    drift = tanh_drift(1, amplitude=amp) if amp else None
    return assemble(dom, spec, drift=drift, potential=potential)


@pytest.mark.parametrize("make_op", [
    lambda: drifted_op(n=60, amp=0.45,
                       potential=lambda p: 0.5 * np.sin(2 * p[:, 0])),
    lambda: drifted_box_op(cells=10, amp=0.4),
    # past 2 LEAF unknowns both half blocks of the oracle's elimination
    # are inverted by the recursion
    lambda: drifted_op(n=4 * LEAF + 1, amp=0.4),
] + [lambda case=case: eigen_consistency_op(*case)
     for case in EIGEN_CONSISTENCY_LATTICES],
    ids=["interval", "box", "recursive"] + [
        "verify-%d" % i for i in range(len(EIGEN_CONSISTENCY_LATTICES))])
def test_perron_oracle_and_bracket_contain_dense_eigenvalue(make_op):
    op = make_op()
    dense = dense_eigenpair(op).lambda1
    scale = max(1.0, abs(dense))
    pair = principal_eigenpair(op, tol=1e-9, max_iter=400, dense_check=False)
    # the bracket certifies lambda1, so no oracle ran
    assert pair.dense_lambda1 is None
    gate = 10 * 1e-9 * max(1.0, abs(pair.lambda1))
    quotient = perron_eigenvalue(op, pair.lambda1, gate)
    assert abs(quotient - dense) <= 1e-12 * scale
    # the lower Collatz-Wielandt quotient mu_lo + min x/y of the oracle's
    # own solves is never above lambda1, up to rounding; it misses it by
    # about (2 gate)^2/(lambda_2 - mu_lo), far below rounding here
    assert quotient <= dense + 1e-13 * scale
    lower, upper = pair.lambda1_lower, pair.lambda1_upper
    assert upper - lower <= 10 * 1e-9 * scale
    assert lower <= pair.lambda1 <= upper
    assert lower - 1e-12 * scale <= dense <= upper + 1e-12 * scale


@pytest.mark.parametrize("make_op", [
    lambda: drifted_op(n=60, amp=0.45),
    lambda: drifted_box_op(cells=16, amp=0.4),
], ids=["interval", "box"])
def test_perron_oracle_value_at_a_wide_window(make_op):
    # at a window of 1e-3 scale the quotient's error, of order
    # (2 gate)^2/(lambda_2 - mu_lo), involves only the gap to lambda_2 and
    # stays below 1e-6 scale
    op = make_op()
    dense = dense_eigenpair(op).lambda1
    scale = max(1.0, abs(dense))
    value = perron_eigenvalue(op, dense, 1e-3 * scale)
    assert dense - 1e-6 * scale <= value <= dense + 1e-13 * scale


@pytest.mark.parametrize("offset, end", [(2.0, "mu_lo"), (-2.0, "mu_hi")])
def test_perron_window_without_the_eigenvalue_names_its_end(offset, end):
    # a window of half width gate moved by 2 gate leaves lambda1 outside:
    # above it, mu_lo = lambda1 + gate is past lambda1 and x is not positive;
    # below it, mu_hi = lambda1 - gate has no Collatz-Wielandt bound
    op = drifted_box_op(cells=8, amp=0.4)
    dense = dense_eigenpair(op).lambda1
    gate = 10 * 1e-9 * max(1.0, abs(dense))
    with pytest.raises(OracleInconsistencyError) as err:
        perron_eigenvalue(op, dense + offset * gate, gate)
    assert str(err.value).startswith("at %s = " % end)
    message = {"mu_lo": "is not positive",
               "mu_hi": "(A - mu_hi I) y is not negative"}
    assert message[end] in str(err.value)


@pytest.mark.parametrize("n", [1, 2])
def test_perron_oracle_on_one_and_two_nodes(n):
    # the Schur block of the elimination is empty for n = 1 and 1x1 for n = 2
    op = drifted_op(n=n, amp=0.4)
    assert op.n == n
    dense = dense_eigenpair(op).lambda1
    scale = max(1.0, abs(dense))
    for lam in (dense, dense + 1e-9 * scale, dense - 1e-9 * scale):
        root = perron_eigenvalue(op, lam, 10 * 1e-9 * scale)
        assert abs(root - dense) <= 1e-12 * scale
    pair = principal_eigenpair(op, tol=1e-9, max_iter=400, dense_check=True)
    assert abs(pair.dense_lambda1 - dense) <= 1e-12 * scale


@pytest.mark.parametrize("n", [1, 2, 7, 40, 101, 2 * LEAF + 3, 4 * LEAF + 1])
def test_shifted_solver_matches_dense_solve(n):
    # mixed signs and no symmetry; the shift makes shift I - matrix
    # strictly row diagonally dominant, as estimate_shift does.  Past
    # 2 LEAF rows each half block is inverted by recursion: 2 LEAF + 3
    # splits each half block once, and 4 LEAF + 1 splits its leading half
    # block twice, at an odd size each time
    rng = np.random.default_rng(n)
    matrix = rng.normal(size=(n, n))
    shift = float((np.abs(matrix).sum(axis=1) + np.diag(matrix)).max()) + 0.1
    solve = spectral._shifted_solver(matrix, shift)
    for b in rng.normal(size=(3, n)):
        want = np.linalg.solve(shift * np.eye(n) - matrix, b)
        assert np.abs(solve(b) - want).max() <= 1e-12 * np.abs(want).max()


def test_inverse_recursion_reaches_leaves_in_place(monkeypatch):
    # only blocks of at most LEAF rows reach LAPACK: the leading leaf of
    # 4 LEAF + 1 rows is three uneven splits deep, ceil(n/8) rows
    sizes = []
    real_inv = np.linalg.inv

    def counting(a):
        sizes.append(len(a))
        return real_inv(a)

    rng = np.random.default_rng(3)
    n = 4 * LEAF + 1
    block = rng.normal(size=(n, n))
    block[np.diag_indices(n)] += np.abs(block).sum(axis=1)
    want = real_inv(block)
    monkeypatch.setattr(np.linalg, "inv", counting)
    spectral._invert_in_place(block)
    assert sizes[0] == -(-n // 8) and max(sizes) <= LEAF and sum(sizes) == n
    assert np.abs(block - want).max() <= 1e-12 * np.abs(want).max()


def test_inverse_in_place_on_a_strided_view():
    # a view with a stride in both axes, inverted where it stands: the
    # entries of the base array outside it keep their values
    rng = np.random.default_rng(4)
    n = 2 * LEAF + 3
    base = rng.normal(size=(2 * n, 3 * n))
    view = base[::2, 1::3]
    view[np.diag_indices(n)] += np.abs(view).sum(axis=1)
    assert not view.flags.c_contiguous and not view.flags.f_contiguous
    want, before = np.linalg.inv(view), base.copy()
    spectral._invert_in_place(view)
    assert np.abs(view - want).max() <= 1e-12 * np.abs(want).max()
    outside = np.ones(base.shape, dtype=bool)
    outside[::2, 1::3] = False
    assert np.array_equal(base[outside], before[outside])


def test_shifted_solver_at_the_oracle_shift():
    # B = A - mu I with mu just below lambda1, as the Perron oracle
    # eliminates it: a nonsingular M-matrix whose half blocks recurse.
    # Along phi1 every solver's x carries a relative error of about
    # ||A|| eps/(lambda1 - mu) (both solves below alike), so the solution
    # is compared in its sup-normalized direction, and its backward error
    # at rounding level
    op = drifted_op(n=4 * LEAF + 1, amp=0.4)
    dense = dense_eigenpair(op).lambda1
    mu = dense - 10 * 1e-9 * max(1.0, abs(dense))
    b_matrix = -op.matrix - mu * np.eye(op.n)
    solve = spectral._shifted_solver(op.matrix, -mu)
    for b in (np.ones(op.n), np.random.default_rng(5).uniform(0.5, 1.0, op.n)):
        got, want = solve(b), np.linalg.solve(b_matrix, b)
        assert got.min() > 0.0 and want.min() > 0.0
        assert np.abs(got / got.max() - want / want.max()).max() <= 1e-12
        norm = np.abs(b_matrix).sum(axis=1).max()
        assert np.abs(b_matrix @ got - b).max() <= 1e-14 * norm * got.max()


@pytest.mark.parametrize("n", [2 * LEAF, 4 * LEAF + 1],
                         ids=["leaf", "split"])
def test_perron_oracle_names_a_singular_block(n):
    # off-diagonal 1 and diagonal -3: at mu_lo = 4 the leading block of
    # A - mu_lo I is all -1, exactly singular; it is a leaf for 2 LEAF
    # rows and split by the recursion for 4 LEAF + 1
    op = drifted_op(n=n, amp=0.4)
    singular = dataclasses.replace(op, matrix=np.ones((n, n)) - 4 * np.eye(n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OracleInconsistencyError) as err:
            perron_eigenvalue(singular, 4.5, 0.5)
    assert str(err.value) == ("at mu_lo = 4: a block of A - mu_lo I is "
                              "singular")


def test_eigenpair_leaves_the_operator_matrix_untouched():
    # the block solver reads its off-diagonal blocks as views of the matrix
    op = drifted_box_op(cells=8, amp=0.4)
    before = op.matrix.tobytes()
    principal_eigenpair(op, tol=1e-9, max_iter=400, dense_check=True)
    assert op.matrix.tobytes() == before


def test_sign_pattern_failure_takes_vector_route():
    op = drifted_op(n=30, amp=0.3)
    matrix = op.matrix.copy()
    matrix[-1, -2] = matrix[-2, -1] = 0.0
    holed = dataclasses.replace(op, matrix=matrix)
    pair = principal_eigenpair(holed, tol=1e-10, max_iter=400,
                               dense_check=False)
    assert pair.lambda1_lower is None and pair.lambda1_upper is None
    assert pair.dense_lambda1 == dense_eigenpair(holed).lambda1
    with pytest.raises(DomainError):
        perron_eigenvalue(holed, pair.lambda1, 1e-8 * max(1.0, abs(pair.lambda1)))
    # a zero anywhere off the diagonal, first or last, breaks the pattern
    for i, j in [(0, 1), (1, 0), (op.n - 2, op.n - 1), (op.n - 1, 0)]:
        probe = op.matrix.copy()
        probe[i, j] = 0.0
        assert not spectral._positive_off_diagonal(probe)
    assert spectral._positive_off_diagonal(op.matrix)
    assert spectral._positive_off_diagonal(np.array([[-3.0]]))


def test_sup_characterization():
    op = drifted_op(n=50, amp=0.3)
    pair = principal_eigenpair(op, tol=1e-10, max_iter=400)
    slack = 10 * max(pair.residual, 1e-12)
    # lambda is admissible for phi when min (-M phi)/phi >= lambda; at phi1
    # the margin min (-M phi1)/phi1 - lambda1 is lambda1_lower - lambda1
    margin = pair.lambda1_lower - pair.lambda1
    assert abs(margin) <= slack
    assert pair.lambda1_lower <= pair.lambda1 + slack
    assert pair.lambda1 <= pair.lambda1_upper + slack
    assert pair.lambda1_lower < pair.lambda1 + 0.1 * abs(pair.lambda1)
    rng = np.random.default_rng(3)
    phi = 1.0 + rng.uniform(0.0, 1.0, size=op.n)
    lam_star = (-(op.matrix @ phi) / phi).min()
    # any positive test function bounds lambda1 from below this way
    assert lam_star <= pair.lambda1 + slack


def test_minmax_families():
    op = drifted_op(n=50, amp=0.35)
    pair = principal_eigenpair(op, tol=1e-11, max_iter=500)
    lam1, phi1 = pair.lambda1, pair.phi1.values
    psi1 = principal_left_vector(op)
    mu_star = phi1 * psi1
    mu_star /= mu_star.sum()
    n = op.n
    uniform = np.full(n, 1.0 / n)
    point = np.zeros(n)
    point[n // 3] = 1.0
    measures = [uniform, point, mu_star]

    rng = np.random.default_rng(7)
    perturbed = [phi1 * (1.0 + 0.5 * rng.uniform(-1.0, 1.0, size=n))
                 for _ in range(4)]
    stages = [perturbed[:1], perturbed[:2], perturbed[:3],
              perturbed + [phi1]]
    slack = 10 * max(pair.residual, 1e-12)
    values = [minmax_value(op, measures, fam) for fam in stages]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-12
    for v in values:
        assert v <= lam1 + slack
    assert values[-1] == pytest.approx(lam1, abs=slack + 1e-10)

    # point mass at the argmax ratio bounds lambda1 from above
    phi = perturbed[0]
    ratio = -(op.matrix @ phi) / phi
    at_max = np.zeros(n)
    at_max[np.argmax(ratio)] = 1.0
    assert minmax_value(op, [at_max], [phi]) >= lam1 - slack

    with pytest.raises(DomainError):
        minmax_value(op, [np.full(n, 2.0 / n)], [phi1])
    with pytest.raises(DomainError):
        minmax_value(op, [uniform], [phi1 - phi1.max()])


def test_demo_certifies_violation_for_large_jump():
    rep = maxprinciple_violation_demo(0.5)
    assert rep.violation_certified
    assert rep.max_value <= rep.tolerance
    assert rep.center_value == pytest.approx(1.0, abs=1e-12)
    assert rep.oscillation >= 1.0


def test_demo_drift_term_matches_closed_form():
    s = 0.5
    rep = maxprinciple_violation_demo(s)
    pref = fractional_kernel(1, s, normalized=True).prefactor
    x = rep.grid
    u = (1.0 - x**2) ** (1.0 + s)
    tau = pref * ((1.0 - x) ** (-2 * s) + (1.0 + x) ** (-2 * s)) / (2 * s)
    expected = -0.5 * rep.drift_jump * u * tau
    assert np.abs(rep.drift_term_values - expected).max() < 1e-6 * np.abs(expected).max()


def test_demo_small_oscillation_cannot_certify():
    rep = maxprinciple_violation_demo(0.5, drift_jump=0.5)
    assert rep.oscillation == pytest.approx(0.5)
    assert not rep.violation_certified
    assert rep.max_value > rep.tolerance


def test_demo_without_drift_positive_near_center():
    rep = maxprinciple_violation_demo(0.5, drift_jump=0.0)
    central = rep.operator_values[np.abs(rep.grid) <= 0.3]
    assert (central > 0.0).all()
    assert not rep.violation_certified


def test_demo_consistency_with_pointwise_operators():
    s = 0.3
    rep = maxprinciple_violation_demo(s, drift_jump=2.0)
    spec = fractional_kernel(1, s, normalized=True)
    u = SmoothFunction(
        lambda p: np.maximum(0.0, 1.0 - p[:, 0] ** 2) ** (1.0 + s), 1,
        support_radius=1.0, kink_points=(-1.0, 1.0))
    h = SmoothFunction(lambda p: 2.0 * (np.abs(p[:, 0]) >= 1.0), 1,
                       support_radius=1.0, far_value=2.0,
                       kink_points=(-1.0, 1.0))
    for k in (0, len(rep.grid) // 2, len(rep.grid) - 1):
        x = np.array([rep.grid[k]])
        val = -nonlocal_laplacian(u, spec, x) + carre_du_champ(u, h, spec, x)
        assert rep.operator_values[k] == pytest.approx(val, rel=1e-9, abs=1e-9)