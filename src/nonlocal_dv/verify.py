"""Full-scale property suite behind the ``verify`` command.

Each check exercises one advertised guarantee of the package end to end:
the discrete operator identities, the explicit shape law and the drift
counterexample to interior positivity, the variational characterization
of the rate value, positivity of the scalar error form, the diffusion
scaling exponent, coefficient recovery from energy probes, drift
identifiability modulo constants, the layer-integral constants, and the
eigenvalue solver cross-checks.  A check never skips: it either measures
its guarantee within the stated threshold or reports failure.

All randomness flows through one generator per check, seeded from the
suite seed and the check's fixed position, so a run is reproducible and
insensitive to which subset of checks is requested.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .barriers import C_star, J_closed_form, J_quadrature
from .errors import DomainError
from .kernels import fractional_kernel
from .lattice import LatticeDomain, _pair_pass, assemble, kernel_form
from .operators import (
    QuadratureScheme,
    SmoothFunction,
    bump,
    gaussian,
    interval_power,
    nonlocal_laplacian,
    pointwise_forms,
    scaled,
    shifted,
    tanh_drift,
)
from .rate import (
    DensitySpec,
    I_closed_form_h0,
    I_decomposed,
    density_lattice,
    error_form_value,
    first_order_residual,
    minimize_rayleigh,
    q_scalar_min,
)
from .recovery import (
    constancy_check,
    diffusion_limit,
    drift_probe,
    fourier_probe_oracle,
    recover_matrix,
)
from .spectral import (
    dense_eigenpair,
    maxprinciple_violation_demo,
    minmax_value,
    principal_eigenpair,
    principal_left_vector,
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one property check.

    ``measure`` is the governing worst-case number the check produced and
    ``threshold`` the gate it was compared against; the direction of the
    comparison is part of the check, so ``passed`` is authoritative.
    """

    check_id: str
    description: str
    passed: bool
    measure: float
    threshold: float
    detail: str


# ---------------------------------------------------------------------------
# individual checks


def _check_operator_identities(rng: np.random.Generator) -> CheckResult:
    """Product rule and integration by parts, discrete-exact and pointwise."""
    threshold = 1e-6
    worst_discrete = 0.0
    ops = []
    spec1 = fractional_kernel(1, 0.5, normalized=True)
    ops.append(assemble(LatticeDomain.interval(-1.0, 1.0, 80, margin=1.0), spec1))
    spec2 = fractional_kernel(2, 0.5, normalized=True)
    ops.append(assemble(LatticeDomain.ball([0.0, 0.0], 1.0, 14, margin=0.3), spec2))
    for op in ops:
        M = op.matrix
        mask = op.domain.interior_mask
        # W on the interior columns and its exterior mass from one pass: data
        # vanishes off the interior, so that mass and the tail act through u_i v_i
        outside, W = _pair_pass(op, (~mask).astype(float).reshape(1, -1, 1),
                                (np.arange(op.n), np.flatnonzero(mask)))
        ext = outside[0, :, 0] + op.box_tail
        vol = op.domain.cell_volume
        pairs = rng.normal(size=(25, 2, op.n))
        forms = kernel_form(op, pairs[:, 0].T, pairs[:, 1].T)
        for (u, v), form in zip(pairs, forms):
            du = u[None, :] - u[:, None]
            dv = v[None, :] - v[:, None]
            B = 0.5 * ((W * du * dv).sum(axis=1) + ext * u * v)
            lhs = M @ (u * v)
            rhs = u * (M @ v) + v * (M @ u) + 2.0 * B
            scale = max(1.0, np.abs(lhs).max())
            worst_discrete = max(worst_discrete, np.abs(lhs - rhs).max() / scale)
            parts = float(u @ (M @ v)) * vol
            pscale = max(1.0, abs(parts))
            worst_discrete = max(worst_discrete, abs(parts + form) / pscale)
    # pointwise quadrature versions of the same identities
    quad_scheme = QuadratureScheme(radial_order=32)
    worst_point = 0.0
    for dim, spec in ((1, spec1), (2, spec2)):
        u = bump(dim, radius=0.8)
        v = gaussian(dim, width=0.7)
        w = SmoothFunction(lambda p: u(p) * v(p), dim,
                           support_radius=0.8)
        xs = (np.array([[0.0], [-0.5], [0.3]]) if dim == 1 else
              np.array([[0.1, -0.2], [-0.4, 0.3]]))
        # w has the support of u and v the wider one, so u and w share a
        # rule set, and so do v and B(u, v)
        lw, lu = pointwise_forms(spec, xs, [(w, None), (u, None)], quad_scheme)
        lv, buv = pointwise_forms(spec, xs, [(v, None), (u, v)], quad_scheme)
        residual = np.abs(lw - u(xs) * lv - v(xs) * lu - 2.0 * buv)
        worst_point = max(worst_point, float(residual.max()))
    measure = max(worst_discrete, worst_point)
    return CheckResult(
        "operator_identities",
        "product rule and integration by parts on 1d and 2d lattices",
        measure < threshold, measure, threshold,
        f"worst discrete residual {worst_discrete:.3e} over 50 random pairs, "
        f"worst pointwise residual {worst_point:.3e}",
    )


def _check_shape_law(rng: np.random.Generator) -> CheckResult:
    """Quadratic profile of the operator on the power barrier, plus the
    drift counterexample to interior positivity."""
    del rng
    threshold = 0.02
    worst = 0.0
    details = []
    xs = np.linspace(-0.9, 0.9, 19)
    for s in (0.3, 0.5, 0.7):
        spec = fractional_kernel(1, s, normalized=True)
        u = interval_power(1.0 + s, 1)
        vals = -nonlocal_laplacian(u, spec, xs[:, None])
        model = 1.0 - (1.0 + 2.0 * s) * xs**2
        c = float(vals @ model / (model @ model))
        rel = float((np.abs(vals - c * model) / np.abs(c * model)).max())
        worst = max(worst, rel)
        details.append(f"s={s}: c={c:.6f}, rel {rel:.2e}")
    demo = maxprinciple_violation_demo(0.5)
    counter_ok = (demo.violation_certified
                  and demo.max_value <= demo.tolerance
                  and demo.center_value > 0.0)
    passed = worst < threshold and counter_ok
    return CheckResult(
        "shape_law",
        "fitted quadratic profile within 2 percent; jump drift kills positivity",
        passed, worst, threshold,
        "; ".join(details) + (f"; counterexample max {demo.max_value:.2e} with "
                              f"center value {demo.center_value:.3f}"),
    )


def _check_rate_minimization(rng: np.random.Generator) -> CheckResult:
    """Direct minimization of the Rayleigh ratio against the closed form."""
    del rng
    threshold = 0.01
    spec = fractional_kernel(1, 0.5, normalized=True)
    worst_rel = 0.0
    worst_fo = 0.0
    details = []
    for radius in (0.6, 0.8, 1.0):
        dens = DensitySpec(bump(1, radius=radius))
        dom = density_lattice(dens, cells=80)
        op = assemble(dom, spec)
        direct, u_min, steps = minimize_rayleigh(dens, op)
        closed = I_closed_form_h0(dens, op)
        rel = abs(-direct - closed) / abs(closed)
        worst_rel = max(worst_rel, rel)
        fo = first_order_residual(op, dens.values_on(dom))
        worst_fo = max(worst_fo, fo)
        details.append(f"r={radius}: rel {rel:.1e}, {steps} Newton steps")
        if u_min.values.min() <= 0.0:
            return CheckResult("rate_minimization",
                               "minimizer stayed positive", False,
                               float(u_min.values.min()), 0.0,
                               "minimizer lost positivity")
    passed = worst_rel < threshold and worst_fo < 1e-5
    return CheckResult(
        "rate_minimization",
        "rayleigh minimum matches sqrt-density energy on three bump densities",
        passed, worst_rel, threshold,
        "; ".join(details) + f"; first-order residual {worst_fo:.1e}",
    )


def _check_scalar_error_form(rng: np.random.Generator) -> CheckResult:
    """Scalar error form stays nonnegative; assembled error form matches
    its value at the minimizing exponent field."""
    del rng
    threshold = 1e-10
    hbars = np.linspace(-1.0, 1.0, 1000)
    qmin = float(q_scalar_min(hbars).min())
    spec = fractional_kernel(1, 0.5, normalized=True)
    dens = DensitySpec(bump(1, radius=0.8))
    drift = tanh_drift(1, amplitude=0.3)
    dom = density_lattice(dens, cells=60)
    op = assemble(dom, spec, drift=drift)
    parts = I_decomposed(dens, op)
    E_val = parts.E_value
    direct = error_form_value(op, dens.values_on(dom), parts.w_min.values)
    denom = max(abs(direct), 1e-10)
    rel = abs(E_val - direct) / denom
    passed = qmin >= -threshold and rel <= 0.01
    return CheckResult(
        "scalar_error_form",
        "1000-point scalar nonnegativity and error-form consistency",
        passed, qmin, -threshold,
        f"min scalar value {qmin:.2e}; decomposition vs direct rel {rel:.1e} "
        f"(E = {E_val:.6e})",
    )


def _check_diffusion_exponent(rng: np.random.Generator) -> CheckResult:
    """Drift-removed rescaled energies approach their limit at the
    expected order in the scale parameter."""
    del rng
    dens = DensitySpec(bump(1, radius=0.8))
    h = scaled(gaussian(1, width=0.9), 0.5)
    margin = np.inf
    details = []
    for s in (0.3, 0.5, 0.7):
        spec = fractional_kernel(1, s, normalized=True)
        res = diffusion_limit(spec, dens, np.array([0.2]), h=h)
        need = 2.0 - 2.0 * s - 0.2
        margin = min(margin, res.rate - need)
        details.append(f"s={s}: rate {res.rate:.2f} (need {need:.2f})")
    return CheckResult(
        "diffusion_exponent",
        "observed scaling rate at s in {0.3, 0.5, 0.7} over three dyadic scales",
        margin >= 0.0, margin, 0.0,
        "; ".join(details),
    )


def _check_matrix_recovery(rng: np.random.Generator) -> CheckResult:
    """Round-trip 20 random SPD matrices through the energy oracle."""
    s = 0.5
    entry_tol = 0.05
    rho_tol = 0.02
    worst_entry = 0.0
    worst_rho = 0.0
    for dim in (2, 3):
        for _ in range(10):
            X = rng.normal(size=(dim, dim))
            Q, _ = np.linalg.qr(X)
            eigs = rng.uniform(0.6, 2.5, size=dim)
            A = Q @ np.diag(eigs) @ Q.T
            report = recover_matrix(fourier_probe_oracle(A, s), dim, s)
            entry = np.abs(report.recovered_matrix - A).max() / np.abs(A).max()
            worst_entry = max(worst_entry, float(entry))
            worst_rho = max(worst_rho, abs(report.rho - 1.0))
    passed = worst_entry <= entry_tol and worst_rho <= rho_tol
    return CheckResult(
        "matrix_recovery",
        "20 random SPD matrices recovered from probe energies (dims 2 and 3)",
        passed, worst_entry, entry_tol,
        f"worst entry deviation {100 * worst_entry:.2f} percent, worst "
        f"amplitude deviation {100 * worst_rho:.2f} percent",
    )


def _check_drift_identifiability(rng: np.random.Generator) -> CheckResult:
    """Constant drift shifts are invisible to every probe; a nonconstant
    difference is flagged well above tolerance."""
    del rng
    threshold = 1e-8
    spec = fractional_kernel(1, 0.5, normalized=True)
    dens = DensitySpec(bump(1, radius=0.8))
    h1 = scaled(gaussian(1, width=0.9), 0.7)
    res_a = drift_probe(h1, spec, np.array([0.2]), f=dens)
    res_b = drift_probe(shifted(h1, 5.0), spec, np.array([0.2]), f=dens)
    coincide = float(np.abs(res_a.values - res_b.values).max())
    w = bump(1, radius=0.7, amplitude=0.5)
    rep = constancy_check(w, spec, np.linspace(-0.8, 0.8, 9)[:, None],
                          tol=threshold)
    detect_ok = rep.max_operator_value > 10.0 * threshold and not rep.constant
    passed = coincide <= threshold and detect_ok
    return CheckResult(
        "drift_identifiability",
        "shifted drift probes coincide; nonconstant difference is detected",
        passed, coincide, threshold,
        f"max probe difference {coincide:.2e} across scales; bump difference "
        f"registers operator value {rep.max_operator_value:.2e}",
    )


def _check_layer_constants(rng: np.random.Generator) -> CheckResult:
    """Closed-form layer integrals against quadrature and exact values."""
    exact_err = max(abs(C_star(2, 0.5) - 2.0), abs(C_star(3, 0.5) - np.pi))
    worst_rel = 0.0
    for dim in (2, 2, 2, 2, 2, 2, 2, 3, 3, 3):
        X = rng.normal(size=(dim, dim))
        Q, _ = np.linalg.qr(X)
        A = Q @ np.diag(rng.uniform(0.6, 2.5, size=dim)) @ Q.T
        y1 = float(rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0]))
        closed = J_closed_form(A, y1, 0.5)
        direct = J_quadrature(A, y1, 0.5)
        worst_rel = max(worst_rel, abs(closed - direct) / abs(direct))
    # with the cross coupling removed the two closed forms are one formula
    worst_variant = 0.0
    for dim in (2, 3):
        D = np.diag(rng.uniform(0.5, 3.0, size=dim))
        a = J_closed_form(D, 0.9, 0.5, variant="coupled")
        b = J_closed_form(D, 0.9, 0.5, variant="block")
        worst_variant = max(worst_variant, abs(a - b) / abs(a))
    passed = exact_err <= 1e-6 and worst_rel <= 1e-3 and worst_variant <= 1e-12
    return CheckResult(
        "layer_constants",
        "angular constant and layer integrals: exact values and dual routes",
        passed, max(exact_err, worst_rel), 1e-3,
        f"exact-value error {exact_err:.1e}; worst closed-vs-quadrature rel "
        f"{worst_rel:.1e} over 10 matrices; variant split {worst_variant:.1e}",
    )


def _check_eigen_consistency(rng: np.random.Generator) -> CheckResult:
    """Inverse iteration against its oracle, the Perron root against the
    full dense spectrum, the shift identity, and min-max monotonicity under
    family enrichment."""
    tol = 1e-9
    spec = fractional_kernel(1, 0.5, normalized=True)

    def build(n, amp, pot):
        dom = LatticeDomain.interval(-1.0, 1.0, n, margin=1.0)
        drift = tanh_drift(1, amplitude=amp) if amp else None
        return assemble(dom, spec, drift=drift, potential=pot)

    instances = [
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
    ]
    ops = [build(*instance) for instance in instances]
    pairs = [principal_eigenpair(op, tol=tol, max_iter=400) for op in ops]
    worst_gap = 0.0
    min_phi = np.inf
    for pair in pairs:
        dense = pair.dense_lambda1
        gap = abs(pair.lambda1 - dense) / max(1.0, abs(dense))
        worst_gap = max(worst_gap, gap)
        min_phi = min(min_phi, float(pair.phi1.values.min()))
    # the fifth instance, cos 3x on 40 cells: its oracle eigenvalue, the
    # lower Collatz-Wielandt quotient of the oracle's own solves, below
    # lambda1 by the window's width squared over the gap to lambda_2,
    # matches the full dense spectrum, and adding a constant to the
    # potential shifts the eigenvalue exactly
    op = ops[4]
    full = dense_eigenpair(op).lambda1
    perron_gap = abs(pairs[4].dense_lambda1 - full)
    shift = 3.7
    op_shifted = dataclasses.replace(op, matrix=op.matrix + shift * np.eye(op.n))
    shift_err = abs(dense_eigenpair(op_shifted).lambda1 - (full - shift))
    # enrichment of the test family can only raise the min-max value
    op = build(50, 0.35, None)
    pair = principal_eigenpair(op, tol=1e-11, max_iter=500)
    psi1 = principal_left_vector(op)
    mu_star = pair.phi1.values * psi1
    mu_star /= mu_star.sum()
    uniform = np.full(op.n, 1.0 / op.n)
    measures = [uniform, mu_star]
    perturbed = [pair.phi1.values * (1.0 + 0.5 * rng.uniform(-1.0, 1.0, op.n))
                 for _ in range(3)]
    stages = [perturbed[:1], perturbed[:2], perturbed[:3],
              perturbed + [pair.phi1.values]]
    values = [minmax_value(op, measures, fam) for fam in stages]
    monotone = all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    slack = 10.0 * max(pair.residual, 1e-12)
    final_ok = abs(values[-1] - pair.lambda1) <= slack + 1e-10
    passed = (worst_gap <= 10.0 * tol and min_phi > 0.0
              and perron_gap <= 1e-12 * max(1.0, abs(full))
              and shift_err < 1e-9 and monotone and final_ok)
    return CheckResult(
        "eigen_consistency",
        "iterative vs oracle eigenvalues, Perron root vs dense spectrum, "
        "shift identity, min-max monotonicity",
        passed, worst_gap, 10.0 * tol,
        f"worst relative gap {worst_gap:.1e} on 10 instances; min principal "
        f"value {min_phi:.2e}; Perron root vs dense spectrum {perron_gap:.1e}; "
        f"shift error {shift_err:.1e}; min-max stages "
        + " <= ".join(f"{v:.6f}" for v in values),
    )


_REGISTRY: tuple[tuple[str, Callable[[np.random.Generator], CheckResult]], ...] = (
    ("operator_identities", _check_operator_identities),
    ("shape_law", _check_shape_law),
    ("rate_minimization", _check_rate_minimization),
    ("scalar_error_form", _check_scalar_error_form),
    ("diffusion_exponent", _check_diffusion_exponent),
    ("matrix_recovery", _check_matrix_recovery),
    ("drift_identifiability", _check_drift_identifiability),
    ("layer_constants", _check_layer_constants),
    ("eigen_consistency", _check_eigen_consistency),
)


def available_checks() -> tuple[str, ...]:
    return tuple(cid for cid, _ in _REGISTRY)


def run_suite(seed: int = 0, check_ids: Sequence[str] | None = None,
              progress: Callable[[CheckResult], None] | None = None,
              ) -> list[CheckResult]:
    """Run the property suite, or the named subset, in registry order.

    Every check draws from its own generator seeded by (seed, position),
    so results do not depend on which other checks run.
    """
    if check_ids is not None:
        unknown = sorted(set(check_ids) - set(available_checks()))
        if unknown:
            raise DomainError(f"unknown check ids: {', '.join(unknown)}")
        wanted = set(check_ids)
    else:
        wanted = set(available_checks())
    results = []
    for index, (cid, fn) in enumerate(_REGISTRY):
        if cid not in wanted:
            continue
        result = fn(np.random.default_rng([seed, index]))
        results.append(result)
        if progress is not None:
            progress(result)
    return results
