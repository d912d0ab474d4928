"""Rate functional: closed form, drift decomposition, scalar error form, dual gap.

The local (s near 1) reference value for the normalized bump density of
radius 0.8 is the Dirichlet energy of its square root, 4.9128804 by dense
trapezoid quadrature; the nonlocal values must approach it from below.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from conftest import pair_weights
from scipy.integrate import quad

from nonlocal_dv import cli, lattice, rate
from nonlocal_dv.errors import DomainError
from nonlocal_dv.kernels import fractional_kernel
from nonlocal_dv.lattice import GridFunction, LatticeDomain, assemble, kernel_form
from nonlocal_dv.operators import SmoothFunction, bump, gaussian, scaled, tanh_drift
from nonlocal_dv.rate import (
    DensitySpec,
    I_closed_form_h0,
    I_decomposed,
    Q_form,
    density_lattice,
    drift_pairing,
    dual_gap,
    error_form_value,
    first_order_residual,
    minimize_rayleigh,
    q_scalar_min,
    rayleigh_integral,
)
from nonlocal_dv.recovery import probe_domain, rescale_density

LOCAL_DIRICHLET_REFERENCE = 4.9128804


@pytest.fixture(scope="module")
def density():
    b = bump(1, radius=0.8)
    mass, _ = quad(lambda t: b(np.array([[t]]))[0], -0.8, 0.8, limit=200)
    return DensitySpec(scaled(b, 1.0 / mass))


@pytest.fixture(scope="module")
def drift():
    return SmoothFunction(lambda p: 0.3 * np.tanh(2.0 * p[:, 0]), 1,
                          support_radius=40.0)


def _lattice_mass(dens, dom):
    return float(dens.f(dom.interior_points).sum()) * dom.cell_volume


def test_density_mass_and_rescaling(density):
    dom = density_lattice(density, cells=200)
    assert _lattice_mass(density, dom) == pytest.approx(1.0, abs=1e-4)
    small = rescale_density(density, 0.6, density.center)
    dom_s = density_lattice(small, cells=200)
    assert _lattice_mass(small, dom_s) == pytest.approx(1.0, abs=1e-4)
    assert small.f.support_radius == pytest.approx(0.6 * density.f.support_radius)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("profile", [lambda d: bump(d, radius=0.8),
                                     lambda d: gaussian(d, width=0.5)],
                         ids=["bump", "gaussian"])
@pytest.mark.parametrize("factor", [1e-3, 7.3, 1e4])
def test_values_on_scales_any_mass_to_unit_mass(dim, profile, factor):
    # values_on is the one normalizer: a profile of any positive mass gives
    # the same probability vector, with no warning about its mass
    f = profile(dim)
    dom = density_lattice(DensitySpec(f))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base = DensitySpec(f).values_on(dom)
        other = DensitySpec(scaled(f, factor)).values_on(dom)
    np.testing.assert_allclose(other, base, rtol=1e-15, atol=0.0)
    assert float(base.sum()) * dom.cell_volume == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("lattice_of", [
    density_lattice,
    lambda f: probe_domain(f, 0.5, [0.1]),
], ids=["density_lattice", "probe_domain"])
def test_density_without_support_has_no_lattice(lattice_of):
    dens = DensitySpec(SmoothFunction(lambda p: np.exp(-p[:, 0] ** 2), 1))
    with pytest.raises(DomainError, match="known support"):
        lattice_of(dens)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_values_on_refuses_a_non_finite_density(bad):
    b = bump(1, radius=0.8)
    dens = DensitySpec(SmoothFunction(
        lambda p: np.where(np.arange(len(p)) == 17, bad, b(p)), 1,
        support_radius=0.8))
    dom = LatticeDomain.interval(-1.0, 1.0, 40, margin=0.5)
    with pytest.raises(DomainError, match="not finite"):
        dens.values_on(dom)
    op = assemble(dom, fractional_kernel(1, 0.5, normalized=True))
    with pytest.raises(DomainError, match="not finite"):
        I_decomposed(dens, op)


def test_rayleigh_constant_function_vanishes(density):
    spec = fractional_kernel(1, 0.5, normalized=True)
    dom = density_lattice(density, cells=80)
    u = GridFunction(dom, np.ones(dom.n_interior))
    val = rayleigh_integral(u, density, assemble(dom, spec), far_value=1.0)
    assert abs(val) < 1e-12


def test_rayleigh_at_sqrt_density_is_closed_form(density):
    spec = fractional_kernel(1, 0.5, normalized=True)
    dom = density_lattice(density, cells=100)
    op = assemble(dom, spec)
    fv = density.values_on(dom)
    u = GridFunction(dom, np.sqrt(fv))
    val = rayleigh_integral(u, density, op)
    closed = I_closed_form_h0(density, op)
    assert val == pytest.approx(-closed, rel=1e-12)
    # additive regularization converges to the same value from above
    errs = []
    for eps in (1e-3, 1e-5):
        ueps = GridFunction(dom, np.sqrt(fv) + eps)
        veps = rayleigh_integral(ueps, density, op, far_value=eps)
        assert veps >= val - 1e-12
        errs.append(abs(veps - val))
    assert errs[1] < errs[0]


def test_rayleigh_lower_bound_over_random_candidates(density):
    spec = fractional_kernel(1, 0.5, normalized=True)
    dom = density_lattice(density, cells=60)
    op = assemble(dom, spec)
    closed = I_closed_form_h0(density, op)
    rng = np.random.default_rng(17)
    for _ in range(8):
        u = GridFunction(dom, 0.2 + rng.uniform(0.0, 1.0, size=dom.n_interior))
        assert rayleigh_integral(u, density, op) >= -closed - 1e-10


def test_rayleigh_requires_positive_candidate(density):
    spec = fractional_kernel(1, 0.5, normalized=True)
    dom = density_lattice(density, cells=40)
    u = GridFunction(dom, np.zeros(dom.n_interior))
    with pytest.raises(DomainError):
        rayleigh_integral(u, density, assemble(dom, spec))


def test_rayleigh_rejects_candidate_off_the_operator_lattice(density):
    spec = fractional_kernel(1, 0.5, normalized=True)
    op = assemble(density_lattice(density, cells=40), spec)
    for cells in (30, 40):
        # a different node count, and an equal lattice that is not op's
        dom = density_lattice(density, cells=cells)
        u = GridFunction(dom, np.ones(dom.n_interior))
        with pytest.raises(DomainError):
            rayleigh_integral(u, density, op, far_value=1.0)


def test_local_limit_trend(density):
    dom = density_lattice(density, cells=100)
    errs = []
    for s in (0.5, 0.6, 0.75, 0.9):
        spec = fractional_kernel(1, s, normalized=True)
        val = I_closed_form_h0(density, assemble(dom, spec))
        errs.append(LOCAL_DIRICHLET_REFERENCE - val)
    assert all(e > 0 for e in errs)
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_decomposition_reduces_to_closed_form_without_drift(density):
    spec = fractional_kernel(1, 0.5, normalized=True)
    dom = density_lattice(density, cells=80)
    op = assemble(dom, spec)
    parts = I_decomposed(density, op)
    closed = I_closed_form_h0(density, op)
    assert abs(parts.E_value) < 1e-12
    assert parts.I_value == pytest.approx(closed, rel=1e-10)
    assert np.abs(parts.w_min.values).max() < 1e-6
    # without drift the zero field is the exact minimizer: no Newton step
    assert (parts.E_value, parts.newton_steps, parts.newton_decrement) == (
        0.0, 0, 0.0)
    assert not parts.w_min.values.any()


def test_decomposition_matches_direct_minimization(density, drift):
    spec = fractional_kernel(1, 0.5, normalized=True)
    dom = density_lattice(density, cells=80)
    op = assemble(dom, spec, drift=drift)
    parts = I_decomposed(density, op)
    direct_value, u_min, iterations = minimize_rayleigh(density, op)
    I_direct = -direct_value
    assert iterations > 0
    assert u_min.values.min() > 0.0
    assert parts.I_value == pytest.approx(I_direct, rel=1e-2)
    assert parts.E_value <= 1e-15


@pytest.mark.parametrize("amplitude", [0.3, 0.45])
def test_error_form_newton_reaches_a_stationary_point(density, amplitude):
    # the gradient, written out here from the pair weights, obeys the bound
    # the stopping rule implies: |g|^2 <= lambda^2 lambda_max(H), with
    # lambda^2 / 2 <= tol max(1, |E|) and H bounded by Gershgorin
    spec = fractional_kernel(1, 0.5, normalized=True)
    drift = SmoothFunction(lambda p: amplitude * np.tanh(2.0 * p[:, 0]), 1,
                           support_radius=40.0)
    op = assemble(density_lattice(density, cells=60), spec, drift=drift)
    parts = I_decomposed(density, op)
    fv = density.values_on(op.domain)
    supp = fv > 0.0
    idx = np.nonzero(op.domain.interior_mask)[0][supp]
    a = (np.sqrt(np.outer(fv[supp], fv[supp]))
         * pair_weights(op)[np.ix_(np.nonzero(supp)[0], idx)] * op.domain.cell_volume)
    h = op.drift_values[idx]
    w = parts.w_min.values[supp]
    dw = w[None, :] - w[:, None]
    dh = h[None, :] - h[:, None]
    grad = -2.0 * (a * (np.sinh(dw) + 0.5 * np.cosh(dw) * dh)).sum(axis=1)
    curv = a * (np.cosh(dw) + 0.5 * np.sinh(dw) * dh)
    lam_max = 4.0 * curv.sum(axis=1).max()
    pin = np.argmax(fv[supp])
    assert w[pin] == 0.0
    assert parts.newton_steps >= 1
    assert 0.5 * parts.newton_decrement**2 <= rate._ERROR_TOL * max(
        1.0, abs(parts.E_value))
    g = np.delete(grad, pin)
    assert g @ g <= parts.newton_decrement**2 * lam_max * (1.0 + 1e-9)
    assert np.abs(g).max() < 1e-8


def test_rayleigh_newton_reaches_a_stationary_point(density, drift):
    # gradient of the averaged ratio in w, in the form the direct route
    # used before: u (-f (M u)/u^2 + M^T (f/u)) vol
    spec = fractional_kernel(1, 0.5, normalized=True)
    op = assemble(density_lattice(density, cells=60), spec, drift=drift)
    value, u_min, steps = minimize_rayleigh(density, op)
    vol = op.domain.cell_volume
    fv = density.values_on(op.domain) + rate._RAYLEIGH_EPS
    fv /= fv.sum() * vol
    u = u_min.values
    applied = op.matrix @ u
    assert value == pytest.approx(float(fv @ (applied / u)) * vol, rel=1e-13)
    grad = u * (-fv * applied / u**2 + op.matrix.T @ (fv / u)) * vol
    pin = np.argmax(fv)
    assert u[pin] == 1.0
    assert steps >= 1
    assert np.abs(np.delete(grad, pin)).max() < 1e-10


def test_newton_solvers_refuse_the_nonconvex_regime(density):
    # amplitude 1.2: the drift moves by more than 2 across the density
    # support, and the assembled matrix has negative off-diagonal entries
    spec = fractional_kernel(1, 0.5, normalized=True)
    strong = SmoothFunction(lambda p: 1.2 * np.tanh(2.0 * p[:, 0]), 1,
                            support_radius=40.0)
    op = assemble(density_lattice(density, cells=40), spec, drift=strong)
    off = op.matrix[~np.eye(op.n, dtype=bool)]
    assert off.min() < 0.0
    with pytest.raises(DomainError, match="off-diagonal"):
        minimize_rayleigh(density, op)
    with pytest.warns(UserWarning, match="oscillation"):
        with pytest.raises(DomainError, match="not convex"):
            I_decomposed(density, op)


def test_decomposition_warns_on_large_drift_oscillation(density):
    # the warning reads the drift the operator was assembled with
    spec = fractional_kernel(1, 0.5, normalized=True)
    strong = SmoothFunction(lambda p: 0.6 * np.tanh(2.0 * p[:, 0]), 1,
                            support_radius=40.0)
    op = assemble(density_lattice(density, cells=40), spec, drift=strong)
    assert op.drift_oscillation() >= 1.0
    with pytest.warns(UserWarning, match="oscillation"):
        I_decomposed(density, op)


def test_error_pieces_built_once_per_solve(density, drift, monkeypatch):
    spec = fractional_kernel(1, 0.5, normalized=True)
    dom = density_lattice(density, cells=40)
    op = assemble(dom, spec, drift=drift)
    fv = density.values_on(dom)
    pieces = rate._rate_pieces
    builds = []

    def counting(*args):
        builds.append(args)
        return pieces(*args)

    monkeypatch.setattr(rate, "_rate_pieces", counting)
    parts = I_decomposed(density, op)
    assert len(builds) == 1
    # reference: every evaluation of the objective rebuilds its pieces
    objective = rate._error_objective
    monkeypatch.setattr(rate, "_error_objective",
                        lambda _, w: objective(pieces(op, fv)[2], w))
    ref = I_decomposed(density, op)
    assert parts.E_value == ref.E_value
    assert np.array_equal(parts.w_min.values, ref.w_min.values)


def test_error_form_lower_bound(density, drift):
    # Theta >= -dh^2 pointwise, so the error form is bounded below by the
    # squared-increment drift pairing for every exponent field
    spec = fractional_kernel(1, 0.5, normalized=True)
    dom = density_lattice(density, cells=60)
    op = assemble(dom, spec, drift=drift)
    fv = density.values_on(dom)
    sqf = np.sqrt(fv)
    mask = op.domain.interior_mask
    h_int = op.drift_values[mask]
    W = pair_weights(op)[:, mask]
    dh2 = (h_int[None, :] - h_int[:, None]) ** 2
    bound = -float(sqf @ (W * dh2) @ sqf) * dom.cell_volume
    rng = np.random.default_rng(4)
    for _ in range(5):
        w = 0.5 * rng.normal(size=dom.n_interior)
        assert error_form_value(op, fv, w) >= bound - 1e-12
    parts = I_decomposed(density, op)
    assert parts.E_value >= bound - 1e-12
    assert parts.E_value == pytest.approx(
        error_form_value(op, fv, parts.w_min.values), abs=1e-12)


def test_first_order_and_substitution_identities(density, drift):
    spec = fractional_kernel(1, 0.5, normalized=True)
    dom = density_lattice(density, cells=70)
    fv = density.values_on(dom)
    plain = assemble(dom, spec)
    drifted = assemble(dom, spec, drift=drift)
    for op in (plain, drifted):
        assert first_order_residual(op, fv) < 1e-11
    # the substitution identity 2u (M u) = M f - 2 B(u, u) at u = sqrt(f),
    # for the Laplace block alone: B(u, u) per node is the pair rows of the
    # zero extension plus half the beyond-box tail, summed pair by pair
    sqf = np.sqrt(fv)
    mask = dom.interior_mask
    full = np.zeros(len(dom.points))
    full[mask] = sqf
    du = full[None, :] - sqf[:, None]
    bracket = 0.5 * (pair_weights(plain) * du * du).sum(axis=1) + 0.5 * fv * plain.box_tail
    residual = 2.0 * sqf * (plain.matrix @ sqf) - (plain.matrix @ fv - 2.0 * bracket)
    assert np.abs(residual).max() < 1e-11


def test_symmetric_weight_relabeling(density, drift):
    # symmetric pair quantities average the density across the pair exactly
    spec = fractional_kernel(1, 0.5, normalized=True)
    dom = density_lattice(density, cells=50)
    op = assemble(dom, spec, drift=drift)
    mask = op.domain.interior_mask
    h_int = op.drift_values[mask]
    W = pair_weights(op)[:, mask]
    phi = W * (h_int[None, :] - h_int[:, None]) ** 2
    fv = density.values_on(dom)
    lhs = float((phi * fv[:, None]).sum())
    rhs = float((phi * 0.5 * (fv[:, None] + fv[None, :])).sum())
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_scalar_error_form():
    assert q_scalar_min(0.0) == pytest.approx(0.0, abs=1e-12)
    assert q_scalar_min(1.0) == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-9)
    for hbar in np.linspace(-1.0, 1.0, 21):
        closed = np.sqrt(1.0 - hbar**2 / 4.0) - 1.0 + hbar**2
        assert q_scalar_min(hbar) == pytest.approx(closed, abs=1e-9)
    r = np.linspace(-10.0, 10.0, 81)
    h = np.linspace(-1.0, 1.0, 41)
    grid = Q_form(h[None, :], r[:, None])
    assert grid.min() >= -1e-10


def test_scalar_error_form_vectorized():
    # one call on 1000 points against the closed form; a scalar gives a float
    hbar = np.linspace(-1.0, 1.0, 1000)
    closed = np.sqrt(1.0 - hbar**2 / 4.0) - 1.0 + hbar**2
    values = q_scalar_min(hbar)
    assert values.shape == hbar.shape
    assert np.abs(values - closed).max() < 1e-12
    assert type(q_scalar_min(0.5)) is float
    assert q_scalar_min(0.5) == pytest.approx(np.sqrt(0.9375) - 0.75, abs=1e-15)
    with pytest.raises(DomainError):
        q_scalar_min(np.array([0.0, 2.0]))


def test_q_variants_differ_by_half_cross_term():
    # the form keeps the derivation's 1/2 on the odd cross term: it sits
    # half a cross term below the displayed form, which carries sinh(r) hbar
    r, hbar = 0.7, 0.4
    displayed = np.cosh(r) - 1.0 + np.sinh(r) * hbar + hbar**2
    assert displayed - Q_form(hbar, r) == pytest.approx(0.5 * np.sinh(r) * hbar,
                                                        rel=1e-12)


def test_drift_pairing_against_brute_force(density, drift):
    spec = fractional_kernel(1, 0.4, normalized=True)
    dom = density_lattice(density, cells=40)
    op = assemble(dom, spec, drift=drift)
    # the weights of every row of the box: the same lattice, every node interior
    whole = dataclasses.replace(dom, interior_mask=np.ones(len(dom.points), dtype=bool))
    W = pair_weights(assemble(whole, spec))
    assert np.array_equal(W[dom.interior_mask], pair_weights(op))
    fv = density.values_on(dom)
    full = np.zeros(len(dom.points))
    full[dom.interior_mask] = fv
    h_all = op.drift_values
    acc = 0.0
    for i in range(len(full)):
        for j in range(len(full)):
            if i != j:
                acc += 0.5 * (full[j] - full[i]) * (h_all[j] - h_all[i]) * W[i, j]
    acc -= float(fv @ op.drift_far)
    acc *= dom.cell_volume
    assert drift_pairing(op, fv) == pytest.approx(acc, rel=1e-12)


def test_I_decomposed_builds_the_pair_weights_once(monkeypatch, density, drift):
    # the energy, the drift pairing and the error form all read W: one
    # pass over the chunks beyond assembly gives the two forms and the
    # support block of the error form, and holds no W
    passes = []
    real = lattice._pair_weight_chunks

    def counting(*args, **kwargs):
        passes.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(lattice, "_pair_weight_chunks", counting)
    spec = fractional_kernel(1, 0.5, normalized=True)
    for h in (None, drift):
        passes.clear()
        op = assemble(density_lattice(density, cells=40), spec, drift=h)
        assert len(passes) == 1
        parts = I_decomposed(density, op)
        assert len(passes) == 2
        # the values of the forms and of the error form read alone, bit for
        # bit: each pair takes its own product in the shared pass
        fv = density.values_on(op.domain)
        assert parts.energy == kernel_form(op, np.sqrt(fv))
        assert parts.pairing == drift_pairing(op, fv)
        assert parts.E_value == error_form_value(op, fv, parts.w_min.values)


def test_I_decomposed_holds_no_pair_weights(traced_memory):
    # the dv-functional lattice of a bump of radius 0.8 at 40 cells with a
    # tanh drift: 1600 unknowns on 5184 box nodes, where W alone is 63 MiB.
    # Assembly and the decomposition together hold the matrix (19.5 MiB),
    # one chunk of W, the support block and the error-form arrays, within
    # the bytes that the capacity check allows the lattice
    spec, dim = cli._kernel_from_config({"variant": "constant", "s": 0.5,
                                         "matrix": [[1.2, 0.3], [0.3, 0.8]],
                                         "normalized": True})
    dens, dom = cli._density_from_config(
        {"profile": {"kind": "bump", "radius": 0.8}, "cells": 40}, dim)
    drift = tanh_drift(dim, amplitude=0.3, slope=2.0)
    assert (dom.n_interior, len(dom.points)) == (1600, 5184)
    with traced_memory() as memory:
        I_decomposed(dens, assemble(dom, spec, drift=drift))
        peak = memory().peak
    assert peak < min(lattice._pair_peak_bytes(dom), 50 * 2**20)


def test_dual_gap_families(density, drift):
    spec = fractional_kernel(1, 0.5, normalized=True)
    op = assemble(density_lattice(density, cells=60), spec, drift=drift)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        base = dual_gap(density, [lambda p: np.zeros(len(p))], op)
        wells = [lambda p, a=a: a * p[:, 0] ** 2 for a in
                 (-0.5, -1.0, -2.0, -4.0, -8.0)]
        rich = dual_gap(density, [lambda p: np.zeros(len(p))] + wells, op)
    assert base.gap >= -1e-8
    assert rich.gap >= -1e-8
    assert rich.gap < base.gap
    # constant potential shifts leave every family value unchanged
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        shifted = dual_gap(density, [lambda p: 2.5 * np.ones(len(p))], op)
    assert shifted.values[0] == pytest.approx(base.values[0], abs=1e-7)


def test_dual_gap_potentials(density, drift, monkeypatch):
    spec = fractional_kernel(1, 0.5, normalized=True)
    dom = density_lattice(density, cells=40)
    base_V = 0.3 * dom.interior_points[:, 0] ** 2
    op = assemble(dom, spec, drift=drift, potential=base_V)
    with pytest.raises(DomainError):
        dual_gap(density, [np.zeros(op.n + 1)], op)
    with pytest.raises(DomainError):
        dual_gap(density, [lambda p: np.zeros(len(p) - 1)], op)
    # each shifted operator holds the matrix of a fresh assembly with the
    # shifted potential
    seen = []
    solve = rate.principal_eigenpair

    def capture(op_V, **kwargs):
        seen.append(op_V)
        return solve(op_V, **kwargs)

    monkeypatch.setattr(rate, "principal_eigenpair", capture)
    V = 0.1 * np.ones(op.n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dual_gap(density, [V], op)
    (op_V,) = seen
    ref = assemble(dom, spec, drift=drift, potential=base_V + V).matrix
    assert np.allclose(op_V.matrix, ref, rtol=1e-13, atol=1e-13)
