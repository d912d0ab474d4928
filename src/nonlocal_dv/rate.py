"""Rate functional of a compactly supported density under a drifted kernel.

The central quantity is the infimum over positive test functions u of the
density-weighted average of (operator u)/u.  Discretely the infimum is
attained at the square root of the density extended by zero, where it
equals minus the kernel energy of that square root; with a drift the value
decomposes into the square-root energy, half the density/drift pairing,
and a nonpositive correction obtained by minimizing a hyperbolic two-term
form over exponent fields.  Both routes are implemented independently: the
decomposition and a direct quasi-Newton minimization of the averaged ratio.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.optimize

from .errors import ConvergenceError, DomainError
from .lattice import (
    AssembledOperator,
    GridFunction,
    LatticeDomain,
    _full_values,
    assemble,  # noqa: F401  bound here for the perfbench tracer self-test
    graph_form,
    kernel_form,
)
from .operators import SmoothFunction
from .spectral import principal_eigenpair

_MASS_WARN = 0.01
_W_BOUND = 30.0  # exp(w) stays within double range
_LATTICE_MARGIN = 1.0  # box margin of density_lattice and probe_domain
_SUPPORT_PAD = 0.5  # their padding of the density support
_ERROR_TOL = 1e-8  # L-BFGS of the error form
_ERROR_MAX_ITER = 500
_RAYLEIGH_EPS = 1e-8  # density floor of minimize_rayleigh
_RAYLEIGH_TOL = 1e-6
_RAYLEIGH_MAX_ITER = 2000
_DUAL_TOL = 1e-9  # inverse iteration of dual_gap


@dataclass(frozen=True)
class DensitySpec:
    """Probability density with its concentration point."""

    f: SmoothFunction
    center: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        center = (np.zeros(self.f.dim) if self.center is None
                  else np.asarray(self.center, dtype=float))
        if center.shape != (self.f.dim,):
            raise DomainError("center must match the density dimension")
        object.__setattr__(self, "center", center)

    def values_on(self, domain: LatticeDomain):
        """Density values on interior nodes, renormalized to unit lattice mass."""
        vals = self.f(domain.interior_points)
        if vals.min() < -1e-12:
            raise DomainError("density takes negative values on the lattice")
        vals = np.maximum(vals, 0.0)
        total = float(vals.sum()) * domain.cell_volume
        if total <= 0.0:
            raise DomainError("density vanishes on the lattice interior")
        if abs(total - 1.0) > _MASS_WARN:
            warnings.warn(
                "density mass on the lattice is %.6f, not 1" % total,
                stacklevel=2,
            )
        return vals / total


def density_lattice(f: DensitySpec, cells: int | None = None) -> LatticeDomain:
    """Interval/box lattice covering the density support plus padding."""
    dim = f.f.dim
    if cells is None:
        cells = 96 if dim == 1 else 24
    reach = f.f.support_radius + _SUPPORT_PAD
    lower = f.center - reach
    upper = f.center + reach
    if dim == 1:
        return LatticeDomain.interval(float(lower[0]), float(upper[0]),
                                      cells, margin=_LATTICE_MARGIN)
    return LatticeDomain.box(lower, upper, [cells] * dim,
                             margin=_LATTICE_MARGIN)


def rayleigh_integral(u: GridFunction, f: DensitySpec, op: AssembledOperator,
                      far_value: float = 0.0) -> float:
    """Density-weighted average of (operator u)/u on the lattice.

    u must live on the operator's lattice and be strictly positive wherever
    the density is positive; values outside the support may vanish.
    far_value declares the constant state of u beyond the lattice box (zero
    for compactly supported candidates).
    """
    if u.domain is not op.domain:
        raise DomainError("candidate must live on the operator's lattice")
    fv = f.values_on(op.domain)
    supp = fv > 0.0
    uv = u.values
    if uv[supp].min() <= 0.0:
        raise DomainError("candidate must be positive on the density support")
    # the assembled matrix embeds data by zero; a constant far state is
    # handled exactly by applying to (values - far), since constants are
    # annihilated by both the kernel and the drift blocks
    applied = op.matrix @ (uv - far_value)
    return float(fv[supp] @ (applied[supp] / uv[supp])) * u.domain.cell_volume


def I_closed_form_h0(f: DensitySpec, op: AssembledOperator) -> float:
    """Kernel energy of the square root of the density (drift-free value)."""
    fv = f.values_on(op.domain)
    return kernel_form(op, np.sqrt(fv))


def drift_pairing(op: AssembledOperator, f_values: np.ndarray) -> float:
    """Bilinear pairing of the density increments with the drift increments.

    Includes the beyond-box contribution through the far drift integrals.
    """
    if op.drift_values is None:
        return 0.0
    mask = op.domain.interior_mask
    inner = graph_form(op.pair_weights, _full_values(op, f_values),
                       op.drift_values)
    far = float(f_values @ op.drift_far[mask])
    return (inner - far) * op.domain.cell_volume


def error_form_value(op: AssembledOperator, f_values: np.ndarray,
                     w_values: np.ndarray) -> float:
    """Hyperbolic two-term form at a given exponent field (no minimization)."""
    val, _ = _error_objective(_error_pieces(op, f_values), w_values)
    return val


def _error_pieces(op: AssembledOperator, f_values: np.ndarray):
    # support, coefficients a and drift increments dh depend on op and f only
    mask = op.domain.interior_mask
    supp = f_values > 0.0
    sqf = np.sqrt(f_values[supp])
    idx = np.where(mask)[0][supp]
    W = op.pair_weights[np.ix_(idx, idx)]
    a = np.outer(sqf, sqf) * W * op.domain.cell_volume
    if op.drift_values is None:
        dh = np.zeros_like(a)
    else:
        h_sub = op.drift_values[idx]
        dh = h_sub[None, :] - h_sub[:, None]
    return supp, a, dh


def _error_objective(pieces, w_values):
    supp, a, dh = pieces
    w = np.asarray(w_values, dtype=float)[supp]
    dw = w[None, :] - w[:, None]
    theta = np.cosh(dw) - 1.0 + 0.5 * np.sinh(dw) * dh
    value = float((a * theta).sum())
    grad = np.zeros(len(supp))
    grad[supp] = -2.0 * (a * (np.sinh(dw) + 0.5 * np.cosh(dw) * dh)).sum(axis=1)
    return value, grad


@dataclass(frozen=True)
class RateDecomposition:
    """The pieces of I = energy - pairing/2 - E that ``I_decomposed`` forms.

    ``energy`` is the kernel energy of sqrt f, ``pairing`` the density/drift
    pairing (0 without drift), ``E_value`` the minimum of the hyperbolic
    error form and ``w_min`` its minimizing exponent field.
    """

    I_value: float
    energy: float
    pairing: float
    E_value: float
    w_min: GridFunction


def I_decomposed(f: DensitySpec, op: AssembledOperator) -> RateDecomposition:
    """Split the rate value into energy, drift pairing, and error correction.

    Returns I = energy(sqrt f) - pairing/2 - E with its pieces, E the
    minimum of the hyperbolic form over exponent fields, found by
    quasi-Newton descent started from the zero field, and w_min the
    minimizing exponent field on the interior nodes.  The kernel and the
    drift are those ``op`` was assembled with; a drift of oscillation 1 or
    more draws a warning.
    """
    domain = op.domain
    if op.drift_oscillation() >= 1.0:
        warnings.warn(
            "drift oscillation >= 1; the error-form sign guarantee is lost",
            stacklevel=2,
        )
    fv = f.values_on(domain)
    energy = kernel_form(op, np.sqrt(fv))
    pairing = drift_pairing(op, fv)

    pieces = _error_pieces(op, fv)
    supp = pieces[0]
    n_supp = int(supp.sum())
    x0 = np.zeros(n_supp)
    trace: list[float] = []

    def objective(x):
        w_full = np.zeros(len(fv))
        w_full[supp] = x
        val, grad = _error_objective(pieces, w_full)
        trace.append(val)
        return val, grad[supp]

    result = scipy.optimize.minimize(
        objective, x0, jac=True, method="L-BFGS-B",
        bounds=[(-_W_BOUND, _W_BOUND)] * n_supp,
        options={"maxiter": _ERROR_MAX_ITER, "gtol": _ERROR_TOL, "ftol": 1e-14},
    )
    if not result.success and np.abs(result.jac).max() > 100 * _ERROR_TOL:
        raise ConvergenceError(
            "error-form descent did not converge: %s; objective trace tail %s"
            % (result.message, [float("%.6g" % t) for t in trace[-5:]])
        )
    w_full = np.zeros(len(fv))
    w_full[supp] = result.x
    E_value = float(result.fun)
    return RateDecomposition(energy - 0.5 * pairing - E_value, energy, pairing,
                             E_value, GridFunction(domain, w_full))


def minimize_rayleigh(f: DensitySpec, op: AssembledOperator):
    """Directly minimize the averaged ratio over positive candidates u = e^w.

    The density gets an eps floor so the discrete minimizer stays interior;
    the floor perturbs the value by order sqrt(eps).  The tolerance is looser
    than the decomposition route because floor nodes contribute near-flat
    directions.  Returns the minimal value, the minimizer, and the iteration
    count.  The operator u is averaged against is ``op``, drift included.
    """
    domain = op.domain
    fv = f.values_on(domain) + _RAYLEIGH_EPS
    fv /= fv.sum() * domain.cell_volume
    vol = domain.cell_volume
    matrix = op.matrix

    def objective(w):
        u = np.exp(w)
        applied = matrix @ u
        ratio = applied / u
        value = float(fv @ ratio) * vol
        grad = u * (-fv * applied / u**2 + matrix.T @ (fv / u)) * vol
        return value, grad

    result = scipy.optimize.minimize(
        objective, np.zeros(op.n), jac=True, method="L-BFGS-B",
        bounds=[(-_W_BOUND, _W_BOUND)] * op.n,
        options={"maxiter": _RAYLEIGH_MAX_ITER, "gtol": _RAYLEIGH_TOL,
                 "ftol": 1e-14},
    )
    if not result.success and np.abs(result.jac).max() > 100 * _RAYLEIGH_TOL:
        raise ConvergenceError(
            "ratio minimization did not converge: %s" % result.message
        )
    u_min = np.exp(result.x)
    return float(result.fun), GridFunction(domain, u_min), int(result.nit)


def first_order_residual(op: AssembledOperator, f_values: np.ndarray) -> float:
    """Stationarity residual of the averaged ratio at u = sqrt(f), on supp f.

    The residual is f (op u)/u^2 - op(f/u) with the convention f/u = sqrt(f)
    where f vanishes; both sides are evaluated through their own floating
    paths, so the bound certifies the discrete identity rather than echoing
    one expression twice.
    """
    supp = f_values > 0.0
    sqf = np.sqrt(f_values)
    ratio = np.zeros_like(f_values)
    ratio[supp] = f_values[supp] / sqf[supp]
    side1 = f_values[supp] * (op.matrix @ sqf)[supp] / sqf[supp] ** 2
    side2 = (op.matrix @ ratio)[supp]
    if side1.size == 0:
        return 0.0
    return float(np.abs(side1 - side2).max())


def Q_form(dh, dw):
    """Nonnegative error form in the increment variables (C = 2).

    cosh dw - 1 + 1/2 sinh(dw) dh + dh^2: the odd cross term carries the
    1/2 of the derivation, and C dh^2/2 = dh^2 is the stabilizer.  Accepts
    array arguments.
    """
    dh = np.asarray(dh, dtype=float)
    dw = np.asarray(dw, dtype=float)
    return np.cosh(dw) - 1.0 + 0.5 * np.sinh(dw) * dh + dh**2


def q_scalar_min(hbar: float) -> float:
    """Minimum over the exponent increment of the scalar error form."""
    res = scipy.optimize.minimize_scalar(
        lambda r: float(Q_form(hbar, r)), bracket=(-2.0, 0.0, 2.0),
        options={"xtol": 1e-12},
    )
    return float(res.fun)


@dataclass(frozen=True)
class DualGapReport:
    values: list
    reference: float
    gap: float


def dual_gap(f: DensitySpec, V_family, op: AssembledOperator) -> DualGapReport:
    """Eigenvalue lower bounds against the minimized rate value.

    For each potential V the quantity lambda1(op + V) + mean_f(V) bounds the
    rate value from below; the report collects the family values, the
    decomposition reference, and the gap between the reference and the
    largest value (nonnegative up to slack).
    Each V is a callable on the interior points or an array with one value
    per interior node; any other length raises DomainError.
    """
    domain = op.domain
    fv = f.values_on(domain)
    vol = domain.cell_volume
    values = []
    for V in V_family:
        V_int = np.asarray(V(domain.interior_points)
                           if callable(V) else V, dtype=float)
        if V_int.shape != (op.n,):
            raise DomainError("potential has shape %s, not one value per "
                              "interior node (%d)" % (V_int.shape, op.n))
        op_V = replace(op, potential=op.potential + V_int,
                       matrix=op.matrix + np.diag(V_int))
        pair = principal_eigenpair(op_V, tol=_DUAL_TOL, max_iter=800,
                                   cross_check=False)
        values.append(pair.lambda1 + float(fv @ V_int) * vol)
    reference = I_decomposed(f, op).I_value
    return DualGapReport(values=values, reference=reference,
                         gap=reference - max(values))