"""Rate functional of a compactly supported density under a drifted kernel.

The central quantity is the infimum over positive test functions u of the
density-weighted average of (operator u)/u.  Discretely the infimum is
attained at the square root of the density extended by zero, where it
equals minus the kernel energy of that square root; with a drift the value
decomposes into the square-root energy, half the density/drift pairing,
and a nonpositive correction obtained by minimizing a hyperbolic two-term
form over exponent fields.  Both routes are implemented independently: the
decomposition and a direct minimization of the averaged ratio.  With u = e^w
both minimizations are convex, with a weighted graph Laplacian as Hessian,
and both run the same gauge-pinned Newton method (``_newton``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceError, DomainError
from .lattice import (
    AssembledOperator,
    GridFunction,
    LatticeDomain,
    _box_pair_form,
    _energy_terms,
    assemble,  # noqa: F401  bound here for the perfbench tracer self-test
    kernel_form,
)
from .operators import SmoothFunction
from .spectral import _positive_off_diagonal, principal_eigenpair

_LATTICE_MARGIN = 1.0  # box margin of _support_lattice at scale 1
_SUPPORT_PAD = 0.5  # its padding of the density support
# Newton tolerance on lambda^2/2 relative to max(1, |F|), and step cap
_ERROR_TOL = 1e-14  # the error form of I_decomposed
_ERROR_MAX_ITER = 50
_RAYLEIGH_EPS = 1e-8  # density floor of minimize_rayleigh
_RAYLEIGH_TOL = 1e-14
_RAYLEIGH_MAX_ITER = 50
_DUAL_TOL = 1e-9  # inverse iteration of dual_gap


@dataclass(frozen=True)
class DensitySpec:
    """Nonnegative density profile with its concentration point.

    The profile needs positive mass on a lattice, not unit mass:
    ``values_on`` is the one place that scales it to a probability vector.
    """

    f: SmoothFunction
    center: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        center = (np.zeros(self.f.dim) if self.center is None
                  else np.asarray(self.center, dtype=float))
        if center.shape != (self.f.dim,):
            raise DomainError("center must match the density dimension")
        object.__setattr__(self, "center", center)

    def values_on(self, domain: LatticeDomain):
        """Density values on interior nodes, scaled to unit lattice mass."""
        vals = self.f(domain.interior_points)
        if not np.isfinite(vals).all():
            raise DomainError("density is not finite on the lattice")
        if vals.min() < -1e-12:
            raise DomainError("density takes negative values on the lattice")
        vals = np.maximum(vals, 0.0)
        total = float(vals.sum()) * domain.cell_volume
        if total <= 0.0:
            raise DomainError("density vanishes on the lattice interior")
        return vals / total


def density_lattice(f: DensitySpec, cells: int | None = None) -> LatticeDomain:
    """Interval/box lattice covering the density support plus padding."""
    if cells is None:
        cells = 96 if f.f.dim == 1 else 24
    return _support_lattice(f, 1.0, f.center, cells)


def _support_lattice(f: DensitySpec, lam: float, x0: np.ndarray,
                     cells: int) -> LatticeDomain:
    """The lattice of ``density_lattice`` scaled by lam and centred at x0:
    half-width lam (support radius + padding) and margin lam times the
    margin, so that at lam = 1 about f.center it is that lattice."""
    if f.f.support_radius is None:
        raise DomainError("the density lattice needs a density of known support")
    reach = lam * (f.f.support_radius + _SUPPORT_PAD)
    lower = x0 - reach
    upper = x0 + reach
    if f.f.dim == 1:
        return LatticeDomain.interval(float(lower[0]), float(upper[0]), cells,
                                      margin=lam * _LATTICE_MARGIN)
    return LatticeDomain.box(lower, upper, [cells] * f.f.dim,
                             margin=lam * _LATTICE_MARGIN)


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

    The pair sum runs over every pair of box nodes, the drift taking its
    values on the exterior nodes too, and includes the beyond-box
    contribution through the far drift integrals.
    """
    if op.drift_values is None:
        return 0.0
    forms, _ = _box_pair_form(op, *_pairing_terms(op, f_values))
    return float(forms[0])


def _pairing_terms(op: AssembledOperator, f_values: np.ndarray):
    """The ``_box_pair_form`` terms (f, h on the box, -f . far) of the drift pairing."""
    return f_values[None], op.drift_values[None], np.array([-(f_values @ op.drift_far)])


def _newton(fun, w: np.ndarray, pin: int, tol: float, max_steps: int,
            what: str):
    """Minimize a convex F that is invariant under w -> w + c by Newton steps.

    ``fun(w)`` returns F, its gradient and its Hessian, a weighted graph
    Laplacian whose null space is the constant vector.  Entry ``pin`` of w
    stays fixed, which removes that direction; each step solves the pinned
    Hessian system by Cholesky and backtracks to the Armijo condition.  The
    iteration stops when the Newton decrement lambda = sqrt(g^T H^-1 g)
    satisfies lambda^2/2 <= tol max(1, |F|), and raises ConvergenceError
    after ``max_steps`` steps.  Returns (w, F, steps, lambda).
    """
    free = np.arange(len(w)) != pin
    value, grad, hess = fun(w)
    for steps in range(max_steps + 1):
        g = grad[free]
        try:
            chol = np.linalg.cholesky(hess[np.ix_(free, free)])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                "%s: pinned Hessian not positive definite after %d Newton "
                "steps" % (what, steps)) from exc
        # numpy has no triangular solve: two general solves apply the
        # factor, in the O(n^3) of the factorization itself
        direction = -np.linalg.solve(chol.T, np.linalg.solve(chol, g))
        lam2 = max(0.0, -float(g @ direction))  # 0.0, never -0.0
        if 0.5 * lam2 <= tol * max(1.0, abs(value)):
            return w, value, steps, float(np.sqrt(lam2))
        if steps == max_steps:
            break
        t = 1.0
        while True:
            trial = w.copy()
            trial[free] += t * direction
            # an overlong trial step may overflow exp/cosh; its value is
            # then inf or nan and fails the test below
            with np.errstate(over="ignore", invalid="ignore"):
                t_value, t_grad, t_hess = fun(trial)
            # Armijo with fraction 1/4: the directional derivative is -lam2
            if t_value <= value - 0.25 * t * lam2:
                break
            t *= 0.5
            if t < 1e-12:
                raise ConvergenceError(
                    "%s: Newton line search stalled at decrement %.3g after "
                    "%d steps" % (what, np.sqrt(lam2), steps))
        w, value, grad, hess = trial, t_value, t_grad, t_hess
    raise ConvergenceError(
        "%s: no convergence in %d Newton steps; decrement %.3g"
        % (what, max_steps, np.sqrt(lam2)))


def error_form_value(op: AssembledOperator, f_values: np.ndarray,
                     w_values: np.ndarray) -> float:
    """Hyperbolic two-term form at a given exponent field (no minimization)."""
    return _error_objective(_rate_pieces(op, f_values)[2], w_values)[0]


def _rate_pieces(op: AssembledOperator, f_values: np.ndarray):
    """The energy of sqrt f, the drift pairing (0 without drift) and the error
    form's (support, a, dh), from one pass that gathers the block of W a reads."""
    supp = f_values > 0.0
    sqf = np.sqrt(f_values)
    idx = np.flatnonzero(op.domain.interior_mask)[supp]
    terms = [_energy_terms(op, sqf, sqf)]
    h_sub = np.zeros(len(idx))
    if op.drift_values is not None:
        terms.append(_pairing_terms(op, f_values))
        h_sub = op.drift_values[idx]
    dh = h_sub[None, :] - h_sub[:, None]
    # theta'' >= cosh(r) (1 - |dh|/2): the form is convex, and has a
    # minimum, only while every |dh| < 2
    if np.abs(dh).max() >= 2.0:
        raise DomainError(
            "the drift moves by %.3g >= 2 across the density support, so "
            "the error form is not convex there" % np.abs(dh).max())
    forms, W = _box_pair_form(op, *map(np.concatenate, zip(*terms)),
                              (np.flatnonzero(supp), idx))
    a = np.outer(sqf[supp], sqf[supp]) * W * op.domain.cell_volume
    return float(forms[0]), float(forms[1:].sum()), (supp, a, dh)


def _error_objective(pieces, w_values):
    """Value of the error form at the exponent field ``w_values`` (one value
    per interior node), with its gradient and Hessian in the support values
    of w."""
    supp, a, dh = pieces
    w = np.asarray(w_values, dtype=float)[supp]
    dw = w[None, :] - w[:, None]
    ch, sh = np.cosh(dw), np.sinh(dw)
    value = float((a * (ch - 1.0 + 0.5 * sh * dh)).sum())
    grad = -2.0 * (a * (sh + 0.5 * ch * dh)).sum(axis=1)
    curv = a * (ch + 0.5 * sh * dh)
    hess = -2.0 * curv
    hess[np.diag_indices_from(hess)] += 2.0 * curv.sum(axis=1)
    return value, grad, hess


@dataclass(frozen=True)
class RateDecomposition:
    """The pieces of I = energy - pairing/2 - E that ``I_decomposed`` forms.

    ``energy`` is the kernel energy of sqrt f, ``pairing`` the density/drift
    pairing (0 without drift), ``E_value`` the minimum of the hyperbolic
    error form and ``w_min`` its minimizing exponent field, which is 0 at
    the node of largest density.  ``newton_steps`` and ``newton_decrement``
    are the step count and the final Newton decrement of that minimization.
    """

    I_value: float
    energy: float
    pairing: float
    E_value: float
    w_min: GridFunction
    newton_steps: int
    newton_decrement: float


def I_decomposed(f: DensitySpec, op: AssembledOperator) -> RateDecomposition:
    """Split the rate value into energy, drift pairing, and error correction.

    Returns I = energy(sqrt f) - pairing/2 - E with its pieces, E the
    minimum of the hyperbolic form over exponent fields, found by Newton's
    method started from the zero field, and w_min the minimizing exponent
    field on the interior nodes.  The kernel and the drift are those ``op``
    was assembled with.  The form is convex while the drift moves by less
    than 2 across the density support; otherwise DomainError is raised.  A
    drift of oscillation 1 or more draws a warning.
    """
    domain = op.domain
    if op.drift_oscillation() >= 1.0:
        warnings.warn(
            "drift oscillation >= 1; the error-form sign guarantee is lost",
            stacklevel=2,
        )
    fv = f.values_on(domain)
    energy, pairing, pieces = _rate_pieces(op, fv)
    supp = pieces[0]
    w_full = np.zeros(len(fv))

    def objective(x):
        w_full[supp] = x
        return _error_objective(pieces, w_full)

    x, E_value, steps, decrement = _newton(
        objective, np.zeros(int(supp.sum())), int(np.argmax(fv[supp])),
        _ERROR_TOL, _ERROR_MAX_ITER, "error form")
    w_full[supp] = x
    return RateDecomposition(energy - 0.5 * pairing - E_value, energy, pairing,
                             E_value, GridFunction(domain, w_full), steps,
                             decrement)


def minimize_rayleigh(f: DensitySpec, op: AssembledOperator):
    """Directly minimize the averaged ratio over positive candidates u = e^w.

    The density gets an eps floor so the discrete minimizer stays interior;
    the floor perturbs the value by order sqrt(eps).  In w the ratio is
    convex when every off-diagonal entry of ``op.matrix`` is positive (the
    sign pattern of the Collatz-Wielandt bracket), and it is minimized by
    Newton's method; otherwise DomainError is raised.  Returns the minimal
    value, the minimizer (1 at the node of largest density), and the Newton
    step count.  The operator u is averaged against is ``op``, drift
    included.
    """
    if not _positive_off_diagonal(op.matrix):
        raise DomainError("minimize_rayleigh needs every off-diagonal entry "
                          "of the operator positive; the ratio is not convex "
                          "otherwise")
    domain = op.domain
    fv = f.values_on(domain) + _RAYLEIGH_EPS
    fv /= fv.sum() * domain.cell_volume
    vol = domain.cell_volume
    off = op.matrix.copy()
    diag = off.diagonal().copy()
    np.fill_diagonal(off, 0.0)
    base = float(fv @ diag)

    def objective(w):
        # P_ij = f_i M_ij u_j / u_i off the diagonal: the value is
        # vol (Sum_i f_i M_ii + Sum P), and each P_ij moves with w_j - w_i
        u = np.exp(w)
        P = off * np.outer(fv / u, u)
        rows = P.sum(axis=1)
        cols = P.sum(axis=0)
        S = P + P.T
        hess = -vol * S
        hess[np.diag_indices_from(hess)] += vol * S.sum(axis=1)
        return (base + float(rows.sum())) * vol, vol * (cols - rows), hess

    w, value, steps, _ = _newton(objective, np.zeros(op.n), int(np.argmax(fv)),
                                 _RAYLEIGH_TOL, _RAYLEIGH_MAX_ITER,
                                 "ratio minimization")
    return value, GridFunction(domain, np.exp(w)), steps


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


def q_scalar_min(hbar):
    """Minimum over the exponent increment r of the scalar error form.

    Accepts a scalar or an array of hbar, |hbar| < 2, where Q is strictly
    convex in r with its minimum at tanh r = -hbar/2.  One vectorized Newton
    iteration on dQ/dr = sinh r + hbar cosh r / 2, started from r = 0, runs
    on every entry at once.  A scalar in gives a float out.
    """
    h = np.asarray(hbar, dtype=float)
    if np.any(np.abs(h) >= 2.0):
        raise DomainError("the scalar error form has no minimum for |hbar| >= 2")
    r = np.zeros_like(h)
    for _ in range(_ERROR_MAX_ITER):
        # (dQ/dr) / (d2Q/dr2), divided through by cosh r
        t = np.tanh(r)
        step = (t + 0.5 * h) / (1.0 + 0.5 * h * t)
        r = r - step
        # Newton converges quadratically: after a step of size d the error
        # is of order d^2, and the value error of order d^4
        if np.abs(step).max(initial=0.0) <= 1e-10:
            break
    else:
        raise ConvergenceError("scalar error form: Newton iteration did not "
                               "settle in %d steps" % _ERROR_MAX_ITER)
    value = Q_form(h, r)
    return float(value) if value.ndim == 0 else value


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
        op_V = replace(op, matrix=op.matrix + np.diag(V_int))
        pair = principal_eigenpair(op_V, tol=_DUAL_TOL, max_iter=800,
                                   dense_check=False)
        values.append(pair.lambda1 + float(fv @ V_int) * vol)
    reference = I_decomposed(f, op).I_value
    return DualGapReport(values=values, reference=reference,
                         gap=reference - max(values))