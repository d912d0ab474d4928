"""Principal eigenpairs of assembled drifted operators.

The principal eigenvalue is the smallest real part over the spectrum of the
negated operator matrix, singled out by having a one-signed eigenfunction.
Two routes are provided and kept independent on purpose: an inverse power
iteration on the shifted matrix (the constructive route), which factors
the shifted matrix once by a 2x2 block elimination, and a dense
eigenvalue solve of numpy.linalg (the oracle route).

Which certificate backs lambda1 depends on the sign pattern of the matrix.
When every off-diagonal entry is positive (true for the assembled operator
whenever the drift oscillation is below 2), the negated matrix is an
irreducible Z-matrix, and the iteration's positive iterate phi certifies
lambda1 by the Collatz-Wielandt bracket
min_i (-M phi/phi)_i <= lambda1 <= max_i (-M phi/phi)_i, the discrete form
of the Donsker-Varadhan value sup_{phi>0} inf (-L phi/phi).  The dense
oracle then needs eigenvalues only (``perron_eigenvalue``): by
Perron-Frobenius the one of smallest real part is real, simple and
principal.  Otherwise there is no bracket, and the oracle is
``dense_eigenpair``, which selects by the sign of the eigenvectors.  The
module also carries the min-max characterization of the value, and a sign
demo built from the jump-drift construction on an interval.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    OracleInconsistencyError,
    PositivityError,
)
from .kernels import fractional_kernel
from .lattice import AssembledOperator, GridFunction, estimate_shift
from .operators import (
    QuadratureScheme,
    SmoothFunction,
    build_rule,
    carre_du_champ,
    interval_power,
    nonlocal_laplacian,
)


@dataclass(frozen=True)
class EigenPair:
    """Converged eigenvalue of the negated operator with its eigenfunction.

    phi1 is normalized to unit sup norm and is strictly positive on the
    interior nodes; residual is the sup norm of (matrix @ phi + lambda phi).
    lambda1_lower and lambda1_upper are the Collatz-Wielandt bounds min and
    max of (-matrix @ phi1)/phi1, which contain the principal eigenvalue
    when every off-diagonal entry of the matrix is positive; they are None
    for any other sign pattern, and lambda1 then rests on the dense oracle
    alone.  dense_lambda1 is the dense-solver eigenvalue the iteration was
    cross-checked against, or None when no cross-check ran.
    """

    lambda1: float
    phi1: GridFunction
    residual: float
    iterations: int
    dense_lambda1: float | None = None
    lambda1_lower: float | None = None
    lambda1_upper: float | None = None


def _sign_fixed(vec: np.ndarray) -> np.ndarray:
    dominant = np.argmax(np.abs(vec))
    out = vec if vec[dominant] > 0 else -vec
    return out / np.abs(out[dominant])


def _residual(product: np.ndarray, vec: np.ndarray, lam: float) -> float:
    """Relative residual of (lam, vec) from product = matrix @ vec."""
    return float(np.abs(product + lam * vec).max() / np.abs(vec).max())


def _positive_off_diagonal(matrix: np.ndarray) -> bool:
    """Whether every off-diagonal entry of the square matrix is > 0."""
    n = matrix.shape[0]
    if n < 2:
        return True
    # past the first entry, each row of the (n-1, n+1) view of the flat
    # matrix holds n off-diagonal entries and then the next diagonal one
    flat = np.ascontiguousarray(matrix).reshape(-1)
    return bool(flat[1:].reshape(n - 1, n + 1)[:, :n].min() > 0.0)


def _shifted_solver(matrix: np.ndarray, shift: float):
    """Factor shift I - matrix once; return the solve b -> x.

    A 2x2 block elimination with a leading block of k = ceil(n/2) rows:
    the leading block A = shift I - matrix[:k, :k] and its Schur
    complement S = shift I - matrix[k:, k:] - matrix[k:, :k] A^-1
    matrix[:k, k:] are inverted once, and the off-diagonal blocks stay
    views of matrix.  When shift I - matrix is strictly row diagonally
    dominant (``estimate_shift``), so are A and S, a Schur complement
    keeping that property (Carlson & Markham, Czech. Math. J. 1979): the
    elimination needs no pivoting between the blocks.  The block inverses
    hold half the memory of one factor of the whole matrix.
    """
    k = (matrix.shape[0] + 1) // 2
    upper, lower = matrix[:k, k:], matrix[k:, :k]
    lead = np.negative(matrix[:k, :k])
    lead[np.diag_indices(k)] += shift
    lead_inv = np.linalg.inv(lead)
    del lead  # freed before the Schur complement is formed
    schur = lower @ (lead_inv @ upper)
    schur += matrix[k:, k:]
    np.negative(schur, out=schur)
    schur[np.diag_indices(len(schur))] += shift
    schur_inv = np.linalg.inv(schur)

    def solve(b: np.ndarray) -> np.ndarray:
        y = lead_inv @ b[:k]
        tail = schur_inv @ (b[k:] + lower @ y)
        return np.concatenate((y + lead_inv @ (upper @ tail), tail))

    return solve


def principal_eigenpair(
    op: AssembledOperator,
    tol: float = 1e-9,
    max_iter: int = 200,
    dense_check: bool = True,
) -> EigenPair:
    """Inverse power iteration for the principal eigenpair.

    Each step solves (C - matrix) u_next = u with C a diagonal-dominance
    shift, renormalizes in sup norm, and reestimates the eigenvalue by the
    least-squares fit lambda = -<matrix u, u>/<u, u>; the one product
    matrix @ u of a step serves the fit, the residual and the bracket.
    Stops once the residual drops below tol.  When every off-diagonal entry
    of the matrix is positive, it also needs the Collatz-Wielandt bracket
    of u to be no wider than 10 tol max(1, |lambda|), iterating further on
    the same factorization until it is; the bracket then certifies lambda
    to the gate of the dense cross-check.

    With dense_check the dense oracle always runs; without it, only when
    there is no bracket.  The oracle is ``perron_eigenvalue`` under the
    sign pattern and ``dense_eigenpair`` otherwise; the factorization of
    the iteration is released before it runs, so its copy of the matrix
    can reuse that memory.  A mismatch beyond 10x tol is treated as an
    oracle inconsistency, and the dense eigenvalue is kept on the result.
    """
    if op.drift_values is not None and op.drift_oscillation() >= 1.0:
        warnings.warn(
            "drift oscillation is %.3f >= 1; positivity of the eigenfunction "
            "is not guaranteed in this regime" % op.drift_oscillation(),
            stacklevel=2,
        )
    matrix = op.matrix
    bracketed = _positive_off_diagonal(matrix)
    solve = _shifted_solver(matrix, estimate_shift(op))

    u = np.ones(op.n)
    lam = 0.0
    res = np.inf
    lower = upper = None
    for iteration in range(1, max_iter + 1):
        u = _sign_fixed(solve(u))
        product = matrix @ u
        lam = -float(u @ product) / float(u @ u)
        res = _residual(product, u, lam)
        if res >= tol:
            continue
        if not bracketed or u.min() <= 0.0:
            break
        ratio = -product / u
        lower, upper = float(ratio.min()), float(ratio.max())
        if upper - lower <= 10 * tol * max(1.0, abs(lam)):
            break
    else:
        width = ("" if lower is None
                 else "; bracket width %.3e" % (upper - lower))
        raise ConvergenceError(
            "eigen iteration did not converge in %d steps; last residual %.3e%s"
            % (max_iter, res, width)
        )

    # the block inverses are freed before the dense oracle copies the matrix
    del solve
    if u.min() <= 0.0:
        raise PositivityError(
            "converged eigenvector changes sign; no principal pair found"
        )
    dense_lambda1 = None
    if dense_check or lower is None:
        dense_lambda1 = (perron_eigenvalue(op) if bracketed
                         else dense_eigenpair(op).lambda1)
        scale = max(1.0, abs(dense_lambda1))
        if abs(lam - dense_lambda1) > 10 * tol * scale:
            raise OracleInconsistencyError(
                "iteration eigenvalue %.12g disagrees with dense solve %.12g"
                % (lam, dense_lambda1)
            )
    return EigenPair(lam, GridFunction(op.domain, u), res, iteration,
                     dense_lambda1, lower, upper)


def perron_eigenvalue(op: AssembledOperator) -> float:
    """Eigenvalue-only oracle for a matrix with positive off-diagonal entries.

    The negated matrix is then an irreducible Z-matrix, so by
    Perron-Frobenius its eigenvalue of smallest real part is real, simple
    and has a positive eigenvector: no eigenvector needs to be computed to
    select it.  Raises DomainError for any other sign pattern, and
    OracleInconsistencyError if the selected eigenvalue is not real.
    """
    if not _positive_off_diagonal(op.matrix):
        raise DomainError("off-diagonal entries must all be positive")
    # the spectrum of the negated matrix, with no negated copy of it
    vals = -np.linalg.eigvals(op.matrix)
    idx = np.argmin(vals.real)
    if abs(vals[idx].imag) > 1e-9 * max(1.0, np.abs(vals).max()):
        raise OracleInconsistencyError(
            "eigenvalue of smallest real part %r is not real" % vals[idx]
        )
    return float(vals[idx].real)


def dense_eigenpair(op: AssembledOperator) -> EigenPair:
    """Full-spectrum oracle: smallest real part with a one-signed eigenvector.

    Complex pairs are rejected as non-principal; if no real eigenvalue has
    a strictly one-signed eigenvector the search fails.
    """
    vals, vecs = np.linalg.eig(op.matrix)
    vals = -vals  # the spectrum of the negated matrix, same eigenvectors
    scale = max(1.0, np.abs(vals).max())
    for idx in np.argsort(vals.real):
        if abs(vals[idx].imag) > 1e-9 * scale:
            continue
        vec = vecs[:, idx]
        if np.abs(vec.imag).max() > 1e-7 * np.abs(vec).max():
            continue
        candidate = _sign_fixed(vec.real)
        if candidate.min() > 0.0:
            lam = float(vals[idx].real)
            return EigenPair(
                lam,
                GridFunction(op.domain, candidate),
                _residual(op.matrix @ candidate, candidate, lam),
                0,
            )
    raise PositivityError(
        "no real eigenvalue with a one-signed eigenvector in the spectrum"
    )


def principal_left_vector(op: AssembledOperator) -> np.ndarray:
    """Positive left eigenvector for the principal eigenvalue, sup-normalized."""
    mirrored = dataclasses.replace(op, matrix=op.matrix.T.copy())
    return dense_eigenpair(mirrored).phi1.values


def minmax_value(op, measure_family, test_family) -> float:
    """min over measures of max over test functions of the ratio average.

    Every measure must be a probability vector over interior nodes and every
    test function strictly positive.  The inner quantity is the measure
    average of (-matrix phi)/phi.
    """
    ratios = []
    for phi in test_family:
        phi = np.asarray(phi, dtype=float)
        if phi.shape != (op.n,) or phi.min() <= 0.0:
            raise DomainError("test functions must be strictly positive")
        ratios.append(-(op.matrix @ phi) / phi)
    best = np.inf
    for mu in measure_family:
        mu = np.asarray(mu, dtype=float)
        if mu.shape != (op.n,) or mu.min() < -1e-15 or abs(mu.sum() - 1.0) > 1e-9:
            raise DomainError("measures must be probability vectors")
        best = min(best, max(float(mu @ r) for r in ratios))
    return float(best)


_DEMO_GRID_STEP = 0.05
_DEMO_TOLERANCE = 1e-6  # largest demo value that counts as nonpositive


@dataclass(frozen=True)
class SignDemoReport:
    s: float
    drift_jump: float
    oscillation: float
    tolerance: float
    grid: np.ndarray
    drift_term_values: np.ndarray
    operator_values: np.ndarray
    max_value: float
    center_value: float
    violation_certified: bool


def maxprinciple_violation_demo(s: float,
                                drift_jump: float | None = None) -> SignDemoReport:
    """Evaluate the jump-drift counterexample on an interval grid.

    Takes u = (1-x^2)_+^(1+s) and a drift that is zero on (-1,1) and equal
    to a constant jump outside, then tabulates the fractional Laplacian of u
    plus the drift bilinear term on a grid of the interval.  With the jump
    chosen large enough (the default doubles the computed threshold) every
    grid value is nonpositive while u(0) = 1, which certifies the violation
    of interior positivity.  A jump below oscillation 1 cannot certify it.
    """
    if not 0.0 < s < 1.0:
        raise DomainError("s must lie in (0,1)")
    spec = fractional_kernel(1, s, normalized=True)
    u = interval_power(1.0 + s, 1)
    jump_unit = SmoothFunction(
        lambda p: (np.abs(p[:, 0]) >= 1.0).astype(float),
        1,
        support_radius=1.0,
        far_value=1.0,
        kink_points=(-1.0, 1.0),
    )

    half = int(round(0.95 / _DEMO_GRID_STEP))
    grid = np.arange(-half, half + 1) * _DEMO_GRID_STEP
    # u and the jump share their support and kinks, so one rule set serves both
    xs = grid[:, None]
    rules = build_rule(spec, xs, QuadratureScheme(), fns=(u, jump_unit))
    base = -nonlocal_laplacian(u, spec, xs, rule=rules)
    unit_term = carre_du_champ(u, jump_unit, spec, xs, rule=rules)

    if drift_jump is None:
        positive = base > 0.0
        drift_jump = 2.0 * float((base[positive] / -unit_term[positive]).max())
    drift_term = drift_jump * unit_term
    values = base + drift_term
    center = float(u(np.zeros((1, 1)))[0])
    max_value = float(values.max())
    return SignDemoReport(
        s=s,
        drift_jump=float(drift_jump),
        oscillation=abs(float(drift_jump)),
        tolerance=_DEMO_TOLERANCE,
        grid=grid,
        drift_term_values=drift_term,
        operator_values=values,
        max_value=max_value,
        center_value=center,
        violation_certified=bool(max_value <= _DEMO_TOLERANCE and center > 0.0),
    )