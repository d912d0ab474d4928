"""Principal eigenpairs of assembled drifted operators.

The principal eigenvalue is the smallest real part over the spectrum of the
negated operator matrix, singled out by having a one-signed eigenfunction.
Two routes are provided and kept independent on purpose: an inverse power
iteration on the shifted matrix (the constructive route), which factors
the shifted matrix once by a 2x2 block elimination, and an oracle route
that does not iterate.

Which certificate backs lambda1 depends on the sign pattern of the matrix.
When every off-diagonal entry is positive (true for the assembled operator
whenever the drift oscillation is below 2), the negated matrix is an
irreducible Z-matrix, and the iteration's positive iterate phi certifies
lambda1 by the Collatz-Wielandt bracket
min_i (-M phi/phi)_i <= lambda1 <= max_i (-M phi/phi)_i, the discrete form
of the Donsker-Varadhan value sup_{phi>0} inf (-L phi/phi).  The oracle
then needs no eigenvalue solver (``perron_eigenvalue``): by
Perron-Frobenius the eigenvalue of smallest real part is real, simple and
principal, and three block determinants of the shifted matrix, from the
same elimination as the iteration's factor, prove it lies in a window
around the iteration's value and pin it as a root of the characteristic
polynomial.  Otherwise there is no bracket, and the oracle is
``dense_eigenpair``, a dense numpy.linalg solve for the whole spectrum
that selects by the sign of the eigenvectors.  The
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
from .operators import SmoothFunction, interval_power, pointwise_forms


@dataclass(frozen=True)
class EigenPair:
    """Converged eigenvalue of the negated operator with its eigenfunction.

    phi1 is normalized to unit sup norm and is strictly positive on the
    interior nodes; residual is the sup norm of (matrix @ phi + lambda phi).
    lambda1_lower and lambda1_upper are the Collatz-Wielandt bounds min and
    max of (-matrix @ phi1)/phi1, which contain the principal eigenvalue
    when every off-diagonal entry of the matrix is positive; they are None
    for any other sign pattern, and lambda1 then rests on the dense oracle
    alone.  dense_lambda1 is the oracle eigenvalue the iteration was
    cross-checked against, or None when no cross-check ran: the root of
    det(-matrix - mu I) that ``perron_eigenvalue`` finds under the sign
    pattern, the eigenvalue ``dense_eigenpair`` selects otherwise.
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


def _eliminate(matrix: np.ndarray, shift: float):
    """2x2 block elimination of shift I - matrix: (lead_inv, schur).

    The leading block has k = ceil(n/2) rows: A = shift I - matrix[:k, :k]
    is inverted once, and its Schur complement S = shift I - matrix[k:, k:]
    - matrix[k:, :k] A^-1 matrix[:k, k:] is formed from the off-diagonal
    blocks, which stay views of matrix.  When shift I - matrix is strictly
    row diagonally dominant (``estimate_shift``), so are A and S, a Schur
    complement keeping that property (Carlson & Markham, Czech. Math. J.
    1979): the elimination needs no pivoting between the blocks.  The two
    blocks hold half the memory of one factor of the whole matrix.  Both
    the solver of the iteration and the determinants of the Perron oracle
    come from this one elimination.
    """
    k = (matrix.shape[0] + 1) // 2
    lead = np.negative(matrix[:k, :k])
    lead[np.diag_indices(k)] += shift
    lead_inv = np.linalg.inv(lead)
    del lead  # freed before the Schur complement is formed
    schur = matrix[k:, :k] @ (lead_inv @ matrix[:k, k:])
    schur += matrix[k:, k:]
    np.negative(schur, out=schur)
    schur[np.diag_indices(len(schur))] += shift
    return lead_inv, schur


def _block_solve(matrix, lead_inv, schur_solve, b):
    """x with (shift I - matrix) x = b, from ``_eliminate``'s blocks."""
    k = len(lead_inv)
    y = lead_inv @ b[:k]
    tail = schur_solve(b[k:] + matrix[k:, :k] @ y)
    return np.concatenate((y + lead_inv @ (matrix[:k, k:] @ tail), tail))


def _shifted_solver(matrix: np.ndarray, shift: float):
    """Factor shift I - matrix once; return the solve b -> x.

    The Schur complement of ``_eliminate`` is inverted as well, so that
    each solve is four matrix-vector products with the two block inverses.
    """
    lead_inv, schur = _eliminate(matrix, shift)
    schur_inv = np.linalg.inv(schur)
    del schur
    return lambda b: _block_solve(matrix, lead_inv, lambda r: schur_inv @ r, b)


def _shifted_logdet(matrix: np.ndarray, shift: float, solve_ones=False):
    """(sign, log|det|, x) of shift I - matrix, x solving it against 1.

    det(shift I - matrix) = det(A) det(S) over the blocks of
    ``_eliminate``, with det(A) read as 1/det(A^-1); S is factored by
    LAPACK, never inverted.  x is None unless solve_ones.  Raises numpy's
    LinAlgError when A, or S for the solve, is exactly singular.
    """
    lead_inv, schur = _eliminate(matrix, shift)
    sign_lead, log_lead = np.linalg.slogdet(lead_inv)
    sign_schur, log_schur = np.linalg.slogdet(schur)
    x = None if not solve_ones else _block_solve(
        matrix, lead_inv, lambda r: np.linalg.solve(schur, r),
        np.ones(len(matrix)))
    return float(sign_lead * sign_schur), float(log_schur - log_lead), x


def _padded_min(matrix: np.ndarray, mu: float, x: np.ndarray) -> float:
    """min_i of (A - mu I) x less its rounding pad, A = -matrix and x > 0.

    Under the sign pattern |matrix| x = matrix x + (|d| - d) x with d the
    diagonal, and gamma_{n+2} bounds the rounding of the product and the
    shift (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 3.5), doubled for the rounding of the pad itself.
    """
    product = matrix @ x
    residual = -product - mu * x
    diag = np.diagonal(matrix)
    unit = (len(x) + 2) * np.finfo(float).eps / 2
    pad = 2 * unit / (1 - unit) * (product + (np.abs(diag) - diag) * x
                                   + abs(mu) * x + np.abs(residual))
    return float((residual - pad).min())


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
    to the gate of the oracle cross-check.

    With dense_check the oracle always runs; without it, only when there
    is no bracket.  The oracle is ``perron_eigenvalue`` under the sign
    pattern, in the window of 10 tol max(1, |lambda|) around lambda, and
    ``dense_eigenpair`` otherwise; the factorization of the iteration is
    released before it runs, so its own blocks can reuse that memory.  A
    mismatch beyond 10x tol is treated as an oracle inconsistency, and the
    oracle eigenvalue is kept on the result.
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

    # the block inverses are freed before the oracle factors or copies
    del solve
    if u.min() <= 0.0:
        raise PositivityError(
            "converged eigenvector changes sign; no principal pair found"
        )
    dense_lambda1 = None
    if dense_check or lower is None:
        dense_lambda1 = (
            perron_eigenvalue(op, lam, 10 * tol * max(1.0, abs(lam)))
            if bracketed else dense_eigenpair(op).lambda1)
        scale = max(1.0, abs(dense_lambda1))
        if abs(lam - dense_lambda1) > 10 * tol * scale:
            raise OracleInconsistencyError(
                "iteration eigenvalue %.12g disagrees with the oracle %.12g"
                % (lam, dense_lambda1)
            )
    return EigenPair(lam, GridFunction(op.domain, u), res, iteration,
                     dense_lambda1, lower, upper)


_SECANT_RTOL = 1e-13  # a secant step below this, relative to mu, ends it
_SECANT_CAP = 60


def perron_eigenvalue(op: AssembledOperator, lam: float, gate: float) -> float:
    """Principal eigenvalue within gate of lam, from block determinants.

    For a matrix with positive off-diagonal entries, A = -matrix is an
    irreducible Z-matrix, and its eigenvalue of smallest real part is real
    and simple (Perron-Frobenius); it is located as a root of det(A - mu I)
    with factorizations only (``_shifted_logdet``), and no eigenvalue
    solver, in three steps (Berman & Plemmons, Nonnegative Matrices in the
    Mathematical Sciences, SIAM 1994, ch. 6):

    - at mu_lo = lam - gate, x solves (A - mu_lo I) x = 1.  A Z-matrix B
      with x > 0 and Bx > 0 is a nonsingular M-matrix, so x > 0 and
      (A - mu_lo I) x > 0 past the rounding pad of its product prove that
      every eigenvalue has real part above mu_lo;
    - at mu_hi = lam + gate, det(A - mu_hi I) < 0 proves a real eigenvalue
      below mu_hi: complex eigenvalues come in conjugate pairs, so every
      real part above mu_lo gives det > 0 at mu_lo, and an odd number of
      real eigenvalues lie in the window, the principal one the least;
    - a secant on the determinant, started from the two ends and kept
      inside the window by the Illinois rule, stops once its step is below
      1e-13 |mu| and returns that root.

    Raises DomainError for any other sign pattern,
    OracleInconsistencyError, naming the end, when the window does not
    hold the principal eigenvalue, and ConvergenceError when the secant
    has not settled in ``_SECANT_CAP`` determinants.
    """
    matrix = op.matrix
    if not _positive_off_diagonal(matrix):
        raise DomainError("off-diagonal entries must all be positive")
    n = op.n

    def logdet(mu, where, solve_ones=False):
        # A - mu I is (-mu) I - matrix
        try:
            return _shifted_logdet(matrix, -mu, solve_ones)
        except np.linalg.LinAlgError:
            if n == 1 and not solve_ones:
                return 0.0, -np.inf, None  # the block is A - mu I itself
            raise OracleInconsistencyError(
                "at %s = %.17g: a block of A - %s I is singular"
                % (where, mu, where)) from None

    mu_lo, mu_hi = lam - gate, lam + gate
    sign_lo, log_lo, x = logdet(mu_lo, "mu_lo", solve_ones=True)
    if not x.min() > 0.0:
        raise OracleInconsistencyError(
            "at mu_lo = %.17g: the solution x of (A - mu_lo I) x = 1 is not "
            "positive (min %.3e)" % (mu_lo, x.min()))
    margin = _padded_min(matrix, mu_lo, x)
    del x  # no vector outlives the first factorization
    if not (margin > 0.0 and sign_lo > 0.0):
        raise OracleInconsistencyError(
            "at mu_lo = %.17g: (A - mu_lo I) x is not positive past its "
            "rounding pad (min %.3e)" % (mu_lo, margin))
    sign_hi, log_hi, _ = logdet(mu_hi, "mu_hi")
    if not sign_hi < 0.0:
        raise OracleInconsistencyError(
            "at mu_hi = %.17g: det(A - mu_hi I) >= 0, so no real eigenvalue "
            "is proven below mu_hi" % mu_hi)

    # det relative to its value at mu_lo, positive at a and negative at b
    a, f_a, b, f_b = mu_lo, 1.0, mu_hi, -np.exp(log_hi - log_lo)
    kept = 0  # the end the last iterate left in place: -1 a, +1 b
    mu = b - f_b * (b - a) / (f_b - f_a)
    for _ in range(_SECANT_CAP):
        sign, logabs, _ = logdet(mu, "mu")
        f_mu = sign * np.exp(logabs - log_lo)
        if f_mu == 0.0:
            return float(mu)
        if f_mu > 0.0:
            a, f_a = mu, f_mu
            if kept == 1:
                f_b /= 2.0  # Illinois: b held twice running
            kept = 1
        else:
            b, f_b = mu, f_mu
            if kept == -1:
                f_a /= 2.0
            kept = -1
        last = mu
        mu = b - f_b * (b - a) / (f_b - f_a)
        if abs(mu - last) <= _SECANT_RTOL * abs(mu):
            return float(mu)
    raise ConvergenceError(
        "Perron secant did not settle in %d determinants; window [%.17g, "
        "%.17g]" % (_SECANT_CAP, a, b))


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
    lap, unit_term = pointwise_forms(spec, grid[:, None], [(u, None), (u, jump_unit)])
    base = -lap

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