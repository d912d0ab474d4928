"""Principal eigenpairs of assembled drifted operators.

The principal eigenvalue is the smallest real part over the spectrum of the
negated operator matrix, singled out by having a one-signed eigenfunction.
Two routes are provided and kept independent on purpose: an inverse power
iteration on the shifted matrix (the constructive route), which factors
the shifted matrix once by a 2x2 block elimination, and an oracle route
that does not iterate.  The two half blocks of that elimination are
inverted in place by the same elimination applied recursively: matrix
products (gemm) down to blocks small enough for LAPACK's inverse.

Which certificate backs lambda1 depends on the sign pattern of the matrix.
When every off-diagonal entry is positive (true for the assembled operator
whenever the drift oscillation is below 2), the negated matrix is an
irreducible Z-matrix, and the iteration's positive iterate phi certifies
lambda1 by the Collatz-Wielandt bracket
min_i (-M phi/phi)_i <= lambda1 <= max_i (-M phi/phi)_i, the discrete form
of the Donsker-Varadhan value sup_{phi>0} inf (-L phi/phi).  The oracle
then needs no eigenvalue solver (``perron_eigenvalue``): by
Perron-Frobenius the eigenvalue of smallest real part is real, simple and
principal, and one block elimination of the shifted matrix at the lower
end of a window around the iteration's value, the same elimination as the
iteration's factor, proves that the window holds it (an M-matrix test
below, a Collatz-Wielandt bound above, from two block solves of its own)
and pins it by the lower Collatz-Wielandt quotient of those same two
solves.  Otherwise there is no bracket, and the oracle is
``dense_eigenpair``, a dense numpy.linalg solve for the whole spectrum
that selects by the sign of the eigenvectors.  The module also carries
the min-max characterization of the value, and a sign demo built from
the jump-drift construction on an interval.
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
    cross-checked against, or None when no cross-check ran: the lower
    Collatz-Wielandt quotient that ``perron_eigenvalue`` takes under the
    sign pattern, the eigenvalue ``dense_eigenpair`` selects otherwise.
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


_INVERSE_LEAF = 100  # blocks of at most this many rows go to np.linalg.inv


def _invert_in_place(block: np.ndarray) -> None:
    """Overwrite the square array block with its inverse, by recursive 2x2
    block elimination without pivoting.

    With A the leading ceil(n/2) rows and columns and S = D - C A^-1 B the
    Schur complement, [[A, B], [C, D]]^-1 is
    [[A^-1 + A^-1 B S^-1 C A^-1, -A^-1 B S^-1], [-S^-1 C A^-1, S^-1]].
    A is inverted where it stands, S is formed on top of D and inverted
    there, and the off-diagonal blocks are filled in by gemms, so beside
    the array the temporaries hold about half its size.  Blocks of at
    most ``_INVERSE_LEAF`` rows go to np.linalg.inv, which raises
    LinAlgError for a singular one.  The caller's matrix must need no
    pivoting between blocks at any level (``_eliminate``).
    """
    n = len(block)
    if n <= _INVERSE_LEAF:
        block[...] = np.linalg.inv(block)
        return
    k = (n + 1) // 2
    a, b = block[:k, :k], block[:k, k:]
    c, d = block[k:, :k], block[k:, k:]
    _invert_in_place(a)
    a_inv_b = a @ b
    d -= c @ a_inv_b
    _invert_in_place(d)
    np.matmul(a_inv_b, d, out=b)  # A^-1 B S^-1
    del a_inv_b  # freed before C A^-1 is formed
    c_a_inv = c @ a
    a += b @ c_a_inv
    np.matmul(d, c_a_inv, out=c)  # S^-1 C A^-1
    np.negative(b, out=b)
    np.negative(c, out=c)


def _eliminate(matrix: np.ndarray, shift: float):
    """2x2 block elimination of shift I - matrix: (lead_inv, schur_inv).

    The leading block has k = ceil(n/2) rows: A = shift I - matrix[:k, :k]
    is inverted, its Schur complement S = shift I - matrix[k:, k:]
    - matrix[k:, :k] A^-1 matrix[:k, k:] is formed from the off-diagonal
    blocks, which stay views of matrix, and inverted too, each in place
    by ``_invert_in_place``.  When shift I - matrix is strictly row
    diagonally dominant (``estimate_shift``), so is every principal
    submatrix and every Schur complement of one, at any depth (Carlson &
    Markham, Czech. Math. J. 1979); for a nonsingular M-matrix, as at the
    Perron oracle's shift, they are all nonsingular M-matrices.  So neither
    this elimination nor the recursion inside each inverse needs pivoting
    between blocks.  The two inverses hold half the memory of one factor
    of the whole matrix.  Both the solver of the iteration and the solves
    of the Perron oracle come from this one elimination.
    """
    k = (matrix.shape[0] + 1) // 2
    lead = np.negative(matrix[:k, :k])
    lead[np.diag_indices(k)] += shift
    _invert_in_place(lead)
    schur = matrix[k:, :k] @ (lead @ matrix[:k, k:])
    schur += matrix[k:, k:]
    np.negative(schur, out=schur)
    schur[np.diag_indices(len(schur))] += shift
    _invert_in_place(schur)
    return lead, schur


def _block_solve(matrix, lead_inv, schur_inv, b):
    """x with (shift I - matrix) x = b, from ``_eliminate``'s inverses.

    Each solve is four matrix-vector products with the two inverses.
    """
    k = len(lead_inv)
    y = lead_inv @ b[:k]
    tail = schur_inv @ (b[k:] + matrix[k:, :k] @ y)
    return np.concatenate((y + lead_inv @ (matrix[:k, k:] @ tail), tail))


def _shifted_solver(matrix: np.ndarray, shift: float):
    """Factor shift I - matrix once; return the solve b -> x."""
    lead_inv, schur_inv = _eliminate(matrix, shift)
    return lambda b: _block_solve(matrix, lead_inv, schur_inv, b)


def _padded_range(matrix: np.ndarray, mu: float,
                  x: np.ndarray) -> tuple[float, float]:
    """(min_i, max_i) of (A - mu I) x, each moved outward by its rounding
    pad, A = -matrix and x > 0.

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
    return float((residual - pad).min()), float((residual + pad).max())


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
    pattern, which proves that the window of 10 tol max(1, |lambda|)
    around lambda holds the eigenvalue and takes the lower Collatz-Wielandt
    quotient of its own two solves, and ``dense_eigenpair`` otherwise; the
    factorization of the iteration is released before it runs, so its own
    blocks can reuse that memory.  A mismatch beyond 10x tol is treated as
    an oracle inconsistency, and the oracle eigenvalue is kept on the
    result.
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


def perron_eigenvalue(op: AssembledOperator, lam: float, gate: float) -> float:
    """Principal eigenvalue within gate of lam, from one block elimination.

    For a matrix with positive off-diagonal entries, A = -matrix is an
    irreducible Z-matrix, and its eigenvalue lambda1 of smallest real part
    is real and simple (Perron-Frobenius).  It is located with no
    eigenvalue solver, from the blocks of one ``_eliminate`` of
    B = A - mu_lo I at mu_lo = lam - gate (Berman & Plemmons, Nonnegative
    Matrices in the Mathematical Sciences, SIAM 1994, ch. 6):

    - lower end: x solves B x = 1.  A Z-matrix B with x > 0 and Bx > 0 is
      a nonsingular M-matrix, so x > 0 and B x > 0 past the rounding pad
      of its product prove that every eigenvalue has real part above mu_lo;
    - upper end: y = B^-1 x is positive, B^-1 being positive for an
      irreducible nonsingular M-matrix, and (A - mu_hi I) y < 0 past the
      same pad at mu_hi = lam + gate proves lambda1 < mu_hi by the
      Collatz-Wielandt bound; y comes from the same blocks and not from
      the iteration's phi, which the oracle checks;
    - value: mu_lo + min_i x_i/y_i.  In exact arithmetic B y = x, so this
      is mu_lo + min_i (B y)_i/y_i, the lower Collatz-Wielandt bound of B
      at y > 0, and never above lambda1.  x and y are two steps of inverse
      iteration on B from 1, so with theta_j = lambda_j - mu_lo the
      quotient misses theta_1 by a relative order of theta_1/|theta_2|:
      lambda1 less the value is of order (2 gate)^2/|lambda_2 - mu_lo|,
      the gap to the next eigenvalue alone, times how far 1 lies from the
      direction of phi1.  Rounding level for a gate of 10 tol.

    Raises DomainError for any other sign pattern, and
    OracleInconsistencyError, naming the end, when the window does not
    hold the principal eigenvalue.
    """
    matrix = op.matrix
    if not _positive_off_diagonal(matrix):
        raise DomainError("off-diagonal entries must all be positive")
    mu_lo, mu_hi = lam - gate, lam + gate
    try:
        lead_inv, schur_inv = _eliminate(matrix, -mu_lo)  # of A - mu_lo I
    except np.linalg.LinAlgError:
        raise OracleInconsistencyError(
            "at mu_lo = %.17g: a block of A - mu_lo I is singular"
            % mu_lo) from None
    x = _block_solve(matrix, lead_inv, schur_inv, np.ones(op.n))
    y = _block_solve(matrix, lead_inv, schur_inv, x)
    del lead_inv, schur_inv  # the pads below hold vectors only
    if not x.min() > 0.0:
        raise OracleInconsistencyError(
            "at mu_lo = %.17g: the solution x of (A - mu_lo I) x = 1 is not "
            "positive (min %.3e)" % (mu_lo, x.min()))
    margin = _padded_range(matrix, mu_lo, x)[0]
    if not margin > 0.0:
        raise OracleInconsistencyError(
            "at mu_lo = %.17g: (A - mu_lo I) x is not positive past its "
            "rounding pad (min %.3e)" % (mu_lo, margin))
    excess = _padded_range(matrix, mu_hi, y)[1] if y.min() > 0.0 else np.inf
    if not excess < 0.0:
        raise OracleInconsistencyError(
            "at mu_hi = %.17g: (A - mu_hi I) y is not negative past its "
            "rounding pad for y = (A - mu_lo I)^-1 x (max %.3e, min y %.3e), "
            "so no Collatz-Wielandt bound puts an eigenvalue below mu_hi"
            % (mu_hi, excess, y.min()))
    return float(mu_lo + (x / y).min())


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
    mirrored = dataclasses.replace(op, matrix=op.matrix.T)
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