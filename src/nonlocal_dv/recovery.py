"""Recovery of kernel data from indirect energy measurements.

Three instruments share this module.  Concentrating a density at a point and
tracking the scale-normalized rate value gives the small-scale diffusion
limit of the energy.  A spectral evaluation of the quadratic energy through
the discrete transform provides an independent route to the same numbers.
Narrow Gaussian probes, collapsed along one direction, isolate entries of
the inverse coefficient matrix from their energy asymptotics; together with
a determinant closure this reconstructs the matrix.  A drift probe and a
constancy check recover the first-order data.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OracleInconsistencyError, ReconstructionError
from .extrapolate import richardson_limit
from .kernels import KernelSpec
from .lattice import LatticeDomain, assemble
from .operators import SmoothFunction, bump, nonlocal_laplacian, scaled
from .rate import (_LATTICE_MARGIN, _SUPPORT_PAD, DensitySpec, I_decomposed,
                   density_lattice, drift_pairing)

__all__ = [
    "ProbeResult",
    "ReconstructionReport",
    "DiffusionLimitResult",
    "DriftProbeResult",
    "ConstancyReport",
    "GaussianProbe",
    "rescale_density",
    "probe_domain",
    "diffusion_limit",
    "fourier_energy",
    "fourier_probe_oracle",
    "recover_matrix",
    "scale_ratio",
    "drift_probe",
    "constancy_check",
]


# --------------------------------------------------------------------------
# result records


@dataclass(frozen=True)
class ProbeResult:
    """One probe measurement at one scale."""

    transform_tag: str
    lambda_: float
    raw_energy: float
    normalized_energy: float
    error_estimate: float


@dataclass(frozen=True)
class ReconstructionReport:
    recovered_matrix: np.ndarray
    rho: float
    per_entry_residuals: np.ndarray
    probes: tuple


@dataclass(frozen=True)
class DiffusionLimitResult:
    """Extrapolated small-scale limit of the normalized rate value.

    ``values`` is the drift-removed sequence used for the limit,
    ``raw_values`` keeps the first-order correction in.
    """

    limit: float
    rate: float
    lambdas: np.ndarray
    values: np.ndarray
    raw_values: np.ndarray
    error_estimate: float
    monotone: bool


@dataclass(frozen=True)
class DriftProbeResult:
    limit: float
    rate: float
    lambdas: np.ndarray
    values: np.ndarray
    pair_values: np.ndarray
    pointwise_value: float
    cross_difference: float


@dataclass(frozen=True)
class ConstancyReport:
    max_operator_value: float
    oscillation: float
    tolerance: float
    operator_flat: bool
    constant: bool


# --------------------------------------------------------------------------
# density rescaling


def rescale_density(f: DensitySpec, lambda_: float, x0) -> DensitySpec:
    """Concentrate a unit-mass density: lam^-N f((x - x0)/lam) around x0.

    The result is centred at x0, and its support radius and kinks are
    those of f scaled by lam about x0.  On the matching ``probe_domain``
    the rescaled support lies inside the interior region by construction.
    """
    lam = float(lambda_)
    if lam <= 0.0:
        raise DomainError("scale parameter must be positive")
    base = f.f
    dim = base.dim
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (dim,):
        raise DomainError("concentration point must match the density dimension")
    if base.support_radius is None:
        raise DomainError("rescaling needs a density of known support")

    def fn(pts: np.ndarray) -> np.ndarray:
        return base((pts - x0) / lam) / lam ** dim

    reach = float(np.linalg.norm(x0)) + lam * base.support_radius
    kinks = tuple(tuple(x0 + lam * np.asarray(p, dtype=float))
                  for p in base.kink_points)
    g = SmoothFunction(fn, dim, support_radius=reach, kink_points=kinks)
    return DensitySpec(g, center=x0)


def probe_domain(f: DensitySpec, lambda_: float, x0,
                 cells: int = 64) -> LatticeDomain:
    """Exact lam-scaled image of the base density lattice, centered at x0.

    Bounds, padding, and margin (those of ``density_lattice``) all shrink
    with the scale, so constant coefficient energies obey their power law
    on these lattices with no discretization residual.
    """
    lam = float(lambda_)
    if lam <= 0.0:
        raise DomainError("scale parameter must be positive")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    dim = f.f.dim
    reach = lam * (f.f.support_radius + _SUPPORT_PAD)
    lower = x0 - reach
    upper = x0 + reach
    if dim == 1:
        return LatticeDomain.interval(float(lower[0]), float(upper[0]), cells,
                                      margin=lam * _LATTICE_MARGIN)
    return LatticeDomain.box(lower, upper, [cells] * dim,
                             margin=lam * _LATTICE_MARGIN)


# --------------------------------------------------------------------------
# diffusion limit


def diffusion_limit(spec: KernelSpec, f: DensitySpec, x0,
                    lambda_seq=(0.5, 0.25, 0.125),
                    h: SmoothFunction | None = None) -> DiffusionLimitResult:
    """Small-scale limit of the scale-normalized rate value at x0.

    For each scale the density is concentrated at x0 and the rate value
    computed on the matching shrunken lattice.  The extrapolated sequence is
    the drift-removed one: adding back half the drift pairing cancels the
    first-order term, whose slow decay would otherwise dominate the
    extrapolation for small exponents.  The raw sequence is reported
    alongside.  The scales must form a decreasing geometric sequence of
    three or more (``scale_ratio``, else DomainError), and the values are
    extrapolated at its ratio.
    """
    lams = np.asarray(lambda_seq, dtype=float)
    ratio = scale_ratio(lams)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    s = spec.s
    vals = []
    raws = []
    for lam in lams:
        g = rescale_density(f, float(lam), x0)
        dom = probe_domain(f, float(lam), x0)
        parts = I_decomposed(g, assemble(dom, spec, drift=h))
        power = float(lam) ** (2.0 * s)
        vals.append(power * (parts.I_value + 0.5 * parts.pairing))
        raws.append(power * parts.I_value)
    ext = richardson_limit(vals, ratio=ratio)
    if not ext.monotone:
        warnings.warn(
            "normalized energies are not monotone in the scale; the "
            "extrapolated limit may be unreliable",
            stacklevel=2,
        )
    return DiffusionLimitResult(ext.limit, ext.rate, lams, np.asarray(vals),
                                np.asarray(raws), ext.error_estimate,
                                ext.monotone)


# --------------------------------------------------------------------------
# spectral energy


_DEFAULT_COUNTS = {1: 2048, 2: 256, 3: 96}

# Gauss-Legendre rule for the origin cell of the spectral grid
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)

# the factor route drops, per axis, the pairs +-k of smallest |ghat_k|^2 up
# to this share of the axis sum, and keeps the sub-grid only if the dropped
# part of the sum is provably below _SUM_TOL of the kept part
_SUM_TOL = 1e-18
_AXIS_SHARE = 1e-6 * _SUM_TOL


def _quadratic_form(Ainv: np.ndarray, axes) -> np.ndarray:
    """<Ainv xi, xi> on the tensor grid of ``axes``, nested over the axes.

    Axis k adds xi_k (2 sum_{a<k} Ainv_ak xi_a + Ainv_kk xi_k) to the form
    of the first k axes, so only the last step touches the full grid.
    """
    q = Ainv[0, 0] * axes[0] ** 2
    for k in range(1, len(axes)):
        # xi_a shaped to broadcast over the first k axes
        cross = sum((Ainv[a, k] + Ainv[k, a])
                    * axes[a].reshape((-1,) + (1,) * (k - 1 - a))
                    for a in range(k))
        x = axes[k]
        step = cross[..., None] + Ainv[k, k] * x
        step *= x
        step += q[..., None]
        q = step
    return q


def _clamped_weight(Ainv: np.ndarray, s: float, freqs) -> np.ndarray:
    """max(<Ainv xi, xi>, 0)^s on the tensor grid of ``freqs``."""
    weight = _quadratic_form(Ainv, freqs)
    np.maximum(weight, 0.0, out=weight)
    weight **= s
    return weight


def _sampled_transform(g: SmoothFunction, axes, hs) -> np.ndarray:
    # sample on the whole grid and take one dim-dimensional transform
    dim = len(axes)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
    vals = np.asarray(g(pts), dtype=float).reshape(tuple(len(x) for x in axes))
    scale = (float(np.prod(hs)) / (2 * np.pi) ** (dim / 2.0)) ** 2
    return np.abs(np.fft.fftn(vals)) ** 2 * scale


def _mirror(n: int) -> np.ndarray:
    """Index of the entry with the mirrored frequency, min(j, n - j), of
    each index j of an ``fftfreq`` axis of n points."""
    j = np.arange(n)
    return np.minimum(j, n - j)


def _factor_transforms(factors, axes, hs) -> list:
    # |ghat|^2 of a product is the product of the axis |ghat_k|^2; a real
    # factor has an even |ghat_k|^2, which the rfft half mirrored makes exact
    out = []
    for k, (f, x, h) in enumerate(zip(factors, axes, hs)):
        vals = np.asarray(f(x), dtype=float)
        if vals.shape != x.shape:
            raise DomainError("factor %d must map an axis of shape %s to the "
                              "same shape, not %s" % (k, x.shape, vals.shape))
        half = np.abs(np.fft.rfft(vals)) ** 2 * (h / np.sqrt(2 * np.pi)) ** 2
        out.append(half[_mirror(x.size)])
    return out


def _grid_sum(Ainv: np.ndarray, s: float, freqs, ghat2) -> float:
    """Sum of max(<Ainv xi, xi>, 0)^s prod_k ghat2_k over the grid of ``freqs``.

    ``ghat2`` holds one array per axis, of the length of that axis.  The
    factors of axes 1.. are multiplied into one array on their sub-grid;
    the weight is multiplied by it and summed over those axes, and the
    row sums are weighted by ghat2_0.  That is one product and one
    reduction over the grid, in elementwise ops, so no BLAS is involved.
    """
    weight = _clamped_weight(Ainv, s, freqs)
    rows = weight.reshape(len(freqs[0]), -1)
    trans = np.ones(())
    for factor in ghat2[1:]:
        trans = np.multiply.outer(trans, factor)
    rows *= trans.reshape(-1)
    return float(np.sum(rows.sum(axis=1) * ghat2[0]))


def _mass_mask(ghat2: np.ndarray) -> np.ndarray:
    """Entries of one even axis |ghat_k|^2 that carry its mass, index 0
    always.

    The entries at +-k are kept or dropped together: the pairs with the
    smallest entries are dropped while their mass stays below
    ``_AXIS_SHARE`` of the axis total.  So the mask is even, as the data.
    """
    n = ghat2.size
    half = ghat2[:n // 2 + 1]
    j = np.arange(half.size)
    pair = half * np.where((j == 0) | (2 * j == n), 1.0, 2.0)
    order = np.argsort(half, kind="stable")
    drop = np.searchsorted(np.cumsum(pair[order]), _AXIS_SHARE * ghat2.sum())
    keep = np.ones(half.size, dtype=bool)
    keep[order[:drop]] = False
    keep[0] = True
    return keep[_mirror(n)]


def _dropped_bound(Ainv: np.ndarray, s: float, freqs, ghat2, keep) -> float:
    """Bound on what the points outside the ``keep`` masks add to the sum.

    The clamped weight is at most W_max = (lambda_max(Ainv) sum_k max xi_k^2)^s
    on the whole grid, so the dropped points add at most
    W_max (prod_k S_k - prod_k K_k), S_k and K_k the full and kept sums of
    axis k.  The difference is taken as sum_k K_1..K_{k-1} D_k S_{k+1}..S_N,
    with the dropped sums D_k summed directly, so that no digits cancel.
    """
    w_max = (np.linalg.eigvalsh(Ainv).max()
             * sum(float((x ** 2).max()) for x in freqs)) ** s
    dropped, head = 0.0, 1.0
    for k, (f, m) in enumerate(zip(ghat2, keep)):
        tail = float(np.prod([g.sum() for g in ghat2[k + 1:]]))
        dropped += head * float(f[~m].sum()) * tail
        head *= float(f[m].sum())
    return w_max * dropped


def _half_sum(Ainv: np.ndarray, s: float, freqs, ghat2, keep) -> float:
    """Sum over the tensor set of the ``keep`` masks, from half of it.

    The summand is even under xi -> -xi bit for bit: ghat2 is even, and
    ``_quadratic_form`` is, since negation is exact.  A Nyquist index
    (j = n/2 of an even n) has no mirror on the ``fftfreq`` grid, so the
    kept points with no Nyquist index form a centrally symmetric set.  Its
    sum is the sum over xi_0 >= 0, the slabs xi_0 > 0 counted twice.  The
    points with a Nyquist index are summed once each, split by the first
    axis on which they have it.  In exact arithmetic this is the full sum.
    """
    nyquist = [2 * np.arange(f.size) == f.size for f in ghat2]
    inner = [m & ~q for m, q in zip(keep, nyquist)]

    def part(factors, masks):
        return _grid_sum(Ainv, s, [x[m] for x, m in zip(freqs, masks)],
                         [f[m] for f, m in zip(factors, masks)])

    twice = [np.where(freqs[0] > 0, 2.0, 1.0) * ghat2[0]] + ghat2[1:]
    total = part(twice, [inner[0] & (freqs[0] >= 0)] + inner[1:])
    for k, (m, q) in enumerate(zip(keep, nyquist)):
        if m[q].any():
            total += part(ghat2, inner[:k] + [q] + keep[k + 1:])
    return total


def _factor_sum(Ainv: np.ndarray, s: float, freqs, ghat2) -> float:
    """Grid sum of the factor route, on the tensor sub-grid with the mass.

    The sub-grid keeps ``_mass_mask`` of each axis and is summed by
    ``_half_sum``.  Unless the bound on the dropped part is below
    ``_SUM_TOL`` of the kept sum, the same sum runs again with every
    index kept.
    """
    for keep in ([_mass_mask(f) for f in ghat2],
                 [np.ones(f.size, dtype=bool) for f in ghat2]):
        total = _half_sum(Ainv, s, freqs, ghat2, keep)
        if _dropped_bound(Ainv, s, freqs, ghat2, keep) < _SUM_TOL * total:
            break
    return total


def _spectral_sum(A: np.ndarray, g, s: float, ext: np.ndarray,
                  cnt: np.ndarray) -> float:
    dim = len(ext)
    Ainv = np.linalg.inv(A)
    hs = 2.0 * ext / cnt
    axes = [-ext[k] + hs[k] * (np.arange(cnt[k]) + 0.5) for k in range(dim)]
    freqs = [2 * np.pi * np.fft.fftfreq(int(cnt[k]), d=hs[k]) for k in range(dim)]
    if isinstance(g, SmoothFunction):
        ghat2 = _sampled_transform(g, axes, hs)
        weight = _clamped_weight(Ainv, s, freqs)
        weight *= ghat2
        total = float(np.sum(weight))
        origin = float(ghat2.flat[0])
    else:
        ghat2 = _factor_transforms(g, axes, hs)
        total = _factor_sum(Ainv, s, freqs, ghat2)
        origin = float(np.prod([f[0] for f in ghat2]))
    dxi = float(np.prod([np.pi / ext[k] for k in range(dim)]))
    total *= dxi
    # the weight has a kink at the origin where the midpoint value vanishes;
    # integrate it exactly over the origin cell with a tensor Gauss rule
    cell = [np.pi / ext[k] for k in range(dim)]
    q0 = _quadratic_form(Ainv, [0.5 * cell[k] * _GL_X for k in range(dim)])
    w0 = np.ones(())
    for k in range(dim):
        w0 = np.multiply.outer(w0, 0.5 * cell[k] * _GL_W)
    total += float(np.sum(q0 ** s * w0)) * origin
    return total / float(np.sqrt(np.linalg.det(A)))


def fourier_energy(matrix, g, s: float, extents=None, counts=None) -> float:
    """Spectral form of the quadratic energy for constant coefficients.

    Computes |Det A|^{-1/2} times the integral of <A^{-1} xi, xi>^s |ghat|^2
    in the unitary transform convention, on a midpoint grid of the given
    per-axis extents and counts.  Whether the grid resolves g is the
    caller's choice: ``GaussianProbe.grid`` sizes it for a probe.

    ``g`` is either a ``SmoothFunction``, sampled on the whole grid and
    transformed with one ``fftn``, or a sequence of ``dim`` one-dimensional
    callables whose product g(x) = g_1(x_1) ... g_dim(x_dim) is the
    function.  Each factor maps an array of axis coordinates to its values;
    it is transformed alone, and |ghat|^2 is the outer product of the axis
    transforms.  On a function of product form the two routes agree to
    rounding; the second costs dim one-dimensional transforms.

    On the second route the weight <A^{-1} xi, xi>^s is formed only on
    half of the tensor sub-grid that carries the mass.  Each axis takes
    |ghat_k|^2 from a real transform, mirrored, so that it is exactly even,
    and drops the pairs of entries at +-k with the least mass while their
    sum stays below 1e-24 of the axis sum S_k; it always keeps the zero
    frequency.  The summand is then even under xi -> -xi, and the kept
    points without a Nyquist index (which has no mirror on the grid) are
    summed over xi_0 >= 0, every point with xi_0 > 0 counted twice; the
    points with a Nyquist index are summed once each.  In exact arithmetic
    that is the sum over the whole sub-grid.  The clamped weight is at most
    W_max = (lambda_max(A^{-1}) sum_k max xi_k^2)^s on the grid, so the
    dropped points add at most W_max (prod_k S_k - prod_k K_k), K_k the
    kept axis sums.  Unless that bound is below 1e-18 of the kept sum, as
    for a factor whose spectrum does not decay, the full grid is summed,
    by halves as well.  The sampled route always sums the full grid.

    A matrix or extents with an entry that is not finite, and counts that
    are not integers, raise DomainError.
    """
    A = np.atleast_2d(np.asarray(matrix, dtype=float))
    dim = A.shape[0]
    if not np.isfinite(A).all():
        raise DomainError("coefficient matrix entries must be finite")
    if A.shape != (dim, dim) or np.abs(A - A.T).max() > 1e-12 * np.abs(A).max():
        raise DomainError("coefficient matrix must be symmetric")
    if np.linalg.eigvalsh(A).min() <= 0.0:
        raise DomainError("coefficient matrix must be positive definite")
    if not 0.0 < s < 1.0:
        raise DomainError("exponent must lie in (0, 1)")
    if extents is None:
        extents = 12.0
    ext = np.broadcast_to(np.asarray(extents, dtype=float), (dim,)).astype(float)
    if not (np.isfinite(ext).all() and np.all(ext > 0)):
        raise DomainError("grid extents must be positive and finite")
    if counts is None:
        counts = _DEFAULT_COUNTS.get(dim, 64)
    if np.asarray(counts).dtype.kind not in "iu":
        raise DomainError("grid counts must be integers")
    cnt = np.broadcast_to(np.asarray(counts, dtype=int), (dim,)).astype(int)
    if np.any(cnt < 8):
        raise DomainError("need at least eight nodes per axis")
    factors = (isinstance(g, (list, tuple)) and len(g) == dim
               and all(callable(f) for f in g))
    if not (factors or isinstance(g, SmoothFunction) and g.dim == dim):
        raise DomainError("g must be a SmoothFunction of dimension %d or a "
                          "sequence of %d one-dimensional callables"
                          % (dim, dim))
    return float(_spectral_sum(A, g, s, ext, cnt))


# --------------------------------------------------------------------------
# probes

_BROAD_WIDTH = 1.0  # transverse width of every GaussianProbe factor


@dataclass(frozen=True)
class GaussianProbe:
    """Gaussian test function collapsing along one direction.

    ``axis`` is either an axis index (the collapsing direction is that
    coordinate axis) or a pair (k, m), in which case the probe collapses
    along (e_k - e_m)/sqrt(2).  The collapsing width is
    ``narrow_width * lambda_``; every transverse width is ``_BROAD_WIDTH``.
    """

    dim: int
    lambda_: float
    axis: object
    narrow_width: float = 1.0

    @property
    def tag(self) -> str:
        if isinstance(self.axis, tuple):
            return "rotation(%d,%d)" % (self.axis[0], self.axis[1])
        return "identity" if self.axis == 0 else "axis_swap(%d)" % self.axis

    @property
    def frame(self) -> np.ndarray:
        """Orthogonal map whose first row is the collapsing direction."""
        eye = np.eye(self.dim)
        if isinstance(self.axis, tuple):
            k, m = self.axis
            root = 1.0 / np.sqrt(2.0)
            rows = [root * (eye[k] - eye[m]), root * (eye[k] + eye[m])]
            rows += [eye[j] for j in range(self.dim) if j not in (k, m)]
            return np.array(rows)
        R = eye.copy()
        if self.axis != 0:
            R[[0, self.axis]] = R[[self.axis, 0]]
        return R

    def factors(self) -> tuple:
        """The probe in its own frame, one axis Gaussian per frame axis."""
        widths = ([self.narrow_width * self.lambda_]
                  + [_BROAD_WIDTH] * (self.dim - 1))
        return tuple(_AxisGaussian(w) for w in widths)

    def frame_function(self) -> SmoothFunction:
        """The probe in its own frame: the product of its factors."""
        factors = self.factors()

        def fn(pts: np.ndarray) -> np.ndarray:
            out = factors[0](pts[:, 0])
            for j in range(1, self.dim):
                out = out * factors[j](pts[:, j])
            return out

        reach = 8.6 * max(f.width for f in factors)
        return SmoothFunction(fn, self.dim, support_radius=reach)

    def grid(self):
        """Frame-aligned extents and counts resolving the collapsed axis."""
        widths = [f.width for f in self.factors()]
        extents = [31.0 * widths[0]] + [10.0 * w for w in widths[1:]]
        counts = [384] + [96] * (self.dim - 1)
        return extents, counts


@dataclass(frozen=True)
class _AxisGaussian:
    """exp(-x^2 / (2 width^2)) on an array of axis coordinates."""

    width: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * (x / self.width) ** 2)


def fourier_probe_oracle(matrix, s: float):
    """Energy oracle for probes, backed by the spectral evaluation.

    Each probe is evaluated in its own frame against the rotated matrix;
    this equals rotating the function (covariance is exercised in the test
    suite) and keeps the collapsed direction grid-aligned, so the narrow
    scales stay affordable.  In its frame the probe is a product of axis
    Gaussians, so the energy is evaluated separably: ``fourier_energy``
    gets ``probe.factors()`` and takes one transform per axis instead of
    one transform of the whole grid.
    """
    A = np.asarray(matrix, dtype=float)

    def oracle(probe: GaussianProbe) -> float:
        R = probe.frame
        ext, cnt = probe.grid()
        return fourier_energy(R @ A @ R.T, probe.factors(), s,
                              extents=ext, counts=cnt)

    return oracle


# --------------------------------------------------------------------------
# matrix recovery

_SPREAD_TOL = 1.5  # largest spread of one probe's normalized energies
_RHO_TOL = 0.25  # largest |rho - 1|


def scale_ratio(lambda_seq) -> float:
    """Common ratio of a decreasing geometric sequence of three or more
    positive scales; DomainError for any other sequence."""
    lams = np.asarray(lambda_seq, dtype=float)
    if (lams.ndim != 1 or lams.size < 3 or np.any(lams <= 0)
            or np.any(np.diff(lams) >= 0)):
        raise DomainError("need a decreasing scale sequence of three or more values")
    ratios = lams[:-1] / lams[1:]
    if np.abs(ratios - ratios[0]).max() > 1e-9 * ratios[0]:
        raise DomainError("scale sequence must be geometric")
    return float(ratios[0])


def recover_matrix(energy_oracle, dim: int, s: float,
                   lambda_seq=(0.5, 0.25, 0.125),
                   second_width: float = 0.7) -> ReconstructionReport:
    """Reconstruct the coefficient matrix from an energy oracle.

    A probe collapsing along direction e has scale-normalized energy tending
    to C |Det A|^{-1/2} (e' A^{-1} e)^s, C the closed-form constant for the
    probe widths under a normalized kernel.  Axis probes therefore give the
    diagonal of A^{-1} up to a common power of the determinant,
    diagonal-direction probes give the off-diagonal entries linearly, and
    the determinant of the assembled data closes the system.  A second probe family at a different width
    re-measures the diagonal; the geometric mean of measured over predicted
    is reported as the kernel density factor rho, which the model requires
    to be 1.
    """
    lams = np.asarray(lambda_seq, dtype=float)
    ratio = scale_ratio(lams)
    if not 0.0 < s < 1.0:
        raise DomainError("exponent must lie in (0, 1)")
    C1 = float(math.gamma(s + 0.5) * np.pi ** ((dim - 1) / 2.0))
    probes: list[ProbeResult] = []

    def measure(axis, width: float) -> float:
        rows = []
        for lam in lams:
            p = GaussianProbe(dim, float(lam), axis, narrow_width=width)
            raw = float(energy_oracle(p))
            rows.append((p.tag, float(lam), raw, float(lam) ** (2 * s - 1) * raw))
        norm = [r[3] for r in rows]
        limit = richardson_limit(norm, ratio=ratio).limit
        floor = 1e-12 * max(abs(v) for v in norm) + 1e-300
        spread = (max(norm) - min(norm)) / max(abs(limit), floor)
        if spread > _SPREAD_TOL:
            raise OracleInconsistencyError(
                "probe %s: normalized energies %s do not settle (spread %.3g)"
                % (rows[0][0], ["%.4g" % v for v in norm], spread))
        for tag, lam, raw, nv in rows:
            probes.append(ProbeResult(tag, lam, raw, nv, abs(nv - limit)))
        if limit <= 0.0:
            raise ReconstructionError(
                "probe %s extrapolates to the nonpositive energy %.3g"
                % (rows[0][0], limit))
        return float(limit)

    P = np.array([measure(k, 1.0) for k in range(dim)])
    M = np.zeros((dim, dim))
    for k in range(dim):
        M[k, k] = (P[k] / C1) ** (1.0 / s)
    cross = {}
    for k in range(dim):
        for m in range(k + 1, dim):
            cross[(k, m)] = measure((k, m), 1.0)
            Rkm = (cross[(k, m)] / C1) ** (1.0 / s)
            M[k, m] = M[m, k] = 0.5 * (M[k, k] + M[m, m]) - Rkm
    if np.linalg.eigvalsh(M).min() <= 0.0:
        raise ReconstructionError(
            "assembled inverse-matrix data is not positive definite; "
            "eigenvalues %s" % np.array2string(np.linalg.eigvalsh(M)))
    detM = float(np.linalg.det(M))
    detA = detM ** (-2.0 * s / (dim + 2.0 * s))
    scale = detA ** (-1.0 / (2.0 * s))
    A = scale * np.linalg.inv(M)
    Ainv = np.linalg.inv(A)
    pref = C1 / float(np.sqrt(detA))

    residuals = np.zeros((dim, dim))
    for k in range(dim):
        pred = pref * Ainv[k, k] ** s
        residuals[k, k] = abs(P[k] - pred) / pred
    for (k, m), lim in cross.items():
        pred = pref * (0.5 * (Ainv[k, k] - 2 * Ainv[k, m] + Ainv[m, m])) ** s
        residuals[k, m] = residuals[m, k] = abs(lim - pred) / pred

    width_factor = second_width ** (1.0 - 2.0 * s)
    logs = []
    for k in range(dim):
        meas = measure(k, second_width)
        pred = width_factor * pref * Ainv[k, k] ** s
        logs.append(np.log((meas / pred) ** (1.0 / s)))
    rho = float(np.exp(np.mean(logs)))
    if abs(rho - 1.0) > _RHO_TOL:
        raise OracleInconsistencyError(
            "kernel density factor %.4f is far from 1; the oracle does not "
            "match the probe model" % rho)
    return ReconstructionReport(A, rho, residuals, tuple(probes))


# --------------------------------------------------------------------------
# drift recovery


_UNIT_BUMPS: dict[int, DensitySpec] = {}
_CROSS_TOL = 0.05  # largest relative gap of drift_probe's two routes


def _unit_bump(dim: int) -> DensitySpec:
    # prenormalized so downstream lattice renormalization stays silent
    if dim not in _UNIT_BUMPS:
        b = bump(dim, radius=0.8)
        dom = density_lattice(DensitySpec(b), cells=256 if dim == 1 else 48)
        mass = float(b(dom.interior_points).sum()) * dom.cell_volume
        _UNIT_BUMPS[dim] = DensitySpec(scaled(b, 1.0 / mass))
    return _UNIT_BUMPS[dim]


def drift_probe(h: SmoothFunction, spec: KernelSpec, x0,
                lambda_seq=(0.5, 0.25, 0.125), f: DensitySpec | None = None,
                cells: int = 40) -> DriftProbeResult:
    """Recover the generator applied to the drift at x0 from integrals.

    Each scale integrates the pointwise generator values against the
    concentrated density; a second route through assembled pair weights must
    agree, since the integrated first-order term equals minus the lattice
    drift pairing.  The scales must form a decreasing geometric sequence
    of three or more (``scale_ratio``, else DomainError), and the values
    are extrapolated at its ratio.  The extrapolated limit is
    cross-checked against direct pointwise quadrature at x0 and the
    difference reported; a difference above ``_CROSS_TOL`` relatively
    raises OracleInconsistencyError.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    dim = x0.size
    if f is None:
        f = _unit_bump(dim)
    lams = np.asarray(lambda_seq, dtype=float)
    ratio = scale_ratio(lams)
    vals = []
    pairs = []
    for lam in lams:
        g = rescale_density(f, float(lam), x0)
        dom = probe_domain(f, float(lam), x0, cells=cells)
        fv = g.values_on(dom)
        applied = nonlocal_laplacian(h, spec, dom.interior_points)
        vals.append(float(fv @ applied) * dom.cell_volume)
        op = assemble(dom, spec, drift=h)
        pairs.append(-drift_pairing(op, fv))
    ref = float(nonlocal_laplacian(h, spec, x0))
    ext = richardson_limit(vals, ratio=ratio)
    diff = abs(ext.limit - ref)
    if diff > _CROSS_TOL * max(abs(ref), 1e-12) + 1e-10:
        raise OracleInconsistencyError(
            "integrated drift limit %.6g disagrees with the pointwise value "
            "%.6g" % (ext.limit, ref))
    return DriftProbeResult(ext.limit, ext.rate, lams, np.asarray(vals),
                            np.asarray(pairs), ref, diff)


def constancy_check(w: SmoothFunction, spec: KernelSpec, sample_points,
                    tol: float = 1e-8) -> ConstancyReport:
    """Decide whether a recovered exponent field is constant.

    Evaluates the generator at the sample points, and the oscillation of the
    field over the samples together with its far state.  A constant verdict
    needs both below tol; a flat generator with visible oscillation is
    reported but not certified.
    """
    pts = np.asarray(sample_points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != w.dim:
        raise DomainError("sample points must have shape (m, dim)")
    applied = nonlocal_laplacian(w, spec, pts)
    field_vals = np.append(w(pts), w.far_value)
    oscillation = float(field_vals.max() - field_vals.min())
    max_op = float(np.abs(applied).max())
    flat = max_op < tol
    return ConstancyReport(max_op, oscillation, tol, flat,
                           bool(flat and oscillation < tol))
