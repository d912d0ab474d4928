"""Anisotropy fields and the singular kernels they induce.

A field ``A(x, y)`` of symmetric positive definite matrices defines the
pair kernel

    K(x, y) = |(x - y)^T A(x, y) (x - y)|^(-(N + 2s)/2),

optionally multiplied by the constant that makes the isotropic case
(``A = Id``) agree with the fractional Laplacian of order ``2s``.  Three
field variants are supported: a constant matrix, the separable sum
``A(x, y) = M(x) + M(y)`` and the symmetrised separable product
``A(x, y) = M(x) M(y) + M(y) M(x)``.  All variants are symmetric under
swapping ``x`` and ``y`` by construction.  For the separable variants
z^T A(x, y) z is formed from M(x) and M(y) without forming A
(``AnisotropyField.point_terms`` and ``separable_form``), so the part of
M(x) can be computed once and reused for many y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, EllipticityError, SingularityError

__all__ = [
    "EllipticityBounds",
    "AnisotropyField",
    "KernelSpec",
    "kernel_eval",
    "normalization_constant",
    "fractional_kernel",
    "spec_from_config",
]

MatrixFn = Callable[[np.ndarray], np.ndarray]


def normalization_constant(dim: int, s: float) -> float:
    """Constant c(N, s) = 4^s Gamma(N/2 + s) / (pi^(N/2) |Gamma(-s)|).

    With this factor the isotropic kernel reproduces the standard
    fractional Laplacian normalisation.  Only 0 < s < 1 is admissible.
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"order s must lie in (0, 1), got {s}")
    if dim < 1:
        raise DomainError(f"dimension must be >= 1, got {dim}")
    return 4.0**s * math.gamma(dim / 2.0 + s) / (np.pi ** (dim / 2.0) * abs(math.gamma(-s)))


@dataclass(frozen=True)
class EllipticityBounds:
    """Uniform spectral bounds for an anisotropy field.

    ``lower`` and ``upper`` bound the Rayleigh quotient of ``A(x, y)``
    from below and above, for every pair of points.  They enter the
    truncation-tail estimates; the kernel itself is computed from the
    field values, not from the bounds.
    """

    lower: float
    upper: float
    s: float
    dim: int

    def __post_init__(self) -> None:
        if not 0.0 < self.lower <= self.upper:
            raise EllipticityError(
                f"need 0 < lower <= upper, got ({self.lower}, {self.upper})"
            )
        if not 0.0 < self.s < 1.0:
            raise DomainError(f"order s must lie in (0, 1), got {self.s}")
        if self.dim < 1:
            raise DomainError(f"dimension must be >= 1, got {self.dim}")

    @property
    def exponent(self) -> float:
        """Kernel exponent (N + 2s)/2 applied to the quadratic form."""
        return 0.5 * (self.dim + 2.0 * self.s)


def _as_spd(matrix: np.ndarray, dim: int) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.shape != (dim, dim):
        raise EllipticityError(f"matrix must have shape ({dim}, {dim}), got {m.shape}")
    if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(m).max())):
        raise EllipticityError("matrix must be symmetric")
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise EllipticityError("matrix must be positive definite") from exc
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class AnisotropyField:
    """Matrix field A(x, y), one of the three supported variants.

    ``matrix_fn`` maps an array of points with shape (m, dim) to an
    array of matrices with shape (m, dim, dim), one call for all the
    points; an answer of any other shape raises DomainError.
    """

    variant: str
    dim: int
    matrix: np.ndarray | None = None
    matrix_fn: MatrixFn | None = field(default=None, compare=False)

    _VARIANTS = ("constant", "separable_sum", "separable_product")

    def __post_init__(self) -> None:
        if self.variant not in self._VARIANTS:
            raise DomainError(f"unknown field variant {self.variant!r}")
        if self.variant == "constant":
            if self.matrix is None:
                raise EllipticityError("constant variant requires a matrix")
            object.__setattr__(self, "matrix", _as_spd(self.matrix, self.dim))
        elif self.matrix_fn is None:
            raise EllipticityError(f"{self.variant} variant requires matrix_fn")

    @classmethod
    def constant(cls, matrix: np.ndarray) -> "AnisotropyField":
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        return cls(variant="constant", dim=matrix.shape[0], matrix=matrix)

    @classmethod
    def separable_sum(cls, matrix_fn: MatrixFn, dim: int) -> "AnisotropyField":
        return cls(variant="separable_sum", dim=dim, matrix_fn=matrix_fn)

    @classmethod
    def separable_product(cls, matrix_fn: MatrixFn, dim: int) -> "AnisotropyField":
        return cls(variant="separable_product", dim=dim, matrix_fn=matrix_fn)

    def single_point_matrices(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the one-point field M at each row of ``points``."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.variant == "constant":
            return np.broadcast_to(self.matrix, (points.shape[0], self.dim, self.dim))
        mats = np.asarray(self.matrix_fn(points), dtype=float)
        want = (points.shape[0], self.dim, self.dim)
        if mats.shape != want:
            raise DomainError(f"matrix_fn answered {len(points)} points with "
                              f"shape {mats.shape}, not {want}")
        return mats

    def pair_matrices(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """A(x_i, y_i) for paired rows; shape (m, dim, dim).

        Forms A explicitly: the reference that ``point_terms`` and
        ``separable_form`` are tested against.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if self.variant == "constant":
            return np.broadcast_to(self.matrix, (x.shape[0], self.dim, self.dim))
        mx = self.single_point_matrices(x)
        my = self.single_point_matrices(y)
        if self.variant == "separable_sum":
            return mx + my
        return mx @ my + my @ mx

    def point_terms(self, mats: np.ndarray, z: np.ndarray) -> np.ndarray:
        """The share of z^T A(x, y) z that needs only M(x), for a separable
        field: z^T M(x) z for the sum, M(x) z for the product.

        ``mats`` holds one-point matrices with shape (..., dim, dim) and
        ``z`` vectors with shape (..., dim); leading axes broadcast.
        """
        if self.variant == "separable_sum":
            return np.einsum("...i,...ij,...j->...", z, mats, z)
        # column by column: several times faster than einsum at dim <= 3
        mz = mats[..., 0] * z[..., None, 0]
        for j in range(1, self.dim):
            mz += mats[..., j] * z[..., None, j]
        return mz

    def separable_form(self, tx: np.ndarray, my: np.ndarray, z: np.ndarray) -> np.ndarray:
        """z^T A(x, y) z from tx = ``point_terms(M(x), z)`` and M(y), without
        forming A: z^T M(x) z + z^T M(y) z for the sum, and for the
        product, whose M are symmetric,
        z^T (M(x) M(y) + M(y) M(x)) z = 2 (M(x) z)^T M(y) z.
        Leading axes broadcast, so tx can be computed once per x and
        reused for many y.
        """
        if self.variant == "separable_sum":
            return tx + np.einsum("...i,...ij,...j->...", z, my, z)
        return 2.0 * np.einsum("...i,...ij,...j->...", tx, my, z)

    def quadratic_form(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """(x - y)^T A(x, y) (x - y) for paired rows; shape (m,)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        z = x - y
        if self.variant == "constant":
            return np.einsum("mi,ij,mj->m", z, self.matrix, z)
        return self.separable_form(self.point_terms(self.single_point_matrices(x), z),
                                   self.single_point_matrices(y), z)


@dataclass(frozen=True)
class KernelSpec:
    """A kernel: anisotropy field, ellipticity bounds and normalisation."""

    field: AnisotropyField
    bounds: EllipticityBounds
    normalized: bool = False

    def __post_init__(self) -> None:
        if self.field.dim != self.bounds.dim:
            raise DomainError(
                f"field dimension {self.field.dim} != bounds dimension {self.bounds.dim}"
            )

    @property
    def dim(self) -> int:
        return self.bounds.dim

    @property
    def s(self) -> float:
        return self.bounds.s

    @property
    def prefactor(self) -> float:
        return normalization_constant(self.dim, self.s) if self.normalized else 1.0


def kernel_eval(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kernel values K(x_i, y_i) for paired rows (scalar in, scalar out).

    Raises ``SingularityError`` at coincident points and
    ``EllipticityError`` when the quadratic form fails to be positive.
    """
    x_arr = np.atleast_2d(np.asarray(x, dtype=float))
    y_arr = np.atleast_2d(np.asarray(y, dtype=float))
    q = spec.field.quadratic_form(x_arr, y_arr)
    if np.any(np.all(x_arr == y_arr, axis=1)):
        raise SingularityError("kernel evaluated at coincident points")
    if np.any(q <= 0.0):
        raise EllipticityError("quadratic form non-positive; field is not elliptic here")
    values = spec.prefactor * q ** (-spec.bounds.exponent)
    if np.isscalar(x) or (np.asarray(x).ndim == 1):
        return values if values.size > 1 else float(values[0])
    return values


def fractional_kernel(dim: int, s: float, normalized: bool = True) -> KernelSpec:
    """Isotropic kernel; with ``normalized=True`` this is the fractional
    Laplacian generator of order 2s."""
    return KernelSpec(
        field=AnisotropyField.constant(np.eye(dim)),
        bounds=EllipticityBounds(lower=1.0, upper=1.0, s=s, dim=dim),
        normalized=normalized,
    )


def spec_from_config(cfg: dict) -> KernelSpec:
    """Build a KernelSpec from a JSON-style mapping.

    Expected keys: ``variant`` (one of constant / separable_sum /
    separable_product), ``matrix`` (nested lists; for separable variants
    it is the base matrix of a built-in smooth perturbation field),
    ``s``, and optional ``gamma`` / ``Gamma`` / ``normalized``, and for
    the separable variants ``amplitude``, the size of the perturbation.
    """
    variant = cfg.get("variant", "constant")
    matrix = np.asarray(cfg["matrix"], dtype=float)
    dim = matrix.shape[0]
    s = float(cfg["s"])
    if variant == "constant":
        fld = AnisotropyField.constant(matrix)
        eigs = np.linalg.eigvalsh(fld.matrix)
        lower = float(cfg.get("gamma", eigs[0]))
        upper = float(cfg.get("Gamma", eigs[-1]))
    else:
        amp = float(cfg.get("amplitude", 0.1))
        base = _as_spd(matrix, dim)

        def matrix_fn(points: np.ndarray, _base=base, _amp=amp) -> np.ndarray:
            pts = np.atleast_2d(points)
            # sum(axis=1) adds the same terms in the same order, but a
            # reduction over short rows costs ten times this loop
            phase = pts[:, 0].copy()
            for a in range(1, dim):
                phase += pts[:, a]
            out = np.empty((len(pts), dim, dim))
            out[...] = _base
            # the diagonals of all the matrices, a strided view of out
            out.reshape(len(pts), dim * dim)[:, :: dim + 1] += (_amp * np.sin(phase))[:, None]
            return out

        eigs = np.linalg.eigvalsh(base)
        if variant == "separable_sum":
            default_lo, default_hi = 2 * (eigs[0] - amp), 2 * (eigs[-1] + amp)
        else:
            default_lo, default_hi = 2 * (eigs[0] - amp) ** 2, 2 * (eigs[-1] + amp) ** 2
        lower = float(cfg.get("gamma", default_lo))
        upper = float(cfg.get("Gamma", default_hi))
        if variant == "separable_sum":
            fld = AnisotropyField.separable_sum(matrix_fn, dim)
        else:
            fld = AnisotropyField.separable_product(matrix_fn, dim)
    bounds = EllipticityBounds(lower=lower, upper=upper, s=s, dim=dim)
    return KernelSpec(field=fld, bounds=bounds, normalized=bool(cfg.get("normalized", False)))
