"""Anisotropy fields and the singular kernels they induce.

A field ``A(x, y)`` of symmetric positive definite matrices defines the
pair kernel

    K(x, y) = |(x - y)^T A(x, y) (x - y)|^(-(N + 2s)/2),

optionally multiplied by the constant that makes the isotropic case
(``A = Id``) agree with the fractional Laplacian of order ``2s``.  Three
field variants are supported: a constant matrix, the separable sum
``A(x, y) = M(x) + M(y)`` and the symmetrised separable product
``A(x, y) = M(x) M(y) + M(y) M(x)``, with M(y) = B + f(k . y) I for a
base matrix B, a scalar profile f and a wave vector k.  Every variant is
one formula, A(x, y) = C0 + (b(x) + b(y)) C1 + b(x) b(y) C2 with
b = f(k . y), so z^T A(x, y) z = P + Q b(y) where P and Q need only z
and x (``AnisotropyField.split``), and all are symmetric in x and y.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, EllipticityError

__all__ = [
    "AnisotropyField",
    "KernelSpec",
    "normalization_constant",
    "fractional_kernel",
    "spec_from_config",
]


def normalization_constant(dim: int, s: float) -> float:
    """Constant c(N, s) = 4^s gamma(N/2 + s) / (pi^(N/2) |gamma(-s)|).

    With this factor the isotropic kernel reproduces the standard
    fractional Laplacian normalisation.  Only 0 < s < 1 is admissible.
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"order s must lie in (0, 1), got {s}")
    if dim < 1:
        raise DomainError(f"dimension must be >= 1, got {dim}")
    return 4.0**s * math.gamma(dim / 2.0 + s) / (np.pi ** (dim / 2.0) * abs(math.gamma(-s)))


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

    ``matrix`` is A itself for a constant field and the base B of
    M(y) = B + b(y) I for a separable one, with b(y) = ``profile``(k . y)
    and k = ``wave``.  With b declared, every variant is

        A(x, y) = C0 + (b(x) + b(y)) C1 + b(x) b(y) C2

    with (C0, C1, C2) = ``coefficients``: (A) for a constant field,
    (2B, I) for the separable sum and (2B^2, 2B, 2I) for the separable
    product, which is exact because M(x) and M(y) commute.  The profile
    maps a 1-D array of phases to the array of its values, one call for
    all of them; an answer of any other shape raises DomainError.
    ``period``, if given, declares that the profile is periodic with that
    period; ``operators.far_field`` then closes each ray by the Fourier
    series of the kernel along it.
    """

    variant: str
    matrix: np.ndarray
    wave: np.ndarray | None = None
    profile: Callable[[np.ndarray], np.ndarray] | None = field(default=None, compare=False)
    period: float | None = None

    _VARIANTS = ("constant", "separable_sum", "separable_product")

    def __post_init__(self) -> None:
        if self.variant not in self._VARIANTS:
            raise DomainError(f"unknown field variant {self.variant!r}")
        matrix = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        object.__setattr__(self, "matrix", _as_spd(matrix, matrix.shape[0]))
        if self.variant != "constant":
            wave = np.asarray(self.wave, dtype=float)
            if self.profile is None or wave.shape != (self.dim,):
                raise EllipticityError(f"{self.variant} variant requires a profile and "
                                       f"a wave vector of shape ({self.dim},)")
            object.__setattr__(self, "wave", wave)

    @classmethod
    def constant(cls, matrix: np.ndarray) -> "AnisotropyField":
        return cls("constant", matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def coefficients(self) -> tuple[np.ndarray, ...]:
        """(C0,) for a constant field, (C0, C1) for the separable sum and
        (C0, C1, C2) for the separable product."""
        B, eye = self.matrix, np.eye(self.dim)
        return {"constant": (B,), "separable_sum": (2.0 * B, eye),
                "separable_product": (2.0 * B @ B, 2.0 * B, 2.0 * eye)}[self.variant]

    def ridge(self, phase: np.ndarray) -> np.ndarray:
        """b = f(phase) for an array of phases of any shape; the profile
        sees them as one 1-D array."""
        flat = np.reshape(phase, -1)
        out = np.asarray(self.profile(flat), dtype=float)
        if out.shape != flat.shape:
            raise DomainError(f"the profile answered {flat.size} phases with "
                              f"shape {out.shape}, not {flat.shape}")
        return out.reshape(np.shape(phase))

    def node_terms(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The phase k . x and the ridge b(x) at each row x of ``points``."""
        phase = np.atleast_2d(np.asarray(points, dtype=float)) @ self.wave
        return phase, self.ridge(phase)

    def split(self, z: np.ndarray, bx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(P, Q) with z^T A(x, y) z = P + Q b(y) for a separable field:
        P = z^T C0 z + b(x) z^T C1 z and Q = z^T C1 z + b(x) z^T C2 z.

        ``z`` has shape (..., dim) and ``bx`` broadcasts against its leading
        axes; P and Q, which may be read-only views, have their shape.
        """
        a, b = np.triu_indices(self.dim)
        mono = np.empty(np.shape(z)[:-1] + (len(a),))
        for k in range(len(a)):
            np.multiply(z[..., a[k]], z[..., b[k]], out=mono[..., k])
        # z^T C z = Sum_{a <= b} (2 - [a = b]) C_ab z_a z_b for a symmetric C
        forms = mono @ np.stack([(2.0 - (a == b)) * c[a, b] for c in self.coefficients], axis=1)
        del mono  # freed before P and Q: ``operators._chunk_rows`` counts on it
        p = forms[..., 0] + bx * forms[..., 1]
        if forms.shape[-1] == 2:  # the sum: Q = z^T z whatever b(x)
            return p, np.broadcast_to(forms[..., 1], p.shape)
        return p, forms[..., 1] + bx * forms[..., 2]

    def pair_matrices(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """A(x_i, y_i) for paired rows; shape (m, dim, dim).

        Forms M(x) = B + b(x) I and M(y) explicitly and combines them as
        M(x) + M(y) or M(x) M(y) + M(y) M(x): the reference the one
        formula is tested against.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if self.variant == "constant":
            return np.broadcast_to(self.matrix, (x.shape[0], self.dim, self.dim))
        mx, my = (self.matrix + self.node_terms(p)[1][:, None, None] * np.eye(self.dim)
                  for p in (x, y))
        if self.variant == "separable_sum":
            return mx + my
        return mx @ my + my @ mx


@dataclass(frozen=True)
class KernelSpec:
    """A kernel: anisotropy field, order s, lower ellipticity bound and
    normalisation.

    ``lower`` bounds the Rayleigh quotient of ``A(x, y)`` from below for
    every pair of points.  It enters only the tail bound
    ``operators._ellipticity_tail``: the kernel mass past the last panel
    of a ray that no closed form ends (a separable field with no
    ``period``), and the radius of a pointwise rule for a function with no
    support radius.  The kernel itself is computed from the field values.
    """

    field: AnisotropyField
    s: float
    lower: float
    normalized: bool = False

    def __post_init__(self) -> None:
        if not self.lower > 0.0:
            raise EllipticityError(f"need lower > 0, got {self.lower}")
        if not 0.0 < self.s < 1.0:
            raise DomainError(f"order s must lie in (0, 1), got {self.s}")

    @property
    def dim(self) -> int:
        return self.field.dim

    @property
    def exponent(self) -> float:
        """Kernel exponent (N + 2s)/2 applied to the quadratic form."""
        return 0.5 * (self.dim + 2.0 * self.s)

    @property
    def prefactor(self) -> float:
        return normalization_constant(self.dim, self.s) if self.normalized else 1.0


def fractional_kernel(dim: int, s: float, normalized: bool = True) -> KernelSpec:
    """Isotropic kernel; with ``normalized=True`` this is the fractional
    Laplacian generator of order 2s."""
    return KernelSpec(
        field=AnisotropyField.constant(np.eye(dim)), s=s, lower=1.0,
        normalized=normalized,
    )


def spec_from_config(cfg: dict) -> KernelSpec:
    """Build a KernelSpec from a JSON-style mapping.

    Expected keys: ``variant`` (one of constant / separable_sum /
    separable_product), ``matrix`` (nested lists; for separable variants
    it is the base B of M(y) = B + a sin(y_1 + ... + y_N) I, the profile
    f = a sin of period 2 pi along the wave vector k = (1, ..., 1)), ``s``, optional
    ``normalized``, and for the separable variants ``amplitude`` a, which
    must lie below the least eigenvalue of B in size (else ConfigError at
    ``kernel.amplitude``).  The lower ellipticity bound is the least
    eigenvalue of the matrix for a constant field, and 2 (lambda_min - |a|)
    for the separable sum, 2 (lambda_min - |a|)^2 for the separable
    product.
    """
    variant = cfg.get("variant", "constant")
    matrix = np.asarray(cfg["matrix"], dtype=float)
    dim = matrix.shape[0]
    s = float(cfg["s"])
    if variant == "constant":
        fld = AnisotropyField.constant(matrix)
        eigs = np.linalg.eigvalsh(fld.matrix)
        lower = float(eigs[0])
    else:
        amp = float(cfg.get("amplitude", 0.1))
        eigs = np.linalg.eigvalsh(_as_spd(matrix, dim))
        if abs(amp) >= eigs[0]:
            raise ConfigError(f"|amplitude| {abs(amp)} leaves M(y) indefinite: the least "
                              f"eigenvalue of the matrix is {eigs[0]:.6g}",
                              field_path="kernel.amplitude")
        fld = AnisotropyField(variant, matrix, wave=np.ones(dim),
                              profile=lambda t, _amp=amp: _amp * np.sin(t),
                              period=2.0 * np.pi)
        lo = eigs[0] - abs(amp)
        lower = float(2 * (lo ** 2 if variant == "separable_product" else lo))
    return KernelSpec(field=fld, s=s, lower=lower,
                      normalized=bool(cfg.get("normalized", False)))
