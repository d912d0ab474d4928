"""Uniform-lattice discretization of the operator on a bounded domain.

Interior nodes of a cell-centered lattice carry unknowns; everything
outside the domain is pinned to zero (complement condition).  The
assembled matrix row i approximates

    (L u)(x_i) + B(u, h)(x_i) + V(x_i) u(x_i)

for grid functions, built from pairwise kernel weights

    W_ij = K(x_i, x_j) h_m^N        (i != j, symmetric)

with two corrections: the singular self-cell of each node is
redistributed onto its lattice neighbours through symmetrized radial
moment integrals, and the kernel mass beyond the bounding box enters
each diagonal through ``operators.far_field`` along rays that start at
the box boundary.  Only the interior nodes carry unknowns, so W is
formed as its interior rows I (every box column), and the far field is
taken at interior nodes alone; the margin nodes of the box serve as
quadrature points of the exterior mass.  By construction the
drift-free block is symmetric and satisfies the discrete
integration-by-parts identity

    sum_i (M_L u)_i v_i h^N = -( 1/2 sum_ij W_ij du dv + sum_i u_i v_i T_i ) h^N

exactly, which downstream modules rely on.

Every lattice is a full C-ordered box grid of spacing h (``ball`` only
changes the mask), so a pair form depends on the integer offset k_i - k_j
and on the node terms of a separable field alone: the forms are evaluated
once per offset and gathered in row chunks (``_pair_form_chunks``), and
each chunk becomes the rows of W it covers (``_pair_weight_chunks``).
Assembly makes one pass over these chunks and keeps of each only its
row sums, its product with the drift and its interior columns, to which
it adds the chunk's rows of the drift block, so the matrix is the one
node-by-node array it holds.  Each later reader of W (the pair forms)
makes one more pass (``_pair_pass``), so no command holds W.

Every box pair form is ``_box_pair_form``.  For any weight matrix W with
row sums r = W 1, expanding the products gives

    rho_i(u, v) = 1/2 Sum_j W_ij (u_j - u_i)(v_j - v_i)
                = 1/2 [ (W(uv))_i - u_i (Wv)_i - v_i (Wu)_i + r_i u_i v_i ],

so one product of W with the stacked columns [1, u, v, uv] gives the
form and builds no n x n difference matrix.  Adding a constant to u or
v leaves rho unchanged, so both inputs are first shifted by one of
their own entries: a constant input then gives exactly zero, and a
nearly constant one keeps its digits instead of losing them to the
cancellation between the four terms.

The rows of exterior nodes are recovered by symmetry.  When u vanishes
off I, a row e outside I has rho_e = 1/2 Sum_{i in I} W_ie u_i (v_i - v_e),
so

    1/2 Sum_{all i,j} W_ij du dv
        = Sum_{i in I} [ rho_i(u, v) + 1/2 Sum_{e not in I} W_ie u_i (v_i - v_e) ],

the second term being the part of rho_i on the exterior columns: the
pair form of the interior rows with every exterior column counted twice
(``_box_pair_form``).  When v vanishes off I too, it is
1/2 u_i v_i m_i with m_i = Sum_{e not in I} W_ie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CapacityError, DomainError, EllipticityError
from .kernels import KernelSpec
from .operators import (_KERNEL_CHUNK_BYTES, QuadratureScheme, SmoothFunction,
                        _chunk_rows, _directions, _gauss_rule, _ray_constants,
                        _ray_profile, far_field)

__all__ = [
    "LatticeDomain",
    "GridFunction",
    "AssembledOperator",
    "assemble",
    "kernel_form",
    "estimate_shift",
]

# byte limit of assembly, the solve and a pair pass (``_pair_peak_bytes``):
# 8 n_int (n_total + n_int) bytes on a lattice of 8000 nodes with no margin
_PAIR_BYTES_LIMIT = 2 * 8 * 8000 ** 2
_SHIFT_MARGIN = 1.0  # added to the dominance bound of estimate_shift


# --------------------------------------------------------------------------
# lattice geometry


@dataclass
class LatticeDomain:
    """Cell-centered lattice on a bounding box with an interior mask.

    ``points`` holds every lattice node in the bounding box;
    ``interior_mask`` marks the nodes lying in the domain Omega.  The
    box may exceed Omega by a margin of whole cells so that the
    near-exterior kernel mass is resolved by pair weights rather than
    by the analytic far-field tail alone.
    """

    descriptor: str
    lower: np.ndarray
    upper: np.ndarray
    spacing: float
    shape: tuple
    points: np.ndarray
    interior_mask: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def interior_points(self) -> np.ndarray:
        return self.points[self.interior_mask]

    @property
    def n_interior(self) -> int:
        return int(self.interior_mask.sum())

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim

    @staticmethod
    def _grid(lower, upper, cells):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        cells = np.asarray(cells, dtype=int)
        widths = (upper - lower) / cells
        if not np.allclose(widths, widths[0], rtol=1e-12):
            raise DomainError("lattice spacing must be equal along all axes")
        h = float(widths[0])
        axes = [lower[a] + h * (np.arange(cells[a]) + 0.5) for a in range(len(cells))]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
        return lower, upper, h, tuple(int(c) for c in cells), pts

    @classmethod
    def interval(cls, a: float, b: float, cells: int, margin: float = 0.0) -> "LatticeDomain":
        return cls.box([a], [b], [cells], margin=margin, descriptor="interval")

    @classmethod
    def box(cls, lower, upper, cells, margin: float = 0.0,
            descriptor: str = "box") -> "LatticeDomain":
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        cells = np.asarray(cells, dtype=int)
        if np.any(cells <= 0) or np.any(upper <= lower):
            raise DomainError("need positive cell counts and upper > lower")
        h = float((upper[0] - lower[0]) / cells[0])
        pad = int(math.ceil(margin / h - 1e-9)) if margin > 0 else 0
        lo2, up2 = lower - pad * h, upper + pad * h
        lo2, up2, h, shape, pts = cls._grid(lo2, up2, cells + 2 * pad)
        inside = np.all((pts > lower + 1e-12 * h) & (pts < upper - 1e-12 * h), axis=1)
        if not inside.any():
            raise DomainError("empty interior")
        return cls(descriptor, lo2, up2, h, shape, pts, inside)

    @classmethod
    def ball(cls, center, radius: float, cells_across: int, margin: float = 0.0) -> "LatticeDomain":
        center = np.asarray(center, dtype=float)
        lower = center - radius
        upper = center + radius
        dom = cls.box(lower, upper, [cells_across] * len(center), margin=margin,
                      descriptor="ball")
        dist = np.linalg.norm(dom.points - center, axis=1)
        dom.interior_mask = dist < radius - 1e-12 * dom.spacing
        if not dom.interior_mask.any():
            raise DomainError("empty interior")
        return dom


@dataclass
class GridFunction:
    """Values on the interior nodes of a lattice (zero outside)."""

    domain: LatticeDomain
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
        if len(self.values) != self.domain.n_interior:
            raise DomainError("value count does not match interior node count")


# --------------------------------------------------------------------------
# pairwise weights


def _pair_peak_bytes(domain: LatticeDomain) -> int:
    """n_int (n_total + n_int) float64, for every field: beside temporaries
    within ``_KERNEL_CHUNK_BYTES`` (a row chunk of W, of its forms and of
    the drift block, the kernel samples) it bounds ``assemble`` (the
    matrix), the solve (the matrix and its block factor, 1.75 times the
    matrix, within 1 + n_total/n_int times it; the untraced LAPACK work
    arrays are those of blocks of at most ``spectral._INVERSE_LEAF`` rows)
    and a pair pass (the matrix and the block it gathers, at most
    n_int x n_total).
    """
    n_int = domain.n_interior
    return 8 * n_int * (len(domain.points) + n_int)


def _pair_form_chunks(spec: KernelSpec, domain: LatticeDomain):
    """Yield (rows, q[rows]) for the pair forms
    q_ij = (x_i - x_j)^T A(x_i, x_j) (x_i - x_j) of every interior node
    x_i (row i is the i-th interior node) and every box node x_j, a slice
    of rows at a time.

    On the lattice x_i - x_j = h o with the integer offset o = k_i - k_j,
    so the forms of C0, C1 and C2 are evaluated once on every offset
    (2 m_a - 1 per axis of m_a nodes) and gathered by the mixed-radix key
    of o + m - 1, then weighted by 1, b_i + b_j and b_i b_j.

    A chunk holds a multiple of 8 rows (at least 8, more than
    ``_chunk_rows`` allows on boxes of about 5000 nodes or more):
    OpenBLAS rounds a row of a matrix-vector product by where it falls in
    its groups of 4 rows per thread, so ``assemble``'s drift product
    W @ h, taken a chunk at a time, keeps those groups to give the same
    bits whatever the chunk size (chunks of 11 or 14 rows move diagonal
    entries by an ulp).
    """
    fld = spec.field
    m = np.array(domain.shape)
    radix = 2 * m - 1
    d = domain.spacing * (np.indices(radix).reshape(domain.dim, -1).T - (m - 1))
    tables = [np.einsum("oa,ab,ob->o", d, c, d) for c in fld.coefficients]
    key = np.ravel_multi_index(np.indices(domain.shape).reshape(domain.dim, -1), radix)
    centre = np.ravel_multi_index(m - 1, radix)
    b = None if fld.variant == "constant" else fld.node_terms(domain.points)[1]
    inner = domain.interior_mask
    key_int = key[inner]
    b_int = None if b is None else b[inner]
    rows = _chunk_rows(spec, len(key))
    rows = max(8, rows - rows % 8)
    for lo in range(0, len(key_int), rows):
        sl = slice(lo, lo + rows)
        at = np.subtract.outer(key_int[sl] + centre, key)
        q = tables[0][at]
        for t, outer in zip(tables[1:], (np.add.outer, np.multiply.outer)):
            q += t[at] * outer(b_int[sl], b)  # the product reuses a temporary
        yield sl, q


def _pair_weight_chunks(spec: KernelSpec, domain: LatticeDomain,
                        moments: np.ndarray | None):
    """Yield (rows, W[rows]) for the pair weights of the interior rows,
    one chunk of ``_pair_form_chunks`` at a time.

    W = prefactor q^(-exponent) h^N is formed in place on the forms, with
    W_ii = 0.  With the self-cell moments c (``_self_cell_moments``, None
    to leave them out), each pair of axis neighbours i and i + e_a gets
    1/2 (c_a(x_i) + c_a(x_i + e_a)) / h^2 more, on both of its entries.
    Every entry is computed alone, so the chunking changes no bit.
    """
    h = domain.spacing
    vol = domain.cell_volume
    int_idx = np.flatnonzero(domain.interior_mask)
    shape = domain.shape
    strides = [math.prod(shape[a + 1:]) for a in range(domain.dim)]
    for sl, w in _pair_form_chunks(spec, domain):
        nodes = int_idx[sl]
        r = np.arange(len(nodes))
        w[r, nodes] = 1.0
        if not w.min() > 0.0:
            raise EllipticityError("a pair form is not positive: the field is not elliptic here")
        w **= -spec.exponent
        w *= spec.prefactor
        w *= vol
        w[r, nodes] = 0.0
        if moments is not None:
            k = np.unravel_index(nodes, shape)
            for a in range(domain.dim):
                # the pair (i, j = i + e_a) on row i, then on row j
                up = k[a] < shape[a] - 1
                j = nodes[up] + strides[a]
                w[r[up], j] += 0.5 * (moments[nodes[up], a] + moments[j, a]) / (h * h)
                down = k[a] > 0
                i = nodes[down] - strides[a]
                w[r[down], i] += 0.5 * (moments[i, a] + moments[nodes[down], a]) / (h * h)
        yield sl, w


def _self_cell_moments(spec: KernelSpec, pts: np.ndarray,
                       quad: QuadratureScheme, h: float) -> np.ndarray:
    """c[i, a] = 1/2 Int_cell z_a^2 K(x_i, x_i + z) dz over the h-cell.

    Polar form with the cube exit radius per direction; the radial
    integral uses Gauss-Jacobi with weight rho^(1-2s), exact for
    constant fields.
    """
    dirs, aw = _directions(spec.dim, quad)
    s = spec.s
    rho_max = (0.5 * h) / np.abs(dirs).max(axis=1)
    gj_x, gj_w = _gauss_rule(quad.radial_order, 1.0 - 2.0 * s)
    t = 0.5 * (1.0 + gj_x)
    if spec.field.variant == "constant":
        (kdir,) = _ray_constants(spec, pts, dirs)
        radial = rho_max ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
        c = 0.5 * np.einsum("d,d,d,da->a", aw, kdir, radial, dirs**2)
        return np.broadcast_to(c, (len(pts), spec.dim)).copy()
    # variable field: the kernel on (node, radius, direction) samples, a
    # chunk of nodes at a time
    rho = t[:, None] * rho_max[None, :]  # (nr, nd)
    wrad = (0.5 * rho_max) ** (2.0 - 2.0 * s)
    p, q, kx, kt = _ray_constants(spec, pts, dirs)
    out = np.empty((len(pts), spec.dim))
    rows = _chunk_rows(spec, rho.size)
    for lo in range(0, len(pts), rows):
        sl = slice(lo, lo + rows)
        # the smooth part rho^(N+2s) K of the kernel along each ray
        g = spec.prefactor * _ray_profile(spec, p[sl, None], q[sl, None],
                                          kx[sl, None, None] + rho * kt)
        radial = wrad * np.einsum("r,ird->id", gj_w, g)
        out[sl] = 0.5 * np.einsum("d,id,da->ia", aw, radial, dirs**2)
    return out


def _box_exit_distances(pts: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                        dirs: np.ndarray) -> np.ndarray:
    """Distance from each node to the bounding-box boundary along each ray."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t_hi = (upper[None, None, :] - pts[:, None, :]) / dirs[None, :, :]
        t_lo = (lower[None, None, :] - pts[:, None, :]) / dirs[None, :, :]
    t = np.where(dirs[None, :, :] > 1e-14, t_hi,
                 np.where(dirs[None, :, :] < -1e-14, t_lo, np.inf))
    return t.min(axis=2)


# --------------------------------------------------------------------------
# assembly


@dataclass
class AssembledOperator:
    """The dense matrix of L + B(., h) + V over interior nodes.

    ``matrix`` is the one interior matrix: the Laplace block, the drift
    block and diag(V) summed.  The Laplace block does not depend on the
    drift, so ``assemble(..., drift=None)`` (with no potential) gives the
    drift-free part bit for bit.  ``box_tail`` is the kernel mass beyond
    the box at each interior node (``far_field``), ``drift_far`` the drift
    far field there, ``drift_values`` the drift at every box node.

    The pair weights W are not stored: ``assemble`` and each pair pass
    (``_pair_pass``) stream them from the spec, the domain and
    ``self_cell_moments`` (one row per box node, None without self cell).
    """

    domain: LatticeDomain
    spec: KernelSpec
    self_cell_moments: np.ndarray | None  # (n_total, dim)
    box_tail: np.ndarray  # (n_int,)
    drift: SmoothFunction | None
    drift_values: np.ndarray | None  # (n_total,)
    drift_far: np.ndarray | None  # (n_int,)
    matrix: np.ndarray  # (n_int, n_int), C-ordered: Laplace block + drift block + diag(V)

    @property
    def n(self) -> int:
        return self.domain.n_interior

    def drift_oscillation(self) -> float:
        if self.drift_values is None:
            return 0.0
        lo = min(self.drift_values.min(), self.drift.far_value)
        hi = max(self.drift_values.max(), self.drift.far_value)
        return float(hi - lo)


def assemble(domain: LatticeDomain, spec: KernelSpec,
             drift: SmoothFunction | None = None,
             potential: np.ndarray | Callable | None = None,
             quad: QuadratureScheme | None = None,
             self_cell: bool = True) -> AssembledOperator:
    """Build the dense operator matrix on the lattice.

    The self-cell redistribution adds 1/2 (c_a(x_i) + c_a(x_j)) / h^2 to
    each axis-neighbour pair weight, keeping the matrix symmetric; only
    the axis-aligned second-moment part is kept, which preserves the
    sign structure needed for the comparison arguments.  W is formed in
    one pass of row chunks, each of which gives its row sums, its product
    with the drift, and the rows of the matrix off the diagonal (Laplace
    and drift block); the diagonal is set last.
    """
    if spec.dim != domain.dim:
        raise DomainError("kernel dimension does not match lattice dimension")
    quad = quad or QuadratureScheme()
    pts = domain.points
    n_total = len(pts)
    peak = _pair_peak_bytes(domain)
    if peak > _PAIR_BYTES_LIMIT:
        raise CapacityError(
            f"the operator on {n_total} nodes needs about {peak / 2**20:.0f} "
            f"MiB, over the {_PAIR_BYTES_LIMIT / 2**20:.0f} MiB limit")
    mask = domain.interior_mask
    int_idx = np.flatnonzero(mask)
    n_int = len(int_idx)
    mom = _self_cell_moments(spec, pts, quad, domain.spacing) if self_cell else None

    drift_vals = far = hc = hc_int = w_hc = None
    if drift is not None:
        drift_vals = np.asarray(drift(pts), dtype=float)
        hc = drift_vals - drift_vals[0]  # centring keeps a constant drift exactly zero
        hc_int = hc[mask]
        w_hc = np.empty(n_int)

    # the far field of the interior nodes alone (no row of an exterior
    # node is read), before the matrix exists, so that its per-ray arrays
    # sit beside no node-by-node array.  Where the field is not elliptic
    # it gives NaN, and the typed error is raised below, from the pair
    # forms if they see it first
    pts_int = pts[mask]
    exit_d = _box_exit_distances(pts_int, domain.lower, domain.upper,
                                 _directions(spec.dim, quad)[0])
    with np.errstate(invalid="ignore"):
        if drift is None:
            tails = far_field(spec, pts_int, exit_d, quad)
        else:
            # S_i = Int_{outside the box} (h - h_i) K splits exactly into
            # Int (h - h_inf) K and the kernel mass T_i, which one
            # far_field pass gives together
            tails, far = far_field(spec, pts_int, exit_d, quad, g=drift)
            far += (drift.far_value - drift_vals[mask]) * tails
    del exit_d

    # W streamed a row chunk at a time: of each chunk only its row sums,
    # its product with h and its interior columns are kept, the last
    # gathered C-ordered into the matrix.  Off the diagonal those columns
    # are W, so the chunk's rows of the drift block B_ij = 1/2 W_ij (h_j - h_i)
    # are added to them at once.  The diagonal stays zero until it is set
    # below, from the row sums, the tails and the drift far field
    lap = np.empty((n_int, n_int))
    row_sums = np.empty(n_int)
    for sl, w in _pair_weight_chunks(spec, domain, mom):
        row_sums[sl] = w.sum(axis=1)
        w.take(int_idx, axis=1, out=lap[sl])
        if hc is not None:
            w_hc[sl] = w @ hc
            block = lap[sl] * hc_int
            block -= hc_int[sl, None] * lap[sl]
            block *= 0.5
            lap[sl] += block
    del w
    if not np.isfinite(tails).all():
        raise EllipticityError("the kernel mass beyond the box is not finite: "
                               "the field is not elliptic along a ray")
    if far is not None and not np.isfinite(far).all():
        raise DomainError("the drift far field is not finite")
    diag = np.diag(lap) - row_sums - tails
    if drift is not None:
        b_rows = 0.5 * (w_hc - hc_int * row_sums)
        diag += -b_rows - 0.5 * far
    if potential is not None:
        if callable(potential):
            potential = potential(domain.interior_points)
        diag += np.asarray(potential, dtype=float).reshape(n_int)
    np.fill_diagonal(lap, diag)

    return AssembledOperator(
        domain=domain, spec=spec, self_cell_moments=mom, box_tail=tails,
        drift=drift, drift_values=drift_vals, drift_far=far, matrix=lap)


# --------------------------------------------------------------------------
# energy forms


def _full_values(op: AssembledOperator, u: np.ndarray) -> np.ndarray:
    vals = np.zeros((len(u), len(op.domain.points)))
    vals[:, op.domain.interior_mask] = u
    return vals


def _pair_pass(op: AssembledOperator, cols: np.ndarray,
               block: tuple | None = None):
    """One pass over the chunks of W, holding no W: the products W @ c of
    the stacked box columns cols (k, n_total, m), each taken alone so that
    its bits do not depend on the others, and the block W[rows][:, box_cols]
    of ``block = (rows, box_cols)``, rows increasing (0 x 0 without one)."""
    rows, box_cols = (np.arange(0),) * 2 if block is None else block
    prod = np.empty((len(cols), op.n, cols.shape[2]))
    sub = np.empty((len(rows), len(box_cols)))
    for sl, w in _pair_weight_chunks(op.spec, op.domain, op.self_cell_moments):
        for c, p in zip(cols, prod):
            p[sl] = w @ c
        lo, hi = np.searchsorted(rows, (sl.start, sl.stop))
        sub[lo:hi] = w[np.ix_(rows[lo:hi] - sl.start, box_cols)]
    return prod, sub


def _box_pair_form(op: AssembledOperator, u: np.ndarray, v: np.ndarray,
                   outside: np.ndarray | float, block: tuple | None = None):
    """(1/2 Sum_{all box i, j} W_ij (u_j - u_i)(v_j - v_i) + outside) h^N
    for the k pairs of rows of u (k, n_int), zero off the interior, and v
    (k, n_total): the rows rho_i of the module docstring on centred inputs,
    every exterior column counted twice, from one pass that also gathers
    ``block`` (``_pair_pass``).  Returns the forms and the block."""
    mask = op.domain.interior_mask
    u = _full_values(op, u)
    u = u - u[:, :1]
    v = v - v[:, :1]
    cols = np.stack([np.ones_like(u), u, v, u * v], axis=2)
    cols *= np.where(mask, 1.0, 2.0)[:, None]
    prod, sub = _pair_pass(op, cols, block)
    r, wu, wv, wuv = np.moveaxis(prod, 2, 0)
    u, v = u[:, mask], v[:, mask]
    rho = (0.5 * (wuv - u * wv - v * wu + r * u * v)).sum(axis=1)
    return (rho + outside) * op.domain.cell_volume, sub


def _energy_terms(op: AssembledOperator, u: np.ndarray, v: np.ndarray):
    """The ``_box_pair_form`` terms (u, v on the box, the beyond-box mass
    Sum u_i v_i T_i) of the energies of u, v: (n_int,), or (n_int, k)."""
    u, v = (np.asarray(x, dtype=float).reshape(op.n, -1).T.copy() for x in (u, v))
    return u, _full_values(op, v), (u * v * op.box_tail).sum(axis=1)


def kernel_form(op: AssembledOperator, u: np.ndarray,
                v: np.ndarray | None = None):
    """Discrete double-sum energy 1/2 Sum W_ij du dv (h^N included once).

    The sum runs over every pair of box nodes with at least one in the
    domain, plus the beyond-box mass  Sum u_i v_i T_i  (functions vanish
    outside the interior); u and v are (n_int,), or (n_int, k) for k forms.
    """
    forms, _ = _box_pair_form(op, *_energy_terms(op, u, u if v is None else v))
    return float(forms[0]) if np.ndim(u) == 1 else forms


# --------------------------------------------------------------------------
# shift


def estimate_shift(op: AssembledOperator) -> float:
    """Shift C making C*I - (L + B + V) strictly row diagonally dominant.

    The absolute row sums are taken a chunk of rows at a time, within
    ``_KERNEL_CHUNK_BYTES``, so no copy of the matrix is formed.
    """
    M = op.matrix
    n = len(M)
    abs_sums = np.empty(n)
    chunk = max(1, _KERNEL_CHUNK_BYTES // (8 * n))
    for lo in range(0, n, chunk):
        abs_sums[lo:lo + chunk] = np.abs(M[lo:lo + chunk]).sum(axis=1)
    off = abs_sums - np.abs(np.diag(M))
    return float(max(0.0, (np.diag(M) + off).max()) + _SHIFT_MARGIN)
