"""Tests for recovery of kernel data from indirect measurements.

Reference values come from three independent routes: closed forms for the
spectral energy of Gaussians (integral |xi|^{2s} e^{-xi^2} dxi = Gamma(s+1/2)
in the unitary transform convention, and Gamma(s+1/2) pi^{(N-1)/2} for the
narrow-probe limit with unit widths), lattice double sums for quadratic
energies, and pointwise quadrature for operator values.
"""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma

from nonlocal_dv.errors import (
    DomainError,
    OracleInconsistencyError,
    ReconstructionError,
)
from nonlocal_dv.kernels import AnisotropyField, KernelSpec
from nonlocal_dv.lattice import LatticeDomain, assemble, kernel_form
from nonlocal_dv.operators import (
    SmoothFunction,
    bump,
    gaussian,
    nonlocal_laplacian,
    scaled,
    shifted,
)
from nonlocal_dv import recovery
from nonlocal_dv.rate import DensitySpec, I_closed_form_h0, density_lattice
from nonlocal_dv.recovery import (
    GaussianProbe,
    constancy_check,
    diffusion_limit,
    drift_probe,
    fourier_energy,
    fourier_probe_oracle,
    probe_domain,
    recover_matrix,
    rescale_density,
)


def spec_1d(s: float, normalized: bool = True) -> KernelSpec:
    field = AnisotropyField.constant(np.eye(1))
    return KernelSpec(field, s=s, lower=0.5,
                      normalized=normalized)


@pytest.fixture(scope="module")
def density():
    base = bump(1, radius=0.8)
    mass = quad(lambda x: base(np.array([[x]]))[0], -0.8, 0.8)[0]
    return DensitySpec(scaled(base, 1.0 / mass))


# ---------------------------------------------------------------------------
# rescaling

def test_rescale_identity_noop(density):
    g = rescale_density(density, 1.0, np.zeros(1))
    dom = density_lattice(density)
    assert np.allclose(g.f(dom.interior_points),
                       density.f(dom.interior_points), rtol=1e-14)
    assert g.f.support_radius == density.f.support_radius


@pytest.mark.parametrize("lam", [1.0, 0.5, 0.25])
def test_rescale_mass_preserved(density, lam):
    x0 = np.array([0.1])
    g = rescale_density(density, lam, x0)
    dom = probe_domain(density, lam, x0)
    mass = float(g.f(dom.interior_points).sum()) * dom.cell_volume
    assert mass == pytest.approx(1.0, abs=2e-3)


def test_rescale_bookkeeping(density):
    x0 = np.array([-0.3])
    g = rescale_density(density, 0.5, x0)
    # the support shrinks by the scale about x0
    assert g.f.support_radius == pytest.approx(0.3 + 0.5 * density.f.support_radius)
    assert np.allclose(g.center, x0)
    # mass concentrates: value at the new center grows like lam^-1
    at0 = density.f(np.zeros((1, 1)))[0]
    assert g.f(x0[None, :])[0] == pytest.approx(2.0 * at0, rel=1e-12)


@pytest.mark.parametrize("s", [0.3, 0.7])
def test_energy_scaling_exact_every_lambda(density, s):
    # constant coefficients: the quadratic energy follows the scale power law
    # exactly on matched lattices, at every lambda separately
    spec = spec_1d(s)
    x0 = np.zeros(1)
    base_dom = probe_domain(density, 1.0, x0)
    base = I_closed_form_h0(density, assemble(base_dom, spec))
    for lam in (0.5, 0.25):
        g = rescale_density(density, lam, x0)
        dom = probe_domain(density, lam, x0)
        val = I_closed_form_h0(g, assemble(dom, spec))
        assert lam ** (2 * s) * val == pytest.approx(base, rel=5e-12)


# ---------------------------------------------------------------------------
# diffusion limit

def test_diffusion_limit_no_drift_flat(density):
    spec = spec_1d(0.5)
    res = diffusion_limit(spec, density, np.array([0.2]))
    scale = abs(res.values[0])
    assert np.abs(res.values - res.values[0]).max() <= 1e-12 * scale
    assert np.isinf(res.rate)
    assert res.limit == pytest.approx(res.values[-1], rel=1e-13)
    # without drift the raw and drift-removed sequences coincide
    assert np.allclose(res.raw_values, res.values, rtol=1e-13)


def test_diffusion_limit_smooth_drift_rate(density):
    spec = spec_1d(0.5)
    h = scaled(gaussian(1, width=0.9), 0.5)
    res = diffusion_limit(spec, density, np.array([0.2]), h=h)
    # the drift-removed sequence approaches the no-drift energy at a rate
    # no worse than 2 - 2s (here the observed rate is close to 2)
    assert res.rate >= 2 - 2 * 0.5 - 0.2
    assert res.monotone
    base = I_closed_form_h0(density,
                            assemble(probe_domain(density, 1.0, np.array([0.2])), spec))
    assert res.limit == pytest.approx(base, rel=1e-2)
    # the raw sequence keeps the drift correction and must differ
    assert np.abs(res.raw_values - res.values).max() > 1e-6


def test_diffusion_limit_separable_product_freezes(density):
    s = 0.5
    # M(y) = 1 + 0.4 exp(-y^2): base 1, wave vector 1, profile 0.4 exp(-t^2)
    field = AnisotropyField("separable_product", [[1.0]], wave=np.ones(1),
                            profile=lambda t: 0.4 * np.exp(-t ** 2))
    spec = KernelSpec(field, s=s, lower=0.5, normalized=True)
    x0 = np.array([0.3])
    res = diffusion_limit(spec, density, x0)
    # frozen-coefficient reference: constant matrix taken at the limit point
    m0 = 1.0 + 0.4 * np.exp(-x0[0] ** 2)
    frozen = KernelSpec(AnisotropyField.constant(np.array([[2 * m0 ** 2]])),
                        s=s, lower=0.5, normalized=True)
    target = I_closed_form_h0(density,
                              assemble(probe_domain(density, 1.0, x0), frozen))
    assert res.limit == pytest.approx(target, rel=2e-2)


def test_diffusion_limit_warns_on_nonmonotone(monkeypatch, density):
    # on the default scales the normalized values fall by 1.9e-4 and then
    # 3.9e-5; lifting the middle rate value by 1e-2 (2.5e-3 once scaled by
    # lambda^(2s) = 0.25) makes them rise, then fall
    real = recovery.I_decomposed
    lifts = iter([0.0, 1e-2, 0.0])

    def lifted(g, op):
        parts = real(g, op)
        return dataclasses.replace(parts, I_value=parts.I_value + next(lifts))

    monkeypatch.setattr(recovery, "I_decomposed", lifted)
    spec = spec_1d(0.5)
    h = scaled(gaussian(1, width=0.9), 0.5)
    with pytest.warns(UserWarning, match="monotone"):
        res = diffusion_limit(spec, density, np.array([0.2]), h=h)
    assert not res.monotone


@pytest.mark.parametrize("lambda_seq", [(0.125, 0.25, 0.5), (0.5, 0.3, 0.1)])
def test_diffusion_limit_refuses_scales_that_are_not_a_decreasing_geometric_sequence(
        monkeypatch, density, lambda_seq):
    # an increasing sequence extrapolated to a nan rate, and a
    # non-geometric one at the wrong ratio: both are refused before any
    # lattice is assembled
    monkeypatch.setattr(recovery, "assemble", None)
    h = scaled(gaussian(1, width=0.9), 0.5)
    with pytest.raises(DomainError, match="scale sequence"):
        diffusion_limit(spec_1d(0.5), density, np.array([0.2]),
                        lambda_seq=lambda_seq, h=h)


# ---------------------------------------------------------------------------
# spectral energy

@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_fourier_energy_closed_form_1d(s):
    val = fourier_energy(np.eye(1), gaussian(1), s,
                         extents=16.0, counts=2048)
    assert val == pytest.approx(gamma(s + 0.5), rel=1e-2)


def test_fourier_energy_refinement_improves():
    s = 0.4
    closed = gamma(s + 0.5)
    errs = []
    for extent, n in ((12.0, 1024), (24.0, 2048), (48.0, 4096)):
        val = fourier_energy(np.eye(1), gaussian(1), s,
                             extents=extent, counts=n)
        errs.append(abs(val / closed - 1.0))
    assert errs[1] <= 0.6 * errs[0]
    assert errs[2] <= 0.6 * errs[1]


def test_fourier_energy_matches_lattice_2d():
    s = 0.5
    A = np.diag([4.0, 1.0])
    field = AnisotropyField.constant(A)
    spec = KernelSpec(field, s=s, lower=0.5, normalized=True)
    dom = LatticeDomain.box([-4.0, -4.0], [4.0, 4.0], [40, 40], margin=1.0)
    op = assemble(dom, spec)
    g = np.exp(-0.5 * np.sum(dom.interior_points ** 2, axis=1))
    direct = kernel_form(op, g)
    val = fourier_energy(A, gaussian(2), s, extents=10.0, counts=256)
    assert val == pytest.approx(direct, rel=2e-2)


def test_fourier_energy_scaling_exact_on_mapped_grids():
    s, c = 0.4, 2.0
    g = gaussian(1)
    squeezed = SmoothFunction(lambda pts: g(c * pts), 1,
                              support_radius=g.support_radius / c)
    base = fourier_energy(np.eye(1), g, s, extents=12.0, counts=1024)
    val = fourier_energy(np.eye(1), squeezed, s, extents=12.0 / c, counts=1024)
    assert val == pytest.approx(c ** (2 * s - 1) * base, rel=1e-12)


def test_fourier_energy_aliasing_check():
    # doubling the counts moves an unresolved value by more than 5 percent
    narrow = gaussian(1, width=0.05)
    coarse = fourier_energy(np.eye(1), narrow, 0.5, extents=12.0, counts=32)
    fine = fourier_energy(np.eye(1), narrow, 0.5, extents=12.0, counts=64)
    assert abs(fine - coarse) > 0.05 * abs(fine)
    # and a resolved value by less
    coarse = fourier_energy(np.eye(1), gaussian(1), 0.5, extents=16.0,
                            counts=2048)
    val = fourier_energy(np.eye(1), gaussian(1), 0.5, extents=16.0, counts=4096)
    assert abs(val - coarse) <= 0.05 * abs(val)
    assert val == pytest.approx(gamma(1.0), rel=1e-2)


# ---------------------------------------------------------------------------
# probes and matrix recovery

def random_spd(rng, dim):
    Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return Q @ np.diag(rng.uniform(0.6, 2.5, size=dim)) @ Q.T


def product_function(factors):
    def fn(pts):
        out = factors[0](pts[:, 0])
        for k in range(1, len(factors)):
            out = out * factors[k](pts[:, k])
        return out
    return SmoothFunction(fn, len(factors), support_radius=20.0)


@pytest.mark.parametrize("s", [0.35, 0.5])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_fourier_energy_factor_route_matches_sampled_probes(dim, s):
    # the separable route against one fftn of the sampled probe, for every
    # probe tag and both widths, on small grids
    A = random_spd(np.random.default_rng(dim), dim)
    axes = list(range(dim)) + [(k, m) for k in range(dim)
                               for m in range(k + 1, dim)]
    counts = [64] + [24] * (dim - 1)
    tags = set()
    for axis in axes:
        for width in (1.0, 0.7):
            p = GaussianProbe(dim, 0.5, axis, narrow_width=width)
            R = p.frame
            ext, _ = p.grid()
            ref = fourier_energy(R @ A @ R.T, p.frame_function(), s,
                                 extents=ext, counts=counts)
            sep = fourier_energy(R @ A @ R.T, p.factors(), s,
                                 extents=ext, counts=counts)
            assert abs(sep / ref - 1.0) <= 1e-13
            tags.add(p.tag.split("(")[0])
    assert tags == ({"identity"} if dim == 1
                    else {"identity", "axis_swap", "rotation"})


@pytest.mark.parametrize("dim", [2, 3])
def test_fourier_energy_factor_route_matches_sampled_product(dim):
    # a non-Gaussian product: a Gaussian, a bump and an off-centre Gaussian
    one_bump = bump(1, radius=1.5)
    factors = [lambda x: np.exp(-0.5 * (x / 0.8) ** 2),
               lambda x: one_bump(x[:, None]),
               lambda x: np.exp(-0.5 * ((x - 0.4) / 1.2) ** 2)][:dim]
    A = random_spd(np.random.default_rng(10 + dim), dim)
    counts = [48, 40, 32][:dim]
    ref = fourier_energy(A, product_function(factors), 0.4, extents=8.0,
                         counts=counts)
    sep = fourier_energy(A, factors, 0.4, extents=8.0, counts=counts)
    assert abs(sep / ref - 1.0) <= 1e-13


def test_fourier_energy_rejects_malformed_g():
    gauss = GaussianProbe(2, 0.5, 0).factors()
    for g in (gauss[:1], gauss[0], [gauss[0], 1.0], gaussian(3)):
        with pytest.raises(DomainError, match="sequence of 2"):
            fourier_energy(np.eye(2), g, 0.5, counts=16)
    with pytest.raises(DomainError, match="same shape"):
        fourier_energy(np.eye(2), [gauss[0], lambda x: x[:3]], 0.5, counts=16)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kwargs, message", [
    ({"extents": np.nan}, "extents must be positive and finite"),
    ({"extents": np.inf}, "extents must be positive and finite"),
    ({"extents": [12.0, -np.inf]}, "extents must be positive and finite"),
    ({"matrix": [[np.nan]]}, "entries must be finite"),
    ({"matrix": [[1.0, np.inf], [np.inf, 1.0]]}, "entries must be finite"),
    ({"counts": 96.7}, "counts must be integers"),
    ({"counts": [96, 64.0]}, "counts must be integers"),
], ids=["nan-extent", "inf-extent", "neg-inf-extent", "nan-matrix",
        "inf-matrix", "fractional-count", "float-count"])
def test_fourier_energy_rejects_non_finite_and_fractional_input(kwargs, message):
    # each of these ran before, to nan with a RuntimeWarning or, for the
    # fractional count, silently on the truncated count
    args = dict({"matrix": np.eye(2), "extents": 12.0, "counts": 32}, **kwargs)
    dim = np.atleast_2d(args["matrix"]).shape[0]
    g = GaussianProbe(dim, 0.5, 0).factors()
    with pytest.raises(DomainError, match=message):
        fourier_energy(args["matrix"], g, 0.5, extents=args["extents"],
                       counts=args["counts"])


@pytest.fixture
def grid_sums(monkeypatch):
    """Record the grid shape of every weight sum ``fourier_energy`` forms."""
    shapes = []
    inner = recovery._grid_sum

    def record(Ainv, s, freqs, ghat2):
        shapes.append(tuple(len(x) for x in freqs))
        return inner(Ainv, s, freqs, ghat2)

    monkeypatch.setattr(recovery, "_grid_sum", record)
    return shapes


def full_grid_reference(A, factors, s, extents, counts):
    """``fourier_energy`` of a product of factors, written out as a plain
    sum over the whole ``fftfreq`` grid: full complex transforms, the
    quadratic form from its entries, and the origin cell by the same
    8-point Gauss-Legendre rule."""
    dim = len(counts)
    Ainv = np.linalg.inv(A)
    ext = np.broadcast_to(np.asarray(extents, dtype=float), (dim,))
    xis, ghat2 = [], np.ones(())
    for k, (f, e, n) in enumerate(zip(factors, ext, counts)):
        h = 2.0 * e / n
        x = -e + h * (np.arange(n) + 0.5)
        ghat2 = np.multiply.outer(
            ghat2, np.abs(np.fft.fft(f(x))) ** 2 * h ** 2 / (2 * np.pi))
        shape = [1] * dim
        shape[k] = n
        xis.append((2 * np.pi * np.fft.fftfreq(n, d=h)).reshape(shape))
    q = np.zeros(ghat2.shape)
    for a in range(dim):
        for b in range(a, dim):
            q += (Ainv[a, b] + Ainv[b, a]) / (1 + (a == b)) * (xis[a] * xis[b])
    np.maximum(q, 0.0, out=q)
    q **= s
    q *= ghat2
    total = np.sum(q) * np.prod(np.pi / ext)
    gx, gw = np.polynomial.legendre.leggauss(8)
    nodes = np.stack(np.meshgrid(*[0.5 * np.pi / e * gx for e in ext],
                                 indexing="ij"), axis=-1).reshape(-1, dim)
    weights = np.ones(())
    for e in ext:
        weights = np.multiply.outer(weights, 0.5 * np.pi / e * gw)
    q0 = np.einsum("ma,ab,mb->m", nodes, Ainv, nodes)
    total += np.sum(q0 ** s * weights.reshape(-1)) * ghat2.flat[0]
    return total / np.sqrt(np.linalg.det(A))


def kept_box(factors, extents, counts):
    """The ``_mass_mask`` of each axis, checked to be even, and the number
    of points of the tensor set they keep."""
    dim = len(counts)
    ext = np.broadcast_to(np.asarray(extents, dtype=float), (dim,))
    hs = [2.0 * e / n for e, n in zip(ext, counts)]
    axes = [-e + h * (np.arange(n) + 0.5) for e, h, n in zip(ext, hs, counts)]
    masks = [recovery._mass_mask(f)
             for f in recovery._factor_transforms(factors, axes, hs)]
    for m in masks:
        assert np.array_equal(m, m[-np.arange(m.size) % m.size])
        assert m[0]
    return masks, int(np.prod([m.sum() for m in masks]))


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_fourier_energy_sub_grid_matches_full_grid(dim, s, grid_sums):
    # on the default probe grids the half sum over the sub-grid with the
    # mass agrees with a plain sum over the full grid to rounding, for every
    # probe tag and both widths; the bound accepts the sub-grid, and the
    # weight is formed on about half of it
    A = random_spd(np.random.default_rng(20 + dim), dim)
    axes = list(range(dim)) + [(k, m) for k in range(dim)
                               for m in range(k + 1, dim)]
    for axis in axes:
        for width in (1.0, 0.7):
            for lam in (0.5, 0.125):
                p = GaussianProbe(dim, lam, axis, narrow_width=width)
                R = p.frame
                ext, cnt = p.grid()
                _, kept = kept_box(p.factors(), ext, cnt)
                assert kept < 0.6 ** dim * np.prod(cnt)
                del grid_sums[:]
                half = fourier_energy(R @ A @ R.T, p.factors(), s,
                                      extents=ext, counts=cnt)
                assert len(grid_sums) == 1
                assert np.prod(grid_sums[0]) <= 0.55 * kept
                full = full_grid_reference(R @ A @ R.T, p.factors(), s,
                                           ext, cnt)
                assert abs(half / full - 1.0) <= 1e-14


def two_sided(centre, rate):
    # exp(-rate |x - centre|): a kink, so |ghat_k|^2 decays like xi^-4 and
    # keeps the Nyquist index; off centre, ghat_k is not real
    return lambda x: np.exp(-rate * np.abs(x - centre))


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("counts", [[32, 24, 20], [33, 25, 19], [32, 25, 20]],
                         ids=["even", "odd", "mixed"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_fourier_energy_half_sum_with_nyquist_slabs(dim, counts, s,
                                                    grid_sums):
    # every axis keeps its Nyquist index where it has one; those slabs
    # have no mirror and are summed once each, the rest by halves
    A = random_spd(np.random.default_rng(40 + dim), dim)
    factors = [two_sided(0.3, 1.0), two_sided(-0.2, 1.5),
               two_sided(0.1, 0.8)][:dim]
    cnt = counts[:dim]
    masks, kept = kept_box(factors, 4.0, cnt)
    even = [n % 2 == 0 for n in cnt]
    assert all(m[n // 2] for m, n, e in zip(masks, cnt, even) if e)
    val = fourier_energy(A, factors, s, extents=4.0, counts=cnt)
    # the half grid, then one slab per axis with a Nyquist index
    assert len(grid_sums) == 1 + sum(even)
    assert np.prod(grid_sums[0]) <= 0.55 * kept
    full = full_grid_reference(A, factors, s, 4.0, cnt)
    assert abs(val / full - 1.0) <= 1e-14


def test_fourier_energy_sub_grid_keeps_the_zero_frequency(grid_sums):
    # an odd factor has no mass at xi = 0, yet the origin cell must still
    # read |ghat(0)|^2 from index 0 of the sub-grid
    A = random_spd(np.random.default_rng(7), 2)
    factors = [lambda x: x * np.exp(-0.5 * x * x),
               lambda x: np.exp(-0.5 * (x / 0.5) ** 2)]
    sub = fourier_energy(A, factors, 0.5, extents=12.0, counts=[96, 64])
    assert len(grid_sums) == 1 and grid_sums[0] < (96, 64)
    full = full_grid_reference(A, factors, 0.5, 12.0, [96, 64])
    assert abs(sub / full - 1.0) <= 1e-14


def test_fourier_energy_non_decaying_factor_keeps_full_grid(grid_sums):
    # a constant factor puts all its mass at index 0; the sub-grid is the
    # origin alone, where the weight vanishes, so the bound fails and the
    # full grid is summed: its half without the Nyquist indices, then the
    # Nyquist slab of axis 0 and that of axis 1
    const = [np.ones_like, np.ones_like]
    A = random_spd(np.random.default_rng(8), 2)
    val = fourier_energy(A, const, 0.5, extents=12.0, counts=[96, 64])
    assert grid_sums == [(1, 1), (48, 63), (1, 64), (95, 1)]
    full = full_grid_reference(A, const, 0.5, 12.0, [96, 64])
    assert abs(val / full - 1.0) <= 1e-14


@pytest.mark.parametrize("dim", [2, 3])
def test_dropped_bound_holds(dim, monkeypatch):
    # with a coarse axis share the dropped part is far above rounding; it
    # must lie between zero and the bound W_max (prod S - prod K)
    monkeypatch.setattr(recovery, "_AXIS_SHARE", 1e-3)
    A = random_spd(np.random.default_rng(30 + dim), dim)
    p = GaussianProbe(dim, 0.25, (0, 1))
    R = p.frame
    Ainv = np.linalg.inv(R @ A @ R.T)
    ext, cnt = p.grid()
    hs = [2.0 * e / c for e, c in zip(ext, cnt)]
    axes = [-e + h * (np.arange(c) + 0.5) for e, h, c in zip(ext, hs, cnt)]
    freqs = [2 * np.pi * np.fft.fftfreq(c, d=h) for c, h in zip(cnt, hs)]
    ghat2 = recovery._factor_transforms(p.factors(), axes, hs)
    keep = [recovery._mass_mask(f) for f in ghat2]
    assert all(m[0] for m in keep)

    def grid_sum(masks):
        return recovery._grid_sum(Ainv, 0.5, [x[m] for x, m in zip(freqs, masks)],
                                  [f[m] for f, m in zip(ghat2, masks)])

    dropped = grid_sum([np.ones(c, dtype=bool) for c in cnt]) - grid_sum(keep)
    bound = recovery._dropped_bound(Ainv, 0.5, freqs, ghat2, keep)
    assert 0.0 < dropped <= bound


def test_probe_frame_identities():
    rng = np.random.default_rng(3)
    for dim in (2, 3):
        B = rng.standard_normal((dim, dim))
        A = B @ B.T + 0.5 * np.eye(dim)
        Ainv = np.linalg.inv(A)
        for k in range(dim):
            p = GaussianProbe(dim, 0.5, k)
            R = p.frame
            assert np.abs(R @ R.T - np.eye(dim)).max() < 1e-14
            assert (R @ Ainv @ R.T)[0, 0] == pytest.approx(Ainv[k, k], rel=1e-13)
        for k in range(dim):
            for m in range(k + 1, dim):
                p = GaussianProbe(dim, 0.5, (k, m))
                R = p.frame
                assert np.abs(R @ R.T - np.eye(dim)).max() < 1e-14
                expect = 0.5 * (Ainv[k, k] - 2 * Ainv[k, m] + Ainv[m, m])
                assert (R @ Ainv @ R.T)[0, 0] == pytest.approx(expect, rel=1e-12)


def test_probe_tags():
    assert GaussianProbe(3, 0.5, 0).tag == "identity"
    assert GaussianProbe(3, 0.5, 2).tag == "axis_swap(2)"
    assert GaussianProbe(3, 0.5, (0, 2)).tag == "rotation(0,2)"


def test_fourier_energy_rotation_covariance():
    # evaluating a rotated function against A equals evaluating the original
    # against the rotated matrix; this backs the frame-aligned oracle
    th = np.pi / 5
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    g = SmoothFunction(
        lambda pts: np.exp(-0.5 * ((pts[:, 0] / 0.8) ** 2
                                   + (pts[:, 1] / 1.3) ** 2)),
        2, support_radius=12.0)
    grot = SmoothFunction(lambda pts: g(pts @ R), 2,
                          support_radius=12.0)
    lhs = fourier_energy(A, grot, 0.5, extents=12.0, counts=384)
    rhs = fourier_energy(R.T @ A @ R, g, 0.5, extents=12.0, counts=384)
    assert lhs == pytest.approx(rhs, rel=1e-3)


def test_recover_identity():
    s = 0.5
    oracle = fourier_probe_oracle(np.eye(2), s)
    report = recover_matrix(oracle, 2, s)
    assert np.abs(report.recovered_matrix - np.eye(2)).max() <= 2e-2
    assert report.rho == pytest.approx(1.0, abs=2e-2)
    tags = {p.transform_tag for p in report.probes}
    assert {"identity", "axis_swap(1)", "rotation(0,1)"} <= tags
    for p in report.probes:
        assert p.normalized_energy == pytest.approx(
            p.lambda_ ** (2 * s - 1) * p.raw_energy, rel=1e-12)
        assert p.error_estimate >= 0.0
    assert np.max(report.per_entry_residuals) <= 5e-2


def test_recover_diagonal_sample():
    s = 0.5
    A = np.diag([4.0, 1.0])
    report = recover_matrix(fourier_probe_oracle(A, s), 2, s)
    assert np.abs(report.recovered_matrix - A).max() <= 0.03 * np.abs(A).max()
    assert report.rho == pytest.approx(1.0, abs=2e-2)


def test_recover_rotated_offdiagonal_sign():
    s = 0.5
    th = np.pi / 6
    Q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    A = Q @ np.diag([2.0, 1.0]) @ Q.T
    report = recover_matrix(fourier_probe_oracle(A, s), 2, s)
    assert report.recovered_matrix[0, 1] > 0.0
    assert np.abs(report.recovered_matrix - A).max() <= 0.05 * np.abs(A).max()


def test_recover_rejects_inconsistent_oracle():
    with pytest.raises(OracleInconsistencyError):
        recover_matrix(lambda p: p.lambda_, 2, 0.5)


def test_recover_rejects_nonpositive_energies():
    s = 0.5
    true = fourier_probe_oracle(np.eye(2), s)
    with pytest.raises(ReconstructionError):
        recover_matrix(lambda p: -true(p), 2, s)


def test_recover_requires_geometric_sequence():
    with pytest.raises(DomainError):
        recover_matrix(fourier_probe_oracle(np.eye(2), 0.5), 2, 0.5,
                       lambda_seq=(0.5, 0.3, 0.25))


# ---------------------------------------------------------------------------
# drift probe

def test_drift_probe_constant_drift_zero(density):
    spec = spec_1d(0.5)
    h = SmoothFunction(lambda pts: np.full(pts.shape[0], 0.7), 1,
                       support_radius=0.5, far_value=0.7)
    res = drift_probe(h, spec, np.array([0.2]), f=density)
    assert np.abs(res.values).max() <= 1e-13
    assert res.limit == pytest.approx(0.0, abs=1e-13)
    assert res.pointwise_value == pytest.approx(0.0, abs=1e-13)


def test_drift_probe_matches_pointwise(density):
    spec = spec_1d(0.5)
    h = scaled(gaussian(1, width=0.9), 0.7)
    x0 = np.array([0.2])
    res = drift_probe(h, spec, x0, f=density)
    ref = nonlocal_laplacian(h, spec, x0)
    assert res.pointwise_value == pytest.approx(ref, rel=1e-12)
    assert res.limit == pytest.approx(ref, rel=2e-2)
    # integrated and pair-sum routes agree at each scale
    assert np.abs(res.values - res.pair_values).max() <= 1e-5


def test_drift_probe_shift_invariant(density):
    spec = spec_1d(0.5)
    h = scaled(gaussian(1, width=0.9), 0.7)
    res_a = drift_probe(h, spec, np.array([0.2]), f=density)
    res_b = drift_probe(shifted(h, 5.0), spec, np.array([0.2]), f=density)
    assert np.abs(res_a.values - res_b.values).max() <= 1e-12
    assert res_a.limit == pytest.approx(res_b.limit, abs=1e-12)


@pytest.mark.parametrize("lambda_seq", [(0.125, 0.25, 0.5), (0.5, 0.3, 0.1)])
def test_drift_probe_refuses_scales_that_are_not_a_decreasing_geometric_sequence(
        monkeypatch, density, lambda_seq):
    # an increasing sequence would extrapolate to a nan rate, and a
    # non-geometric one at the wrong ratio: both are refused before any
    # lattice is assembled
    monkeypatch.setattr(recovery, "assemble", None)
    h = scaled(gaussian(1, width=0.9), 0.7)
    with pytest.raises(DomainError, match="scale sequence"):
        drift_probe(h, spec_1d(0.5), np.array([0.2]), lambda_seq=lambda_seq, f=density)


# ---------------------------------------------------------------------------
# constancy check

def sample_grid():
    return np.linspace(-0.8, 0.8, 9)[:, None]


def test_constancy_check_constant():
    spec = spec_1d(0.5)
    w = SmoothFunction(lambda pts: np.full(pts.shape[0], 2.5), 1,
                       support_radius=0.5, far_value=2.5)
    rep = constancy_check(w, spec, sample_grid())
    assert rep.max_operator_value <= 1e-12
    assert rep.oscillation <= 1e-14
    assert rep.operator_flat and rep.constant


def test_constancy_check_matched_difference():
    # two drifts with the same operator data differ by a constant; their
    # difference must register as constant
    spec = spec_1d(0.5)
    h1 = scaled(gaussian(1, width=0.9), 0.6)
    h2 = shifted(h1, -3.0)
    w = SmoothFunction(lambda p: h1(p) - h2(p), 1,
                       support_radius=max(h1.support_radius, h2.support_radius),
                       far_value=h1.far_value - h2.far_value)
    assert w.far_value == pytest.approx(3.0)
    rep = constancy_check(w, spec, sample_grid())
    assert rep.max_operator_value <= 1e-10
    assert rep.oscillation <= 1e-12
    assert rep.constant


def test_constancy_check_detects_nonconstant():
    spec = spec_1d(0.5)
    w = scaled(bump(1, radius=0.9), 0.5)
    tol = 1e-8
    rep = constancy_check(w, spec, sample_grid(), tol=tol)
    assert rep.max_operator_value > 10 * tol
    assert not rep.operator_flat
    assert not rep.constant
    assert rep.oscillation == pytest.approx(0.5, rel=1e-6)
