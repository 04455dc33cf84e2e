import math
from itertools import product

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chtransition import (
    DomainSpec,
    SpectralField,
    field_from_modes,
    forward_transform,
    inverse_transform,
    laplacian_eigenvalue,
    mode_l2_norm_sq,
    triple_product,
)
from chtransition.spectral import (
    SpectralGrid,
    _analysis_matrix,
    _analyze,
    _check_mode,
    _synthesis_matrix,
    _synthesize,
    cancellation_counts,
    counted_triple_product,
    integrate_grid,
    load_grid,
    save_grid,
)

D = DomainSpec((math.pi, 2.0, 1.0))
DSQ = DomainSpec((math.pi, math.pi, 1.0))


# ---------------------------------------------------------------------------
# quadrature oracles, independent of the closed forms under test
# ---------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)


def _gl(f, length):
    x = 0.5 * length * (_GL_X + 1.0)
    return 0.5 * length * float(np.sum(_GL_W * f(x)))


def _triple_quad(J, L, K, d):
    out = 1.0
    for ax in range(3):
        li = d.lengths[ax]
        j, l, k = J[ax], L[ax], K[ax]
        out *= _gl(
            lambda x: np.cos(j * np.pi * x / li)
            * np.cos(l * np.pi * x / li)
            * np.cos(k * np.pi * x / li),
            li,
        )
    return out


def _midpoints(shape, d):
    """The midpoint collocation grid of ``shape`` as points of shape (..., 3)."""
    xs = [(np.arange(n) + 0.5) * (length / n) for n, length in zip(shape, d.lengths)]
    return np.stack(np.meshgrid(*xs, indexing="ij"), axis=-1)


def _mode_values(K, pts, d):
    """The basis function of mode ``K`` at the points ``pts``."""
    cosines = [np.cos(k * np.pi * pts[..., a] / d.lengths[a]) for a, k in enumerate(K)]
    return np.prod(cosines, axis=0)


class TestEigenvalues:
    def test_examples(self):
        assert laplacian_eigenvalue((1, 0, 0), D) == pytest.approx(1.0, rel=1e-15)
        assert laplacian_eigenvalue((2, 0, 0), D) == pytest.approx(4.0, rel=1e-15)
        assert laplacian_eigenvalue((1, 1, 0), DSQ) == pytest.approx(2.0, rel=1e-15)

    def test_rejects_zero_mode(self):
        with pytest.raises(ValueError):
            laplacian_eigenvalue((0, 0, 0), D)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            laplacian_eigenvalue((-1, 0, 0), D)


class TestModeIndexCheck:
    """What a mode index may be: three nonnegative integral numbers, not all
    zero, in any sequence; the result is a tuple of built-in ints."""

    @pytest.mark.parametrize(
        "K,expect",
        [
            ((1, 0, 0), (1, 0, 0)),
            ((0, 2, 7), (0, 2, 7)),
            ((np.int64(1), np.int32(0), 2), (1, 0, 2)),
            ((1.0, 0.0, 2.0), (1, 0, 2)),
            ((np.float64(3.0), 0, 0), (3, 0, 0)),
            ((True, False, False), (1, 0, 0)),
            ((0, -0.0, 1), (0, 0, 1)),
            ([1, 2, 3], (1, 2, 3)),
            (np.array([0, 0, 1]), (0, 0, 1)),
            (np.array([2.0, 1.0, 0.0]), (2, 1, 0)),
            (range(1, 4), (1, 2, 3)),
        ],
        ids=repr,
    )
    def test_accepts(self, K, expect):
        got = _check_mode(K)
        assert got == expect
        assert type(got) is tuple and all(type(v) is int for v in got)

    @pytest.mark.parametrize(
        "K",
        [
            (1.5, 0, 0),
            (0, 0, 0.5),
            (-1, 0, 0),
            (0, np.int64(-2), 1),
            (0, 0, 0),
            (0.0, 0.0, 0.0),
            (False, False, False),
            [0, 0, 0],
            np.zeros(3, dtype=int),
            (1, 2),
            (1, 2, 3, 4),
            [1, 0],
            np.array([1, 0, 0, 0]),
            (),
        ],
        ids=repr,
    )
    def test_rejects(self, K):
        with pytest.raises(ValueError):
            _check_mode(K)


class TestTransforms:
    def test_single_mode_forward(self):
        for K in [(1, 0, 0), (2, 1, 0), (3, 2, 1)]:
            f = field_from_modes({K: 1.0}, (8, 8, 8), D)
            grid = inverse_transform(f)
            back = forward_transform(grid, D)
            expect = np.zeros((8, 8, 8))
            expect[K] = 1.0
            assert np.abs(back.coeffs - expect).max() < 1e-13

    def test_empty_coeffs_zero_grid(self):
        f = SpectralField.zeros((8, 6, 4), D)
        assert np.abs(inverse_transform(f)).max() == 0.0

    @given(
        arrays(
            np.float64,
            (6, 5, 4),
            elements=st.floats(-1e3, 1e3, allow_nan=False),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, coeffs):
        coeffs[0, 0, 0] = 0.0
        f = SpectralField(coeffs.copy(), D)
        back = forward_transform(inverse_transform(f), D)
        assert np.abs(back.coeffs - f.coeffs).max() < 1e-12 * (1 + np.abs(coeffs).max())

    def test_forward_rejects_nonzero_mean(self):
        grid = np.ones((8, 8, 8))
        with pytest.raises(ValueError):
            forward_transform(grid, D)

    def test_forward_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            forward_transform(np.zeros((4, 4)), D)

    def test_mode_synthesis_matches_pointwise(self):
        shape = (8, 6, 5)
        pts = _midpoints(shape, D)
        for K in [(1, 0, 0), (0, 2, 0), (2, 1, 3)]:
            f = field_from_modes({K: 1.0}, shape, D)
            assert np.abs(inverse_transform(f) - _mode_values(K, pts, D)).max() < 1e-13

    def test_parseval(self):
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal((8, 8, 8))
        coeffs[0, 0, 0] = 0.0
        f = SpectralField(coeffs, D)
        grid = inverse_transform(f)
        # quadrature of u^2 on the collocation grid (exact for this band)
        pad = np.zeros((16, 16, 16))
        pad[:8, :8, :8] = f.coeffs
        fine = inverse_transform(SpectralField(pad, D))
        l2 = integrate_grid(fine * fine, D)
        assert l2 == pytest.approx(f.l2_norm_sq(), rel=1e-12)


class TestOrthogonality:
    def test_gram_matrix_diagonal(self):
        # all modes with indices up to 4 on a grid that resolves their products
        modes = [
            K for K in product(range(5), repeat=3) if K != (0, 0, 0)
        ]
        shape = (16, 16, 16)
        fields = np.stack(
            [inverse_transform(field_from_modes({K: 1.0}, shape, D)) for K in modes]
        )
        w = D.volume / fields[0].size
        gram = np.einsum("aijk,bijk->ab", fields, fields) * w
        expect = np.diag([mode_l2_norm_sq(K, D) for K in modes])
        assert np.abs(gram - expect).max() < 1e-10

    def test_laplacian_matches_finite_differences(self):
        K = (2, 1, 1)
        shape = (32, 32, 32)
        rho = laplacian_eigenvalue(K, D)
        f = field_from_modes({K: 1.0}, shape, D)
        lap_spec = inverse_transform(SpectralField(-rho * f.coeffs, D))
        grid = inverse_transform(f)
        lap_fd = np.zeros_like(grid)
        hs = [L / n for L, n in zip(D.lengths, shape)]
        for ax, h in enumerate(hs):
            plus = np.roll(grid, -1, axis=ax)
            minus = np.roll(grid, 1, axis=ax)
            term = (plus - 2 * grid + minus) / h**2
            lap_fd += term
        interior = (slice(1, -1),) * 3
        err = np.abs(lap_spec[interior] - lap_fd[interior]).max()
        # centered differences are second order: (k pi h / L)^2 / 12 per axis
        bound = sum(
            (K[ax] * math.pi * hs[ax] / D.lengths[ax]) ** 2 / 12.0 for ax in range(3)
        ) * rho * 1.5
        assert err < bound


class TestSpectralGrid:
    SHAPE = (10, 12, 8)

    def _band(self, seed):
        c = np.random.default_rng(seed).standard_normal(self.SHAPE)
        c[0, 0, 0] = 0.0
        return c

    def test_divergence_of_gradient_is_minus_laplacian(self):
        g = SpectralGrid(self.SHAPE, D)
        c = self._band(8)
        expect = -g.rho * c
        err = np.abs(g.divergence(g.gradient(c)) - expect).max()
        assert err <= 1e-12 * np.abs(expect).max()

    def test_divergence_zero_mode_exact(self):
        g = SpectralGrid(self.SHAPE, D)
        c = self._band(9)
        u_grid = g.synthesize(c)
        flux = [u_grid * d for d in g.gradient(c)]
        assert g.divergence(flux)[0, 0, 0] == 0.0

    def test_padding_and_read_only_tables(self):
        g = SpectralGrid(self.SHAPE, D)
        c = self._band(10)
        assert g.synthesize(c).shape == g.pad_shape == (20, 24, 16)
        assert g.rho.shape == self.SHAPE
        assert g.rho[1, 0, 0] == laplacian_eigenvalue((1, 0, 0), D)
        assert not any(a.flags.writeable for a in (*g.k, g.rho))


class TestStackedPasses:
    """The gradient and the divergence run three stacked passes each.  Every
    slot must give the bits of the per-axis transform it replaces, signs of
    zeros included: three single-matrix passes per component, and the
    divergence's components added into zeros one by one."""

    @staticmethod
    def _per_axis(g):
        synthesis = {
            d: [_synthesis_matrix(n, m, length, d)
                for n, m, length in zip(g.shape, g.pad_shape, D.lengths)]
            for d in (False, True)
        }
        analysis = {d: [_analysis_matrix(a, d) for a in synthesis[d]] for d in (False, True)}

        def mats(table, ax):
            return [table[b == ax][b] for b in range(3)]

        def gradient(c):
            return [_synthesize(c, mats(synthesis, ax)) for ax in range(3)]

        def divergence(flux):
            total = np.zeros(g.shape)
            for ax, f in enumerate(flux):
                total += _analyze(f, mats(analysis, ax))
            return total

        return gradient, divergence

    @staticmethod
    def _assert_bits(got, expect):
        got, expect = np.asarray(got), np.asarray(expect)
        assert got.shape == expect.shape
        assert np.array_equal(got, expect)
        assert np.array_equal(np.signbit(got), np.signbit(expect))

    @pytest.mark.parametrize("shape", [(6, 7, 8), (12, 12, 12)])
    @pytest.mark.parametrize("mode", [(1, 0, 0), (0, 2, 1), None])
    def test_gradient_and_divergence_match_per_axis_passes(self, shape, mode):
        # a single mode has gradient components that vanish exactly, their
        # zeros signed by the matrix entries; a signed weight flips them
        g = SpectralGrid(shape, D)
        rng = np.random.default_rng(31)
        if mode is None:
            c = rng.standard_normal(shape)
            c[0, 0, 0] = 0.0
        else:
            c = field_from_modes({mode: -0.7}, shape, D).coeffs
        weight = g.synthesize(rng.standard_normal(shape))
        gradient, divergence = self._per_axis(g)
        grad = g.gradient(c)
        assert grad.shape == (3, *g.pad_shape) and grad.flags.c_contiguous
        self._assert_bits(grad, gradient(c))
        flux = grad * weight
        self._assert_bits(g.divergence(flux), divergence(flux))
        self._assert_bits(g.divergence(list(flux)), divergence(flux))
        # a flux of negative zeros: the sum starts from +0.0
        zeros = np.full((3, *g.pad_shape), -0.0)
        self._assert_bits(g.divergence(zeros), divergence(zeros))

    def test_gradient_writes_into_out_and_refuses_another_layout(self):
        g = SpectralGrid((6, 7, 8), D)
        c = field_from_modes({(1, 1, 0): 0.3}, g.shape, D).coeffs
        out = np.empty((3, *g.pad_shape))
        assert g.gradient(c, out=out) is out
        self._assert_bits(out, g.gradient(c))
        for bad in (np.empty(g.pad_shape), np.empty((3, *g.pad_shape), order="F")):
            with pytest.raises(ValueError, match="C-contiguous"):
                g.gradient(c, out=bad)
        with pytest.raises(ValueError, match="flux of shape"):
            g.divergence(out[:2])


class TestBandTransforms:
    SHAPE = (5, 6, 7)

    def _band(self, seed):
        c = np.random.default_rng(seed).standard_normal(self.SHAPE)
        c[0, 0, 0] = 0.0
        return SpectralGrid(self.SHAPE, D), c

    @staticmethod
    def _axis_points(g):
        return [(np.arange(n) + 0.5) * (L / n) for n, L in zip(g.pad_shape, D.lengths)]

    def test_synthesize_matches_mode_sum(self):
        g, c = self._band(21)
        pts = _midpoints(g.pad_shape, D)
        expect = sum(
            c[K] * _mode_values(K, pts, D) for K in product(*map(range, self.SHAPE)) if any(K)
        )
        assert np.abs(g.synthesize(c) - expect).max() <= 1e-13 * np.abs(expect).max()

    def test_synthesize_rejects_another_shape(self):
        # a (5, 6, 1) array is refused by name, not by a failing matrix product
        g, c = self._band(23)
        with pytest.raises(ValueError, match="band"):
            g.synthesize(c[:, :, :1])

    def test_gradient_matches_analytic_derivatives(self):
        g, c = self._band(22)
        xs = self._axis_points(g)
        for ax, grid in enumerate(g.gradient(c)):
            mats = []
            for b, (x, n, L) in enumerate(zip(xs, self.SHAPE, D.lengths)):
                k = np.arange(n) * math.pi / L
                arg = np.outer(x, k)
                mats.append(-k * np.sin(arg) if b == ax else np.cos(arg))
            expect = np.einsum("ia,jb,kc,abc->ijk", *mats, c)
            assert np.abs(grid - expect).max() <= 1e-13 * np.abs(expect).max()

    def test_analyze_inverts_synthesize(self):
        g, c = self._band(23)
        assert np.abs(g.analyze(g.synthesize(c)) - c).max() <= 1e-14 * np.abs(c).max()

    def test_gradient_norm_sq_matches_quadrature(self):
        # |grad(u)|^2 of the band is resolved on the padded grid, so the
        # midpoint rule gives the Parseval sum to rounding
        g, c = self._band(24)
        expect = integrate_grid(sum(d * d for d in g.gradient(c)), D)
        assert g.gradient_norm_sq(c) == pytest.approx(expect, rel=1e-13, abs=0.0)


def _axis_column(n, ax):
    """``0 .. n-1`` laid along axis ``ax`` of a three-dimensional array."""
    return np.arange(n).reshape([-1 if a == ax else 1 for a in range(3)])


def _fft_synthesis(c, grid_shape, derivative_axis=None):
    """Samples of band coefficients by scipy's zero-extended inverse DCT-II
    (inverse DST-II of the derivative along ``derivative_axis``)."""
    x = c
    for ax, (m, length) in enumerate(zip(grid_shape, D.lengths)):
        n = x.shape[ax]
        k = _axis_column(n, ax)
        if ax == derivative_axis:
            sine = np.take(-k * math.pi / length * x, range(1, n), axis=ax)
            x = scipy.fft.idst(m * sine, type=2, n=m, axis=ax)
        else:
            x = scipy.fft.idct(np.where(k == 0, 2 * m, m) * x, type=2, n=m, axis=ax)
    return x


def _fft_analysis(grid, band, derivative_axis=None):
    """Band coefficients of samples by scipy's truncated DCT-II (the
    derivative of a DST-II sine series along ``derivative_axis``)."""
    x = grid
    for ax, (n, length) in enumerate(zip(band, D.lengths)):
        m = x.shape[ax]
        k = _axis_column(n, ax)
        if ax == derivative_axis:
            sine = np.take(scipy.fft.dst(x, type=2, axis=ax), range(n - 1), axis=ax) / m
            zero = np.zeros_like(np.take(sine, [0], axis=ax))
            x = k * math.pi / length * np.concatenate([zero, sine], axis=ax)
        else:
            x = np.take(scipy.fft.dct(x, type=2, axis=ax), range(n), axis=ax)
            x = x / np.where(k == 0, 2 * m, m)
    return x


class TestMatrixPassesAgainstFFT:
    """The matrix-multiply passes against scipy's FFT-based transforms."""

    SHAPES = [(6, 7, 8), (12, 12, 12), (24, 24, 24)]

    @staticmethod
    def _assert_close(got, expect):
        assert got.shape == expect.shape
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_padded_synthesis_and_gradient(self, shape):
        g = SpectralGrid(shape, D)
        c = np.random.default_rng(31).standard_normal(shape)
        self._assert_close(g.synthesize(c), _fft_synthesis(c, g.pad_shape))
        for ax, grad in enumerate(g.gradient(c)):
            self._assert_close(grad, _fft_synthesis(c, g.pad_shape, ax))

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_padded_analysis_and_divergence(self, shape):
        g = SpectralGrid(shape, D)
        samples = np.random.default_rng(32).standard_normal(g.pad_shape)
        self._assert_close(g.analyze(samples), _fft_analysis(samples, shape))
        zero = np.zeros(g.pad_shape)
        for ax in range(3):
            flux = [samples if a == ax else zero for a in range(3)]
            self._assert_close(g.divergence(flux), _fft_analysis(samples, shape, ax))

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_unpadded_transforms_and_round_trip(self, shape):
        rng = np.random.default_rng(33)
        c = rng.standard_normal(shape)
        c[0, 0, 0] = 0.0
        samples = inverse_transform(SpectralField(c.copy(), D))
        self._assert_close(samples, _fft_synthesis(c, shape))
        self._assert_close(forward_transform(samples, D).coeffs, c)
        noise = rng.standard_normal(shape)
        noise -= noise.mean()
        self._assert_close(forward_transform(noise, D).coeffs, _fft_analysis(noise, shape))


class TestTripleProducts:
    def test_doubling_pair(self):
        v = D.volume
        assert triple_product((1, 0, 0), (1, 0, 0), (2, 0, 0), D) == pytest.approx(v / 4)

    def test_mismatched_zero(self):
        assert triple_product((1, 0, 0), (0, 1, 0), (2, 0, 0), D) == 0.0

    def test_cubed_mode_vanishes(self):
        assert triple_product((1, 0, 0), (1, 0, 0), (1, 0, 0), D) == 0.0

    def test_mixed_pair(self):
        v = DSQ.volume
        assert triple_product((1, 0, 0), (0, 1, 0), (1, 1, 0), DSQ) == pytest.approx(v / 4)

    def test_against_quadrature(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            J, L, K = (tuple(rng.integers(0, 5, 3)) for _ in range(3))
            if (0, 0, 0) in (J, L, K):
                continue
            assert triple_product(J, L, K, D) == pytest.approx(
                _triple_quad(J, L, K, D), abs=1e-12
            )


    def test_counts_reproduce_the_per_axis_sums_to_the_bit(self):
        # reference: per axis, a quarter of the length summed over the sign
        # choices whose wavenumber cancels, the product stopping at a zero
        def one_axis(j, l, k, length):
            return 0.25 * sum(
                length for s1 in (1, -1) for s2 in (1, -1) if j + s1 * l + s2 * k == 0
            )

        rng = np.random.default_rng(17)
        for _ in range(20):
            lengths = sorted(rng.uniform(0.1, 7.0, 3) * 10.0 ** rng.integers(-3, 4), reverse=True)
            d = DomainSpec(tuple(lengths))
            for _ in range(300):
                J, L, K = (tuple(rng.integers(0, 5, 3).tolist()) for _ in range(3))
                if (0, 0, 0) in (J, L, K):
                    continue
                expect = 1.0
                for ax in range(3):
                    expect *= one_axis(J[ax], L[ax], K[ax], d.lengths[ax])
                    if expect == 0.0:
                        break
                counts = cancellation_counts(J, L, K)
                assert all(0 <= c <= 4 for c in counts)
                assert counted_triple_product(counts, d) == expect
                assert triple_product(J, L, K, d) == expect


class TestNorms:
    def test_values(self):
        v = D.volume
        assert mode_l2_norm_sq((1, 0, 0), D) == pytest.approx(v / 2)
        assert mode_l2_norm_sq((1, 1, 0), D) == pytest.approx(v / 4)
        assert mode_l2_norm_sq((1, 1, 1), D) == pytest.approx(v / 8)


class TestSerialisation:
    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        grid = rng.standard_normal((6, 5, 4))
        path = tmp_path / "field.bin"
        save_grid(path, grid)
        assert np.array_equal(load_grid(path), grid)

    def test_binary_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a grid")
        with pytest.raises(ValueError):
            load_grid(path)


class TestSpectralFieldInvariants:
    def test_zero_mode_rejected(self):
        coeffs = np.zeros((4, 4, 4))
        coeffs[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            SpectralField(coeffs, D)

    def test_mode_outside_grid_rejected(self):
        with pytest.raises(ValueError):
            field_from_modes({(5, 0, 0): 1.0}, (4, 4, 4), D)
