"""Cosine eigenbasis of the Neumann Laplacian on a rectangular box.

Modes are indexed by triples ``K = (k1, k2, k3)`` of nonnegative integers,
not all zero (the constant mode is excluded by the zero-mean constraint).
The basis function of mode ``K`` is ``prod_i cos(k_i*pi*x_i/L_i)`` and the
collocation grid is the midpoint grid ``x = (n + 1/2)*L/N``, on which the
type-II discrete cosine transform diagonalises analysis and synthesis
exactly.

Coefficients follow the plain-amplitude convention: the coefficient of mode
``K`` is ``<u, e_K> / <e_K, e_K>``, so a field equal to one basis function
has a single unit coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .params import DomainSpec

__all__ = [
    "Mode",
    "SpectralField",
    "SpectralGrid",
    "field_from_modes",
    "laplacian_eigenvalue",
    "forward_transform",
    "inverse_transform",
    "triple_product",
    "cancellation_counts",
    "counted_triple_product",
    "mode_l2_norm_sq",
    "integrate_grid",
    "save_grid",
    "load_grid",
]

Mode = tuple[int, int, int]


def _check_mode(K) -> Mode:
    # the common case, a tuple of three built-in ints, is accepted as it is
    if type(K) is tuple and len(K) == 3:
        i, j, k = K
        if type(i) is type(j) is type(k) is int and min(i, j, k) >= 0 and (i or j or k):
            return K
    k = tuple(int(v) for v in K)
    if len(k) != 3 or any(v < 0 for v in k) or any(v != float(w) for v, w in zip(k, K)):
        raise ValueError(f"mode index must be three nonnegative integers, got {K!r}")
    if k == (0, 0, 0):
        raise ValueError("the zero mode is excluded by the zero-mean constraint")
    return k


def field_from_modes(
    amplitudes: dict[Mode, float], shape: tuple[int, int, int], d: DomainSpec
) -> SpectralField:
    """The field on the band ``shape`` with these mode amplitudes and every
    other coefficient zero."""
    coeffs = np.zeros(shape)
    for K, a in amplitudes.items():
        k = _check_mode(K)
        if any(ki >= n for ki, n in zip(k, shape)):
            raise ValueError(f"mode {k} does not fit in grid shape {shape}")
        coeffs[k] = a
    return SpectralField(coeffs, d)


def laplacian_eigenvalue(K: Mode, d: DomainSpec) -> float:
    """Eigenvalue of ``-Laplace`` on mode ``K``: ``sum_i (k_i*pi/L_i)**2``."""
    k = _check_mode(K)
    return sum((ki * math.pi / li) ** 2 for ki, li in zip(k, d.lengths))


# ---------------------------------------------------------------------------
# matrix-multiply transforms between midpoint-grid samples and coefficients
#
# Coefficient arrays are indexed [k1, k2, k3].  A transform is three
# one-axis passes (`_pass`), each a BLAS matrix product against a dense
# matrix of basis values along that axis: the matrix-multiplication
# transform (Boyd, *Chebyshev and Fourier Spectral Methods*, ch. 10), which
# costs less than an FFT at the band sizes used here.  A synthesis matrix
# maps the band to the grid points and an analysis matrix the grid points
# to the band, so no product touches the zero padding.  Along a derivative
# axis the synthesis matrix holds the x-derivatives of the cosines (a sine
# series, zero in the wavenumber-0 column), and the analysis matrix takes a
# sine series to the cosine coefficients of its derivative (zero in the
# wavenumber-0 row).
# ---------------------------------------------------------------------------


def _synthesis_matrix(n: int, m: int, length: float, derivative: bool = False) -> np.ndarray:
    """(m, n) synthesis matrix: ``cos(k*pi*x/L)`` for ``k < n`` at the ``m``
    midpoints ``x``, or its x-derivative."""
    k = np.arange(n)
    # the angle pi*k*(2j + 1)/(2m), reduced modulo 2*pi in exact integers
    theta = (np.outer(2 * np.arange(m) + 1, k) % (4 * m)) * (math.pi / (2 * m))
    if derivative:
        return np.sin(theta) * (-math.pi / length * k)
    return np.cos(theta)


def _analysis_matrix(synthesis: np.ndarray, derivative: bool = False) -> np.ndarray:
    """(n, m) analysis matrix of a `_synthesis_matrix`, from the discrete
    orthogonality of cosines (sines) on the midpoint grid for wavenumbers
    below ``m``: the cosine coefficients are ``1/m`` (``k = 0``) and ``2/m``
    times the sums against the cosines; the derivative of a sine series has
    cosine coefficients ``-2/m`` times its sums against the derivative
    basis."""
    m, n = synthesis.shape
    w = np.full(n, -2.0 / m if derivative else 2.0 / m)
    if not derivative:
        w[0] = 1.0 / m
    return w[:, None] * synthesis.T


def _pass(x: np.ndarray, mat: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """One transform pass: ``x`` with its axis ``axis`` multiplied by
    ``mat``, written into the C-contiguous ``out`` (fresh when ``None``).

    A stack of three matrices ``(3, M, N)`` multiplies slot by slot and puts
    a leading stack axis on the result; ``x`` carries that stack axis too,
    or serves all three slots (the axes are the last three of ``x``).  Each
    slot's product is the one its matrix makes on its own."""
    if out is None:
        shape = list(x.shape[-3:])
        shape[axis] = mat.shape[-2]
        out = np.empty(mat.shape[:-2] + tuple(shape))
    if axis == 0:
        np.matmul(mat, x.reshape(*x.shape[:-2], -1), out=out.reshape(*out.shape[:-2], -1))
    elif axis == 1:
        np.matmul(mat[..., None, :, :], x, out=out)
    else:
        lead = mat.shape[:-2]
        np.matmul(x.reshape(*lead, -1, x.shape[-1]), mat.swapaxes(-1, -2),
                  out=out.reshape(*lead, -1, out.shape[-1]))
    return out


def _stack(mats: list[np.ndarray]) -> np.ndarray:
    """Three matrices of one shape as one ``(3, M, N)`` stack whose slots keep
    their matrices' memory order (an analysis matrix is Fortran-ordered), so a
    stacked pass makes the BLAS calls of three single ones."""
    if all(m.flags.c_contiguous for m in mats):
        return np.stack(mats)
    return np.stack([m.T for m in mats]).transpose(0, 2, 1)


def _synthesize(coeffs: np.ndarray, mats, work=(None, None), out=None) -> np.ndarray:
    """Samples of ``coeffs`` under the synthesis matrices ``mats`` (one per
    axis, or one stack per axis), leading axis first; ``work`` receives the
    first two passes."""
    x = coeffs
    for ax, dst in enumerate((*work, out)):
        x = _pass(x, mats[ax], ax, dst)
    return x


def _analyze(grid: np.ndarray, mats, work=(None, None)) -> np.ndarray:
    """Fresh band coefficients of ``grid`` under the analysis matrices
    ``mats``, last axis first; ``work`` receives the first two passes in
    reverse order, so one pair of arrays serves `_synthesize` too."""
    x = grid
    for ax, dst in ((2, work[1]), (1, work[0]), (0, None)):
        x = _pass(x, mats[ax], ax, dst)
    return x


class SpectralGrid:
    """Pseudospectral operators for coefficient fields on the band ``shape``.

    Products are formed on the grid padded by a factor of two per axis,
    which keeps the aliases of cubic products out of the band (Boyd,
    *Chebyshev and Fourier Spectral Methods*, ch. 11).  Coefficients go in
    and come out with the band shape.  The instance holds its (frozen)
    domain and read-only arrays: ``k[a]`` are the wavenumbers ``j*pi/L_a``
    along axis ``a`` up to the padded size and ``rho`` is the
    Neumann-Laplacian eigenvalue of every band mode; the transform matrices
    are built on first use.

    Synthesis and the gradient write into caller-owned padded arrays
    (``out``, C-contiguous; fresh ones without it); analysis and the
    divergence leave their padded input as it is and return fresh band
    arrays.  The gradient and the divergence run their three components
    together: each pass is one matrix product over a stack of three per-axis
    matrices, the derivative matrix in slot ``a`` along axis ``a`` and the
    plain one in the other slots.  Every transform runs through the grid's
    own intermediate pass arrays (a pair for single transforms and a
    stacked pair for the gradient and the divergence), built on first use,
    so one grid serves one thread at a time.
    """

    def __init__(self, shape: tuple[int, int, int], domain: DomainSpec) -> None:
        self.shape = tuple(int(n) for n in shape)
        self.domain = domain
        self.pad_shape = tuple(2 * n for n in self.shape)
        self.k = tuple(
            np.arange(n, dtype=float) * math.pi / length
            for n, length in zip(self.pad_shape, domain.lengths)
        )
        sq = [k[:n] ** 2 for k, n in zip(self.k, self.shape)]
        self.rho = sq[0][:, None, None] + sq[1][None, :, None] + sq[2][None, None, :]
        for a in (*self.k, self.rho):
            a.flags.writeable = False
        self._matrices: dict[tuple[bool, bool], list[np.ndarray]] = {}
        self._pass_arrays: dict[bool, tuple[np.ndarray, np.ndarray]] = {}

    def _passes(
        self, analysis: bool, stacked: bool = False
    ) -> tuple[list[np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """The per-axis matrices of one transform and its two intermediate
        pass arrays.  Stacked, each axis has a ``(3, M, N)`` stack of
        matrices (the derivative one in slot ``a`` along axis ``a``) and the
        pass arrays a leading stack axis.  The matrices are all built on
        first use of any transform, each pair of pass arrays on first use of
        its kind; synthesis and analysis share them."""
        if not self._matrices:
            # indexed [derivative][axis]
            to_grid = [
                [_synthesis_matrix(n, m, length, d)
                 for n, m, length in zip(self.shape, self.pad_shape, self.domain.lengths)]
                for d in (False, True)
            ]
            to_band = [[_analysis_matrix(a, d) for a in to_grid[d]] for d in (False, True)]
            for kind, mats in ((False, to_grid), (True, to_band)):
                self._matrices[kind, False] = mats[False]
                self._matrices[kind, True] = [
                    _stack([mats[slot == ax][ax] for slot in range(3)]) for ax in range(3)
                ]
        if stacked not in self._pass_arrays:
            n0, n1, n2 = self.shape
            m0, m1, _ = self.pad_shape
            lead = (3,) if stacked else ()
            self._pass_arrays[stacked] = (
                np.empty(lead + (m0, n1, n2)), np.empty(lead + (m0, m1, n2)))
        return self._matrices[analysis, stacked], self._pass_arrays[stacked]

    def _out(self, out: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray:
        if out is None:
            return np.empty(shape)
        if out.shape != shape or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous array of shape {shape}")
        return out

    def synthesize(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Samples of band coefficients on the padded midpoint grid, written
        into ``out`` when given.  Coefficients of another shape are rejected."""
        if coeffs.shape != self.shape:
            raise ValueError(f"coefficients of shape {coeffs.shape} on the band {self.shape}")
        return _synthesize(coeffs, *self._passes(False), self._out(out, self.pad_shape))

    def analyze(self, grid: np.ndarray) -> np.ndarray:
        """Band coefficients of samples on the padded grid."""
        return _analyze(np.asarray(grid, dtype=float), *self._passes(True))

    def gradient(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The three partial derivatives of band coefficients sampled on the
        padded grid, as one C-contiguous ``(3, *pad_shape)`` array (``out``
        when given): slot ``a`` is the derivative along axis ``a``, a sine
        series along that axis."""
        out = self._out(out, (3, *self.pad_shape))
        return _synthesize(coeffs, *self._passes(False, stacked=True), out)

    def gradient_norm_sq(self, coeffs: np.ndarray) -> float:
        """``integral(|grad(u)|^2)`` of band coefficients by Parseval:
        ``sum_K rho_K * c_K^2 * <e_K, e_K>``, with no transform."""
        return float((self.rho * coeffs * coeffs * _norm_weights(self.shape, self.domain)).sum())

    def divergence(self, flux) -> np.ndarray:
        """Band coefficients of ``div(flux)`` from padded-grid samples: a
        ``(3, *pad_shape)`` array (a sequence of three padded arrays is
        stacked with one copy) whose component ``a`` is a sine series along
        axis ``a``.  The result has exactly zero mean."""
        flux = np.asarray(flux, dtype=float)
        if flux.shape != (3, *self.pad_shape):
            raise ValueError(f"flux of shape {flux.shape}, not {(3, *self.pad_shape)}")
        parts = _analyze(flux, *self._passes(True, stacked=True))
        # the components added into +0.0 one by one, which sets the sign of
        # a zero sum
        total = parts[0] + 0.0
        total += parts[1]
        total += parts[2]
        return total


def integrate_grid(values: np.ndarray, d: DomainSpec) -> float:
    """Midpoint-rule integral over the box; exact for fields band-limited to
    the grid."""
    return float(values.sum() * (d.volume / values.size))


@lru_cache(maxsize=32)
def _norm_weights(shape: tuple[int, int, int], d: DomainSpec) -> np.ndarray:
    """Per-mode values of ``<e_K, e_K>`` as a dense read-only array, built
    once per band shape and domain."""
    out = np.ones(())
    for ax in range(3):
        w = np.full(shape[ax], d.lengths[ax] / 2.0)
        w[0] = d.lengths[ax]
        out = np.multiply.outer(out, w)
    out.flags.writeable = False
    return out


@dataclass
class SpectralField:
    """Zero-mean field represented by cosine-basis coefficients.

    ``coeffs[k1, k2, k3]`` is the amplitude of mode ``(k1, k2, k3)``; the
    array shape is the per-axis truncation.  The zero mode must vanish.
    The coefficient array is adopted, not copied (its zero-mode entry is
    pinned to exactly zero); pass a copy to keep the original untouched.
    """

    coeffs: np.ndarray
    domain: DomainSpec

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.ndim != 3:
            raise ValueError("coefficient array must be three-dimensional")
        scale = float(np.abs(self.coeffs).max(initial=0.0))
        if abs(self.coeffs[0, 0, 0]) > 1e-9 * (1.0 + scale):
            raise ValueError("field must have zero mean (zero-mode coefficient present)")
        self.coeffs[0, 0, 0] = 0.0

    @property
    def grid_shape(self) -> tuple[int, int, int]:
        return self.coeffs.shape

    @classmethod
    def zeros(cls, shape: tuple[int, int, int], d: DomainSpec) -> "SpectralField":
        return cls(np.zeros(shape), d)

    def amplitude(self, K: Mode) -> float:
        return float(self.coeffs[_check_mode(K)])

    def l2_norm_sq(self) -> float:
        """Squared L2 norm of the field (Parseval)."""
        return float((self.coeffs**2 * _norm_weights(self.grid_shape, self.domain)).sum())


def forward_transform(grid: np.ndarray, d: DomainSpec) -> SpectralField:
    """Analyse midpoint-grid samples into a coefficient field.

    The samples must have (numerically) zero mean.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 3:
        raise ValueError(f"expected a three-dimensional grid, got shape {grid.shape}")
    mats = [
        _analysis_matrix(_synthesis_matrix(n, n, length))
        for n, length in zip(grid.shape, d.lengths)
    ]
    return SpectralField(_analyze(grid, mats), d)


def inverse_transform(f: SpectralField) -> np.ndarray:
    """Synthesise the field on its midpoint collocation grid."""
    mats = [_synthesis_matrix(n, n, length) for n, length in zip(f.grid_shape, f.domain.lengths)]
    return _synthesize(f.coeffs, mats)


# ---------------------------------------------------------------------------
# exact integrals of basis-function products
# ---------------------------------------------------------------------------


def cancellation_counts(J: Mode, L: Mode, K: Mode) -> tuple[int, int, int]:
    """Per axis, the number of the four sign choices with
    ``j + s1*l + s2*k == 0``: the terms of the three cosines' product
    ``cos(j*t)*cos(l*t)*cos(k*t) = (1/4)*sum cos((j + s1*l + s2*k)*t)``
    that do not oscillate.  The counts depend on the modes only, not on the
    box."""
    return tuple(
        sum(j + s1 * l + s2 * k == 0 for s1 in (1, -1) for s2 in (1, -1))
        for j, l, k in zip(J, L, K)
    )


def counted_triple_product(counts: tuple[int, int, int], d: DomainSpec) -> float:
    """`triple_product` from its `cancellation_counts` on the box ``d``.

    Along an axis of length ``L`` each non-oscillating term integrates to
    ``L`` and every other term to 0, so the one-axis integral is a quarter
    of ``count`` lengths summed."""
    out = 1.0
    for count, length in zip(counts, d.lengths):
        out *= 0.25 * sum([length] * count)
        if out == 0.0:
            return 0.0
    return out


def triple_product(J: Mode, L: Mode, K: Mode, d: DomainSpec) -> float:
    """Exact integral of ``e_J * e_L * e_K`` over the box.

    For single-axis ``J, L`` and ``K = J + L`` this equals ``V/4``; it
    vanishes unless the wavenumbers can cancel axis by axis.
    """
    counts = cancellation_counts(_check_mode(J), _check_mode(L), _check_mode(K))
    return counted_triple_product(counts, d)


def mode_l2_norm_sq(K: Mode, d: DomainSpec) -> float:
    """``<e_K, e_K>``: the volume halved once per nonzero index."""
    k = _check_mode(K)
    out = d.volume
    for ki in k:
        if ki > 0:
            out *= 0.5
    return out


# ---------------------------------------------------------------------------
# grid serialisation: flat binary with a dims header
# ---------------------------------------------------------------------------

_MAGIC = b"CHGRID1\x00"


def save_grid(path, grid: np.ndarray) -> None:
    grid = np.ascontiguousarray(grid, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        np.asarray(grid.shape, dtype=np.int64).tofile(fh)
        grid.tofile(fh)


def load_grid(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a grid file")
        dims = np.fromfile(fh, dtype=np.int64, count=3)
        data = np.fromfile(fh, dtype=np.float64, count=int(np.prod(dims)))
    return data.reshape(tuple(dims))
