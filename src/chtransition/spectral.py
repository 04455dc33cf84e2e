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
from itertools import product

import numpy as np
import scipy.fft

from .params import DomainSpec

__all__ = [
    "Mode",
    "SpectralField",
    "SpectralGrid",
    "laplacian_eigenvalue",
    "eval_mode",
    "forward_transform",
    "inverse_transform",
    "triple_product",
    "grad_triple_product",
    "mode_l2_norm_sq",
    "collocation_points",
    "integrate_grid",
    "save_grid",
    "load_grid",
    "grid_to_csv",
]

Mode = tuple[int, int, int]


def _check_mode(K) -> Mode:
    k = tuple(int(v) for v in K)
    if len(k) != 3 or any(v < 0 for v in k) or any(v != float(w) for v, w in zip(k, K)):
        raise ValueError(f"mode index must be three nonnegative integers, got {K!r}")
    if k == (0, 0, 0):
        raise ValueError("the zero mode is excluded by the zero-mean constraint")
    return k


def laplacian_eigenvalue(K: Mode, d: DomainSpec) -> float:
    """Eigenvalue of ``-Laplace`` on mode ``K``: ``sum_i (k_i*pi/L_i)**2``."""
    k = _check_mode(K)
    return sum((ki * math.pi / li) ** 2 for ki, li in zip(k, d.lengths))


def eval_mode(K: Mode, x, d: DomainSpec):
    """Evaluate the basis function of mode ``K`` at points ``x``.

    ``x`` is an array of shape ``(..., 3)`` with coordinates inside the box.
    """
    k = _check_mode(K)
    x = np.asarray(x, dtype=float)
    out = np.ones(x.shape[:-1])
    for ax in range(3):
        out = out * np.cos(k[ax] * math.pi * x[..., ax] / d.lengths[ax])
    return out if out.shape else float(out)


def collocation_points(n: int, length: float) -> np.ndarray:
    """Midpoint collocation grid ``(j + 1/2) * length / n``."""
    return (np.arange(n) + 0.5) * (length / n)


# ---------------------------------------------------------------------------
# pruned transforms between midpoint-grid samples and basis coefficients
#
# Coefficient arrays are indexed [k1, k2, k3].  A field may be represented in
# a mixed basis that is sine along one axis (slot j holds wavenumber j+1, as
# produced by differentiating a cosine series); `sine_axis` selects it.  The
# transforms run one axis at a time and are unscaled; `_norm` holds the
# scaling.  Synthesis zero-extends one axis per pass and analysis truncates
# after each pass, so no pass transforms lines that are all zero (FFT
# pruning).  Every pass runs in place (``overwrite_x`` and no ``s``/``n``:
# zero-extension by scipy would copy), so a caller that holds the arrays
# allocates nothing on the padded grid.
# ---------------------------------------------------------------------------


def _analyze(grid: np.ndarray, band: tuple[int, ...], sine_axis: int | None = None) -> np.ndarray:
    """Unscaled DCT-II (DST-II along ``sine_axis``) of the samples, keeping
    the first ``band[ax]`` outputs of each axis before the next pass.  The
    passes run in place on ``grid``; the result is a view into it."""
    c = grid
    for ax in (2, 1, 0):
        if ax == sine_axis:
            c = scipy.fft.dst(c, type=2, axis=ax, overwrite_x=True)
        else:
            c = scipy.fft.dctn(c, type=2, axes=[ax], overwrite_x=True)
        c = c[(slice(None),) * ax + (slice(0, band[ax]),)]
    return c


def _synthesize(
    coeffs: np.ndarray, passes: list[np.ndarray], sine_axis: int | None = None
) -> np.ndarray:
    """Unscaled inverse of `_analyze`.  ``passes[ax]`` receives the pass
    along axis ``ax`` (its shape is the grid size up to that axis and the
    coefficients' size after it): the previous result goes into its front,
    its tail is zeroed and the pass runs in place.  Returns the last one."""
    x = coeffs
    for ax, buf in enumerate(passes):
        n = x.shape[ax]
        buf[(slice(None),) * ax + (slice(0, n),)] = x
        buf[(slice(None),) * ax + (slice(n, None),)] = 0.0
        if ax == sine_axis:
            x = scipy.fft.idst(buf, type=2, axis=ax, overwrite_x=True)
        else:
            x = scipy.fft.idctn(buf, type=2, axes=[ax], overwrite_x=True)
    return x


def _norm(
    band: tuple[int, ...],
    grid_shape: tuple[int, ...],
    inverse: bool,
    sine_axis: int | None = None,
    k: np.ndarray | None = None,
) -> np.ndarray:
    """Band-shaped scale that turns the unscaled transforms into plain
    amplitudes (``inverse``: the reverse), as the product of one vector per
    axis.  Along ``sine_axis`` it includes the derivative factor of that
    axis's wavenumbers ``k[1:]``: ``-k`` for synthesis, ``k`` for analysis (the
    sine band never reaches the last grid slot, which would need a factor
    of two)."""
    out = np.ones(())
    for ax, (n, m) in enumerate(zip(band, grid_shape)):
        if ax == sine_axis:
            w = -m * k[1 : n + 1] if inverse else k[1 : n + 1] / m
        else:
            w = np.full(n, float(m) if inverse else 1.0 / m)
            w[0] = 2.0 * m if inverse else 0.5 / m
        out = np.multiply.outer(out, w)
    return out


class SpectralGrid:
    """Pseudospectral operators for coefficient fields on the band ``shape``.

    Products are formed on the grid padded by a factor of two per axis,
    which keeps the aliases of cubic products out of the band (Boyd,
    *Chebyshev and Fourier Spectral Methods*, ch. 11).  Coefficients go in
    and come out with the band shape; the transforms skip the zero padding.
    The instance holds its (frozen) domain and read-only arrays: ``k[a]``
    are the wavenumbers ``j*pi/L_a`` along axis ``a`` up to the padded size,
    ``rho`` is the Neumann-Laplacian eigenvalue of every band mode, and the
    transform scales are built on first use.

    The transforms run in place.  Synthesis and the gradient write into
    caller-owned padded arrays (``out``; fresh ones without it) through the
    grid's own two intermediate pass arrays, built on first use; analysis
    and the divergence use their padded-grid input as scratch and overwrite
    it.  Because of the pass arrays, one grid serves one thread at a time.
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
        self._scales: dict[tuple[bool, int | None], np.ndarray] = {}
        self._pass_arrays: list[np.ndarray] = []

    def _scale(self, inverse: bool, sine_axis: int | None = None) -> np.ndarray:
        """`_norm` for this grid's band (one slot shorter along the sine
        axis), built on first use."""
        key = (inverse, sine_axis)
        if key not in self._scales:
            band = [n - (ax == sine_axis) for ax, n in enumerate(self.shape)]
            k = None if sine_axis is None else self.k[sine_axis]
            w = _norm(band, self.pad_shape, inverse, sine_axis, k)
            w.flags.writeable = False
            self._scales[key] = w
        return self._scales[key]

    def _synthesize_into(
        self, coeffs: np.ndarray, out: np.ndarray | None, sine_axis: int | None = None
    ) -> np.ndarray:
        """`_synthesize` through views of the two held intermediate pass
        arrays (built on first use) into ``out`` (fresh when ``None``)."""
        if not self._pass_arrays:
            self._pass_arrays = [
                np.empty(self.pad_shape[: ax + 1] + self.shape[ax + 1 :]) for ax in (0, 1)
            ]
        passes = [
            a[tuple(slice(0, m) for m in self.pad_shape[: ax + 1] + coeffs.shape[ax + 1 :])]
            for ax, a in enumerate(self._pass_arrays)
        ]
        passes.append(np.empty(self.pad_shape) if out is None else out)
        return _synthesize(coeffs, passes, sine_axis)

    def padded(self, coeffs: np.ndarray) -> np.ndarray:
        """Band coefficients zero-extended to the padded shape."""
        out = np.zeros(self.pad_shape)
        out[: coeffs.shape[0], : coeffs.shape[1], : coeffs.shape[2]] = coeffs
        return out

    def synthesize(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Samples of band coefficients on the padded midpoint grid, written
        into ``out`` when given."""
        return self._synthesize_into(coeffs * self._scale(True), out)

    def analyze(self, grid: np.ndarray) -> np.ndarray:
        """Band coefficients of samples on the padded grid; the samples are
        overwritten."""
        return _analyze(np.asarray(grid, dtype=float), self.shape) * self._scale(False)

    def gradient(
        self, coeffs: np.ndarray, out: list[np.ndarray] | None = None
    ) -> list[np.ndarray]:
        """The three partial derivatives of band coefficients sampled on the
        padded grid, written into the three arrays of ``out`` when given;
        each is a sine series along its own axis."""
        return [
            self._synthesize_into(
                coeffs[(slice(None),) * ax + (slice(1, None),)] * self._scale(True, ax), o, ax
            )
            for ax, o in enumerate([None] * 3 if out is None else out)
        ]

    def gradient_norm_sq(self, coeffs: np.ndarray) -> float:
        """``integral(|grad(u)|^2)`` of band coefficients by Parseval:
        ``sum_K rho_K * c_K^2 * <e_K, e_K>``, with no transform."""
        return float((self.rho * coeffs * coeffs * _norm_weights(self.shape, self.domain)).sum())

    def divergence(self, flux: list[np.ndarray]) -> np.ndarray:
        """Band coefficients of ``div(flux)`` from padded-grid samples, which
        are overwritten; flux component ``a`` is a sine series along axis
        ``a``.  The result has exactly zero mean."""
        total = np.zeros(self.shape)
        for ax, f in enumerate(flux):
            w = self._scale(False, ax)
            total[(slice(None),) * ax + (slice(1, None),)] += _analyze(f, w.shape, ax) * w
        return total


def integrate_grid(values: np.ndarray, d: DomainSpec) -> float:
    """Midpoint-rule integral over the box; exact for fields band-limited to
    the grid."""
    return float(values.sum() * (d.volume / values.size))


def _norm_weights(shape: tuple[int, int, int], d: DomainSpec) -> np.ndarray:
    """Per-mode values of ``<e_K, e_K>`` as a dense array."""
    out = np.ones(())
    for ax in range(3):
        w = np.full(shape[ax], d.lengths[ax] / 2.0)
        w[0] = d.lengths[ax]
        out = np.multiply.outer(out, w)
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

    @classmethod
    def from_modes(
        cls, amplitudes: dict[Mode, float], shape: tuple[int, int, int], d: DomainSpec
    ) -> "SpectralField":
        coeffs = np.zeros(shape)
        for K, a in amplitudes.items():
            k = _check_mode(K)
            if any(ki >= n for ki, n in zip(k, shape)):
                raise ValueError(f"mode {k} does not fit in grid shape {shape}")
            coeffs[k] = a
        return cls(coeffs, d)

    def amplitude(self, K: Mode) -> float:
        return float(self.coeffs[_check_mode(K)])

    def as_dict(self, threshold: float = 0.0) -> dict[Mode, float]:
        out: dict[Mode, float] = {}
        for idx in zip(*np.nonzero(np.abs(self.coeffs) > threshold)):
            out[tuple(int(i) for i in idx)] = float(self.coeffs[idx])
        return out

    def l2_norm_sq(self) -> float:
        """Squared L2 norm of the field (Parseval)."""
        return float((self.coeffs**2 * _norm_weights(self.grid_shape, self.domain)).sum())

    def copy(self) -> "SpectralField":
        return SpectralField(self.coeffs.copy(), self.domain)


def forward_transform(grid: np.ndarray, d: DomainSpec) -> SpectralField:
    """Analyse midpoint-grid samples into a coefficient field.

    The samples must have (numerically) zero mean.
    """
    grid = np.array(grid, dtype=float)  # the transform overwrites its input
    if grid.ndim != 3:
        raise ValueError(f"expected a three-dimensional grid, got shape {grid.shape}")
    return SpectralField(_analyze(grid, grid.shape) * _norm(grid.shape, grid.shape, False), d)


def inverse_transform(f: SpectralField) -> np.ndarray:
    """Synthesise the field on its midpoint collocation grid."""
    x = f.coeffs * _norm(f.grid_shape, f.grid_shape, True)
    # the grid is the band: every pass runs in place on x
    return _synthesize(x, [x, x, x])


# ---------------------------------------------------------------------------
# exact integrals of basis-function products
# ---------------------------------------------------------------------------


def _cos_line(m: int, length: float) -> float:
    # integral of cos(m*pi*x/L) over (0, L) for integer m
    return length if m == 0 else 0.0


def _cos_triple_1d(j: int, l: int, k: int, length: float) -> float:
    return 0.25 * sum(
        _cos_line(j + s1 * l + s2 * k, length) for s1 in (1, -1) for s2 in (1, -1)
    )


def _cos_sin_sin_1d(j: int, l: int, k: int, length: float) -> float:
    # integral of cos(j..) * sin(l..) * sin(k..) over (0, L)
    return 0.25 * (
        _cos_line(j + l - k, length)
        + _cos_line(j - l + k, length)
        - _cos_line(j + l + k, length)
        - _cos_line(j - l - k, length)
    )


def triple_product(J: Mode, L: Mode, K: Mode, d: DomainSpec) -> float:
    """Exact integral of ``e_J * e_L * e_K`` over the box.

    For single-axis ``J, L`` and ``K = J + L`` this equals ``V/4``; it
    vanishes unless the wavenumbers can cancel axis by axis.
    """
    j, l, k = _check_mode(J), _check_mode(L), _check_mode(K)
    out = 1.0
    for ax in range(3):
        out *= _cos_triple_1d(j[ax], l[ax], k[ax], d.lengths[ax])
        if out == 0.0:
            return 0.0
    return out


def grad_triple_product(J: Mode, L: Mode, K: Mode, d: DomainSpec) -> float:
    """Exact integral of ``e_J * grad(e_L) . grad(e_K)`` over the box."""
    j, l, k = _check_mode(J), _check_mode(L), _check_mode(K)
    total = 0.0
    for ax in range(3):
        if l[ax] == 0 or k[ax] == 0:
            continue
        term = (
            l[ax]
            * k[ax]
            * math.pi**2
            / d.lengths[ax] ** 2
            * _cos_sin_sin_1d(j[ax], l[ax], k[ax], d.lengths[ax])
        )
        for other in range(3):
            if other != ax:
                term *= _cos_triple_1d(j[other], l[other], k[other], d.lengths[other])
        total += term
    return total


def mode_l2_norm_sq(K: Mode, d: DomainSpec) -> float:
    """``<e_K, e_K>``: the volume halved once per nonzero index."""
    k = _check_mode(K)
    out = d.volume
    for ki in k:
        if ki > 0:
            out *= 0.5
    return out


# ---------------------------------------------------------------------------
# grid serialisation: flat binary with a dims header, CSV for small grids
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


def grid_to_csv(path, grid: np.ndarray) -> None:
    grid = np.asarray(grid, dtype=float)
    with open(path, "w") as fh:
        fh.write("# dims: {} {} {}\n".format(*grid.shape))
        fh.write("i1,i2,i3,value\n")
        for idx in product(*(range(n) for n in grid.shape)):
            fh.write("{},{},{},{:.17g}\n".format(*idx, grid[idx]))
