"""Linear operators for the Fourier-imaging pipeline.

All operators act on flat vectors (row-major flattening of 2-D grids):
the measurement operator as a restriction of the unitary 2-D DFT, the
multi-coil variant, the orthonormal Db8 wavelet analysis, the
normalized-convolution inpainting operator, pixel-mask selectors and
the inpainting-residual map.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "LinearMap",
    "PixelMask",
    "SamplingPattern",
    "dot_test",
    "op_norm",
    "masked_dft",
    "multicoil_map",
    "db8_analysis",
    "mask_select",
    "build_inpainting",
    "residual_map",
]


@dataclass
class LinearMap:
    """A forward/adjoint pair with cached dimensions and a spectral-norm bound.

    ``forward`` maps vectors of length ``in_dim`` to vectors of length
    ``out_dim``; ``adjoint`` maps the other way and satisfies
    <A u, v> = <u, A* v>. Inputs are real; the Fourier operators take
    them to complex data (``complex_output``), and on R^N x C^M the
    identity is Re<A u, v> = <u, A* v>, so their adjoint returns a real
    image. ``norm_bound`` is an upper bound on the spectral norm, used by
    the solvers' step-size conditions. ``grid`` is the (rows, cols) image
    grid of the input, for a map built on one (Fourier and Db8 maps).
    ``fold`` maps data to an equivalent data ball with fewer entries or no
    DFT, and to the least misfit of a real image (see :func:`masked_dft`).
    """

    in_dim: int
    out_dim: int
    forward: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    norm_bound: float | None = None
    complex_output: bool = False
    grid: tuple[int, int] | None = None
    fold: Callable | None = field(default=None, repr=False)


@dataclass(frozen=True)
class PixelMask:
    """Sorted set of selected pixel positions on a rows x cols grid."""

    rows: int
    cols: int
    indices: np.ndarray = field(repr=False)

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64).ravel()
        idx = np.unique(idx)
        n = self.rows * self.cols
        if self.rows < 1 or self.cols < 1:
            raise ValueError("mask grid must be at least 1x1")
        if idx.size and (idx[0] < 0 or idx[-1] >= n):
            raise ValueError("mask indices out of [0, N)")
        object.__setattr__(self, "indices", idx)

    @property
    def n_pixels(self) -> int:
        return self.rows * self.cols

    @property
    def n_selected(self) -> int:
        return int(self.indices.size)

    def complement(self) -> "PixelMask":
        keep = np.ones(self.n_pixels, dtype=bool)
        keep[self.indices] = False
        return PixelMask(self.rows, self.cols, np.flatnonzero(keep))

    def boolean_image(self) -> np.ndarray:
        img = np.zeros(self.n_pixels, dtype=bool)
        img[self.indices] = True
        return img.reshape(self.rows, self.cols)

    @classmethod
    def from_boolean(cls, boolean_image: np.ndarray) -> "PixelMask":
        b = np.asarray(boolean_image, dtype=bool)
        if b.ndim != 2:
            raise ValueError("boolean mask image must be 2-D")
        return cls(b.shape[0], b.shape[1], np.flatnonzero(b.ravel()))


@dataclass(frozen=True)
class SamplingPattern:
    """Set of selected discrete frequencies on a rows x cols DFT grid.

    Frequencies are stored as flat row-major indices into the unshifted
    DFT grid (index (ky, kx) -> ky * cols + kx with ky, kx in [0, n)).
    """

    rows: int
    cols: int
    indices: np.ndarray = field(repr=False)
    fallback_filled: bool = False

    def __post_init__(self):
        idx = np.unique(np.asarray(self.indices, dtype=np.int64).ravel())
        if idx.size and (idx[0] < 0 or idx[-1] >= self.rows * self.cols):
            raise ValueError("frequency indices out of grid")
        object.__setattr__(self, "indices", idx)

    @property
    def n_selected(self) -> int:
        return int(self.indices.size)

    def signed_frequencies(self) -> np.ndarray:
        """Selected frequencies as signed (ky, kx) pairs, shape (n, 2)."""
        ky = self.indices // self.cols
        kx = self.indices % self.cols
        ky = np.where(ky >= self.rows // 2 + self.rows % 2, ky - self.rows, ky)
        kx = np.where(kx >= self.cols // 2 + self.cols % 2, kx - self.cols, kx)
        return np.stack([ky, kx], axis=1)


def dot_test(op: LinearMap, n_probes: int = 20, seed: int = 0) -> float:
    """Maximum relative adjoint defect over random probes.

    Returns max over probes of |<A u, v> - <u, A* v>| divided by
    (|A u||v| + |u||A* v|). The inputs are real; for complex outputs the
    adjoint is taken on R^N x C^M, where the inner product of the data
    space is the real part of the complex one, so Re<A u, v> is compared
    with <u, A* v>.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_probes):
        u = rng.standard_normal(op.in_dim)
        v = rng.standard_normal(op.out_dim)
        if op.complex_output:
            v = v + 1j * rng.standard_normal(op.out_dim)
        au = op.forward(u)
        atv = op.adjoint(v)
        lhs = np.vdot(v, au).real
        rhs = np.vdot(atv, u)
        scale = (
            np.linalg.norm(au) * np.linalg.norm(v)
            + np.linalg.norm(u) * np.linalg.norm(atv)
        )
        if scale == 0.0:
            continue
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def op_norm(op: LinearMap, tol: float = 1e-9, max_iters: int = 5000,
            seed: int = 0) -> float:
    """Spectral norm estimate by power iteration on A* A.

    Warns and returns the last estimate if the relative change has not
    dropped below ``tol`` within ``max_iters``. Callers cache the result
    (times a 1% safety factor) in ``norm_bound``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(op.in_dim)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(max_iters):
        w = op.adjoint(op.forward(v))
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        new_est = math.sqrt(nw)
        v = w / nw
        if abs(new_est - est) <= tol * max(new_est, 1e-300):
            return new_est
        est = new_est
    warnings.warn(
        f"op_norm: power iteration did not reach tol={tol} in {max_iters} "
        f"iterations; returning last estimate {est:.6e}",
        RuntimeWarning,
    )
    return est


def attach_norm_bound(op: LinearMap) -> float:
    """Estimate and cache the spectral norm with a 1% safety inflation."""
    bound = 1.01 * op_norm(op)
    op.norm_bound = bound
    return bound


def masked_dft(pattern: SamplingPattern) -> LinearMap:
    """Unitary 2-D DFT of a real image, restricted to the selected frequencies.

    Maps flat real images to complex measurements. The forward map applies
    the orthonormal real FFT and gathers the selected bins from the half
    spectrum (columns kx <= cols // 2); a bin k outside it is read as
    conj(half[-k]), by the Hermitian symmetry of a real image's spectrum.
    A complex image raises TypeError. The adjoint, on R^N x C^M with the
    inner product Re<u, v>, is the real image Re(F* M* y): it folds y into
    the half spectrum as 0.5 * (y_k + conj(y_-k)) and applies the inverse
    real FFT. The spectral norm is at most 1 (restriction of a unitary map).

    ``fold(y)`` gives (Phi_f, y_f, c, e) with ||Phi x - y||^2 =
    ||Phi_f x - y_f||^2 + c for real x, and e the least ||Phi x - y||^2
    over real x. It starts from the half-spectrum map Phi_h, which reads
    each half-spectrum slot once: k and -k of an interior column merge
    into one entry of weight sqrt(2) and data y_h = (y_k + conj(y_-k)) /
    sqrt(2), and c sums |y_k - conj(y_-k)|^2 / 2 over such pairs (n^2 bins
    fold to n (n/2 + 1)). No real image reaches the rest of e - c: a pair
    k, -k of column 0 or of the Nyquist column keeps two entries and adds
    |y_k - conj(y_-k)|^2 / 2, a self-conjugate bin adds |Im y_k|^2. An
    undersampled pattern folds to (Phi_h, y_h). A full one, where Phi* Phi
    = I and so Phi_h is an isometry on real images, folds onto the image
    grid: Phi_f is the real map x -> (x, 0) from R^N to R^(N + 1), and y_f
    = (Phi_h* y_h, ||r||), r = Phi_h Phi_h* y_h - y_h being the part of
    y_h that no real image reaches (||r||^2 = e - c up to rounding). A
    Condat-Vu dual on Phi_h stays of the form Phi_h p + beta r, the dual
    on Phi_f is then (p, -beta ||r||), and the two take the same steps;
    the iteration needs no DFT. Both maps return new arrays on every call.
    """
    if pattern.n_selected == 0:
        raise ValueError("sampling pattern is empty")
    rows, cols, m = pattern.rows, pattern.cols, pattern.n_selected
    forward, adjoint, read_at = _dft_reader(rows, cols, pattern.indices)
    slots, entry = np.unique(read_at, return_inverse=True)
    count = np.bincount(entry)
    half_map = LinearMap(rows * cols, slots.size,
                         *_dft_reader(rows, cols, slots, np.sqrt(count))[:2],
                         norm_bound=1.0, complex_output=True, grid=(rows, cols))
    stored = read_at == pattern.indices
    # the slots, in column 0 or the Nyquist column, whose mirror is a slot
    # too (itself for a self-conjugate bin), and those mirrors' slots
    ky, kx = np.divmod(slots, cols)
    mirror = -ky % rows * cols + -kx % cols
    at = np.minimum(np.searchsorted(slots, mirror), slots.size - 1)
    paired = np.flatnonzero(slots[at] == mirror)
    mirrored = at[paired]
    image_map = _image_embedding(rows, cols) if m == rows * cols else None

    def fold(y):
        seen = np.where(stored, y, np.conj(y))  # each datum as read at its slot
        total = np.bincount(entry, seen.real) + 1j * np.bincount(entry, seen.imag)
        spread = seen - (total / count)[entry]
        folded, offset = total / np.sqrt(count), float(np.vdot(spread, spread).real)
        # each pair appears from both ends, a self-conjugate bin once
        gap = folded[paired] - np.conj(folded[mirrored])
        unreached = float(np.vdot(gap, gap).real) / 4.0
        if image_map is None:
            return half_map, folded, offset, offset + unreached
        image = half_map.adjoint(folded)
        tail = np.linalg.norm(half_map.forward(image) - folded)
        return image_map, np.append(image, tail), offset, offset + unreached

    return LinearMap(rows * cols, m, forward, adjoint, norm_bound=1.0,
                     complex_output=True, grid=(rows, cols), fold=fold)


def _image_embedding(rows: int, cols: int) -> LinearMap:
    """The real map x -> (x, 0) from a rows x cols image to N + 1 entries;
    its adjoint reads the first N. Both return new arrays."""
    n = rows * cols

    def forward(x):
        out = np.empty(n + 1)
        out[:n] = x
        out[n] = 0.0
        return out

    def adjoint(v):
        return np.array(v[:n], dtype=float)

    return LinearMap(n, n + 1, forward, adjoint, norm_bound=1.0, grid=(rows, cols))


def _dft_reader(rows: int, cols: int, bins: np.ndarray,
                weight: np.ndarray | None = None) -> tuple:
    """The forward and adjoint of x -> weight * (F x)[bins] (see
    :func:`masked_dft`; weighted bins must lie in the stored half), and
    the bin of the stored half that each bin is read at: k itself or -k."""
    m = bins.size
    half_cols = cols // 2 + 1
    ky, kx = np.divmod(bins, cols)
    neg_ky, neg_kx = -ky % rows, -kx % cols
    # each bin k or its mirror -k (or both) lies in the stored half
    stored = kx < half_cols
    gather = np.where(stored, ky * half_cols + kx, neg_ky * half_cols + neg_kx)
    imag_sign = np.where(stored, 1.0, -1.0)
    # half-spectrum slot j of the fold takes y at fold_direct[j] (bin j
    # selected) and conj(y) at fold_mirror[j] (bin -j selected); index m
    # reads a zero appended to y
    fold_direct = np.full(rows * half_cols, m)
    fold_direct[gather[stored]] = np.flatnonzero(stored)
    mirror = np.flatnonzero(neg_kx < half_cols)
    fold_mirror = np.full(rows * half_cols, m)
    fold_mirror[neg_ky[mirror] * half_cols + neg_kx[mirror]] = mirror
    half_weight = 0.5 if weight is None else 0.5 * weight

    # rfft2 and irfft2 written as their two 1-D passes, so that the
    # complex pass runs in place on the half spectrum
    def forward(x):
        half = np.fft.rfft(np.asarray(x).reshape(rows, cols), axis=1,
                           norm="ortho")
        np.fft.fft(half, axis=0, norm="ortho", out=half)
        out = half.ravel()[gather]
        if weight is None:
            out.imag *= imag_sign
        else:
            out *= weight
        return out

    def adjoint(y):
        padded = np.empty(m + 1, dtype=complex)
        np.multiply(y, half_weight, out=padded[:m])
        padded[m] = 0.0
        half = padded[fold_mirror]
        np.conjugate(half, out=half)
        half += padded[fold_direct]
        half = half.reshape(rows, half_cols)
        np.fft.ifft(half, axis=0, norm="ortho", out=half)
        return np.fft.irfft(half, n=cols, axis=1, norm="ortho").ravel()

    return forward, adjoint, np.where(stored, bins, neg_ky * cols + neg_kx)


def multicoil_map(patterns: Sequence[SamplingPattern],
                  sensitivities: Sequence[np.ndarray]) -> LinearMap:
    """Stacked per-coil masked DFTs of sensitivity-weighted real images.

    Coil c measures the masked spectrum of ``sens_c * x``; the outputs
    are concatenated. Since x is real, ``sens_c * x`` splits into the
    real images Re(sens_c) x and Im(sens_c) x, each measured by
    :func:`masked_dft`, so the map takes real images to complex data and
    its adjoint, the sum over coils of Re(conj(sens_c) F* M_c* y_c), is
    real. With sensitivities normalized so that the pointwise sum of
    |sens_c|^2 is 1, the spectral norm is at most 1.
    """
    if len(patterns) != len(sensitivities):
        raise ValueError("need one sensitivity profile per coil")
    if not patterns:
        raise ValueError("need at least one coil")
    rows, cols = patterns[0].rows, patterns[0].cols
    sens = []
    for s in sensitivities:
        s = np.asarray(s)
        if s.shape != (rows, cols):
            raise ValueError("sensitivity dims do not match the pattern grid")
        sens.append(s.ravel())
    for p in patterns:
        if (p.rows, p.cols) != (rows, cols):
            raise ValueError("all coil patterns must share one grid")
    # (dft, [(weight, phase)]): coil c's data is sum of phase * dft(weight * x);
    # an all-zero part (the imaginary one of a real profile) is left out
    coils = [(masked_dft(p), [(w, phase) for w, phase in
                              ((s.real, 1.0), (s.imag, 1j)) if np.any(w)])
             for p, s in zip(patterns, sens)]
    offsets = np.cumsum([0] + [op.out_dim for op, _ in coils])
    n = rows * cols
    m_total = int(offsets[-1])
    # ||A x||^2 <= max_i sum_c |s_c,i|^2 * ||x||^2
    bound = float(np.sqrt(np.max(sum(np.abs(s) ** 2 for s in sens))))

    def forward(x):
        x = np.asarray(x).ravel()
        out = np.zeros(m_total, dtype=complex)
        for (op, parts), lo, hi in zip(coils, offsets[:-1], offsets[1:]):
            for w, phase in parts:
                out[lo:hi] += phase * op.forward(w * x)
        return out

    def adjoint(y):
        y = np.asarray(y).ravel()
        acc = np.zeros(n)
        for (op, parts), lo, hi in zip(coils, offsets[:-1], offsets[1:]):
            for w, phase in parts:
                acc += w * op.adjoint(np.conj(phase) * y[lo:hi])
        return acc

    return LinearMap(n, m_total, forward, adjoint, norm_bound=bound,
                     complex_output=True, grid=(rows, cols))


# ---------------------------------------------------------------------------
# Db8 orthonormal wavelet transform, periodic boundary

def _daubechies_lowpass(p: int) -> np.ndarray:
    """Length-2p Daubechies lowpass filter by spectral factorization."""
    a = np.array([math.comb(p - 1 + k, k) for k in range(p)], dtype=float)
    yroots = np.roots(a[::-1]) if p > 1 else np.array([])
    zroots = []
    for y0 in yroots:
        b = 4.0 * y0 - 2.0
        disc = np.sqrt(b * b - 4.0 + 0j)
        for z in ((-b + disc) / 2.0, (-b - disc) / 2.0):
            if abs(z) < 1.0:
                zroots.append(z)
    q = np.poly(zroots) if zroots else np.array([1.0])
    q = q / np.polyval(q, 1.0)
    m0 = np.array([1.0])
    for _ in range(p):
        m0 = np.convolve(m0, [0.5, 0.5])
    return np.real(np.convolve(m0, q)) * math.sqrt(2.0)


_DB8_LO = _daubechies_lowpass(8)
_DB8_HI = (_DB8_LO[::-1] * np.where(np.arange(16) % 2 == 0, 1.0, -1.0))


@functools.cache
def _dwt_level(n: int) -> np.ndarray:
    """Orthogonal n x n matrix of one periodic filter-bank level (read-only).

    Row k < n/2 holds the lowpass taps at columns (2k + t) mod n, row
    n/2 + k the highpass taps; taps that wrap onto one column add up.
    """
    w = np.zeros((n, n))
    k = np.arange(n // 2)[:, None]
    cols = (2 * k + np.arange(_DB8_LO.size)[None, :]) % n
    np.add.at(w, (k, cols), _DB8_LO)
    np.add.at(w, (n // 2 + k, cols), _DB8_HI)
    w.flags.writeable = False
    return w


# an axis of at least BAND_MIN points is filtered over the 16-tap band, in
# blocks of up to _BAND_BLOCK outputs; a shorter one by its dense matrix
# (at least 16, so that the taps wrap at most once)
BAND_MIN = 96
_BAND_BLOCK = 4
_WRAP = _DB8_LO.size - 2   # input rows a block of b outputs reads past its 2b


@functools.cache
def _band_blocks(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lowpass and highpass (b, 2b + 14) blocks of one level of n points
    and its (2b, 2b + 14) synthesis block (read-only); b is the largest
    divisor of n/2 up to _BAND_BLOCK.

    Outputs k0 .. k0 + b - 1 of either half read the input rows 2 k0 ..
    2 k0 + 2b + 13. Synthesis rows 2 k0 .. 2 k0 + 2b - 1 read the
    coefficients interleaved as (lowpass k, highpass k), for k from k0 - 7
    to k0 + b - 1. All three are windows of the level matrix of 2b + 14
    points where none of the taps they hold wraps.
    """
    b = max(d for d in range(1, _BAND_BLOCK + 1) if n // 2 % d == 0)
    w, half = _dwt_level(2 * b + _WRAP), b + _WRAP // 2
    pairs = np.stack([np.arange(half), half + np.arange(half)], axis=1).ravel()
    synthesis = w.T[_WRAP:, pairs]
    synthesis.flags.writeable = False
    return w[:b], w[half:half + b], synthesis


class _AxisPass:
    """One level of n points along ``axis`` of an r x c block, by its dense
    matrix below BAND_MIN, else over the band.

    The band copies the block, extended by 14 wrap rows along ``axis``,
    into a buffer kept across calls. Window j of the buffer is its rows
    2b j .. 2b j + 2b + 13; rows b j .. b j + b - 1 of each half of the
    level (rows 2b j .. 2b j + 2b - 1 of the synthesis) are the product of
    a block of :func:`_band_blocks` with window j, all windows in one call.
    """

    def __init__(self, shape: tuple[int, int], axis: int):
        self.n, self.axis = shape[axis], axis
        if self.n < BAND_MIN:
            self.dense = _dwt_level(self.n)
            return
        self.dense = None
        lo, hi, synthesis = _band_blocks(self.n)
        size = list(shape)
        size[axis] += _WRAP
        ext = np.empty(size)
        self.ext = ext.T if axis else ext   # filled and sliced along axis 0
        height, width = lo.shape
        self.windows = np.lib.stride_tricks.as_strided(
            self.ext, (self.n // (2 * height), width, self.ext.shape[1]),
            (2 * height * self.ext.strides[0], *self.ext.strides))
        self.blocks = lo, hi, synthesis
        if axis:   # BLAS runs fast on row-major outputs: transposed products
            self.windows = self.windows.swapaxes(1, 2)
            self.blocks = tuple(np.ascontiguousarray(m.T) for m in self.blocks)

    def __call__(self, src: np.ndarray, out: np.ndarray, adjoint: bool) -> None:
        """Write the level (its synthesis when ``adjoint``) of src into out."""
        n, axis = self.n, self.axis
        if self.dense is not None:
            w = self.dense.T if adjoint else self.dense
            np.matmul(src, w.T, out=out) if axis else np.matmul(w, src, out=out)
            return
        lo, hi, synthesis = self.blocks
        ext, half = self.ext, n // 2
        if axis:
            src, out = src.T, out.T
        if adjoint:
            ext[_WRAP::2], ext[_WRAP + 1::2] = src[:half], src[half:]
            ext[:_WRAP] = ext[n:]
            products = ((synthesis, out),)
        else:
            ext[:n], ext[n:] = src, src[:_WRAP]
            products = ((lo, out[:half]), (hi, out[half:]))
        count = self.windows.shape[0]
        for block, part in products:
            part = part.reshape(count, -1, part.shape[1])   # a view
            if axis:
                np.matmul(self.windows, block, out=part.swapaxes(1, 2))
            else:
                np.matmul(block, self.windows, out=part)


def db8_analysis(rows: int, cols: int, levels: int) -> LinearMap:
    """Multilevel separable orthonormal Db8 transform with periodic boundary.

    Both dimensions must be divisible by 2**levels. Each level applies
    one orthogonal matrix per axis to the current r x c block,
    W_r @ block @ W_c.T, as one pass down the rows and one across them.
    Each axis of each level picks its own kernel: fewer than ``BAND_MIN``
    points take the dense matrix, built on first use and cached per axis
    size; a longer axis is filtered over its 16-tap band: b lowpass and b
    highpass outputs (b = 4 when it divides n/2) read 2b + 14 consecutive
    inputs, so each half of the level is one batched product of a small
    block over overlapping windows of the axis, extended by its 14 wrap
    rows. One forward level of n x n points took 23 us dense and 25-29 us
    banded at n = 64, 59 and 40 us at 96, and 152 and 60 us at 128 (one
    BLAS thread); the two tie at 98 points, so the band pays from 96 and
    every 64x64 grid keeps the dense code. The band matches the dense
    matrices to about 3e-15. The adjoint equals the inverse (synthesis),
    so the spectral norm is exactly 1. The coefficient layout is the usual
    in-place quadrant nesting, flattened row-major.

    Every map keeps one level temporary per level across calls, and a map
    with a banded axis its extension buffers too, shared by its forward
    and adjoint, so one map must not be applied from two threads at once.
    The returned arrays are always new.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"image grid ({rows}, {cols}) must be at least 1x1")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if rows % (1 << levels) or cols % (1 << levels):
        raise ValueError(
            f"image dims ({rows}, {cols}) not divisible by 2^{levels}"
        )
    n = rows * cols
    sizes = [(rows >> lv, cols >> lv) for lv in range(levels)]
    # per level: its temporary and the passes down the rows and across them
    passes = [(np.empty((r, c)), _AxisPass((r, c), 0), _AxisPass((r, c), 1))
              for r, c in sizes]

    def forward(x):
        a = np.array(np.asarray(x, dtype=float).reshape(rows, cols))
        for (r, c), (tmp, down, across) in zip(sizes, passes):
            down(a[:r, :c], tmp, False)
            across(tmp, a[:r, :c], False)
        return a.ravel()

    def adjoint(w):
        a = np.array(np.asarray(w, dtype=float).reshape(rows, cols))
        for (r, c), (tmp, down, across) in zip(reversed(sizes), reversed(passes)):
            down(a[:r, :c], tmp, True)
            across(tmp, a[:r, :c], True)
        return a.ravel()

    return LinearMap(n, n, forward, adjoint, norm_bound=1.0, grid=(rows, cols))


# ---------------------------------------------------------------------------
# Mask selectors, inpainting, residual map

def mask_select(mask: PixelMask) -> LinearMap:
    """Coordinate selection onto the mask; adjoint is zero-fill embedding."""
    n = mask.n_pixels
    idx = mask.indices

    def forward(x):
        return np.asarray(x).ravel()[idx]

    def adjoint(v):
        out = np.zeros(n, dtype=np.asarray(v).dtype)
        out[idx] = v
        return out

    return LinearMap(n, idx.size, forward, adjoint, norm_bound=1.0)


def _gaussian_kernel_weights(size: int, sigma: float) -> np.ndarray:
    """Isotropic Gaussian weights on a size x size window."""
    half = size // 2
    grid = np.arange(-half, half + 1, dtype=float)
    dy, dx = np.meshgrid(grid, grid, indexing="ij")
    return np.exp(-(dy ** 2 + dx ** 2) / (2.0 * sigma ** 2))


# window sizes of the normalized-convolution inpainting, averaged
INPAINT_KERNEL_SIZES = (3, 7, 11)


def build_inpainting(mask: PixelMask,
                     kernel_sizes: Sequence[int] = INPAINT_KERNEL_SIZES,
                     kernel_sigmas: Sequence[float] | None = None) -> LinearMap:
    """Normalized-convolution inpainting from outside-mask to masked pixels.

    For each kernel size, each masked pixel is predicted by the
    Gaussian-weighted average of the observed (outside-mask, in-bounds)
    pixels in its window, with weights renormalized to sum to 1; the
    per-size predictions are averaged. The result is a positive linear
    operator whose rows sum to 1, so constants are preserved. Kernel
    widths default to size/4.

    Raises if the mask is empty, touches the image border, or contains a
    pixel with no observed neighbour in any kernel window.
    """
    if mask.n_selected == 0:
        raise ValueError("mask is empty")
    sizes = [int(k) for k in kernel_sizes]
    if not sizes or any(k < 1 or k % 2 == 0 for k in sizes):
        raise ValueError("kernel sizes must be odd positive integers")
    if kernel_sigmas is None:
        kernel_sigmas = [k / 4.0 for k in sizes]
    if len(kernel_sigmas) != len(sizes):
        raise ValueError("need one sigma per kernel size")
    rows, cols = mask.rows, mask.cols
    observed = ~mask.boolean_image().ravel()
    iy, ix = np.divmod(mask.indices, cols)
    if iy.min() == 0 or ix.min() == 0 or iy.max() == rows - 1 or ix.max() == cols - 1:
        raise ValueError("mask must lie strictly inside the image")

    # (masked pixel, image pixel, weight) of every observed pixel in all
    # windows of one size at once; offsets outside the image are dropped
    at, pixel, weight = [], [], []
    counts = np.zeros(mask.n_selected)
    for size, sigma in zip(sizes, kernel_sigmas):
        offsets = np.arange(size) - size // 2
        wy = (iy[:, None] + offsets)[:, :, None]
        wx = (ix[:, None] + offsets)[:, None, :]
        flat = np.clip(wy, 0, rows - 1) * cols + np.clip(wx, 0, cols - 1)
        seen = ((wy >= 0) & (wy < rows) & (wx >= 0) & (wx < cols)
                & observed[flat])
        w = np.where(seen, _gaussian_kernel_weights(size, sigma), 0.0)
        r, a, b = np.nonzero(seen)
        at.append(r)
        pixel.append(flat[r, a, b])
        weight.append(w[r, a, b] / w.sum(axis=(1, 2))[r])
        counts += seen.any(axis=(1, 2))

    if not counts.all():
        bad = np.flatnonzero(counts == 0)
        raise ValueError(
            f"mask too large for kernels: {bad.size} pixel(s) with no "
            f"observed neighbour in any kernel window (first: {bad[:5]})"
        )
    comp = mask.complement()
    reached, column = np.unique(np.concatenate(pixel), return_inverse=True)
    support = np.searchsorted(comp.indices, reached)
    # one dense block on the outside pixels some window reaches, averaged
    # over the kernel sizes that have support at each pixel
    block = np.zeros((mask.n_selected, support.size))
    np.add.at(block, (np.concatenate(at), column), np.concatenate(weight))
    block *= (1.0 / counts)[:, None]

    def forward(v):
        return block @ np.asarray(v).ravel()[support]

    def adjoint(u):
        out = np.zeros(comp.n_selected)
        out[support] = block.T @ np.asarray(u).ravel()
        return out

    return LinearMap(comp.n_selected, mask.n_selected, forward, adjoint)


def residual_map(mask: PixelMask, inpaint: LinearMap) -> LinearMap:
    """Map x -> M(x) - L(Mc(x)) from the full image to the masked pixels."""
    comp = mask.complement()
    if inpaint.in_dim != comp.n_selected or inpaint.out_dim != mask.n_selected:
        raise ValueError("inpainting operator dims inconsistent with mask")
    n = mask.n_pixels

    def forward(x):
        x = np.asarray(x).ravel()
        return x[mask.indices] - inpaint.forward(x[comp.indices])

    def adjoint(u):
        out = np.zeros(n, dtype=float)
        out[mask.indices] = u
        out[comp.indices] -= inpaint.adjoint(u)
        return out

    return LinearMap(n, mask.n_selected, forward, adjoint)
