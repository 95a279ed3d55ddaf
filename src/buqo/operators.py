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
import scipy.sparse as sp

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
    <A u, v> = <u, A* v> (complex inner product where applicable). The
    Fourier operators take real images to complex data
    (``complex_output`` without ``complex_input``); on R^N x C^M the
    identity is Re<A u, v> = <u, A* v>, so their adjoint returns a real
    image. ``norm_bound`` is an upper bound on the spectral norm, used by
    the solvers' step-size conditions.
    """

    in_dim: int
    out_dim: int
    forward: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    norm_bound: float | None = None
    complex_input: bool = False
    complex_output: bool = False

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


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

    def select(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x).ravel()[self.indices]

    def embed(self, values: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n_pixels, dtype=np.asarray(values).dtype)
        out[self.indices] = values
        return out

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
    (|A u||v| + |u||A* v|). For an operator on real inputs
    (``complex_input`` False) with complex outputs, the adjoint is taken
    on R^N x C^M, where the inner product of the data space is the real
    part of the complex one, so Re<A u, v> is compared with <u, A* v>.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_probes):
        u = rng.standard_normal(op.in_dim)
        if op.complex_input:
            u = u + 1j * rng.standard_normal(op.in_dim)
        v = rng.standard_normal(op.out_dim)
        if op.complex_output:
            v = v + 1j * rng.standard_normal(op.out_dim)
        au = op.forward(u)
        atv = op.adjoint(v)
        lhs = np.vdot(v, au)
        if not op.complex_input:
            lhs = lhs.real
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
    if op.complex_input:
        v = v + 1j * rng.standard_normal(op.in_dim)
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


def attach_norm_bound(op: LinearMap, tol: float = 1e-9,
                      max_iters: int = 5000, seed: int = 0) -> float:
    """Estimate and cache the spectral norm with a 1% safety inflation."""
    bound = 1.01 * op_norm(op, tol=tol, max_iters=max_iters, seed=seed)
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
    """
    if pattern.n_selected == 0:
        raise ValueError("sampling pattern is empty")
    rows, cols, m = pattern.rows, pattern.cols, pattern.n_selected
    half_cols = cols // 2 + 1
    ky, kx = np.divmod(pattern.indices, cols)
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

    # rfft2 and irfft2 written as their two 1-D passes, so that the
    # complex pass runs in place on the half spectrum
    def forward(x):
        half = np.fft.rfft(np.asarray(x).reshape(rows, cols), axis=1,
                           norm="ortho")
        np.fft.fft(half, axis=0, norm="ortho", out=half)
        out = half.ravel()[gather]
        out.imag *= imag_sign
        return out

    def adjoint(y):
        padded = np.empty(m + 1, dtype=complex)
        np.multiply(y, 0.5, out=padded[:m])
        padded[m] = 0.0
        half = padded[fold_mirror]
        np.conjugate(half, out=half)
        half += padded[fold_direct]
        half = half.reshape(rows, half_cols)
        np.fft.ifft(half, axis=0, norm="ortho", out=half)
        return np.fft.irfft(half, n=cols, axis=1, norm="ortho").ravel()

    return LinearMap(rows * cols, m, forward, adjoint, norm_bound=1.0,
                     complex_output=True)


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
                     complex_output=True)


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


def db8_analysis(rows: int, cols: int, levels: int) -> LinearMap:
    """Multilevel separable orthonormal Db8 transform with periodic boundary.

    Both dimensions must be divisible by 2**levels. Each level applies
    one orthogonal matrix per axis to the current r x c block,
    W_r @ block @ W_c.T; the matrices are built on first use and cached
    per axis size. The adjoint equals the inverse (synthesis), so the
    spectral norm is exactly 1. The coefficient layout is the usual
    in-place quadrant nesting, flattened row-major.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if rows % (1 << levels) or cols % (1 << levels):
        raise ValueError(
            f"image dims ({rows}, {cols}) not divisible by 2^{levels}"
        )
    n = rows * cols
    sizes = [(rows >> lv, cols >> lv) for lv in range(levels)]

    def forward(x):
        a = np.array(np.asarray(x, dtype=float).reshape(rows, cols))
        for r, c in sizes:
            a[:r, :c] = _dwt_level(r) @ a[:r, :c] @ _dwt_level(c).T
        return a.ravel()

    def adjoint(w):
        a = np.array(np.asarray(w, dtype=float).reshape(rows, cols))
        for r, c in reversed(sizes):
            a[:r, :c] = _dwt_level(r).T @ a[:r, :c] @ _dwt_level(c)
        return a.ravel()

    return LinearMap(n, n, forward, adjoint, norm_bound=1.0)


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


def build_inpainting(mask: PixelMask,
                     kernel_sizes: Sequence[int] = (3, 7, 11),
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
    inside = mask.boolean_image()
    iy, ix = np.divmod(mask.indices, cols)
    if iy.min() == 0 or ix.min() == 0 or iy.max() == rows - 1 or ix.max() == cols - 1:
        raise ValueError("mask must lie strictly inside the image")
    comp = mask.complement()
    # position of each outside pixel in the operator's input vector
    col_of = np.full(rows * cols, -1, dtype=np.int64)
    col_of[comp.indices] = np.arange(comp.n_selected)

    per_size = []
    for size, sigma in zip(sizes, kernel_sigmas):
        half = size // 2
        w = _gaussian_kernel_weights(size, sigma)
        rows_i, cols_j, vals = [], [], []
        empty = np.zeros(mask.n_selected, dtype=bool)
        for r, (py, px) in enumerate(zip(iy, ix)):
            y0, y1 = max(0, py - half), min(rows, py + half + 1)
            x0, x1 = max(0, px - half), min(cols, px + half + 1)
            window = ~inside[y0:y1, x0:x1]
            if not window.any():
                empty[r] = True
                continue
            wy, wx = np.nonzero(window)
            weights = w[wy + (y0 - py + half), wx + (x0 - px + half)]
            weights = weights / weights.sum()
            flat = (wy + y0) * cols + (wx + x0)
            rows_i.extend([r] * flat.size)
            cols_j.extend(col_of[flat])
            vals.extend(weights)
        mat = sp.csr_matrix(
            (vals, (rows_i, cols_j)),
            shape=(mask.n_selected, comp.n_selected),
        )
        per_size.append((mat, empty))

    covered = ~np.logical_and.reduce([e for _, e in per_size])
    if not covered.all():
        bad = np.flatnonzero(~covered)
        raise ValueError(
            f"mask too large for kernels: {bad.size} pixel(s) with no "
            f"observed neighbour in any kernel window (first: {bad[:5]})"
        )
    # average over the kernel sizes that have support at each pixel
    counts = np.zeros(mask.n_selected)
    total = sp.csr_matrix((mask.n_selected, comp.n_selected))
    for mat, empty in per_size:
        total = total + mat
        counts += ~empty
    scale = sp.diags(1.0 / counts)
    matrix = (scale @ total).tocsr()
    mat_t = matrix.T.tocsr()

    def forward(v):
        return matrix @ np.asarray(v).ravel()

    def adjoint(u):
        return mat_t @ np.asarray(u).ravel()

    op = LinearMap(comp.n_selected, mask.n_selected, forward, adjoint)
    op.matrix = matrix
    return op


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
