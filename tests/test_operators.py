import numpy as np
import pytest

from buqo.operators import (
    LinearMap,
    PixelMask,
    SamplingPattern,
    attach_norm_bound,
    build_inpainting,
    db8_analysis,
    dot_test,
    mask_select,
    masked_dft,
    multicoil_map,
    op_norm,
    residual_map,
)
from buqo.operators import _DB8_HI, _DB8_LO
from buqo.sim import coil_sensitivities, gaussian_random_pattern

from oracles import filter_bank_2d


def dense_from_map(op: LinearMap) -> np.ndarray:
    """Assemble the operator matrix column by column (test oracle)."""
    dtype = complex if op.complex_output else float
    mat = np.zeros((op.out_dim, op.in_dim), dtype=dtype)
    for j in range(op.in_dim):
        e = np.zeros(op.in_dim)
        e[j] = 1.0
        mat[:, j] = op.forward(e)
    return mat


def matrix_map(a: np.ndarray) -> LinearMap:
    a = np.asarray(a, dtype=float)
    return LinearMap(a.shape[1], a.shape[0],
                     lambda x: a @ x, lambda y: a.T @ y)


def full_pattern(rows, cols):
    return SamplingPattern(rows, cols, np.arange(rows * cols))


# ---------------------------------------------------------------------------
# op_norm

def test_op_norm_identity():
    op = matrix_map(np.eye(4))
    assert op_norm(op) == pytest.approx(1.0, abs=1e-9)


def test_op_norm_diagonal():
    op = matrix_map(np.diag([1.0, 2.0, 3.0]))
    assert op_norm(op, tol=1e-10) == pytest.approx(3.0, abs=1e-8)


def test_op_norm_matches_svd_oracle():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((8, 8))
    expected = np.linalg.svd(a, compute_uv=False)[0]
    assert op_norm(matrix_map(a), tol=1e-12, max_iters=20000) == pytest.approx(
        expected, abs=1e-6)


def test_op_norm_warns_when_budget_exhausted():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((12, 12))
    with pytest.warns(RuntimeWarning):
        est = op_norm(matrix_map(a), tol=1e-14, max_iters=2)
    assert est > 0


def test_attach_norm_bound_inflates():
    op = matrix_map(np.diag([2.0, 1.0]))
    bound = attach_norm_bound(op)
    assert bound == pytest.approx(2.02, rel=1e-6)
    assert op.norm_bound == bound


# ---------------------------------------------------------------------------
# masks and patterns

def test_mask_validation_and_partition():
    mask = PixelMask(4, 4, [5, 6, 9, 10])
    comp = mask.complement()
    assert mask.n_selected == 4 and comp.n_selected == 12
    assert np.intersect1d(mask.indices, comp.indices).size == 0
    x = np.arange(16.0)
    rebuilt = mask.embed(mask.select(x)) + comp.embed(comp.select(x))
    np.testing.assert_array_equal(rebuilt, x)


def test_mask_rejects_out_of_range():
    with pytest.raises(ValueError):
        PixelMask(2, 2, [4])
    with pytest.raises(ValueError):
        SamplingPattern(2, 2, [-1])


def test_pattern_signed_frequencies():
    p = SamplingPattern(4, 4, [0, 3, 12])
    signed = {tuple(v) for v in p.signed_frequencies()}
    assert signed == {(0, 0), (0, -1), (-1, 0)}


# ---------------------------------------------------------------------------
# masked DFT

def test_masked_dft_impulse_flat_spectrum():
    rows = cols = 8
    op = masked_dft(full_pattern(rows, cols))
    impulse = np.zeros(rows * cols)
    impulse[0] = 1.0
    spec = op.forward(impulse)
    np.testing.assert_allclose(np.abs(spec), 1.0 / np.sqrt(rows * cols),
                               atol=1e-12)


def test_masked_dft_full_grid_is_unitary():
    rows = cols = 8
    op = masked_dft(full_pattern(rows, cols))
    rng = np.random.default_rng(0)
    x = rng.standard_normal(rows * cols)
    back = op.adjoint(op.forward(x))
    np.testing.assert_allclose(np.real(back), x, atol=1e-12)
    np.testing.assert_allclose(np.imag(back), 0.0, atol=1e-12)


def test_masked_dft_dot_test_half_grid():
    pattern = gaussian_random_pattern(8, 8, 0.5, seed=11)
    op = masked_dft(pattern)
    assert dot_test(op, n_probes=20, seed=5) < 1e-10


def test_masked_dft_rejects_bad_frequencies():
    with pytest.raises(ValueError):
        SamplingPattern(4, 4, [99])
    with pytest.raises(ValueError):
        masked_dft(SamplingPattern(4, 4, []))


def test_masked_dft_nonexpansive():
    pattern = gaussian_random_pattern(16, 16, 0.4, seed=2)
    op = masked_dft(pattern)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.standard_normal(256)
        assert np.linalg.norm(op.forward(x)) <= np.linalg.norm(x) + 1e-10


def reference_pattern(kind, rows, cols, rng):
    """Full, partial, DC/Nyquist-column or mirror-closed frequency set."""
    n = rows * cols
    ky, kx = np.divmod(np.arange(n), cols)
    if kind == "full":
        return full_pattern(rows, cols)
    if kind == "partial":
        return SamplingPattern(rows, cols, rng.choice(n, n // 3, replace=False))
    if kind == "dc_nyquist":
        # DC plus half the bins of column 0 and of column cols // 2 (the
        # Nyquist column for even cols): both ends of the stored half
        edge = np.flatnonzero((kx == 0) | (kx == cols // 2))
        pick = rng.choice(edge, edge.size // 2, replace=False)
        return SamplingPattern(rows, cols, np.append(pick, 0))
    # random bins k together with their mirrors -k
    pick = rng.choice(n, n // 4, replace=False)
    mirror = (-ky[pick] % rows) * cols + (-kx[pick] % cols)
    return SamplingPattern(rows, cols, np.concatenate([pick, mirror]))


@pytest.mark.parametrize("rows, cols", [(8, 8), (7, 9), (16, 10), (9, 16)])
@pytest.mark.parametrize("kind", ["full", "partial", "dc_nyquist", "mirrored"])
def test_masked_dft_matches_complex_fft_reference(rows, cols, kind):
    rng = np.random.default_rng(rows * cols)
    pattern = reference_pattern(kind, rows, cols, rng)
    op = masked_dft(pattern)
    m = pattern.n_selected
    x = rng.standard_normal(rows * cols)
    y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    expected = np.fft.fft2(x.reshape(rows, cols), norm="ortho").ravel()[pattern.indices]
    np.testing.assert_allclose(op.forward(x), expected, rtol=0, atol=1e-12)
    zero_filled = np.zeros(rows * cols, dtype=complex)
    zero_filled[pattern.indices] = y
    expected = np.real(np.fft.ifft2(zero_filled.reshape(rows, cols), norm="ortho"))
    back = op.adjoint(y)
    assert back.dtype == np.float64
    np.testing.assert_allclose(back, expected.ravel(), rtol=0, atol=1e-12)
    with pytest.raises(TypeError):
        op.forward(x + 1j * x)


def folded_adjoint(pattern, conj):
    """Real adjoint of the masked DFT, folding y into the half spectrum."""
    rows, cols = pattern.rows, pattern.cols
    half_cols = cols // 2 + 1
    ky, kx = np.divmod(pattern.indices, cols)
    direct = kx < half_cols
    mirror = -kx % cols < half_cols
    assert mirror.any() and not mirror.all()

    def adjoint(y):
        half = np.zeros((rows, half_cols), dtype=complex)
        half[ky[direct], kx[direct]] = 0.5 * y[direct]
        folded = np.conj(y[mirror]) if conj else y[mirror]
        half[-ky[mirror] % rows, -kx[mirror] % cols] += 0.5 * folded
        return np.fft.irfft2(half, s=(rows, cols), norm="ortho").ravel()

    return adjoint


@pytest.mark.parametrize("conj", [True, False])
def test_dot_test_on_real_images_catches_a_missing_conj(conj):
    pattern = gaussian_random_pattern(8, 8, 0.5, seed=11)
    op = masked_dft(pattern)
    folded = LinearMap(op.in_dim, op.out_dim, op.forward,
                       folded_adjoint(pattern, conj), complex_output=True)
    defect = dot_test(folded, n_probes=20, seed=5)
    if conj:
        assert defect < 1e-10
    else:
        assert defect > 1e-3


# ---------------------------------------------------------------------------
# multicoil

def test_multicoil_single_unit_coil_reduces_to_masked_dft():
    pattern = gaussian_random_pattern(8, 8, 0.5, seed=4)
    single = masked_dft(pattern)
    multi = multicoil_map([pattern], [np.ones((8, 8))])
    rng = np.random.default_rng(6)
    x = rng.standard_normal(64)
    np.testing.assert_allclose(multi.forward(x), single.forward(x), atol=1e-14)


def test_multicoil_two_unit_coils_stack():
    pattern = gaussian_random_pattern(8, 8, 0.5, seed=4)
    multi = multicoil_map([pattern, pattern], [np.ones((8, 8))] * 2)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(64)
    out = multi.forward(x)
    m = pattern.n_selected
    np.testing.assert_allclose(out[:m], out[m:], atol=1e-14)


def test_multicoil_dot_test_four_coils():
    patterns = [gaussian_random_pattern(8, 8, 0.4, seed=s) for s in range(4)]
    op = multicoil_map(patterns, coil_sensitivities(8, 8, 4))
    assert dot_test(op, n_probes=20, seed=9) < 1e-10


def test_multicoil_complex_sensitivities_match_fft_reference():
    rng = np.random.default_rng(21)
    patterns = [gaussian_random_pattern(8, 8, 0.5, seed=s) for s in range(2)]
    sens = [rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)),
            1j * rng.standard_normal((8, 8))]
    op = multicoil_map(patterns, sens)
    x = rng.standard_normal(64)
    y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
    expected_fwd, expected_adj, start = [], np.zeros(64), 0
    for p, s in zip(patterns, sens):
        spec = np.fft.fft2(s * x.reshape(8, 8), norm="ortho")
        expected_fwd.append(spec.ravel()[p.indices])
        zero_filled = np.zeros(64, dtype=complex)
        zero_filled[p.indices] = y[start:start + p.n_selected]
        start += p.n_selected
        back = np.conj(s) * np.fft.ifft2(zero_filled.reshape(8, 8), norm="ortho")
        expected_adj += np.real(back).ravel()
    np.testing.assert_allclose(op.forward(x), np.concatenate(expected_fwd),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(op.adjoint(y), expected_adj, rtol=0, atol=1e-12)
    assert dot_test(op, n_probes=20, seed=4) < 1e-10


def test_multicoil_dimension_mismatch():
    pattern = gaussian_random_pattern(8, 8, 0.5, seed=4)
    with pytest.raises(ValueError):
        multicoil_map([pattern], [np.ones((4, 4))])
    with pytest.raises(ValueError):
        multicoil_map([pattern, pattern], [np.ones((8, 8))])


def test_multicoil_normalized_profiles_nonexpansive():
    patterns = [gaussian_random_pattern(8, 8, 0.6, seed=s) for s in range(4)]
    op = multicoil_map(patterns, coil_sensitivities(8, 8, 4))
    assert op.norm_bound <= 1.0 + 1e-12
    rng = np.random.default_rng(13)
    for _ in range(5):
        x = rng.standard_normal(64)
        assert np.linalg.norm(op.forward(x)) <= np.linalg.norm(x) + 1e-10


# ---------------------------------------------------------------------------
# Db8 wavelets

def test_db8_parseval():
    op = db8_analysis(16, 16, 2)
    rng = np.random.default_rng(21)
    for _ in range(10):
        x = rng.standard_normal(256)
        assert np.linalg.norm(op.forward(x)) == pytest.approx(
            np.linalg.norm(x), abs=1e-10)


def test_db8_constant_image_has_zero_details():
    rows = cols = 32
    op = db8_analysis(rows, cols, 3)
    coeffs = op.forward(np.full(rows * cols, 3.7)).reshape(rows, cols)
    coarse = coeffs[: rows >> 3, : cols >> 3].copy()
    details = coeffs.copy()
    details[: rows >> 3, : cols >> 3] = 0.0
    assert np.abs(details).max() < 1e-10
    # coarse block carries all the energy of the constant
    assert np.linalg.norm(coarse) == pytest.approx(3.7 * 32, abs=1e-9)


def test_db8_perfect_reconstruction():
    op = db8_analysis(16, 16, 2)
    rng = np.random.default_rng(22)
    x = rng.standard_normal(256)
    np.testing.assert_allclose(op.adjoint(op.forward(x)), x, atol=1e-10)


def test_db8_dot_test():
    op = db8_analysis(16, 16, 2)
    assert dot_test(op, n_probes=20, seed=3) < 1e-10


@pytest.mark.parametrize("rows, cols, levels", [
    (2, 2, 1),     # the 16 taps wrap 8 times around each axis
    (8, 8, 3),
    (16, 32, 2),
    (32, 16, 3),
])
def test_db8_matches_filter_bank_oracle(rows, cols, levels):
    op = db8_analysis(rows, cols, levels)
    rng = np.random.default_rng(rows * 100 + cols)
    x = rng.standard_normal(rows * cols)
    w = rng.standard_normal(rows * cols)
    want_fwd = filter_bank_2d(x, rows, cols, levels, _DB8_LO, _DB8_HI)
    want_adj = filter_bank_2d(w, rows, cols, levels, _DB8_LO, _DB8_HI,
                              adjoint=True)
    np.testing.assert_allclose(op.forward(x), want_fwd, rtol=0, atol=1e-12)
    np.testing.assert_allclose(op.adjoint(w), want_adj, rtol=0, atol=1e-12)


def test_db8_filters_moments_and_dc_gain():
    t = np.arange(_DB8_HI.size, dtype=float)
    for p in range(8):
        moment = np.sum(t ** p * _DB8_HI)
        assert abs(moment) <= 1e-9 * np.sum(t ** p * np.abs(_DB8_HI)), p
    assert np.sum(_DB8_LO) == pytest.approx(np.sqrt(2.0), abs=1e-13)
    # the 8th moment does not vanish: exactly eight vanishing moments
    assert abs(np.sum(t ** 8 * _DB8_HI)) > 1e-6 * np.sum(t ** 8 * np.abs(_DB8_HI))


def test_db8_rejects_indivisible_dims():
    with pytest.raises(ValueError):
        db8_analysis(12, 16, 3)


def test_db8_nonexpansive():
    op = db8_analysis(16, 16, 1)
    rng = np.random.default_rng(30)
    for _ in range(10):
        x = rng.standard_normal(256)
        assert np.linalg.norm(op.forward(x)) <= np.linalg.norm(x) + 1e-10


# ---------------------------------------------------------------------------
# inpainting

def square_mask(rows, cols, r0, r1, c0, c1):
    img = np.zeros((rows, cols), dtype=bool)
    img[r0:r1, c0:c1] = True
    return PixelMask.from_boolean(img)


def test_inpainting_preserves_constants():
    mask = square_mask(12, 12, 4, 7, 5, 8)
    op = build_inpainting(mask)
    comp = mask.complement()
    out = op.forward(np.full(comp.n_selected, 2.5))
    np.testing.assert_allclose(out, 2.5, atol=1e-12)


def test_inpainting_zero_input_gives_zeros():
    mask = square_mask(12, 12, 4, 7, 5, 8)
    op = build_inpainting(mask)
    out = op.forward(np.zeros(mask.complement().n_selected))
    np.testing.assert_array_equal(out, 0.0)


def test_inpainting_hand_computed_3x3():
    # 5x5 image, single masked pixel at (2, 2), one 3x3 kernel, sigma 1
    mask = PixelMask(5, 5, [12])
    op = build_inpainting(mask, kernel_sizes=[3], kernel_sigmas=[1.0])
    rng = np.random.default_rng(17)
    img = rng.standard_normal((5, 5))
    # oracle: explicit normalized convolution over the 8 neighbours
    weights = {}
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == dx == 0:
                continue
            weights[(2 + dy, 2 + dx)] = np.exp(-(dy ** 2 + dx ** 2) / 2.0)
    total = sum(weights.values())
    expected = sum(w * img[pos] for pos, w in weights.items()) / total
    comp = mask.complement()
    got = op.forward(img.ravel()[comp.indices])
    assert got[0] == pytest.approx(expected, abs=1e-12)


def test_inpainting_rows_nonnegative_sum_to_one():
    mask = square_mask(16, 16, 5, 10, 6, 11)
    op = build_inpainting(mask)
    dense = op.matrix.toarray()
    assert (dense >= 0).all()
    np.testing.assert_allclose(dense.sum(axis=1), 1.0, atol=1e-12)


def test_inpainting_mask_too_large_for_kernels():
    mask = square_mask(30, 30, 1, 29, 1, 29)
    with pytest.raises(ValueError, match="mask too large"):
        build_inpainting(mask, kernel_sizes=[3])


def test_inpainting_rejects_border_mask():
    mask = square_mask(8, 8, 0, 2, 3, 5)
    with pytest.raises(ValueError, match="strictly inside"):
        build_inpainting(mask)


def test_inpainting_dot_test():
    mask = square_mask(12, 12, 4, 7, 5, 8)
    op = build_inpainting(mask)
    assert dot_test(op, n_probes=20, seed=8) < 1e-10


def test_inpainting_partial_kernel_coverage_keeps_row_sums():
    # centre of a 7x7 mask is out of reach of the 3x3 kernel but not 11x11
    mask = square_mask(20, 20, 6, 13, 6, 13)
    op = build_inpainting(mask, kernel_sizes=[3, 11])
    dense = op.matrix.toarray()
    np.testing.assert_allclose(dense.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# residual map

def test_residual_zero_for_consistent_image():
    mask = square_mask(10, 10, 3, 6, 3, 6)
    op = build_inpainting(mask)
    res = residual_map(mask, op)
    # constants are reproduced by the inpainting, so the residual vanishes
    out = res.forward(np.full(100, 1.3))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_residual_zero_image():
    mask = square_mask(10, 10, 3, 6, 3, 6)
    res = residual_map(mask, build_inpainting(mask))
    np.testing.assert_array_equal(res.forward(np.zeros(100)), 0.0)


def test_residual_matches_dense_assembly():
    mask = square_mask(8, 8, 3, 5, 3, 5)
    inpaint = build_inpainting(mask, kernel_sizes=[3, 5])
    res = residual_map(mask, inpaint)
    # oracle: assemble M and L * Mc as dense matrices and subtract
    comp = mask.complement()
    n = 64
    m_dense = np.zeros((mask.n_selected, n))
    m_dense[np.arange(mask.n_selected), mask.indices] = 1.0
    mc_dense = np.zeros((comp.n_selected, n))
    mc_dense[np.arange(comp.n_selected), comp.indices] = 1.0
    l_dense = dense_from_map(inpaint)
    oracle = m_dense - l_dense @ mc_dense
    rng = np.random.default_rng(5)
    x = rng.standard_normal(n)
    np.testing.assert_allclose(res.forward(x), oracle @ x, atol=1e-10)
    np.testing.assert_allclose(dense_from_map(res), oracle, atol=1e-10)


def test_residual_dot_test():
    mask = square_mask(10, 10, 3, 6, 3, 6)
    res = residual_map(mask, build_inpainting(mask))
    assert dot_test(res, n_probes=20, seed=12) < 1e-10


def test_mask_select_dot_test_and_partition():
    mask = square_mask(6, 6, 2, 4, 2, 4)
    sel = mask_select(mask)
    csel = mask_select(mask.complement())
    assert dot_test(sel, n_probes=20, seed=2) < 1e-12
    x = np.random.default_rng(3).standard_normal(36)
    np.testing.assert_array_equal(
        sel.adjoint(sel.forward(x)) + csel.adjoint(csel.forward(x)), x)
