import inspect

import numpy as np
import pytest

from buqo.io import StructureSpec
from buqo.operators import PixelMask
from buqo.prox import IntervalBox, L1Levelset, project_box
from buqo.structure_sets import (
    BackgroundSet,
    LocalizedSet,
    StructureSet,
    background_mask,
    build_background_set,
    build_localized_set,
    build_structure_set,
    project_background,
)

from instances import small_localized_set, small_region
from oracles import subgradient_project_localized


# ---------------------------------------------------------------------------
# localized set construction

def test_localized_constant_image_gives_zero_tau():
    x = np.full(64, 1.7)
    mask = PixelMask(8, 8, [27, 28])
    sset = build_localized_set(x, mask, kernel_sizes=[3])
    np.testing.assert_allclose(sset.surrogate, x, atol=1e-12)
    assert float(np.asarray(sset.interval.hi)) == pytest.approx(0.0, abs=1e-12)
    assert sset.residual(sset.surrogate) <= 1e-8


def test_localized_surrogate_membership_fixed_seed():
    sset, x_map, mask = small_localized_set(seed=21, rows=8, cols=8)
    assert sset.residual(sset.surrogate) <= 1e-8
    comp = mask.complement()
    np.testing.assert_array_equal(sset.surrogate[comp.indices],
                                  x_map[comp.indices])


def test_localized_tau_matches_direct_statistic():
    rng = np.random.default_rng(31)
    rows = cols = 16
    x_map = np.abs(rng.standard_normal(rows * cols))
    mask = PixelMask(rows, cols, [5 * cols + 5, 5 * cols + 6, 6 * cols + 5])
    sset = build_localized_set(x_map, mask)
    comp = mask.complement()
    inpainted = sset.inpaint.forward(x_map[comp.indices])
    expected = np.std(x_map[mask.indices] - inpainted)
    assert float(np.asarray(sset.interval.hi)) == pytest.approx(expected,
                                                                rel=1e-12)
    assert float(np.asarray(sset.interval.lo)) == pytest.approx(-expected,
                                                                rel=1e-12)


def test_localized_theta_is_inpainted_patch_norm():
    sset, x_map, mask = small_localized_set(seed=22)
    comp = mask.complement()
    inpainted = sset.inpaint.forward(x_map[comp.indices])
    assert sset.energy_ball.radius == pytest.approx(
        np.linalg.norm(inpainted) * (1 + 1e-6), rel=1e-9)


def test_localized_rejects_infeasible_surrogate():
    x = np.full(64, 1.0)
    x[3] = -2.0  # negative pixel outside the mask survives into the surrogate
    mask = PixelMask(8, 8, [27, 28])
    with pytest.raises(ValueError, match="surrogate"):
        build_localized_set(x, mask, kernel_sizes=[3])


def test_localized_residual_ball_excess_is_relative_to_theta():
    sset, x_map, mask = small_localized_set(seed=21)
    theta = sset.energy_ball.radius
    assert theta < 1.0
    # push the masked pixels radially 1 % of theta past the energy cap,
    # a move the inpainting band and nonnegativity still allow
    x = sset.surrogate.copy()
    patch = x[mask.indices]
    x[mask.indices] = patch * (1.01 * theta / np.linalg.norm(patch))
    assert sset.interval.violation(sset.residual_op.forward(x)) == 0.0
    assert x.min() >= 0.0
    assert sset.residual(x) == pytest.approx(0.01, rel=1e-9)


def test_structure_sets_refuse_a_surrogate_outside():
    x = np.zeros(64 * 64)
    x[100] = 1.0
    sset = build_background_set(x, 64, 64)
    outside = sset.surrogate.copy()
    outside[sset.mask.indices[0]] = -1.0
    with pytest.raises(ValueError, match="surrogate violates the .* set"):
        BackgroundSet(mask=sset.mask, interval=sset.interval,
                      surrogate=outside)


# ---------------------------------------------------------------------------
# background set construction

def test_background_zero_image_degenerate():
    x = np.zeros(64 * 64)
    sset = build_background_set(x, 64, 64)
    assert sset.mask.n_selected == 64 * 64
    assert float(np.asarray(sset.interval.hi)) == 0.0
    np.testing.assert_array_equal(sset.surrogate, 0.0)


def test_background_defaults_match_protocol():
    sig = inspect.signature(build_background_set)
    assert sig.parameters["threshold_frac"].default == 1e-3
    assert sig.parameters["dilation_radius"].default == 7
    assert sig.parameters["vartheta"].default == 1e-2


def test_background_dilation_disk_brute_force():
    rows = cols = 16
    # a centred pixel, and one whose disk the image corner clips
    for (py, px), radius, size in [((8, 8), 2, 13), ((1, 0), 3, 14)]:
        x = np.zeros((rows, cols))
        x[py, px] = 1.0
        mask = background_mask(x.ravel(), rows, cols, threshold_frac=0.5,
                               dilation_radius=radius)
        removed = np.setdiff1d(np.arange(rows * cols), mask.indices)
        # oracle: brute-force enumeration of the discrete disk in the grid
        disk = {(py + dy) * cols + (px + dx)
                for dy in range(-radius, radius + 1)
                for dx in range(-radius, radius + 1)
                if dy * dy + dx * dx <= radius * radius
                and 0 <= py + dy < rows and 0 <= px + dx < cols}
        assert len(disk) == size
        assert set(removed.tolist()) == disk


def test_background_mask_refuses_negative_radius():
    x = np.zeros(16 * 16)
    x[8 * 16 + 8] = 1.0
    with pytest.raises(ValueError, match="dilation_radius"):
        background_mask(x, 16, 16, dilation_radius=-1)


def test_background_mask_partitions_grid():
    rng = np.random.default_rng(41)
    x = np.abs(rng.standard_normal(64 * 64)) * 1e-5
    x[2000] = 1.0
    sset = build_background_set(x, 64, 64)
    comp = sset.mask.complement()
    assert sset.mask.n_selected + comp.n_selected == 64 * 64
    assert np.intersect1d(sset.mask.indices, comp.indices).size == 0


def test_background_tau_bar_formula():
    rng = np.random.default_rng(42)
    x = np.abs(rng.standard_normal(64 * 64)) * 1e-5
    x[1000] = 1.0
    sset = build_background_set(x, 64, 64, vartheta=1e-2)
    expected = 1e-2 * np.linalg.norm(x[sset.mask.indices]) / sset.mask.n_selected
    assert float(np.asarray(sset.interval.hi)) == pytest.approx(expected,
                                                                rel=1e-12)


def test_background_empty_mask_errors():
    x = np.ones(64 * 64) * 0.5
    x[0] = 1.0
    # everything is above threshold, dilation covers the grid
    with pytest.raises(ValueError, match="empty"):
        build_background_set(x, 64, 64, threshold_frac=0.4)


# ---------------------------------------------------------------------------
# projections

def test_project_localized_member_fixed_point():
    sset, x_map, _ = small_localized_set(seed=23)
    out = sset.projector(tol=1e-10, max_iters=50000)(sset.surrogate)
    assert np.linalg.norm(out - sset.surrogate) <= 1e-6 * max(
        1.0, np.linalg.norm(sset.surrogate))


def test_project_localized_membership_contract():
    sset, x_map, _ = small_localized_set(seed=24)
    rng = np.random.default_rng(0)
    z = x_map + rng.standard_normal(16) * 2.0
    out = sset.projector(tol=1e-10, max_iters=100000)(z)
    assert sset.residual(out) <= 1e-6


def test_project_localized_matches_subgradient_oracle():
    sset, x_map, _ = small_localized_set(seed=25)
    rng = np.random.default_rng(1)
    z = x_map + rng.standard_normal(16) * 1.2
    got = sset.projector(tol=1e-12, max_iters=200000)(z)
    oracle = subgradient_project_localized(sset, z, iters=300000)
    assert np.linalg.norm(got - oracle) / np.linalg.norm(got) <= 1e-4


def test_project_localized_nonexpansive():
    sset, x_map, _ = small_localized_set(seed=26)
    rng = np.random.default_rng(2)
    for _ in range(3):
        a = x_map + rng.standard_normal(16)
        b = x_map + rng.standard_normal(16)
        pa = sset.projector(tol=1e-11, max_iters=100000)(a)
        pb = sset.projector(tol=1e-11, max_iters=100000)(b)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-8


def test_localized_convexity_witness():
    sset, x_map, _ = small_localized_set(seed=27)
    rng = np.random.default_rng(3)
    u = sset.projector(tol=1e-12, max_iters=200000)(
        x_map + rng.standard_normal(16))
    v = sset.projector(tol=1e-12, max_iters=200000)(
        x_map + rng.standard_normal(16))
    for t in (0.25, 0.5, 0.75):
        assert sset.residual(t * u + (1 - t) * v) <= 1e-8


def test_structure_projector_warm_start_reuses_duals():
    sset, x_map, _ = small_localized_set(seed=28)
    rng = np.random.default_rng(4)
    z = x_map + rng.standard_normal(16) * 2.0
    proj = sset.projector(tol=1e-10, max_iters=100000)
    proj(z)
    cold_total = proj.inner_iterations
    second = proj(z + 1e-3 * rng.standard_normal(16))
    warm_iters = proj.inner_iterations - cold_total
    assert warm_iters < cold_total
    assert proj.converged
    assert sset.residual(second) <= 1e-6


def test_projector_blocks_hold_their_sets():
    # each block's dual step is built from the set it holds
    sset, _, _ = small_localized_set(seed=28)
    band, energy = sset.projector().blocks
    assert band.op is sset.residual_op and band.term is sset.interval
    assert energy.term is sset.energy_ball
    region, _, _ = small_region(seed=3)
    levelset, ball = region.projector().blocks
    p = region.problem
    assert levelset.op is p.psi
    assert levelset.term == L1Levelset(region.eta_tilde / region.lam)
    # the problem's data ball, folded by its masked DFT
    assert ball is p.fit
    op, center, offset, _ = p.phi.fold(p.data)
    assert ball.op is op
    np.testing.assert_array_equal(ball.term.center, center)
    assert ball.term.radius == p.epsilon and ball.term.offset == offset


def test_project_background_idempotent_on_member():
    rng = np.random.default_rng(4)
    x = np.abs(rng.standard_normal(64 * 64)) * 1e-5
    x[500] = 1.0
    sset = build_background_set(x, 64, 64)
    member = project_background(sset, rng.standard_normal(64 * 64))
    np.testing.assert_array_equal(project_background(sset, member), member)


def test_project_background_clipping_cases():
    x = np.zeros(64 * 64)
    x[100] = 1.0
    sset = build_background_set(x, 64, 64, vartheta=1e-2)
    tau_hi = float(np.asarray(sset.interval.hi))
    z = np.zeros(64 * 64)
    masked_pixel = sset.mask.indices[0]
    unmasked_pixel = sset.mask.complement().indices[0]
    z[masked_pixel] = 5.0
    z[unmasked_pixel] = -1.0
    out = project_background(sset, z)
    assert out[masked_pixel] == pytest.approx(tau_hi)
    assert out[unmasked_pixel] == 0.0


def test_project_background_componentwise_oracle():
    rng = np.random.default_rng(5)
    x = np.abs(rng.standard_normal(64 * 64)) * 1e-5
    x[1234] = 1.0
    sset = build_background_set(x, 64, 64)
    z = rng.standard_normal(64 * 64) * 0.3
    out = project_background(sset, z)
    # oracle: clip the two index groups independently
    tau_hi = float(np.asarray(sset.interval.hi))
    expected = z.copy()
    comp = sset.mask.complement()
    expected[sset.mask.indices] = np.clip(z[sset.mask.indices], 0.0, tau_hi)
    expected[comp.indices] = np.maximum(z[comp.indices], 0.0)
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_background_box_reproduces_the_clip_and_max():
    # one per-pixel box: [max(lo, 0), hi] on the mask, [0, inf) off it;
    # its projection is bit-identical to clipping the two pixel groups
    # apart, and its violation equals the two groups' worst excess
    rng = np.random.default_rng(8)
    x = bright_spot_image()
    built = build_background_set(x, 64, 64)
    for interval in (built.interval, IntervalBox(-0.5, 0.02),
                     IntervalBox(rng.uniform(-0.1, 0.01, built.mask.n_selected),
                                 0.03)):
        on = built.mask.indices
        lo = np.maximum(np.asarray(interval.lo, dtype=float), 0.0)
        hi = np.asarray(interval.hi, dtype=float)
        surrogate = built.surrogate.copy()
        surrogate[on] = lo
        sset = BackgroundSet(mask=built.mask, interval=interval,
                             surrogate=surrogate)
        for _ in range(5):
            z = rng.standard_normal(64 * 64) * 0.05
            expected = np.maximum(z, 0.0)
            expected[on] = np.clip(z[on], lo, hi)
            out = project_background(sset, z)
            assert out.tobytes() == expected.tobytes()
            np.testing.assert_array_equal(out, project_box(z, sset.box))
            below = float(np.max(-z, initial=0.0))
            outside = max(float(np.max(np.asarray(interval.lo) - z[on],
                                       initial=0.0)),
                          float(np.max(z[on] - hi, initial=0.0)))
            assert sset.residual(z) == max(below, outside)
            assert sset.residual(z) == sset.box.violation(z)


def test_project_background_nonexpansive():
    rng = np.random.default_rng(6)
    x = np.abs(rng.standard_normal(64 * 64)) * 1e-5
    x[999] = 1.0
    sset = build_background_set(x, 64, 64)
    for _ in range(10):
        a = rng.standard_normal(64 * 64)
        b = rng.standard_normal(64 * 64)
        assert (np.linalg.norm(project_background(sset, a)
                               - project_background(sset, b))
                <= np.linalg.norm(a - b) + 1e-12)


# ---------------------------------------------------------------------------
# one class per kind of set

def bright_spot_image(rows=64, cols=64, seed=7):
    rng = np.random.default_rng(seed)
    x = np.abs(rng.standard_normal(rows * cols)) * 1e-5
    x[(rows // 2) * cols + cols // 2] = 1.0
    return x


def test_builders_return_their_set_class():
    localized, _, _ = small_localized_set(seed=29)
    background = build_background_set(bright_spot_image(), 64, 64)
    assert type(localized) is LocalizedSet
    assert type(background) is BackgroundSet
    assert isinstance(localized, StructureSet)
    assert isinstance(background, StructureSet)


def test_background_set_has_no_localized_fields():
    sset = build_background_set(bright_spot_image(), 64, 64)
    for name in ("residual_op", "inpaint", "energy_ball"):
        assert not hasattr(sset, name)


def test_project_background_refuses_a_localized_set():
    sset, x_map, _ = small_localized_set(seed=30)
    with pytest.raises(ValueError, match="background"):
        project_background(sset, x_map)


def test_background_set_refuses_a_mask_on_another_grid():
    # the same pixel count: flat indices would fit the 16x16 image
    x = bright_spot_image(16, 16)
    with pytest.raises(ValueError, match="8x32 grid, the image on 16x16"):
        build_background_set(x, 16, 16, mask=PixelMask(8, 32, np.arange(10)))


def test_background_spec_builds_the_builder_set():
    x = bright_spot_image()
    params = {"threshold_frac": 0.05, "dilation_radius": 3}
    spec = StructureSpec("background", PixelMask(64, 64, []), dict(params))
    got = build_structure_set(x, spec)
    want = build_background_set(x, 64, 64, **params)
    assert type(got) is BackgroundSet
    np.testing.assert_array_equal(got.mask.indices, want.mask.indices)
    assert got.interval == want.interval
    np.testing.assert_array_equal(got.surrogate, want.surrogate)
