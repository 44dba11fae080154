import math

import numpy as np
import pytest

from hybridseg import losses as L
from hybridseg import tensor as T
from hybridseg.tensor import NonFiniteError, ShapeError, Tensor, grad_check

import loss_oracles as LO

# ---------------------------------------------------------------------------
# oracles


def dice_loss_oracle(s, g, w=1.0, xi=1e-6):
    num = 2.0 * w * float((s * g).sum())
    den = float((s * s).sum() + (g * g).sum())
    return 1.0 - num / den + xi


def jaccard_loss_oracle(s, g, xi=1e-6):
    inter = float((s * g).sum())
    iou = inter / (float(s.sum() + g.sum()) - inter)
    union_bin = (s >= 0.5) | (g >= 0.5)
    rows = np.flatnonzero(union_bin.any(axis=1))
    cols = np.flatnonzero(union_bin.any(axis=0))
    soft_union = s + g - s * g
    box_mass = float(
        soft_union[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1].sum()
    )
    box_area = float((rows[-1] + 1 - rows[0]) * (cols[-1] + 1 - cols[0]))
    return 1.0 - iou - (box_area - box_mass) / box_area + xi


def level_set_oracle(g):
    """All-pairs nearest-boundary search; exact integer-radical arithmetic."""
    h, w = g.shape
    boundary = []
    for i in range(h):
        for j in range(w):
            if g[i, j] == 1:
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ni, nj = i + di, j + dj
                    if 0 <= ni < h and 0 <= nj < w and g[ni, nj] == 0:
                        boundary.append((i, j))
                        break
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            d = min(
                math.sqrt((i - bi) ** 2 + (j - bj) ** 2) for bi, bj in boundary
            )
            out[i, j] = -d if g[i, j] == 1 else d
    return out


def random_mask(rng, h, w):
    """Binary mask with both phases present."""
    while True:
        g = (rng.random((h, w)) < rng.uniform(0.2, 0.8)).astype(float)
        if 0 < g.sum() < g.size:
            return g


def soft_probs(rng, shape):
    """Probabilities bounded away from 0, 1, and the 0.5 binarization edge."""
    u = rng.random(shape)
    return np.where(u < 0.5, 0.05 + 0.8 * u, 0.55 + 0.8 * (u - 0.5))


class TestDiceLoss:
    def test_perfect_overlap(self):
        g = np.zeros((4, 4))
        g[1:3, 1:3] = 1.0
        loss = LO.dice_loss(Tensor(g), Tensor(g), xi=1e-6)
        assert abs(loss.item() - 1e-6) <= 1e-15

    def test_zero_overlap(self):
        g = np.zeros((4, 4))
        g[0, 0] = 1.0
        loss = LO.dice_loss(Tensor(np.zeros((4, 4))), Tensor(g), xi=1e-6)
        assert abs(loss.item() - (1.0 + 1e-6)) <= 1e-15

    def test_against_direct_summation(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            s = soft_probs(rng, (4, 4))
            g = random_mask(rng, 4, 4)
            loss = LO.dice_loss(Tensor(s), Tensor(g))
            assert abs(loss.item() - dice_loss_oracle(s, g)) <= 1e-12

    def test_class_weights_multiclass(self):
        rng = np.random.default_rng(1)
        s = np.stack([soft_probs(rng, (4, 4)) for _ in range(2)])
        g = np.stack([random_mask(rng, 4, 4) for _ in range(2)])
        loss = LO.dice_loss(Tensor(s), Tensor(g), class_weights=[0.3, 0.7])
        expect = (
            dice_loss_oracle(s[0], g[0], w=0.3, xi=0)
            + dice_loss_oracle(s[1], g[1], w=0.7, xi=0)
            - 1.0  # oracle adds the "1 -" per class; combined form has one
            + 1e-6
        )
        assert abs(loss.item() - expect) <= 1e-12

    def test_probability_range_enforced(self):
        with pytest.raises(ValueError):
            LO.dice_loss(Tensor(np.full((2, 2), 1.5)), Tensor(np.ones((2, 2))))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            LO.dice_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 3))))

    def test_degenerate_class_is_error_surface(self):
        with pytest.raises(NonFiniteError):
            LO.dice_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2))))

    def test_grad_check(self):
        rng = np.random.default_rng(2)
        s = Tensor(soft_probs(rng, (4, 4)), requires_grad=True)
        g = Tensor(random_mask(rng, 4, 4))

        def f(*_):
            return LO.dice_loss(s, g)

        assert grad_check(f, [s], eps=1e-5).max_rel_error <= 1e-4


class TestJaccardLoss:
    def test_mask_filling_its_box(self):
        g = np.zeros((6, 6))
        g[2:5, 1:4] = 1.0  # rectangle fills its bounding box exactly
        loss = LO.jaccard_loss(Tensor(g), Tensor(g), xi=1e-6)
        assert abs(loss.item() - 1e-6) <= 1e-12

    def test_disk_inside_box(self):
        yy, xx = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        disk = (((yy - 3.5) ** 2 + (xx - 3.5) ** 2) <= 2.5**2).astype(float)
        loss = LO.jaccard_loss(Tensor(disk), Tensor(disk), xi=1e-6)
        rows = np.flatnonzero(disk.any(axis=1))
        cols = np.flatnonzero(disk.any(axis=0))
        box_area = (rows[-1] + 1 - rows[0]) * (cols[-1] + 1 - cols[0])
        expect = 1e-6 - (box_area - disk.sum()) / box_area
        assert abs(loss.item() - expect) <= 1e-12
        assert abs(loss.item() - jaccard_loss_oracle(disk, disk)) <= 1e-12

    def test_disjoint_masks(self):
        s = np.zeros((8, 8))
        g = np.zeros((8, 8))
        s[1:3, 1:3] = 1.0
        g[5:7, 5:7] = 1.0
        loss = LO.jaccard_loss(Tensor(s), Tensor(g))
        assert abs(loss.item() - jaccard_loss_oracle(s, g)) <= 1e-12
        box_term = jaccard_loss_oracle(s, g, xi=0.0) - 1.0 + 0.0  # -box fraction
        assert loss.item() >= 1.0 + box_term - 1e-12

    def test_random_against_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = soft_probs(rng, (8, 8))
            g = random_mask(rng, 8, 8)
            loss = LO.jaccard_loss(Tensor(s), Tensor(g))
            assert abs(loss.item() - jaccard_loss_oracle(s, g)) <= 1e-12

    def test_empty_union_boxes_whole_plane(self):
        # no pixel reaches 0.5: the box is the whole plane, iou is 0 and the
        # box term is the uncovered fraction (16 - 3.2) / 16
        loss = LO.jaccard_loss(
            Tensor(np.full((4, 4), 0.2)), Tensor(np.zeros((4, 4)))
        )
        assert abs(loss.item() - (0.2 + 1e-6)) <= 1e-12
        assert L._union_bbox(np.zeros((3, 5)), np.zeros((3, 5))) == (0, 3, 0, 5)

    def test_grad_check(self):
        rng = np.random.default_rng(4)
        s = Tensor(soft_probs(rng, (6, 6)), requires_grad=True)
        g = Tensor(random_mask(rng, 6, 6))

        def f(*_):
            return LO.jaccard_loss(s, g)

        assert grad_check(f, [s], eps=1e-5).max_rel_error <= 1e-4


class TestLevelSet:
    def test_half_grid_cell_by_cell(self):
        g = np.zeros((4, 4))
        g[:, 2:] = 1.0
        lsm = L.level_set(g)
        assert np.array_equal(lsm.values, level_set_oracle(g))
        # inside column adjacent to the boundary column sits at -1
        assert np.all(lsm.values[:, 3] == -1.0)
        assert np.all(lsm.values[:, 2] == 0.0)
        assert np.all(lsm.values[:, 1] == 1.0)
        assert np.all(lsm.values[:, 0] == 2.0)

    def test_single_pixel_distance(self):
        g = np.zeros((5, 5))
        g[2, 2] = 1.0
        lsm = L.level_set(g)
        assert lsm.values[2, 4] == 2.0
        assert lsm.values[2, 2] == 0.0
        assert lsm.values[0, 0] == math.sqrt(8.0)

    def test_sign_flips_at_boundary(self):
        rng = np.random.default_rng(5)
        g = random_mask(rng, 8, 8)
        vals = L.level_set(g).values
        assert np.all(vals[g == 1] <= 0.0)
        assert np.all(vals[g == 0] > 0.0)

    def test_matches_all_pairs_oracle_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            g = random_mask(rng, 8, 8)
            assert np.array_equal(L.level_set(g).values, level_set_oracle(g))

    def test_degenerate_masks_give_zero_map(self):
        # no foreground or no background: no boundary, an all-zero map
        for g in (np.ones((4, 5)), np.zeros((4, 5))):
            vals = L.level_set(g).values
            assert vals.shape == (4, 5) and not vals.any()
        with pytest.raises(ValueError):
            L.level_set(np.full((4, 4), 0.5))


class TestBoundaryLoss:
    def test_zero_prediction(self):
        g = np.zeros((4, 4))
        g[:, 2:] = 1.0
        loss = LO.boundary_loss(Tensor(np.zeros((4, 4))), L.level_set(g))
        assert loss.item() == 0.0

    def test_mass_inside_beats_mass_outside(self):
        g = np.zeros((4, 4))
        g[:, 2:] = 1.0
        lsm = L.level_set(g)
        inside = np.zeros((4, 4))
        inside[:, 3] = 1.0
        outside = np.zeros((4, 4))
        outside[:, 0] = 1.0
        assert (
            LO.boundary_loss(Tensor(inside), lsm).item()
            < LO.boundary_loss(Tensor(outside), lsm).item()
        )

    def test_half_grid_hand_value(self):
        g = np.zeros((4, 4))
        g[:, 2:] = 1.0
        # sum of signed distances under S = G: 4 rows * (0 + -1) = -4; /16
        loss = LO.boundary_loss(Tensor(g), L.level_set(g))
        assert abs(loss.item() - (-0.25)) <= 1e-15

    def test_linearity(self):
        rng = np.random.default_rng(7)
        g = random_mask(rng, 8, 8)
        lsm = L.level_set(g)
        s = rng.random((8, 8))
        base = LO.boundary_loss(Tensor(s), lsm).item()
        for alpha in (0.0, 0.25, 0.5, 1.0):
            scaled = LO.boundary_loss(Tensor(alpha * s), lsm).item()
            assert abs(scaled - alpha * base) <= 1e-12

    def test_shape_mismatch(self):
        g = np.zeros((4, 4))
        g[0, 0] = 1.0
        with pytest.raises(ShapeError):
            LO.boundary_loss(Tensor(np.zeros((5, 5))), L.level_set(g))

    def test_grad_check(self):
        rng = np.random.default_rng(8)
        g = random_mask(rng, 6, 6)
        lsm = L.level_set(g)
        s = Tensor(soft_probs(rng, (6, 6)), requires_grad=True)

        def f(*_):
            return LO.boundary_loss(s, lsm)

        assert grad_check(f, [s], eps=1e-5).max_rel_error <= 1e-4


class TestSchedule:
    def test_paper_checkpoints(self):
        sched = L.LossSchedule()
        assert sched.lambda_b(0) == 1.0
        assert sched.lambda_b(30) == 0.70
        assert sched.lambda_b(99) == 0.01
        assert sched.lambda_b(200) == 0.01

    def test_nonincreasing_floored(self):
        sched = L.LossSchedule()
        vals = [sched.lambda_b(e) for e in range(0, 300)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert min(vals) == sched.lambda_b_floor

    def test_negative_epoch(self):
        with pytest.raises(ValueError):
            L.LossSchedule().lambda_b(-1)


class TestCompositeLoss:
    def test_dice_only_equals_dice(self):
        rng = np.random.default_rng(9)
        s = soft_probs(rng, (6, 6))
        g = random_mask(rng, 6, 6)
        total, breakdown = L.composite_loss(
            Tensor(s[None, None]), Tensor(g[None, None]), L.LossSchedule(),
            epoch=0, components=("dice",)
        )
        assert total.item() == LO.dice_loss(Tensor(s), Tensor(g)).item()
        assert set(breakdown) == {"lambda_b", "dice"}

    def test_full_combination(self):
        rng = np.random.default_rng(10)
        s = Tensor(soft_probs(rng, (1, 1, 6, 6)))
        gm = random_mask(rng, 6, 6)
        g = Tensor(gm[None, None])
        sched = L.LossSchedule()
        lsm = L.level_set(gm)
        total, parts = L.composite_loss(
            s, g, sched, epoch=30, level_sets=lsm.values[None, None]
        )
        expect = (
            sched.lambda_d * parts["dice"]
            + sched.lambda_j * parts["jaccard"]
            + sched.lambda_b(30) * parts["boundary"]
        )
        assert abs(total.item() - expect) <= 1e-12
        assert parts["lambda_b"] == sched.lambda_b(30)

    def test_unknown_component(self):
        with pytest.raises(ValueError):
            L.composite_loss(
                Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 2, 2))),
                L.LossSchedule(), 0, components=("focal",),
            )

    def test_multiclass_path(self):
        rng = np.random.default_rng(11)
        g_lab = np.zeros((8, 8))
        g_lab[2:5, 2:5] = 1
        g_lab[6:8, 0:3] = 2
        onehot = np.stack([(g_lab == k).astype(float) for k in range(3)])
        logits = rng.random((3, 8, 8))
        probs = logits / logits.sum(axis=0, keepdims=True)
        level_sets = np.stack([L.level_set(onehot[k]).values for k in (1, 2)])
        total, parts = L.composite_loss(
            Tensor(probs[None]), Tensor(onehot[None]), L.LossSchedule(),
            epoch=0, level_sets=level_sets[None],
        )
        assert np.isfinite(total.item())
        assert {"dice", "jaccard", "boundary"} <= set(parts)
