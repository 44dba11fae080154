"""Training loss: one batched weighted composite of region overlap (dice,
jaccard-with-box) and signed-distance boundary terms, with a per-epoch decay
schedule for the boundary weight.

The loss is a scalar Tensor, differentiable in the prediction S. Level-set
maps are plain arrays computed once per ground-truth mask; callers should
cache them across epochs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .metrics import sq_distance_to
from .tensor import ShapeError, Tensor


@dataclass
class LossSchedule:
    """Component weights; the boundary weight decays linearly per epoch to a
    floor while the region weights stay fixed."""

    lambda_d: float = 1.0
    lambda_j: float = 1.0
    lambda_b_initial: float = 1.0
    lambda_b_decay: float = 0.01
    lambda_b_floor: float = 0.01

    def lambda_b(self, epoch):
        if epoch < 0:
            raise ValueError("epoch must be >= 0")
        # rounding removes accumulated float drift so hundredth-step
        # schedules hit their nominal values exactly
        decayed = round(self.lambda_b_initial - self.lambda_b_decay * epoch, 12)
        return max(decayed, self.lambda_b_floor)


def _check_prob_mask(s, g):
    if s.shape != g.shape:
        raise ShapeError(f"prediction {s.shape} vs mask {g.shape}")
    if s.data.min() < 0.0 or s.data.max() > 1.0:
        raise ValueError("predictions must lie in [0, 1]")
    if not np.isin(g.data, (0.0, 1.0)).all():
        raise ValueError("ground truth must be binary")


def _union_bbox(s, g):
    """Tight box covering the union of the mask and the prediction >= 0.5;
    the whole plane when that union is empty, so that a near-zero prediction
    of an empty mask scores a jaccard term near xi."""
    union = (g >= 0.5) | (s >= 0.5)
    if not union.any():
        return 0, union.shape[0], 0, union.shape[1]
    rows = np.flatnonzero(union.any(axis=1))
    cols = np.flatnonzero(union.any(axis=0))
    return rows[0], rows[-1] + 1, cols[0], cols[-1] + 1


@dataclass
class LevelSetMap:
    """Per-pixel signed Euclidean distance to the mask's boundary pixels
    (foreground pixels with a background 4-neighbor): negative inside the
    mask, positive outside, zero exactly on the boundary set. All zero for a
    mask without foreground or without background."""

    values: np.ndarray


def boundary_pixels(g):
    """Foreground pixels of a binary mask with at least one background
    4-neighbor; image-edge neighbors do not count as background."""
    fg = g.astype(bool)
    bg_neighbor = np.zeros_like(fg)
    bg_neighbor[1:, :] |= ~fg[:-1, :]
    bg_neighbor[:-1, :] |= ~fg[1:, :]
    bg_neighbor[:, 1:] |= ~fg[:, :-1]
    bg_neighbor[:, :-1] |= ~fg[:, 1:]
    return fg & bg_neighbor


def level_set(g):
    """Exact signed Euclidean distance transform of a binary mask.

    Distances are measured to the boundary pixel set. A mask without
    foreground, or without background, has no boundary; its map is all zero,
    so that plane adds nothing to the boundary term (the convention of
    Kervadec et al., arXiv 1812.07032).
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2:
        raise ShapeError("level_set expects a 2-D mask")
    if not np.isin(g, (0.0, 1.0)).all():
        raise ValueError("level_set mask must be binary")
    fg_count = int(g.sum())
    if fg_count == 0 or fg_count == g.size:
        return LevelSetMap(np.zeros(g.shape))

    dist = np.sqrt(sq_distance_to(boundary_pixels(g)))
    return LevelSetMap(np.where(g > 0.5, -dist, dist))


_COMPONENTS = ("dice", "jaccard", "boundary")


def composite_loss(s, g, schedule, epoch, components=_COMPONENTS,
                   level_sets=None, xi=1e-6):
    """Weighted sum of the selected loss components at the given epoch, as
    the mean over a batch of (C, H, W) prediction/target stacks.

    s and g are (B, C, H, W); g is binary (one-hot when C > 1). Dice sums
    the overlap ratios of all C planes, background included: with C > 1 it lies between 1 - C and 1 (plus xi), so
    it reads below zero once the overlaps sum past one. Jaccard and boundary
    run over the foreground planes (plane 0 when C == 1, planes 1..C-1
    otherwise) and are averaged over planes and samples; bounding boxes are
    per (sample, plane), see _union_bbox. On an empty mask plane jaccard's
    inter / union_mass is 0, or 0 / 0 (NonFiniteError) for a prediction of
    exact zeros, which sigmoid and softmax give only by underflow. level_sets
    holds the (B, K, H, W) signed distances of the K foreground planes and
    is required when "boundary" is selected.

    Returns (total, breakdown) where breakdown holds the unweighted value of
    each computed component plus the boundary weight in effect.
    """
    unknown = set(components) - set(_COMPONENTS)
    if unknown or not components:
        raise ValueError(f"loss components must be a non-empty subset "
                         f"of {_COMPONENTS}, got {components!r}")
    _check_prob_mask(s, g)
    if s.ndim != 4:
        raise ShapeError(f"composite_loss expects (B, C, H, W) stacks, "
                         f"got {s.shape}")
    breakdown = {"lambda_b": schedule.lambda_b(epoch)}
    total = None

    def acc(term, weight):
        nonlocal total
        weighted = term * weight
        total = weighted if total is None else total + weighted

    if "dice" in components:
        inter = T.tsum(s * g, axes=[2, 3])
        denom = T.tsum(s * s, axes=[2, 3]) + T.tsum(g * g, axes=[2, 3])
        zd = T.tmean(1.0 - T.tsum(2.0 * inter / denom, axes=[1]) + xi)
        breakdown["dice"] = zd.item()
        acc(zd, schedule.lambda_d)
    if s.shape[1] > 1:  # jaccard and boundary score the foreground planes
        s = T.narrow(s, 1, 1, s.shape[1] - 1)
        g = T.narrow(g, 1, 1, g.shape[1] - 1)
    if "boundary" in components and np.shape(level_sets) != s.shape:
        raise ShapeError(f"boundary term needs {s.shape} level sets")
    if "jaccard" in components:
        inter = T.tsum(s * g, axes=[2, 3])
        union_mass = T.tsum(s, axes=[2, 3]) + T.tsum(g, axes=[2, 3]) - inter
        iou = inter / union_mass
        box_masks = np.zeros(s.shape)
        areas = np.empty(s.shape[:2])
        for i, k in np.ndindex(*areas.shape):
            r0, r1, c0, c1 = _union_bbox(s.data[i, k], g.data[i, k])
            box_masks[i, k, r0:r1, c0:c1] = 1.0
            areas[i, k] = (r1 - r0) * (c1 - c0)
        soft_union = s + g - s * g
        box_mass = T.tsum(soft_union * Tensor(box_masks), axes=[2, 3])
        box_term = (Tensor(areas) - box_mass) / Tensor(areas)
        zj = T.tmean(1.0 - iou - box_term + xi)
        breakdown["jaccard"] = zj.item()
        acc(zj, schedule.lambda_j)
    if "boundary" in components:
        zb = T.tmean(T.tmean(Tensor(level_sets) * s, axes=[2, 3]))
        breakdown["boundary"] = zb.item()
        acc(zb, schedule.lambda_b(epoch))
    return total, breakdown
