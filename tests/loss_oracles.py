"""Per-sample loss functions, the reference for losses.composite_loss.

Each takes one prediction/target pair as taped Tensors and returns a scalar
Tensor, so the composite's batched terms can be checked against them sample
by sample and plane by plane.
"""

import numpy as np

from hybridseg import tensor as T
from hybridseg.losses import _check_prob_mask, _union_bbox
from hybridseg.tensor import ShapeError, Tensor


def dice_loss(s, g, class_weights=None, xi=1e-6):
    """Overlap loss over one (H, W) plane or a (C, H, W) per-class stack.

    Classes with an empty prediction and empty mask make the ratio undefined
    and surface as a NonFiniteError.
    """
    _check_prob_mask(s, g)
    if s.ndim == 2:
        s = T.reshape(s, (1,) + s.shape)
        g = T.reshape(g, (1,) + g.shape)
    c = s.shape[0]
    w = np.ones(c) if class_weights is None else np.asarray(class_weights, float)
    if w.shape != (c,):
        raise ShapeError(f"need {c} class weights, got {w.shape}")
    inter = T.tsum(s * g, axes=[1, 2])
    denom = T.tsum(s * s, axes=[1, 2]) + T.tsum(g * g, axes=[1, 2])
    per_class = (2.0 * Tensor(w)) * inter / denom
    return 1.0 - T.tsum(per_class) + xi


def jaccard_loss(s, g, xi=1e-6):
    """Soft IoU loss with a bounding-box tightness term.

    The box term subtracts the fraction of the union's bounding box not
    covered by the soft union; as written it rewards masks that fill their
    box and can push the loss below xi for compact shapes in a loose box.
    """
    if s.ndim == 3 and s.shape[0] == 1:
        s = T.reshape(s, s.shape[1:])
        g = T.reshape(g, g.shape[1:])
    _check_prob_mask(s, g)
    if s.ndim != 2:
        raise ShapeError("jaccard_loss operates on a single 2-D mask pair")
    inter = T.tsum(s * g)
    union_mass = T.tsum(s) + T.tsum(g) - inter
    iou = inter / union_mass
    r0, r1, c0, c1 = _union_bbox(s.data, g.data)
    soft_union = s + g - s * g
    box = T.narrow(T.narrow(soft_union, 0, r0, r1 - r0), 1, c0, c1 - c0)
    box_area = float((r1 - r0) * (c1 - c0))
    box_term = (box_area - T.tsum(box)) / box_area
    return 1.0 - iou - box_term + xi


def boundary_loss(s, levelset):
    """Mean over pixels of signed distance times predicted probability.

    Negative inside the mask: moving predicted mass inward strictly lowers
    the loss, scaled by how far the mass sits from the boundary.
    """
    values = levelset.values
    if s.shape != values.shape:
        raise ShapeError(f"prediction {s.shape} vs level-set {values.shape}")
    return T.tmean(Tensor(values) * s)
