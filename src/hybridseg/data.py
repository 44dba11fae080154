"""Synthetic desk-scale datasets (ellipses, blobs with holes, multi-lesion)
and the five-fold augmentation used during training."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILIES = ("ellipse", "blobs_with_holes", "multi_lesion")


@dataclass
class SynthSpec:
    image_size: int = 32
    family: str = "ellipse"
    noise_level: float = 0.05
    contrast_lo: float = 0.3
    contrast_hi: float = 0.6
    num_classes: int = 1
    count: int = 200

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}")
        if self.image_size < 8:
            raise ValueError("image_size must be at least 8")
        if self.image_size % 8:
            raise ValueError("image_size must be a multiple of 8")
        if self.count < 1 or self.num_classes < 1:
            raise ValueError("count and num_classes must be positive")
        if not 0.0 <= self.contrast_lo <= self.contrast_hi:
            raise ValueError("need 0 <= contrast_lo <= contrast_hi")


def _ellipse_mask(size, rng):
    cy, cx = rng.uniform(0.3, 0.7, size=2) * size
    a = rng.uniform(0.12, 0.3) * size
    b = rng.uniform(0.12, 0.3) * size
    theta = rng.uniform(0.0, np.pi)
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    u = (yy - cy) * np.cos(theta) + (xx - cx) * np.sin(theta)
    v = -(yy - cy) * np.sin(theta) + (xx - cx) * np.cos(theta)
    return (u * u) / (a * a) + (v * v) / (b * b) <= 1.0


def _family_mask(spec, rng):
    size = spec.image_size
    if spec.family == "ellipse":
        return _ellipse_mask(size, rng)
    if spec.family == "blobs_with_holes":
        outer = _ellipse_mask(size, rng)
        inner = _ellipse_mask(size, rng)
        hole = outer & inner
        blob = outer & ~hole
        return blob if blob.any() else outer
    lesions = _ellipse_mask(size, rng)
    for _ in range(int(rng.integers(1, 3))):
        lesions = lesions | _ellipse_mask(size, rng)
    return lesions


def synth_dataset(spec, seed):
    """Deterministic (image, mask) pairs: images are (1, H, W) floats in
    [0, 1], masks are (H, W) integer class labels (binary uses {0, 1})."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(spec.count):
        labels = np.zeros((spec.image_size, spec.image_size), dtype=np.int64)
        for k in range(1, max(spec.num_classes, 2)):
            for _ in range(100):
                m = _family_mask(spec, rng)
                fresh = m & (labels == 0)
                if fresh.any():
                    labels[fresh] = k
                    break
            else:
                raise RuntimeError("failed to place a foreground lesion")

        bg = rng.uniform(0.15, 0.35)
        contrast = rng.uniform(spec.contrast_lo, spec.contrast_hi)
        k_max = max(spec.num_classes - 1, 1)
        image = bg + contrast * labels / k_max
        if spec.noise_level > 0.0:
            image = image + spec.noise_level * rng.standard_normal(labels.shape)
        image = np.clip(image, 0.0, 1.0)
        samples.append((image[None, :, :], labels))
    return samples


def _adjust_contrast(image, factor):
    mean = image.mean()
    return np.clip(mean + factor * (image - mean), 0.0, 1.0)


def augment(image, mask):
    """The five training views of one sample: the original, contrast scaled
    by 0.9 and 1.1 (mean-anchored, clipped), and horizontal/vertical flips.
    Masks follow the flips and are never contrast-adjusted."""
    return [
        (image.copy(), mask.copy()),
        (_adjust_contrast(image, 0.9), mask.copy()),
        (_adjust_contrast(image, 1.1), mask.copy()),
        (image[..., ::-1].copy(), mask[..., ::-1].copy()),
        (image[..., ::-1, :].copy(), mask[..., ::-1, :].copy()),
    ]
