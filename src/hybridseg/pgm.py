"""Binary PGM (P5) and PPM (P6) readers/writers for 8-bit images and masks,
plus the red/green/blue error-overlay renderer.

Readers reject malformed input outright; no operation produces a partially
populated record.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import FormatError, ShapeError


@dataclass
class ImageRecord:
    pixels: np.ndarray  # (channels, H, W) floats in [0, 1]
    source_path: str = ""
    bit_depth: int = 8


@dataclass
class MaskRecord:
    labels: np.ndarray  # (H, W) integer class labels
    num_classes: int = 1


def _read_header(data, path):
    """Parse 'P5|P6 <width> <height> <maxval>' allowing comments."""
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise FormatError(f"{path}: not a binary PGM/PPM file")
    pos = 2
    fields = []
    while len(fields) < 3:
        if pos >= len(data):
            raise FormatError(f"{path}: truncated header")
        ch = data[pos : pos + 1]
        if ch == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        elif ch.isdigit():
            start = pos
            while pos < len(data) and data[pos : pos + 1].isdigit():
                pos += 1
            try:
                fields.append(int(data[start:pos]))
            except ValueError as exc:  # over Python's integer-string limit
                raise FormatError(f"{path}: header field too long") from exc
        else:
            raise FormatError(f"{path}: malformed header byte {ch!r}")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise FormatError(f"{path}: header not terminated")
    pos += 1
    width, height, maxval = fields
    if maxval != 255:
        raise FormatError(f"{path}: only 8-bit depth supported, maxval={maxval}")
    if width < 1 or height < 1:
        raise FormatError(f"{path}: bad dimensions {width}x{height}")
    return magic, width, height, pos


def _read_payload(path):
    data = Path(path).read_bytes()
    magic, width, height, pos = _read_header(data, path)
    channels = 1 if magic == b"P5" else 3
    count = width * height * channels
    payload = data[pos : pos + count]
    if len(payload) != count or len(data) != pos + count:
        raise FormatError(f"{path}: payload size mismatch")
    raw = np.frombuffer(payload, dtype=np.uint8)
    if channels == 1:
        return raw.reshape(1, height, width).copy()
    return raw.reshape(height, width, 3).transpose(2, 0, 1).copy()


def read_image(path):
    """Load a P5/P6 file into a [0, 1] float image record (exact /255)."""
    raw = _read_payload(path)
    return ImageRecord(pixels=raw.astype(np.float64) / 255.0,
                       source_path=str(path))


def write_image(record, path):
    """Write an image record as P5 (1 channel) or P6 (3 channels)."""
    pixels = np.asarray(record.pixels if isinstance(record, ImageRecord)
                        else record)
    if pixels.ndim != 3 or pixels.shape[0] not in (1, 3):
        raise ShapeError("images must be (1|3, H, W)")
    if pixels.min() < 0.0 or pixels.max() > 1.0:
        raise ValueError("image values must lie in [0, 1]")
    raw = np.round(pixels * 255.0).astype(np.uint8)
    _, h, w = raw.shape
    magic = b"P5" if raw.shape[0] == 1 else b"P6"
    body = raw[0] if raw.shape[0] == 1 else raw.transpose(1, 2, 0)
    with open(path, "wb") as fh:
        fh.write(magic + b"\n" + f"{w} {h}\n255\n".encode())
        fh.write(np.ascontiguousarray(body).tobytes())


def read_mask(path, num_classes=1):
    """Load a P5 mask: {0, 255} -> {0, 1} for binary, raw label bytes for
    multiclass. Out-of-range labels are rejected."""
    raw = _read_payload(path)
    if raw.shape[0] != 1:
        raise FormatError(f"{path}: masks must be single-channel P5")
    grid = raw[0].astype(np.int64)
    if num_classes == 1:
        bad = ~np.isin(grid, (0, 255))
        if bad.any():
            raise FormatError(
                f"{path}: binary mask bytes must be 0 or 255"
            )
        labels = (grid == 255).astype(np.int64)
    else:
        if grid.max() >= num_classes:
            raise FormatError(
                f"{path}: label {grid.max()} out of range for "
                f"{num_classes} classes"
            )
        labels = grid
    return MaskRecord(labels=labels, num_classes=num_classes)


def write_mask(mask, path):
    labels = np.asarray(mask.labels if isinstance(mask, MaskRecord) else mask)
    num_classes = mask.num_classes if isinstance(mask, MaskRecord) else int(
        labels.max()) + 1
    if labels.ndim != 2:
        raise ShapeError("masks must be 2-D label grids")
    raw = (labels * 255 if num_classes == 1 else labels).astype(np.uint8)
    h, w = raw.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n" + f"{w} {h}\n255\n".encode())
        fh.write(np.ascontiguousarray(raw).tobytes())


def overlay_report(image, gt, pred_bin, path):
    """Write an RGB overlay: true positives tinted green, false positives
    red, false negatives blue, each at a 50% blend over the grayscale image;
    true negatives stay untinted."""
    image = np.asarray(image)
    gray = image.mean(axis=0) if image.ndim == 3 else image
    gt = np.asarray(gt).astype(bool)
    pred = np.asarray(pred_bin).astype(bool)
    if gray.shape != gt.shape or gt.shape != pred.shape:
        raise ShapeError("overlay inputs must share spatial extents")
    rgb = np.repeat(gray[None, :, :], 3, axis=0).copy()
    tints = {
        (True, True): np.array([0.0, 1.0, 0.0]),  # true positive
        (True, False): np.array([1.0, 0.0, 0.0]),  # false positive
        (False, True): np.array([0.0, 0.0, 1.0]),  # false negative
    }
    for (p, g), color in tints.items():
        sel = (pred == p) & (gt == g)
        for c in range(3):
            rgb[c][sel] = 0.5 * gray[sel] + 0.5 * color[c]
    write_image(ImageRecord(pixels=np.clip(rgb, 0.0, 1.0)), path)
    return rgb
