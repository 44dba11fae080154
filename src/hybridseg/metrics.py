"""Segmentation evaluation: confusion counts, overlap/rate metrics, Hausdorff
distance, multiclass reporting, and a paired t-test with its own Student-t
tail evaluation.

Metrics whose denominator is zero are reported as None (absent) rather than
0 or 100 so that aggregates are never silently distorted.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import ShapeError


@dataclass
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self):
        return self.tp + self.tn + self.fp + self.fn


def confusion(s_bin, g):
    """Exact pixel counts between a binarized prediction and a binary mask."""
    s_bin = np.asarray(s_bin)
    g = np.asarray(g)
    if s_bin.shape != g.shape:
        raise ShapeError(f"prediction {s_bin.shape} vs mask {g.shape}")
    s = s_bin.astype(bool)
    t = g.astype(bool)
    return ConfusionCounts(
        tp=int(np.count_nonzero(s & t)),
        tn=int(np.count_nonzero(~s & ~t)),
        fp=int(np.count_nonzero(s & ~t)),
        fn=int(np.count_nonzero(~s & t)),
    )


def seg_metrics(c):
    """Jaccard, Dice, accuracy, sensitivity, specificity as percentages.

    Returns a dict with None where the defining ratio has a zero denominator.
    """

    def rate(num, den):
        return 100.0 * num / den if den else None

    return {
        "J": rate(c.tp, c.tp + c.fp + c.fn),
        "D": rate(2 * c.tp, 2 * c.tp + c.fp + c.fn),
        "Acc": rate(c.tp + c.tn, c.total),
        "Sn": rate(c.tp, c.tp + c.fn),
        "Sp": rate(c.tn, c.tn + c.fp),
    }


# elements of int64 scratch per row-pass chunk (2 MB)
_EDT_CHUNK = 1 << 18


def sq_distance_to(mask):
    """Exact squared Euclidean distance (int64) from every pixel of a 2-D
    mask to its nearest True pixel; the mask needs at least one.

    Separable, as in Felzenszwalb & Huttenlocher: a column pass finds the
    row gap to the nearest True pixel in the same column, then a row pass
    takes min over columns l of gap[i, l]^2 + (j - l)^2. The row pass runs
    along the shorter side, in chunks of rows that keep its scratch at
    O(H*W) elements, so time is O(H*W*min(H, W)).
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ShapeError(f"distance transform expects a 2-D mask, got {mask.shape}")
    if not mask.any():
        raise ValueError("distance transform requires a non-empty mask")
    if mask.shape[1] > mask.shape[0]:
        return np.ascontiguousarray(sq_distance_to(mask.T).T)
    h, w = mask.shape
    # a column with no True pixel gets a gap of at least h + w, whose square
    # exceeds every real squared distance, so it never wins the row pass
    far = h + w
    rows = np.arange(h)[:, None]
    above = np.maximum.accumulate(np.where(mask, rows, -far), axis=0)
    below = np.minimum.accumulate(np.where(mask, rows, h + far)[::-1], axis=0)[::-1]
    gap2 = np.minimum(rows - above, below - rows) ** 2
    cols = np.arange(w)
    shift2 = (cols[:, None] - cols[None, :]) ** 2  # (j, l) -> (j - l)^2
    out = np.empty((h, w), dtype=np.int64)
    step = max(1, _EDT_CHUNK // (w * w))
    for lo in range(0, h, step):
        out[lo : lo + step] = (gap2[lo : lo + step, None, :] + shift2).min(axis=2)
    return out


def hausdorff(a, b):
    """Max over both directions of the farthest nearest-neighbor Euclidean
    distance between the foreground pixel sets of two binary masks."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise ShapeError(f"hausdorff masks differ in shape: {a.shape} vs {b.shape}")
    if not a.any() or not b.any():
        raise ValueError("hausdorff requires non-empty masks")
    worst = max(sq_distance_to(b)[a].max(), sq_distance_to(a)[b].max())
    return math.sqrt(worst)


# ---------------------------------------------------------------------------
# Student t machinery: regularized incomplete beta via continued fraction


def _betacf(a, b, x):
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def betainc_reg(a, b, x):
    """Regularized incomplete beta I_x(a, b), accurate to ~1e-14."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0 or x == 1.0:
        return float(x)
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_two_tailed_p(t, df):
    """P(|T_df| >= |t|) for the Student t distribution."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    x = df / (df + t * t)
    return betainc_reg(df / 2.0, 0.5, x)


@dataclass
class TTestResult:
    t: float
    df: int
    p: float

    @property
    def significant(self):
        return self.p < 0.05


def paired_t_test(scores_a, scores_b):
    """Paired two-tailed t-test on matched score lists (sample sd, n-1 df).

    ValueError unless every score, paired difference and the differences'
    sample sd is finite."""
    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeError("paired t-test requires equal-length 1-D score lists")
    n = a.size
    if n < 2:
        raise ValueError("paired t-test requires n >= 2")
    with np.errstate(over="ignore", invalid="ignore"):
        d = a - b
        sd = d.std(ddof=1)
    if not (np.isfinite(d).all() and np.isfinite(sd)):
        raise ValueError("paired t-test scores must be finite, and so must "
                         "their differences and the differences' spread")
    if sd == 0.0:
        raise ValueError("zero variance of paired differences")
    t = float(d.mean() / (sd / math.sqrt(n)))
    df = n - 1
    return TTestResult(t=t, df=df, p=t_two_tailed_p(t, df))


# ---------------------------------------------------------------------------
# report assembly


@dataclass
class MetricsReport:
    """Per-image metric rows plus mean/std aggregates.

    Each row is {image: name, <metric>: value-or-None}; columns fixes the
    emission order. None values stay absent in aggregates and CSV cells.
    """

    columns: list
    rows: list = field(default_factory=list)

    def add(self, image, values):
        row = {"image": image}
        row.update({c: values.get(c) for c in self.columns})
        self.rows.append(row)

    def aggregate(self):
        out = {}
        for c in self.columns:
            vals = [r[c] for r in self.rows if r[c] is not None]
            if vals:
                arr = np.asarray(vals, dtype=float)
                out[c] = (float(arr.mean()), float(arr.std(ddof=0)))
            else:
                out[c] = None
        return out

    def to_csv(self, path):
        agg = self.aggregate()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["image"] + self.columns)
            for r in self.rows:
                writer.writerow(
                    [r["image"]]
                    + ["" if r[c] is None else f"{r[c]:.4f}" for c in self.columns]
                )
            writer.writerow(
                ["mean±std"]
                + [
                    "" if agg[c] is None else f"{agg[c][0]:.2f}±{agg[c][1]:.2f}"
                    for c in self.columns
                ]
            )


def binary_report(pred_masks, gt_masks, names=None):
    """J/D/Acc/Sn/Sp rows for matched binary prediction and ground-truth masks."""
    if len(pred_masks) != len(gt_masks):
        raise ShapeError("prediction and mask counts differ")
    names = names or [f"img_{i:04d}" for i in range(len(pred_masks))]
    report = MetricsReport(columns=["J", "D", "Acc", "Sn", "Sp"])
    for name, s, g in zip(names, pred_masks, gt_masks):
        report.add(name, seg_metrics(confusion(s, g)))
    return report


def multiclass_report(pred_probs, labels, num_classes, names=None):
    """Overall rates plus per-class Dice and Hausdorff under argmax decisions.

    pred_probs: per-image (C, H, W) probability stacks; labels: per-image
    (H, W) integer class maps. J/D/Acc/Sn/Sp are computed on the
    any-foreground masks; D_mean/HD_mean average the per-class values.
    A class absent from both prediction and truth of an image is reported
    absent for that image and excluded from every average.
    """
    if len(pred_probs) != len(labels):
        raise ShapeError("prediction and label counts differ")
    names = names or [f"img_{i:04d}" for i in range(len(pred_probs))]
    columns = ["J", "D", "Acc", "Sn", "Sp", "D_mean", "HD_mean"]
    for k in range(num_classes):
        columns += [f"D_class_{k}", f"HD_class_{k}"]
    report = MetricsReport(columns=columns)
    for name, probs, lab in zip(names, pred_probs, labels):
        probs = np.asarray(probs)
        lab = np.asarray(lab)
        if probs.shape[0] != num_classes:
            raise ShapeError(
                f"expected {num_classes} class planes, got {probs.shape[0]}"
            )
        decided = probs.argmax(axis=0)
        values = seg_metrics(confusion(decided > 0, lab > 0))
        dices, hds = [], []
        for k in range(num_classes):
            s = decided == k
            g = lab == k
            if not s.any() and not g.any():
                values[f"D_class_{k}"] = None
                values[f"HD_class_{k}"] = None
                continue
            m = seg_metrics(confusion(s, g))
            hd = hausdorff(s, g) if s.any() and g.any() else None
            values[f"D_class_{k}"] = m["D"]
            values[f"HD_class_{k}"] = hd
            if m["D"] is not None:
                dices.append(m["D"])
            if hd is not None:
                hds.append(hd)
        values["D_mean"] = float(np.mean(dices)) if dices else None
        values["HD_mean"] = float(np.mean(hds)) if hds else None
        report.add(name, values)
    return report


def write_t_test_csv(path, entries):
    """entries: iterable of (method_a, method_b, TTestResult)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method_a", "method_b", "t", "df", "p"])
        for a, b, r in entries:
            writer.writerow([a, b, f"{r.t:.4f}", r.df, f"{r.p:.4f}"])
