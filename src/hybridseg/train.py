"""Training loop: Adam with bias correction, plateau learning-rate reduction,
early stopping, best-checkpoint retention, and the ablation harness that
reruns the loop across placement/loss/transfer variants under one budget."""

from __future__ import annotations

import csv
import io
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import data as D
from . import losses as L
from . import metrics as ME
from . import model as M
from . import tensor as T
from .tensor import NonFiniteError, Tensor


@dataclass
class TrainConfig:
    max_epochs: int = 60
    initial_lr: float = 0.001
    plateau_patience: int = 5
    plateau_factor: float = 0.25
    early_stop_patience: int = 10
    batch_size: int = 16
    seed: int = 0
    loss_components: tuple = ("dice", "jaccard", "boundary")
    schedule: L.LossSchedule = field(default_factory=L.LossSchedule)
    val_fraction: float = 0.1
    min_lr: float = 1e-7

    def __post_init__(self):
        if min(self.max_epochs, self.batch_size, self.plateau_patience,
               self.early_stop_patience) < 1:
            raise ValueError("epoch/batch/patience settings must be positive")
        if not 0.0 < self.plateau_factor < 1.0:
            raise ValueError("plateau_factor must lie in (0, 1)")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in (0, 1)")


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0

    @classmethod
    def for_params(cls, params):
        return cls(
            m={k: np.zeros_like(p.data) for k, p in params.items()},
            v={k: np.zeros_like(p.data) for k, p in params.items()},
        )


def adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8,
              t=None):
    """Bias-corrected Adam update, in place on the parameter tensors."""
    if set(params) != set(state.m) or not set(params) <= set(grads):
        raise KeyError("parameter, gradient, and state key sets must match")
    t = state.t + 1 if t is None else t
    for k, p in params.items():
        g = grads[k]
        if not np.isfinite(g).all():
            raise NonFiniteError(f"non-finite gradient for {k}")
        m, v = state.m[k], state.v[k]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        mhat = m / (1.0 - beta1**t)
        vhat = v / (1.0 - beta2**t)
        p.data -= lr * mhat / (np.sqrt(vhat) + eps)
    state.t = t
    return params, state


def lr_schedule(history, lr, cfg):
    """Quarter the learning rate when the best validation score is at least
    plateau_patience epochs old; never drop below min_lr."""
    if not history:
        return lr
    best_idx = int(np.argmax(history))
    if len(history) - 1 - best_idx >= cfg.plateau_patience:
        return max(lr * cfg.plateau_factor, cfg.min_lr)
    return lr


LOG_COLUMNS = ("epoch", "lambda_b", "lr", "loss_d", "loss_j", "loss_b",
               "val_J", "val_D")


@dataclass
class TrainResult:
    log_rows: list
    best_val_j: float
    best_epoch: int
    epochs_run: int
    aborted: bool
    params: M.ModelParams

    def log_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(LOG_COLUMNS)
        for row in self.log_rows:
            writer.writerow(
                ["" if row[c] is None else _fmt(row[c]) for c in LOG_COLUMNS]
            )
        return buf.getvalue()


def _fmt(v):
    return str(v) if isinstance(v, int) else f"{v:.6g}"


def _val_scores(params, val_set, batch_size):
    js, ds = [], []
    for lo in range(0, len(val_set), batch_size):
        chunk = val_set[lo : lo + batch_size]
        x = Tensor(np.stack([img for img, _ in chunk]))
        labels = M.labels_from_probs(M.forward(params, x, training=False).data)
        for pred, (_, mask) in zip(labels, chunk):
            m = ME.seg_metrics(ME.confusion(pred > 0, mask > 0))
            js.append(0.0 if m["J"] is None else m["J"] / 100.0)
            ds.append(0.0 if m["D"] is None else m["D"] / 100.0)
    return float(np.mean(js)), float(np.mean(ds))


def train(model_cfg, train_cfg, dataset, out_dir=None, init_checkpoint=None):
    """Optimize the model on (image, mask) pairs and retain the best
    validation checkpoint.

    The dataset is split by seeded shuffle, the training split is augmented
    five-fold, level-set maps are cached per training mask, and the loop
    applies the boundary-weight decay, plateau LR rule, and early stopping.
    init_checkpoint warm-starts every compatible parameter from a previous
    run. A non-finite loss aborts cleanly with the last good checkpoint.
    """
    if not dataset:
        raise ValueError("dataset must not be empty")
    rng = np.random.default_rng(train_cfg.seed)
    order = rng.permutation(len(dataset))
    n_val = max(1, round(train_cfg.val_fraction * len(dataset)))
    if n_val >= len(dataset):
        raise ValueError("validation split leaves no training data")
    val_set = [dataset[i] for i in order[:n_val]]
    train_set = []
    for i in order[n_val:]:
        train_set.extend(D.augment(*dataset[i]))

    # one boolean (C, H, W) target stack per view: the mask itself for one
    # class, one-hot otherwise; level sets are cached for its foreground planes
    classes = model_cfg.num_classes
    targets = [
        (mask > 0)[None] if classes == 1
        else mask[None] == np.arange(classes)[:, None, None]
        for _, mask in train_set
    ]
    first_fg = 0 if classes == 1 else 1
    levelsets = None
    if "boundary" in train_cfg.loss_components:
        levelsets = [
            np.stack([L.level_set(p).values for p in g[first_fg:]])
            for g in targets
        ]

    params = M.build(model_cfg, train_cfg.seed)
    if init_checkpoint is not None:
        params, _ = M.transfer_weights(params, init_checkpoint)
    trainable = params.trainable()
    state = AdamState.for_params(trainable)
    lr = train_cfg.initial_lr
    sched = train_cfg.schedule

    log_rows = []
    history = []
    best_val, best_epoch = -1.0, -1
    best_snapshot = {k: t.data.copy() for k, t in params.flat().items()}
    aborted = False
    epochs_run = 0

    for epoch in range(train_cfg.max_epochs):
        epochs_run = epoch + 1
        perm = rng.permutation(len(train_set))
        sums = {"dice": 0.0, "jaccard": 0.0, "boundary": 0.0}
        batches = 0
        try:
            for lo in range(0, len(perm), train_cfg.batch_size):
                idxs = perm[lo : lo + train_cfg.batch_size]
                x = Tensor(np.stack([train_set[i][0] for i in idxs]))
                with T.record():
                    out = M.forward(params, x, training=True)
                    total, parts = L.composite_loss(
                        out, Tensor(np.stack([targets[i] for i in idxs])),
                        sched, epoch, components=train_cfg.loss_components,
                        level_sets=None if levelsets is None else np.stack(
                            [levelsets[i] for i in idxs]),
                    )
                    for name in sums:
                        if name in parts:
                            sums[name] += parts[name] * len(idxs)
                    T.backward(total)
                grads = {
                    k: t.grad if t.grad is not None else np.zeros_like(t.data)
                    for k, t in trainable.items()
                }
                adam_step(trainable, grads, state, lr)
                del grads  # no gradient need live through the next forward
                for t in trainable.values():
                    t.grad = None
                batches += 1
        except NonFiniteError:
            aborted = True
            break  # params may be corrupt; the best snapshot is restored below

        val_j, val_d = _val_scores(params, val_set, train_cfg.batch_size)
        denom = max(batches * train_cfg.batch_size, 1)
        log_rows.append({
            "epoch": epoch,
            "lambda_b": sched.lambda_b(epoch),
            "lr": lr,
            "loss_d": sums["dice"] / denom if "dice" in train_cfg.loss_components else None,
            "loss_j": sums["jaccard"] / denom if "jaccard" in train_cfg.loss_components else None,
            "loss_b": sums["boundary"] / denom if "boundary" in train_cfg.loss_components else None,
            "val_J": val_j,
            "val_D": val_d,
        })
        history.append(val_j)
        if val_j > best_val:
            best_val, best_epoch = val_j, epoch
            best_snapshot = {k: t.data.copy() for k, t in params.flat().items()}
        if epoch - best_epoch >= train_cfg.early_stop_patience:
            break
        lr = lr_schedule(history, lr, train_cfg)

    for k, t in params.flat().items():  # leave the best weights in place
        t.data = best_snapshot[k]

    result = TrainResult(
        log_rows=log_rows, best_val_j=best_val, best_epoch=best_epoch,
        epochs_run=epochs_run, aborted=aborted, params=params,
    )
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        M.save_checkpoint(params, out_dir / "checkpoint")
        (out_dir / "log.csv").write_text(result.log_csv())
    return result


# ---------------------------------------------------------------------------
# ablation harness


LOSS_COMBOS = (
    ("dice", ("dice",)),
    ("jaccard", ("jaccard",)),
    ("boundary", ("boundary",)),
    ("boundary+dice", ("boundary", "dice")),
    ("dice+jaccard", ("dice", "jaccard")),
    ("boundary+jaccard", ("boundary", "jaccard")),
    ("dice+jaccard+boundary", ("dice", "jaccard", "boundary")),
)

PLACEMENT_ROWS = (
    ("baseline", "none", False),
    ("baseline+skip_lstm", "none", True),
    ("swin_dense", "dense", True),
    ("swin_decoder_pools", "decoder_pools", True),
    ("swin_skips", "skips", True),
    ("swin_skips_and_dense", "skips_and_dense", True),
)


def _harness_model_cfg(**kw):
    base = dict(
        input_height=16, input_width=16, input_channels=1, base_channels=2,
        num_classes=1, window_size=2, num_heads=2, mlp_ratio=1.0,
    )
    base.update(kw)
    return M.ModelConfig(**base)


def _harness_train_cfg(seed, **kw):
    base = dict(max_epochs=2, batch_size=8, val_fraction=0.25, seed=seed)
    base.update(kw)
    return TrainConfig(**base)


def _eval_model(params, eval_set):
    preds, gts = [], []
    for img, mask in eval_set:
        out = M.forward(params, Tensor(img[None]), training=False).data[0]
        preds.append(M.labels_from_probs(out) > 0)
        gts.append(mask > 0)
    report = ME.binary_report(preds, gts)
    agg = report.aggregate()
    return {
        c: (None if agg[c] is None else agg[c][0])
        for c in ("J", "D", "Acc", "Sn", "Sp")
    }


def ablation_harness(mode, seed=0, sample_count=12):
    """Train every variant of one ablation axis under identical seeds and
    budget; returns rows of (variant, J, D, Acc, Sn, Sp) means in percent.
    No claim is made about which row should win at this scale."""
    spec = D.SynthSpec(image_size=16, count=sample_count, noise_level=0.03)
    dataset = D.synth_dataset(spec, seed)
    eval_set = D.synth_dataset(replace(spec, count=max(4, sample_count // 3)),
                               seed + 1)
    rows = []

    if mode == "placement":
        for label, placement, skip_lstm in PLACEMENT_ROWS:
            cfg = _harness_model_cfg(
                transformer_placement=placement, skip_lstm=skip_lstm
            )
            res = train(cfg, _harness_train_cfg(seed), dataset)
            rows.append((label, _eval_model(res.params, eval_set)))
    elif mode == "loss_combo":
        for label, components in LOSS_COMBOS:
            cfg = _harness_model_cfg()
            res = train(
                cfg, _harness_train_cfg(seed, loss_components=components),
                dataset,
            )
            rows.append((label, _eval_model(res.params, eval_set)))
    elif mode == "transfer":
        source_spec = replace(spec, family="multi_lesion")
        source_data = D.synth_dataset(source_spec, seed + 2)
        src_res = train(_harness_model_cfg(), _harness_train_cfg(seed),
                        source_data)
        with tempfile.TemporaryDirectory() as tmp:
            ckpt = Path(tmp) / "source"
            M.save_checkpoint(src_res.params, ckpt)
            scratch = train(
                _harness_model_cfg(), _harness_train_cfg(seed), dataset
            )
            rows.append(("scratch", _eval_model(scratch.params, eval_set)))
            warm = train(
                _harness_model_cfg(), _harness_train_cfg(seed), dataset,
                init_checkpoint=ckpt,
            )
            rows.append(("transferred", _eval_model(warm.params, eval_set)))
    else:
        raise ValueError(f"unknown ablation mode {mode!r}")
    return rows


def ablation_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["variant", "J", "D", "Acc", "Sn", "Sp"])
    for label, vals in rows:
        writer.writerow(
            [label] + [
                "" if vals[c] is None else f"{vals[c]:.2f}"
                for c in ("J", "D", "Acc", "Sn", "Sp")
            ]
        )
    return buf.getvalue()
