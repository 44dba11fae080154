"""Command-line entry point.

Verbs: synth, train, eval, predict, gradcheck, complexity, ttest, ablate.
Configuration comes from flat key=value text files plus repeatable --set
overrides. Exit codes: 0 success, 1 validation failure, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import blocks as B
from . import data as D
from . import metrics as ME
from . import model as M
from . import pgm
from . import tensor as T
from . import train as TR
from .tensor import FormatError, NonFiniteError, ShapeError, Tensor


class CliError(Exception):
    """Validation failure surfaced to the user (exit 1)."""


class Parser(argparse.ArgumentParser):
    # unknown flags and bad values are validation failures, not usage quirks
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_kv(path, overrides):
    values = {}
    if path:
        p = Path(path)
        if not p.exists():
            raise FileNotFoundError(f"config file {path} not found")
        values.update(M.parse_kv(p.read_text(), str(path)))
    for item in overrides or []:
        if "=" not in item:
            raise CliError(f"--set expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        values[key.strip()] = val.strip()
    return values


def _build_synth_spec(values):
    spec = M.config_from_kv(D.SynthSpec, values)
    if values:
        raise CliError(f"unknown synth config keys: {sorted(values)}")
    return spec


def _build_configs(values, seed=None):
    if seed is not None:
        values["seed"] = str(seed)
    train_cfg = M.config_from_kv(TR.TrainConfig, values)
    model_cfg = M.config_from_text("", overrides=values)  # raises on unknowns
    return model_cfg, train_cfg


# ---------------------------------------------------------------------------
# dataset directory format


def write_dataset(samples, out_dir, num_classes):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, (image, mask) in enumerate(samples):
        pgm.write_image(pgm.ImageRecord(pixels=image), out_dir / f"img_{i:04d}.pgm")
        pgm.write_mask(
            pgm.MaskRecord(labels=mask, num_classes=num_classes),
            out_dir / f"msk_{i:04d}.pgm",
        )
    (out_dir / "dataset.txt").write_text(
        f"count={len(samples)}\nnum_classes={num_classes}\n"
    )


def read_dataset(data_dir):
    data_dir = Path(data_dir)
    meta_path = data_dir / "dataset.txt"
    if not meta_path.exists():
        raise FileNotFoundError(f"{data_dir} is not a dataset directory")
    meta = M.parse_kv(meta_path.read_text(), str(meta_path))
    sizes = []
    for key in ("count", "num_classes"):
        text = meta.get(key, "")
        if not text.isdecimal() or int(text) < 1:
            raise FormatError(
                f"{meta_path}: {key} must be an integer >= 1, got {text!r}"
            )
        sizes.append(int(text))
    count, num_classes = sizes
    samples = []
    for i in range(count):
        image = pgm.read_image(data_dir / f"img_{i:04d}.pgm").pixels
        mask = pgm.read_mask(data_dir / f"msk_{i:04d}.pgm", num_classes).labels
        samples.append((image, mask))
    return samples, num_classes


# ---------------------------------------------------------------------------
# gradient-check harnesses


def _kv_line(name, res):
    return (f"{name} max_rel_err={res.max_rel_error:.3e} "
            f"kinks={res.kink_events} excluded={res.excluded_elements}")


def _check(name, f, leaves, results, max_elements=None):
    results.append((name, T.grad_check(f, leaves, eps=1e-5,
                                       max_elements=max_elements, seed=0)))


def gradcheck_ops():
    rng = np.random.default_rng(0)
    results = []

    def rand(shape, lo=-2.0, hi=2.0):
        return Tensor(rng.uniform(lo, hi, shape), requires_grad=True)

    a, b = rand((3, 4)), rand((3, 4))
    c = rand((3, 4), lo=0.5, hi=2.0)
    _check("add", lambda *_: T.tsum(a + b), [a, b], results)
    _check("sub", lambda *_: T.tsum((a - b) * (a - b)), [a, b], results)
    _check("mul", lambda *_: T.tsum(a * b), [a, b], results)
    _check("div", lambda *_: T.tsum(a / c), [a, c], results)
    _check("sigmoid", lambda *_: T.tsum(T.sigmoid(a)), [a], results)
    _check("tanh", lambda *_: T.tsum(T.tanh(a) * b), [a, b], results)
    _check("concat",
           lambda *_: T.tsum(T.concat([a, b, c], axis=1)
                             * T.concat([a, b, c], axis=1)),
           [a, b, c], results)
    _check("narrow", lambda *_: T.tsum(T.narrow(a, 1, 1, 2) * 3.0), [a], results)
    _check("reshape", lambda *_: T.tsum(T.reshape(a, (2, 6)) * T.reshape(b, (2, 6))),
           [a, b], results)
    _check("reduce_sum", lambda *_: T.tsum(T.tsum(a, axes=[0]) * T.tsum(b, axes=[0])),
           [a, b], results)
    _check("reduce_mean", lambda *_: T.tmean(a * a), [a], results)
    _check("softmax", lambda *_: T.tsum(T.softmax(a, axis=1) * b), [a, b], results)
    x4 = rand((1, 2, 4, 4))
    _check("pad2d", lambda *_: T.tsum(T.pad2d(x4, (1, 0, 2, 1))
                                      * T.pad2d(x4, (1, 0, 2, 1))),
           [x4], results)
    w_dense = rand((3, 2, 3, 3))
    _check("conv2d", lambda *_: T.tsum(T.conv2d(x4, w_dense, padding=1)
                                       * T.conv2d(x4, w_dense, padding=1)),
           [x4, w_dense], results)
    w_dw = rand((2, 1, 3, 3))
    _check("conv2d_depthwise",
           lambda *_: T.tsum(T.conv2d(x4, w_dw, padding=1, groups=2)
                             * T.conv2d(x4, w_dw, padding=1, groups=2)),
           [x4, w_dw], results)
    w_pw = rand((4, 2, 1, 1))
    _check("conv2d_pointwise",
           lambda *_: T.tsum(T.conv2d(x4, w_pw) * T.conv2d(x4, w_pw)),
           [x4, w_pw], results)
    w_t = rand((2, 3, 2, 2))
    _check("conv_transpose2d",
           lambda *_: T.tsum(T.conv_transpose2d(x4, w_t)
                             * T.conv_transpose2d(x4, w_t)),
           [x4, w_t], results)
    pool_in = Tensor(np.cumsum(rng.uniform(0.1, 1.0, 32)).reshape(1, 2, 4, 4),
                     requires_grad=True)
    _check("maxpool2x2", lambda *_: T.tsum(T.maxpool2x2(pool_in) * 2.0),
           [pool_in], results)
    norm_in, gamma, beta = rand((2, 3, 3, 2)), rand((3,)), rand((3,))
    w_norm = Tensor(rng.uniform(-1.0, 1.0, (2, 3, 3, 2)))
    stats = (rng.uniform(-1.0, 1.0, 3), rng.uniform(0.5, 2.0, 3))
    for name, axes, given in (("normalize_batch", (0, 2, 3), None),
                              ("normalize_layer", (1,), None),
                              ("normalize_given_stats", (0, 2, 3), stats)):
        _check(name,
               lambda *_, axes=axes, given=given: T.tsum(T.normalize(
                   norm_in, gamma, beta, axes, 1e-2, given)[0] * w_norm),
               [norm_in, gamma, beta], results)
    return results


def gradcheck_blocks():
    rng = np.random.default_rng(1)
    results = []

    p_sep = B.init_separable_conv(rng, 2, 3)
    x = Tensor(rng.uniform(-1, 1, (2, 2, 4, 4)), requires_grad=True)
    leaves = [x] + [t for t in B.params_of(p_sep).values() if t.requires_grad]

    def f_sep(*_):
        out = B.separable_conv_bn(x, p_sep, training=True, update_stats=False)
        return T.tmean(out * out) * 0.1

    _check("separable_conv_bn", f_sep, leaves, results)

    p_lstm = B.init_conv_lstm(rng, 1, 2)
    xl = Tensor(rng.uniform(-1, 1, (1, 1, 3, 3)), requires_grad=True)
    leaves = [xl] + [t for t in B.params_of(p_lstm).values() if t.requires_grad]

    def f_step(*_):
        st = B.conv_lstm_step(xl, B.zero_state(1, 2, 3, 3), p_lstm)
        return T.tmean(st.hidden * st.hidden) + T.tmean(T.tanh(st.cell))

    def f_lazy(*_):
        st = B.conv_lstm_step(xl, None, p_lstm)
        return T.tmean(st.hidden * st.hidden) + T.tmean(T.tanh(st.cell))

    _check("conv_lstm_step", f_step, leaves, results)
    # state=None, the zero-state shortcut that every first step takes
    _check("conv_lstm_step_lazy", f_lazy, leaves, results)

    p_bi = B.init_bconv_lstm(rng, 1, 1)
    xb = Tensor(rng.uniform(-1, 1, (1, 1, 2, 2)), requires_grad=True)
    leaves = [xb] + [t for t in B.params_of(p_bi).values() if t.requires_grad]

    def f_bi(*_):
        out = B.bconv_lstm([xb, xb * 0.5], p_bi)
        return T.tmean(out * out)

    _check("bconv_lstm", f_bi, leaves, results)

    p_swin = B.init_swin_pair(rng, 4, 2, 2, mlp_ratio=2)
    xs = Tensor(rng.uniform(-1, 1, (1, 4, 4, 4)), requires_grad=True)
    leaves = [xs] + [t for t in B.params_of(p_swin).values() if t.requires_grad]

    def f_wmsa(*_):
        out = B.window_attention(xs, p_swin, shifted=False)
        return T.tmean(out * out) * 0.1

    def f_swmsa(*_):
        out = B.window_attention(xs, p_swin, shifted=True)
        return T.tmean(out * out) * 0.1

    def f_pair(*_):
        out = B.swin_block_pair(xs, p_swin)
        return T.tmean(out * out) * 0.1

    _check("window_attention_wmsa", f_wmsa, leaves, results)
    _check("window_attention_swmsa", f_swmsa, leaves, results)
    _check("swin_block_pair", f_pair, leaves, results)

    xt = Tensor(rng.uniform(-1, 1, (1, 2, 3, 3)), requires_grad=True)
    wt = Tensor(rng.uniform(-1, 1, (2, 2, 2, 2)), requires_grad=True)

    def f_tc(*_):
        out = B.transposed_conv(xt, wt)
        return T.tmean(out * out)

    _check("transposed_conv", f_tc, [xt, wt], results)

    p_relu = B.init_separable_conv(rng, 2, 3)
    xr = Tensor(rng.uniform(-1, 1, (2, 2, 4, 4)), requires_grad=True)
    leaves = [xr] + [t for t in B.params_of(p_relu).values() if t.requires_grad]

    def f_sep_relu(*_):
        out = B.separable_conv_bn(xr, p_relu, training=True, update_stats=False,
                                  relu=True)
        return T.tmean(out * out) * 0.1

    _check("separable_conv_bn_relu", f_sep_relu, leaves, results)

    p_mlp = B.init_swin_pair(rng, 4, 2, 2, mlp_ratio=2).mlp1
    p_mlp.b1.data = rng.uniform(-0.5, 0.5, p_mlp.b1.shape)
    xm = Tensor(rng.uniform(-1, 1, (2, 4, 3, 3)), requires_grad=True)
    leaves = [xm] + list(B.params_of(p_mlp).values())

    def f_mlp(*_):
        out = T.pointwise_mlp(xm, p_mlp.w1, p_mlp.b1, p_mlp.w2, p_mlp.b2)
        return T.tmean(out * out) * 0.1

    _check("pointwise_mlp", f_mlp, leaves, results)
    return results


def gradcheck_model(seed=0):
    cfg = M.ModelConfig(
        input_height=32, input_width=32, input_channels=1, base_channels=2,
        num_classes=1, window_size=4, num_heads=2, mlp_ratio=2.0,
    )
    params = M.build(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(0.1, 0.9, (2, 1, 32, 32)), requires_grad=True)
    g = Tensor((rng.random((2, 1, 32, 32)) < 0.5).astype(float))
    leaves = [x] + list(params.trainable().values())

    def f(*_):
        out = M.forward(params, x, training=True, update_stats=False)
        # scaled mean keeps rounding noise below the comparison floor
        return T.tmean((out - g) * (out - g)) * 0.01

    res = T.grad_check(f, leaves, eps=1e-5, max_elements=2, seed=seed)
    return [("model_end_to_end", res)]


# ---------------------------------------------------------------------------
# verb implementations


def _cmd_synth(args):
    spec = _build_synth_spec(_load_kv(args.spec, args.set))
    samples = D.synth_dataset(spec, args.seed)
    write_dataset(samples, args.out, spec.num_classes)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def _cmd_train(args):
    model_cfg, train_cfg = _build_configs(_load_kv(args.config, args.set),
                                          seed=args.seed)
    dataset, num_classes = read_dataset(args.data)
    if num_classes != model_cfg.num_classes:
        raise CliError(
            f"dataset has {num_classes} classes, config {model_cfg.num_classes}"
        )
    shape = dataset[0][0].shape
    if shape != (model_cfg.input_channels, model_cfg.input_height,
                 model_cfg.input_width):
        raise CliError(f"dataset images {shape} do not match the model config")
    result = TR.train(model_cfg, train_cfg, dataset, out_dir=args.out)
    status = "aborted (non-finite loss)" if result.aborted else "completed"
    print(f"{status}: best val_J={result.best_val_j:.4f} "
          f"at epoch {result.best_epoch}; "
          f"checkpoint and log in {args.out}")
    return 0


def _cmd_eval(args):
    params = M.load_checkpoint(args.checkpoint)
    dataset, num_classes = read_dataset(args.data)
    cfg = params.config
    if num_classes != cfg.num_classes:
        raise CliError(
            f"dataset has {num_classes} classes, checkpoint {cfg.num_classes}"
        )
    names = [f"img_{i:04d}" for i in range(len(dataset))]
    probs = [
        M.forward(params, Tensor(img[None]), training=False).data[0]
        for img, _ in dataset
    ]
    preds = [M.labels_from_probs(p) for p in probs]
    if cfg.num_classes == 1:
        report = ME.binary_report(
            [p > 0 for p in preds], [m > 0 for _, m in dataset], names
        )
    else:
        report = ME.multiclass_report(
            probs, [m for _, m in dataset], cfg.num_classes, names
        )
    report.to_csv(args.report)
    if args.overlay_dir:
        overlay_dir = Path(args.overlay_dir)
        overlay_dir.mkdir(parents=True, exist_ok=True)
        for name, pred, (image, mask) in zip(names, preds, dataset):
            pgm.overlay_report(
                image, mask > 0, pred > 0, overlay_dir / f"{name}.ppm",
            )
    print(f"wrote report for {len(dataset)} images to {args.report}")
    return 0


def _cmd_predict(args):
    params = M.load_checkpoint(args.checkpoint)
    record = pgm.read_image(args.image)
    cfg = params.config
    if record.pixels.shape != (cfg.input_channels, cfg.input_height,
                               cfg.input_width):
        raise CliError(
            f"image {record.pixels.shape} does not match the checkpoint config"
        )
    prob = M.forward(params, Tensor(record.pixels[None]), training=False).data[0]
    pgm.write_mask(
        pgm.MaskRecord(labels=M.labels_from_probs(prob),
                       num_classes=cfg.num_classes),
        args.out,
    )
    print(f"wrote mask to {args.out}")
    return 0


def _cmd_gradcheck(args):
    table = {"ops": gradcheck_ops, "blocks": gradcheck_blocks,
             "model": lambda: gradcheck_model(args.seed)}
    results = table[args.scope]()
    worst = 0.0
    for name, res in results:
        print(_kv_line(name, res))
        worst = max(worst, res.max_rel_error)
    print(f"worst max_rel_err={worst:.3e}")
    return 0 if worst <= 1e-4 else 1


def _cmd_complexity(args):
    literal = args.literal_eq15
    if args.h or args.w or args.d or args.n:
        if not all((args.h, args.w, args.d, args.n)):
            raise CliError("--h, --w, --d, --n must be given together")
        h, w, d, n = args.h, args.w, args.d, args.n
        print(f"C_MSA={B.complexity_msa(h, w, d)}")
        print(f"C_SW-MSA={B.complexity_swmsa(h, w, d, n, literal=literal)}")
        return 0
    values = _load_kv(args.config, args.set)
    cfg = M.config_from_text("", overrides=values)
    params = M.allocate(cfg)
    h, w = cfg.input_height // 8, cfg.input_width // 8
    d = 8 * cfg.base_channels
    print(f"params={M.count_params(params)}")
    print(f"flops={M.count_flops(cfg)}")
    print(f"C_MSA={B.complexity_msa(h, w, d)}")
    print(f"C_SW-MSA={B.complexity_swmsa(h, w, d, cfg.window_size, literal=literal)}")
    return 0


def _read_scores(path):
    scores = []
    for i, line in enumerate(Path(path).read_text().splitlines()):
        field = line.split(",")[0].strip()
        if not field:
            continue
        try:
            scores.append(float(field))
        except ValueError:
            if i == 0:
                continue  # header line
            raise CliError(f"{path}: non-numeric score {field!r}")
    if not scores:
        raise CliError(f"{path}: no scores found")
    return scores


def _cmd_ttest(args):
    a = _read_scores(args.a)
    b = _read_scores(args.b)
    result = ME.paired_t_test(a, b)
    print(f"t={result.t:.4f} df={result.df} p={result.p:.4f}")
    if args.out:
        ME.write_t_test_csv(
            args.out, [(Path(args.a).stem, Path(args.b).stem, result)]
        )
    return 0


def _cmd_ablate(args):
    rows = TR.ablation_harness(args.mode, seed=args.seed)
    csv_text = TR.ablation_csv(rows)
    if args.out:
        Path(args.out).write_text(csv_text)
    print(csv_text, end="")
    return 0


_VERBS = ("synth", "train", "eval", "predict", "gradcheck", "complexity",
         "ttest", "ablate")


def build_parser():
    return _parser(_VERBS)


def _parser(verbs):
    """The hybridseg parser with the subparsers of the given verbs only; a
    verb's subparser and help text do not depend on which others exist."""
    parser = Parser(prog="hybridseg", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    if "synth" in verbs:
        p = sub.add_parser("synth", help="generate a synthetic dataset")
        p.add_argument("--spec", help="flat key=value spec file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a spec value (repeatable)")
        p.add_argument("--out", required=True, help="output dataset directory")
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(fn=_cmd_synth)

    if "train" in verbs:
        p = sub.add_parser("train", help="train a model on a dataset directory")
        p.add_argument("--config", help="flat key=value model+training config")
        p.add_argument("--set", action="append", metavar="KEY=VALUE")
        p.add_argument("--data", required=True, help="dataset directory")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(fn=_cmd_train)

    if "eval" in verbs:
        p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--report", required=True, help="metrics CSV path")
        p.add_argument("--overlay-dir", help="write per-image overlays here")
        p.set_defaults(fn=_cmd_eval)

    if "predict" in verbs:
        p = sub.add_parser("predict", help="segment a single PGM/PPM image")
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--image", required=True)
        p.add_argument("--out", required=True, help="output mask path")
        p.set_defaults(fn=_cmd_predict)

    if "gradcheck" in verbs:
        p = sub.add_parser("gradcheck",
                           help="finite-difference validation of gradients")
        p.add_argument("--scope", choices=("ops", "blocks", "model"),
                       required=True)
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(fn=_cmd_gradcheck)

    if "complexity" in verbs:
        p = sub.add_parser("complexity",
                           help="parameter, FLOP, and attention cost counters")
        p.add_argument("--config", help="model config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE")
        p.add_argument("--h", type=int, help="attention grid height (direct mode)")
        p.add_argument("--w", type=int, help="attention grid width (direct mode)")
        p.add_argument("--d", type=int, help="embedding dimension (direct mode)")
        p.add_argument("--n", type=int, help="window size (direct mode)")
        p.add_argument("--literal-eq15", action="store_true",
                       help="use the quadratic window-attention count variant")
        p.set_defaults(fn=_cmd_complexity)

    if "ttest" in verbs:
        p = sub.add_parser("ttest", help="paired t-test between two score files")
        p.add_argument("--a", required=True, help="scores file, one per line")
        p.add_argument("--b", required=True)
        p.add_argument("--out", help="optional CSV output")
        p.set_defaults(fn=_cmd_ttest)

    if "ablate" in verbs:
        p = sub.add_parser("ablate", help="run an ablation table")
        p.add_argument("--mode", choices=("placement", "loss_combo", "transfer"),
                       required=True)
        p.add_argument("--out", help="CSV output path")
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(fn=_cmd_ablate)
    return parser


def run(argv):
    # a request parses with its verb's subparser alone; --help, a missing
    # or unknown verb get the whole parser, whose messages list every verb
    verbs = argv[:1] if argv[:1] and argv[0] in _VERBS else _VERBS
    parser = _parser(verbs)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.fn(args)
    except (FileNotFoundError, OSError, FormatError) as exc:
        print(f"hybridseg: io error: {exc}", file=sys.stderr)
        return 2
    except (CliError, ValueError, KeyError, ShapeError, NonFiniteError) as exc:
        print(f"hybridseg: error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
