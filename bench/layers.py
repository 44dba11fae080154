"""Per-layer metrics of the hybridseg benchmark, derived from one traced run.

Unless the name says otherwise, a value is per unit of the traced part of
the run: per training step (``train.adam_step`` call) on the train
workloads, per ``cli.run`` request on infer_mc64. The exceptions:

- ``tensor.tape_ops`` is the tape length per ``tensor.backward`` call.
- ``*_ratio`` values are ratios of two counts or two times.
- ``train.step_p50_s``/``train.step_p90_s`` are percentiles over steps,
  each from the start of a training forward to the end of its Adam update.
- ``model.flops_analytic`` (``model.count_flops``) and
  ``model.flops_executed`` are per forward sample.
- ``data.synth_dataset.total_s`` is per set-up.
- ``blocks.*.backward_s`` is per training step, estimated by replay.

Names ending in ``calls``, ``flops``, ``bytes``, ``pairs``, and
``tensor.tape_ops``, are counts and repeat exactly from run to run. FLOPs
and bytes are computed from array shapes, for forward calls only.
``*.self_s`` is time not covered by a traced callee; ``*.total_s`` includes
callees. The layers run on one thread with no queue, so no time is spent
waiting and none is recorded.
"""

from __future__ import annotations

import statistics

from tracer import REPLAYED

NOTE = ("FLOPs and bytes computed from array shapes, forward calls only; "
        "backward_s is a replay estimate")

TENSOR_GROUPS = {
    "layout": ("concat", "narrow", "reshape", "transpose", "pad2d", "roll2d"),
    "elementwise": ("add", "sub", "mul", "div", "neg", "relu", "exp", "log",
                    "sqrt"),
    "reduce": ("tsum", "tmean", "tmax"),
}
BLOCKS = ("separable_conv_bn", "encoder_block", "bconv_lstm", "conv_lstm_step",
          "swin_block_pair", "window_attention", "transposed_conv")
FLOP_COUNTERS = ("tensor.conv2d.flops", "tensor.matmul.flops",
                 "tensor.conv_transpose2d.flops")


def _percentiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    return statistics.median(values), statistics.quantiles(values, n=10)[-1]


def per_layer(tracer, units, setup_repeats, backward, flops_analytic,
              overhead_ratio):
    """{metric: (value, unit)} in the order BENCHMARK.json lists them."""
    stats = tracer.span_stats("units")
    setup = tracer.span_stats("setup")
    counts = tracer.counts["units"]
    out = {}

    def per(value):  # a division, so equal totals per unit give equal floats
        return value / units if units else 0.0

    def raw(name, field):
        return stats.get(name, (0, 0.0, 0.0))[field]

    def calls(name, *members):
        out[name + ".calls"] = (
            per(sum(raw(m, 0) for m in members or (name,))), "calls")

    def total(name):
        out[name + ".total_s"] = (per(raw(name, 1)), "s")

    def self_s(name, *members):
        out[name + ".self_s"] = (
            per(sum(raw(m, 2) for m in members or (name,))), "s")

    backwards = raw("tensor.backward", 0)
    out["tensor.tape_ops"] = (
        counts["tensor.tape_ops"] / backwards if backwards else 0.0, "ops")
    self_s("tensor.backward")
    calls("tensor.conv2d")
    self_s("tensor.conv2d")
    out["tensor.conv2d.flops"] = (per(counts["tensor.conv2d.flops"]), "flop")
    out["tensor.conv2d.bytes"] = (per(counts["tensor.conv2d.bytes"]), "B")
    conv_calls = raw("tensor.conv2d", 0)
    out["tensor.conv2d.zero_input_ratio"] = (
        counts["tensor.conv2d.zero_input_calls"] / conv_calls
        if conv_calls else 0.0, "1")
    calls("tensor.matmul")
    self_s("tensor.matmul")
    out["tensor.matmul.flops"] = (per(counts["tensor.matmul.flops"]), "flop")
    for op in ("softmax", "sigmoid", "tanh", "conv_transpose2d", "maxpool2x2"):
        self_s(f"tensor.{op}")
    out["tensor.conv_transpose2d.flops"] = (
        per(counts["tensor.conv_transpose2d.flops"]), "flop")
    for group, members in TENSOR_GROUPS.items():
        names = [f"tensor.{m}" for m in members]
        calls(f"tensor.{group}", *names)
        self_s(f"tensor.{group}", *names)

    for block in BLOCKS:
        calls(f"blocks.{block}")
        total(f"blocks.{block}")
    for block in REPLAYED:
        out[f"blocks.{block}.backward_s"] = (backward.get(block, 0.0), "s")

    for name in ("forward_train", "forward_eval", "load_checkpoint",
                 "save_checkpoint", "build"):
        total(f"model.{name}")
    out["model.flops_analytic"] = (flops_analytic, "flop")
    samples = counts["model.forward_samples"]
    out["model.flops_executed"] = (
        sum(counts[k] for k in FLOP_COUNTERS) / samples if samples else 0.0,
        "flop")

    for name in ("composite_loss", "composite_loss_batch", "level_set"):
        calls(f"losses.{name}")
        total(f"losses.{name}")

    calls("metrics.hausdorff")
    total("metrics.hausdorff")
    out["metrics.hausdorff.pairs"] = (
        per(counts["metrics.hausdorff.pairs"]), "pairs")
    calls("metrics.confusion")
    total("metrics.multiclass_report")

    out["data.synth_dataset.total_s"] = (
        setup.get("data.synth_dataset", (0, 0.0))[1] / setup_repeats, "s")
    calls("data.augment")
    total("data.augment")

    calls("train.adam_step")
    total("train.adam_step")
    p50, p90 = _percentiles([b - a for a, b in tracer.step_bounds])
    out["train.step_p50_s"] = (p50, "s")
    out["train.step_p90_s"] = (p90, "s")
    out["train.aborted"] = (per(counts["train.aborted"]), "count")

    for name in ("read_image", "read_mask", "write_mask", "overlay_report"):
        calls(f"pgm.{name}")
        total(f"pgm.{name}")
    out["pgm.bytes_read"] = (per(counts["pgm.bytes_read"]), "B")
    out["pgm.bytes_written"] = (per(counts["pgm.bytes_written"]), "B")

    calls("cli.run")
    self_s("cli.run")
    out["cli.nonzero_exit"] = (per(counts["cli.nonzero_exit"]), "count")

    out["trace_overhead_ratio"] = (overhead_ratio, "1")
    return out
