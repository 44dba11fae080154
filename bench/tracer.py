"""Out-of-program tracer for the hybridseg benchmark.

``Tracer.install`` replaces every public function of the library modules
with a wrapper that records one span per call: name, start, end and parent.
The modules call one another through module attributes (``T.conv2d``,
``B.bconv_lstm``, ``pgm.read_image``, and ``adam_step`` through train's
globals), so replacing the attribute is enough for a wrapper to see every
call. ``uninstall`` puts the shipped functions back, so code run outside an
install/uninstall pair executes the library exactly as shipped.

Spans are kept in memory in parallel lists and written out by ``save``.
Besides spans, a few hooks count work from the shapes of the arrays a call
received and returned (FLOPs, bytes), from the files it read or wrote, and
from its result (exit codes, aborted runs). Counts are exact and repeat from
run to run; times are not.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from collections import Counter

import numpy as np

from hybridseg import blocks, cli, data, losses, metrics, model, pgm, tensor, train

MODULES = (tensor, blocks, model, losses, metrics, data, train, pgm, cli)

# ``record`` is a context manager and ``active_tape`` an accessor: a span
# around either measures nothing. ``cli.build_parser`` is argument parsing,
# which belongs to ``cli.run``'s own time.
NOT_WRAPPED = {"hybridseg.tensor.record", "hybridseg.tensor.active_tape",
               "hybridseg.cli.build_parser"}

# Blocks whose backward is estimated by replay (see ``replay_backward``).
REPLAYED = ("separable_conv_bn", "bconv_lstm", "swin_block_pair", "transposed_conv")

# Shipped functions the hooks call: taken before install, so a hook never
# records spans of its own.
_ACTIVE_TAPE = tensor.active_tape
_PARAMS_OF = blocks.params_of


def _short(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _public_functions(mod):
    for name, fn in vars(mod).items():
        if (not name.startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == mod.__name__
                and f"{mod.__name__}.{name}" not in NOT_WRAPPED):
            yield name, fn


def _training_flag(args, kwargs):
    return bool(kwargs.get("training", args[2] if len(args) > 2 else False))


def _params_shapes(p):
    return tuple(sorted((k, t.shape) for k, t in _PARAMS_OF(p).items()))


def _block_inputs(block, args):
    """The input tensors of a REPLAYED block call; the params come next."""
    return list(args[0]) if block == "bconv_lstm" else [args[0]]


class Tracer:
    """Spans and counts of one benchmark run.

    Spans are grouped in phases (``begin_phase``/``end_phase``, which may
    alternate with untraced stretches); metrics are computed per phase so
    that set-up work is never mixed with the timed units.
    """

    def __init__(self):
        self.name_ids = {}
        self.names = []
        self.span_name = []
        self.start = []
        self.end = []
        self.parent = []
        self._stack = [-1]
        self._saved = []
        self.phases = {}
        self.counts = {}
        self._phase = None
        self.step_bounds = []  # (start of forward_train, end of adam_step)
        self._step_open = None
        self._train_forward = 0
        self.block_calls = Counter()  # (block, shapes) -> calls in training forwards
        self.block_args = {}  # (block, shapes) -> args of the first such call

    # -- phases --------------------------------------------------------

    def begin_phase(self, phase):
        """Start or resume a phase; later spans and counts belong to it."""
        self.phases.setdefault(phase, []).append([len(self.start), None])
        self.counts.setdefault(phase, Counter())
        self._phase = phase

    def end_phase(self):
        self.phases[self._phase][-1][1] = len(self.start)

    # -- install / uninstall -------------------------------------------

    def install(self):
        hooks = self._hooks()
        for mod in MODULES:
            for name, fn in list(_public_functions(mod)):
                short = _short(fn)
                self._saved.append((mod, name, fn))
                setattr(mod, name, self._wrap(short, fn, hooks.get(short)))

    def uninstall(self):
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved = []

    def _id(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, short, fn, hook):
        before, after, naming = hook or (None, None, None)
        fixed_id = self._id(short)
        start, end, parent, span_name, stack = (
            self.start, self.end, self.parent, self.span_name, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            nid = fixed_id if naming is None else self._id(naming(args, kwargs))
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            if before is not None:
                before(args, kwargs)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(args, kwargs, out, t0, t1)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- hooks: counts derived from arguments, results and files -------

    def _count(self, key, n=1):
        self.counts[self._phase][key] += n

    def _hooks(self):
        c = self._count

        def conv2d_after(args, kwargs, out, t0, t1):
            x, w = args[0], args[1]
            c("tensor.conv2d.flops", 2 * out.size * int(np.prod(w.shape[1:])))
            c("tensor.conv2d.bytes", 8 * (x.size + w.size + out.size))
            if not x.data.any():
                c("tensor.conv2d.zero_input_calls")

        def matmul_after(args, kwargs, out, t0, t1):
            c("tensor.matmul.flops", 2 * out.size * args[0].shape[-1])

        def conv_transpose_after(args, kwargs, out, t0, t1):
            c("tensor.conv_transpose2d.flops", 2 * out.size * args[0].shape[1])

        def backward_after(args, kwargs, out, t0, t1):
            c("tensor.tape_ops", len(_ACTIVE_TAPE()))

        def forward_name(args, kwargs):
            return ("model.forward_train" if _training_flag(args, kwargs)
                    else "model.forward_eval")

        # Steps and block calls are taken from the timed units only, never
        # from the warm-up training in set-up.
        def unit_training(args, kwargs):
            return self._phase == "units" and _training_flag(args, kwargs)

        def forward_before(args, kwargs):
            if unit_training(args, kwargs):
                self._train_forward += 1
                self._step_open = time.perf_counter()

        def forward_after(args, kwargs, out, t0, t1):
            c("model.forward_samples", args[1].shape[0])
            if unit_training(args, kwargs):
                self._train_forward -= 1

        def adam_after(args, kwargs, out, t0, t1):
            if self._step_open is not None:
                self.step_bounds.append((self._step_open, t1))
                self._step_open = None

        def capture(block):
            def before(args, kwargs):
                if not self._train_forward:
                    return
                key = (block, tuple(t.shape for t in _block_inputs(block, args)),
                       _params_shapes(args[1]))
                self.block_calls[key] += 1
                self.block_args.setdefault(key, args)
            return before

        def hausdorff_after(args, kwargs, out, t0, t1):
            na = int(np.count_nonzero(args[0]))
            nb = int(np.count_nonzero(args[1]))
            c("metrics.hausdorff.pairs", 2 * na * nb)

        def file_read_before(args, kwargs):
            c("pgm.bytes_read", os.path.getsize(args[0]))

        def file_written_after(args, kwargs, out, t0, t1):
            c("pgm.bytes_written", os.path.getsize(args[1]))

        def cli_after(args, kwargs, out, t0, t1):
            if out != 0:
                c("cli.nonzero_exit")

        def train_after(args, kwargs, out, t0, t1):
            if out.aborted:
                c("train.aborted")

        hooks = {
            "tensor.conv2d": (None, conv2d_after, None),
            "tensor.matmul": (None, matmul_after, None),
            "tensor.conv_transpose2d": (None, conv_transpose_after, None),
            "tensor.backward": (None, backward_after, None),
            "model.forward": (forward_before, forward_after, forward_name),
            "train.adam_step": (None, adam_after, None),
            "metrics.hausdorff": (None, hausdorff_after, None),
            "pgm.read_image": (file_read_before, None, None),
            "pgm.read_mask": (file_read_before, None, None),
            "pgm.write_image": (None, file_written_after, None),
            "pgm.write_mask": (None, file_written_after, None),
            "cli.run": (None, cli_after, None),
            "train.train": (None, train_after, None),
        }
        hooks.update({f"blocks.{block}": (capture(block), None, None)
                      for block in REPLAYED})
        return hooks

    # -- aggregation ---------------------------------------------------

    def span_stats(self, phase):
        """{name: (calls, total_s, self_s)} over the spans of one phase.

        Self time is a span's duration minus the part covered by its child
        spans; every span of a phase started and ended inside it.
        """
        idx = np.concatenate([np.arange(lo, hi, dtype=np.int64)
                              for lo, hi in self.phases[phase]])
        ids = np.asarray(self.span_name, dtype=np.int64)[idx]
        dur = (np.asarray(self.end) - np.asarray(self.start))[idx]
        par = np.asarray(self.parent, dtype=np.int64)[idx]
        local = np.full(len(self.start), -1, dtype=np.int64)
        local[idx] = np.arange(len(idx))
        inside = par >= 0
        child = np.zeros_like(dur)
        np.add.at(child, local[par[inside]], dur[inside])
        own = dur - child
        calls = np.bincount(ids, minlength=len(self.names))
        total = np.bincount(ids, weights=dur, minlength=len(self.names))
        selft = np.bincount(ids, weights=own, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(total[i]), float(selft[i]))
            for i, name in enumerate(self.names) if calls[i]
        }

    def replay_backward(self, steps):
        """Per-block backward seconds per training step, by replay: an estimate.

        Each distinct (block, input shapes, parameter shapes) seen in a
        training forward is run once more under a fresh ``tensor.record()``
        and ``tensor.backward`` is timed on the sum of its output. That time
        is weighted by how often the key was called per step. Call with the
        tracer uninstalled.
        """
        per_step = Counter()
        for key, args in self.block_args.items():
            block = key[0]
            fresh = [tensor.Tensor(t.data, requires_grad=t.requires_grad)
                     for t in _block_inputs(block, args)]
            with tensor.record():
                if block == "separable_conv_bn":
                    out = blocks.separable_conv_bn(fresh[0], args[1], True, False)
                elif block == "bconv_lstm":
                    out = blocks.bconv_lstm(fresh, args[1])
                else:
                    out = getattr(blocks, block)(fresh[0], args[1])
                root = tensor.tsum(out)
                t0 = time.perf_counter()
                tensor.backward(root)
                seconds = time.perf_counter() - t0
            per_step[block] += seconds * self.block_calls[key] / steps
        return per_step

    def save(self, path):
        """Write every span (name, start, end, parent index) to an .npz file."""
        np.savez(
            path,
            names=np.asarray(self.names),
            name=np.asarray(self.span_name, dtype=np.int32),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent, dtype=np.int64),
            phases=np.asarray(json.dumps(self.phases)),
        )
