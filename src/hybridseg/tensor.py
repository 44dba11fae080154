"""Dense float64 tensors with reverse-mode automatic differentiation.

A Tensor wraps a NumPy float64 array (row-major). While a Tape is active,
differentiable operations append themselves to it in execution order, which
is topological by construction; ``backward`` replays the record in reverse
and accumulates gradients into the participating tensors. It releases each
entry, and each intermediate tensor's gradient, as soon as it has used them,
so afterwards only the leaves and the root keep a ``grad``.

A tape entry keeps what its backward cannot cheaply rebuild, and its
backward recomputes the rest bit for bit with the forward's own ops: a
convolution keeps its inputs, not its patch matrix; window_attention keeps
the per-head q, k^T and v and the softmax's row max and row sum, not the
attention probabilities, the context or the token rows; pointwise_mlp
keeps its inputs, not its ReLU hidden layer; bconv_lstm keeps its gates
and cells, not its hidden states or its mixing convolutions' outputs.

The tape is strictly single-threaded: one tape is active at a time and
recording onto a consumed tape is an error. Tensors that never touch a tape
are plain immutable values and safe to share across threads.

Non-finite values (NaN/Inf) are treated as an error surface: every operation
validates its result and raises NonFiniteError instead of propagating them.
"""

from __future__ import annotations

import math
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class NonFiniteError(ArithmeticError):
    """An operation produced (or was handed) NaN or Inf values."""


class TapeError(RuntimeError):
    """Tape misuse: nested tapes, consumed tape, or detached graph."""


class FormatError(ValueError):
    """Malformed tensor serialization record."""


_TAPE = None
_PATTERN_WATCH = None  # collects relu/maxpool decision signatures when enabled


def _check_finite(arr, opname):
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{opname} produced non-finite values")


class Tensor:
    """N-dimensional float64 array with an optional gradient slot.

    ``data`` is the value, ``grad`` (filled by backward) has the same shape,
    ``requires_grad`` marks leaves the user wants derivatives for and is
    propagated to every op output that depends on one. Tensors hash and
    compare by identity.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr, "tensor construction")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise ShapeError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; scalars are lifted to constant tensors
    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __neg__(self):
        return neg(self)


def _lift(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


class Tape:
    """Ordered record of operations for one forward/backward episode.

    Entries are (output tensors, input tensors, backward rule) appended in
    execution order; most ops have one output, conv_lstm_step has two.
    backward replaces each entry by None once its rule has run, so len()
    still counts the entries recorded.
    ``kink_tol`` > 0 arms kink detection: the ReLUs inside
    separable_conv_bn and pointwise_mlp, and maxpool2x2, count evaluations
    that land within the tolerance of a nondifferentiable point (used by
    grad_check to flag excluded points).
    """

    def __init__(self):
        self.ops = []
        self.consumed = False
        self.kink_tol = 0.0
        self.kink_events = 0
        self._produced = set()

    def __len__(self):
        return len(self.ops)


@contextmanager
def record():
    """Activate a fresh tape for the duration of the block."""
    global _TAPE
    if _TAPE is not None:
        raise TapeError("a tape is already active; one tape per training run")
    tape = Tape()
    _TAPE = tape
    try:
        yield tape
    finally:
        _TAPE = None


def active_tape():
    return _TAPE


def _recording(inputs):
    """Whether _register will record an op on these inputs."""
    tape = _TAPE
    return tape is not None and any(t.requires_grad for t in inputs)


def _register(out, inputs, backward_fn):
    """Record an op if a tape is active and any input wants gradients.

    out is the op's output tensor, or a tuple of them for an op with several
    outputs. backward_fn takes one gradient per output (None for an output no
    gradient reached) and returns one per input (None where not needed).
    """
    tape = _TAPE
    if _recording(inputs):
        if tape.consumed:
            raise TapeError("tape already consumed by backward")
        outs = out if isinstance(out, tuple) else (out,)
        for o in outs:
            o.requires_grad = True
            tape._produced.add(o)
        tape.ops.append((outs, inputs, backward_fn))
    return out


def _kink_hook(min_gap):
    """Count a kink event if kink detection is armed and min_gap(), the
    distance to the nearest nondifferentiable point, is within tolerance;
    min_gap is only called when armed."""
    tape = _TAPE
    if tape is not None and tape.kink_tol > 0.0 and min_gap() <= tape.kink_tol:
        tape.kink_events += 1


def _pattern_hook(decision):
    """Record a digest of a relu mask / maxpool argmax so grad_check can detect
    evaluations whose piecewise branch differs between perturbed points."""
    if _PATTERN_WATCH is not None:
        _PATTERN_WATCH.append(
            zlib.crc32(np.ascontiguousarray(decision).tobytes())
        )


def _broadcast_check(sa, sb):
    ra, rb = len(sa), len(sb)
    r = max(ra, rb)
    pa = (1,) * (r - ra) + tuple(sa)
    pb = (1,) * (r - rb) + tuple(sb)
    for da, db in zip(pa, pb):
        if da != db and da != 1 and db != 1:
            raise ShapeError(f"shapes {sa} and {sb} are not broadcast-compatible")


def _unbroadcast(g, shape):
    """Sum gradient over axes that were expanded by broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise primitives


def add(a, b):
    _broadcast_check(a.shape, b.shape)
    out = Tensor(a.data + b.data)

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _register(out, [a, b], bw)


def sub(a, b):
    _broadcast_check(a.shape, b.shape)
    out = Tensor(a.data - b.data)

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _register(out, [a, b], bw)


def mul(a, b):
    _broadcast_check(a.shape, b.shape)
    out = Tensor(a.data * b.data)

    def bw(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _register(out, [a, b], bw)


def div(a, b):
    _broadcast_check(a.shape, b.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = Tensor(a.data / b.data)  # non-finite results raise in Tensor()
    y = out.data

    def bw(g):
        return (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-g * y / b.data, b.shape),
        )

    return _register(out, [a, b], bw)


def neg(a):
    out = Tensor(-a.data)
    return _register(out, [a], lambda g: (-g,))


def _sigmoid(x):
    z = np.exp(-np.abs(x))  # never overflows
    d = 1.0 + z
    # 1 / d where x >= 0 (there z <= 1), z / d elsewhere: the two-branch
    # form's bits without its data-dependent select
    return np.maximum(z, x >= 0) / d


def sigmoid(a):
    y = _sigmoid(a.data)
    out = Tensor(y)

    def bw(g):
        return (g * y * (1.0 - y),)

    return _register(out, [a], bw)


def tanh(a):
    y = np.tanh(a.data)
    out = Tensor(y)

    def bw(g):
        return (g * (1.0 - y * y),)

    return _register(out, [a], bw)


# ---------------------------------------------------------------------------
# structural primitives


def concat(tensors, axis):
    """Join tensors along axis; all other extents must agree."""
    if not tensors:
        raise ShapeError("concat of an empty list")
    axis = int(axis)
    ref = tensors[0].shape
    for t in tensors[1:]:
        if len(t.shape) != len(ref):
            raise ShapeError("concat rank mismatch")
        for i, (x, y) in enumerate(zip(t.shape, ref)):
            if i != axis % len(ref) and x != y:
                raise ShapeError("concat off-axis extent mismatch")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        return tuple(
            np.take(g, range(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(tensors))
        )

    return _register(out, list(tensors), bw)


def narrow(a, axis, start, length):
    """Contiguous slice [start, start+length) along one axis."""
    axis = int(axis)
    if start < 0 or start + length > a.shape[axis]:
        raise ShapeError("narrow out of range")
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = Tensor(a.data[idx].copy())

    def bw(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return _register(out, [a], bw)


def reshape(a, shape):
    out = Tensor(a.data.reshape(shape))
    return _register(out, [a], lambda g: (g.reshape(a.shape),))


def _norm_axes(axes, ndim):
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = [axes]
    if any(not -ndim <= ax < ndim for ax in axes):
        raise ShapeError(f"invalid reduction axes {axes}")
    out = tuple(sorted(ax % ndim for ax in axes))
    if len(set(out)) != len(out):
        raise ShapeError(f"repeated reduction axes {axes}")
    return out


def _expand_reduced(g, shape, axes, keepdims):
    if not keepdims:
        for ax in axes:
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def tsum(a, axes=None, keepdims=False):
    axes = _norm_axes(axes, a.ndim)
    out = Tensor(a.data.sum(axis=axes, keepdims=keepdims))

    def bw(g):
        return (_expand_reduced(g, a.shape, axes, keepdims).copy(),)

    return _register(out, [a], bw)


def tmean(a, axes=None, keepdims=False):
    axes = _norm_axes(axes, a.ndim)
    count = int(np.prod([a.shape[ax] for ax in axes])) if axes else 1
    out = Tensor(a.data.mean(axis=axes, keepdims=keepdims))

    def bw(g):
        return (_expand_reduced(g, a.shape, axes, keepdims) / count,)

    return _register(out, [a], bw)


def softmax(a, axis):
    """Probability-normalized exponentials along axis, max-shifted for stability."""
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def bw(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _register(out, [a], bw)


def normalize(x, gamma, beta, axes, eps, stats=None):
    """(x - mean) / sqrt(var + eps) * gamma + beta, as one tape entry.

    Mean and variance are taken over axes (batch statistics), or are the
    given stats = (mean, var) arrays of the reduced shape, which get no
    gradient. gamma and beta are per channel on axis 1. Returns (out, mean,
    var), the statistics as arrays of the reduced (keepdims) shape. The
    forward repeats the NumPy sequence of the same normalization composed
    from taped ops, so outputs are bitwise equal to it; the backward is
    written out in that composition's order, and x is listed twice among the
    entry's inputs so that its centred-path and mean-path gradients are
    added to x.grad one after the other, as the composition adds them. The
    entry keeps x and the mean, not the centred input, which the backward
    recomputes bit for bit.
    """
    xd = x.data
    if xd.ndim < 2 or gamma.shape != (xd.shape[1],) or beta.shape != gamma.shape:
        raise ShapeError(
            f"normalize: input {xd.shape} with per-channel gamma {gamma.shape} "
            f"and beta {beta.shape}"
        )
    axes = _norm_axes(axes, xd.ndim)
    reduced = tuple(1 if i in axes else s for i, s in enumerate(xd.shape))
    count = int(np.prod([xd.shape[ax] for ax in axes]))
    pshape = (1, xd.shape[1]) + (1,) * (xd.ndim - 2)
    g4, b4 = gamma.data.reshape(pshape), beta.data.reshape(pshape)
    if stats is None:
        if count == 0:
            raise ShapeError(f"normalize: batch statistics over empty axes {axes}")
        inputs = [x, x, gamma, beta]
    else:
        if any(np.size(s) != np.prod(reduced) for s in stats):
            raise ShapeError(f"normalize: stats do not match {reduced}")
        inputs = [x, gamma, beta]
    y, _, std, mean, var = _normalize(xd, g4, b4, axes, reduced, eps, stats,
                                      "normalize")
    out = Tensor(y)

    def bw(g):
        gc, g_mean, g_gamma, g_beta = _normalize_grads(
            g, xd - mean, std, g4, reduced, count, stats is None)
        if g_mean is None:
            return gc, g_gamma, g_beta
        return gc, g_mean, g_gamma, g_beta

    return _register(out, inputs, bw), mean, var


def _normalize(xd, g4, b4, axes, reduced, eps, stats, opname):
    """normalize's forward on arrays: (y, centered, std, mean, var), with the
    statistics of the reduced (keepdims) shape. Raises NonFiniteError naming
    opname when the variance or the output is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        if stats is None:
            mean = xd.mean(axis=axes, keepdims=True)
            centered = xd - mean
            var = (centered * centered).mean(axis=axes, keepdims=True)
        else:
            mean, var = (np.reshape(s, reduced) for s in stats)
            centered = xd - mean
        _check_finite(var, f"{opname} variance")
        std = np.sqrt(var + eps)
        y = centered / std  # xhat
        y *= g4
        y += b4
        _check_finite(y, opname)
    return y, centered, std, mean, var


def _normalize_grads(g, centered, std, g4, reduced, count, batch_stats):
    """normalize's backward on arrays, in the composition's order: (gc,
    g_mean, g_gamma, g_beta). gc and g_mean are the centred-path and
    mean-path input gradients; g_mean is None for given statistics."""
    pshape = g4.shape
    # xhat is recomputed, bit for bit, rather than held on the tape
    xhat = centered / std
    g_gamma = _unbroadcast(g * xhat, pshape).reshape(-1)
    g_beta = _unbroadcast(g, pshape).reshape(-1)
    g_xhat = g * g4
    gc = g_xhat / std
    if not batch_stats:
        return gc, None, g_gamma, g_beta
    g_std = _unbroadcast(-g_xhat * xhat / std, reduced)
    del xhat, g_xhat
    g_sq = np.broadcast_to(g_std * 0.5 / std, centered.shape) / count
    g_sq *= centered
    gc += g_sq  # the two factors of centered * centered, one at a time
    gc += g_sq
    g_mean = np.broadcast_to(_unbroadcast(-gc, reduced), centered.shape) / count
    return gc, g_mean, g_gamma, g_beta


def pad2d(a, pads):
    """Zero-pad the last two axes by (top, bottom, left, right)."""
    pt, pb, pl, pr = pads
    width = [(0, 0)] * (a.ndim - 2) + [(pt, pb), (pl, pr)]
    out = Tensor(np.pad(a.data, width))
    sl = (Ellipsis, slice(pt, pt + a.shape[-2]), slice(pl, pl + a.shape[-1]))

    def bw(g):
        return (g[sl],)

    return _register(out, [a], bw)


# ---------------------------------------------------------------------------
# convolution primitives (stride 1 unless stated otherwise)


def _pad_hw(xd, p):
    """NCHW array xd zero-padded by p on both spatial axes: np.pad's result
    without its fixed per-call cost, which is most of the time at these
    sizes."""
    if not p:
        return xd
    b, c, h, w = xd.shape
    xp = np.zeros((b, c, h + 2 * p, w + 2 * p))
    xp[:, :, p : p + h, p : p + w] = xd
    return xp


def conv2d(x, w, padding=0, groups=1):
    """2-D cross-correlation, stride 1.

    x: (B, Cin, H, W); w: (Cout, Cin/groups, kh, kw). groups is 1 (dense,
    e.g. pointwise) or Cin (depthwise with one filter per channel). The tape
    entry keeps its inputs and no patch matrix: a dense k x k backward
    gathers the patches from x again.
    """
    xd, wd = x.data, w.data
    if xd.ndim != 4 or wd.ndim != 4:
        raise ShapeError("conv2d expects rank-4 input and kernel")
    _, cin, h, wth = xd.shape
    cout, cper, kh, kw = wd.shape
    if groups == 1:
        depthwise = False
        if cper != cin:
            raise ShapeError(
                f"conv2d channel mismatch: input {cin}, kernel {wd.shape}"
            )
    elif groups == cin:
        depthwise = True
        if cper != 1 or cout != cin:
            raise ShapeError(
                f"depthwise conv2d needs kernel ({cin}, 1, k, k), got {wd.shape}"
            )
    else:
        raise ShapeError(f"unsupported group count {groups}")
    p = int(padding)
    if h + 2 * p < kh or wth + 2 * p < kw:
        raise ShapeError("conv2d spatial extents smaller than kernel")
    if p and kh == 1 and kw == 1 and not depthwise:
        raise ShapeError("padding is meaningless for a 1x1 kernel")
    need_x, need_w = x.requires_grad, w.requires_grad
    out = Tensor(_conv(xd, wd, p, depthwise))

    def bw(g):
        return _conv_grads(g, xd, wd, p, depthwise, need_x, need_w)

    return _register(out, [x, w], bw)


def _conv(xd, wd, p, depthwise):
    """conv2d's forward on arrays. A depthwise kernel runs tap by tap, a dense
    1x1 kernel as one channel-mixing product, any other dense kernel as a
    GEMM on the patch matrix. Overflow is left to the caller's finiteness
    check."""
    with np.errstate(over="ignore", invalid="ignore"):
        if depthwise:
            return _depthwise_conv(xd, wd, p)
        if wd.shape[2:] == (1, 1):
            y = np.tensordot(xd, wd.reshape(wd.shape[0], -1), axes=([1], [1]))
            return np.ascontiguousarray(y.transpose(0, 3, 1, 2))
        return _dense_conv(xd, wd, p)


def _conv_grads(g, xd, wd, p, depthwise, need_x, need_w):
    """(input, kernel) gradients of _conv from the output gradient g, None
    where not needed."""
    if depthwise:
        return _depthwise_conv_grads(g, xd, wd, p, need_x, need_w)
    cout, _, kh, kw = wd.shape
    if (kh, kw) == (1, 1):
        w2 = wd.reshape(cout, -1)
        gx = gw = None
        if need_x:
            gx = np.ascontiguousarray(
                np.tensordot(g, w2, axes=([1], [0])).transpose(0, 3, 1, 2)
            )
        if need_w:
            gw = np.tensordot(g, xd, axes=([0, 2, 3], [0, 2, 3]))
            gw = gw.reshape(wd.shape)
        return gx, gw
    return _dense_conv_grads(g, xd, wd, p, need_x, need_w)


def _depthwise_conv(xd, wd, p):
    """Per-channel cross-correlation of xd with wd (C, 1, kh, kw), zero
    padding p: a multiply-add per tap beats materializing the patches."""
    b, c, h, w = xd.shape
    kh, kw = wd.shape[2:]
    xp = _pad_hw(xd, p)
    ho, wo = h + 2 * p - kh + 1, w + 2 * p - kw + 1
    y = np.zeros((b, c, ho, wo))
    for ki in range(kh):
        for kj in range(kw):
            y += xp[:, :, ki : ki + ho, kj : kj + wo] * wd[None, :, 0, ki, kj, None, None]
    return y


def _depthwise_conv_grads(g, xd, wd, p, need_x, need_w):
    """(input, kernel) gradients of _depthwise_conv; the padded input is
    rebuilt from xd, so no tape entry holds a padded copy. The kernel's run
    first and free that copy before the input's padded buffer is made."""
    b, c, h, w = xd.shape
    kh, kw = wd.shape[2:]
    ho, wo = g.shape[2:]
    gx = gw = None
    if need_w:
        xp = _pad_hw(xd, p)
        gw = np.empty_like(wd)
        for ki in range(kh):
            for kj in range(kw):
                gw[:, 0, ki, kj] = (
                    g * xp[:, :, ki : ki + ho, kj : kj + wo]
                ).sum(axis=(0, 2, 3))
        del xp  # freed before the input gradient's buffer is made
    if need_x:
        gxp = np.zeros((b, c, h + 2 * p, w + 2 * p))
        for ki in range(kh):
            for kj in range(kw):
                gxp[:, :, ki : ki + ho, kj : kj + wo] += (
                    g * wd[None, :, 0, ki, kj, None, None]
                )
        gx = np.ascontiguousarray(gxp[:, :, p : p + h, p : p + w]) if p else gxp
    return gx, gw


_GATHER_CACHE = {}


def _gather_index(cin, kh, kw, wp):
    """Column index that takes a row of the (Cin, kh, Wp) band to the
    (Wo, Cin, kh, kw) patch row: band column cin*kh*Wp + ki*Wp + wo + kj."""
    key = (cin, kh, kw, wp)
    if key not in _GATHER_CACHE:
        wo = wp - kw + 1
        _GATHER_CACHE[key] = (
            np.arange(wo)[:, None, None, None]
            + np.arange(cin)[:, None, None] * (kh * wp)
            + np.arange(kh)[:, None] * wp
            + np.arange(kw)
        ).reshape(-1)
    return _GATHER_CACHE[key]


def _patches(xd, kh, kw, p):
    """(B*Ho*Wo, Cin*kh*kw) patch matrix of NCHW array xd, zero padding p:
    one copy of the (B*Ho, Cin*kh*Wp) band of padded rows each output row
    reads, then one take with a cached column index."""
    b, cin = xd.shape[:2]
    xp = _pad_hw(xd, p)
    hp, wp = xp.shape[2:]
    ho = hp - kh + 1
    sb, sc, sh, sw = xp.strides
    band = np.lib.stride_tricks.as_strided(
        xp, (b, ho, cin, kh, wp), (sb, sh, sc, sh, sw)
    ).reshape(b * ho, cin * kh * wp)
    cols = band.take(_gather_index(cin, kh, kw, wp), axis=1)
    return cols.reshape(b * ho * (wp - kw + 1), cin * kh * kw)


def _dense_conv(xd, wd, p):
    """Dense kh x kw cross-correlation of NCHW array xd with zero padding p:
    one GEMM on the (B*Ho*Wo, Cin*kh*kw) patch matrix, which is dropped
    after it. Overflow is left to the caller's finiteness check."""
    b, _, h, w = xd.shape
    cout, _, kh, kw = wd.shape
    ho, wo = h + 2 * p - kh + 1, w + 2 * p - kw + 1
    with np.errstate(over="ignore", invalid="ignore"):
        y = (_patches(xd, kh, kw, p) @ wd.reshape(cout, -1).T).reshape(
            b, ho, wo, cout)
    return np.ascontiguousarray(y.transpose(0, 3, 1, 2))


def _dense_conv_grads(g, xd, wd, p, need_x, need_w):
    """(input, kernel) gradients of _dense_conv from the output gradient g,
    None where not needed: a GEMM on the patch matrix, gathered from xd
    again, for the kernel; a GEMM and a kh*kw-slice col2im for the input.
    The kernel's runs first, so that the input's column buffer reuses the
    freed patch matrix's memory instead of faulting in fresh pages."""
    b, cin, h, w = xd.shape
    cout, _, kh, kw = wd.shape
    ho, wo = g.shape[2:]
    g2 = g.transpose(0, 2, 3, 1).reshape(b * ho * wo, cout)
    gx = gw = None
    if need_w:
        gw = (g2.T @ _patches(xd, kh, kw, p)).reshape(wd.shape)
    if need_x:
        gcols = (g2 @ wd.reshape(cout, -1)).reshape(b, ho, wo, cin, kh, kw)
        gxp = np.zeros((b, h + 2 * p, w + 2 * p, cin))  # channels last
        for ki in range(kh):
            for kj in range(kw):
                gxp[:, ki : ki + ho, kj : kj + wo] += gcols[..., ki, kj]
        gx = np.ascontiguousarray(
            gxp[:, p : p + h, p : p + w].transpose(0, 3, 1, 2)
        )
    return gx, gw


def conv_transpose2d(x, w):
    """Transposed convolution with a 2x2 kernel and stride 2 (exact 2x upsampling).

    x: (B, Cin, H, W); w: (Cin, Cout, 2, 2) -> (B, Cout, 2H, 2W). Windows do
    not overlap, so the output is a pure rearrangement of per-pixel products.
    """
    xd, wd = x.data, w.data
    if xd.ndim != 4 or wd.ndim != 4 or wd.shape[2:] != (2, 2):
        raise ShapeError("conv_transpose2d expects rank-4 input and a 2x2 kernel")
    b, cin, h, wth = xd.shape
    if wd.shape[0] != cin:
        raise ShapeError(f"conv_transpose2d channel mismatch {cin} vs {wd.shape}")
    cout = wd.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.einsum("bchw,cokl->bohkwl", xd, wd, optimize=True)
    out = Tensor(np.ascontiguousarray(t.reshape(b, cout, 2 * h, 2 * wth)))
    need_x, need_w = x.requires_grad, w.requires_grad

    def bw(g):
        gt = g.reshape(b, cout, h, 2, wth, 2)
        gx = np.einsum("bohkwl,cokl->bchw", gt, wd, optimize=True) if need_x else None
        gw = np.einsum("bohkwl,bchw->cokl", gt, xd, optimize=True) if need_w else None
        return gx, gw

    return _register(out, [x, w], bw)


def maxpool2x2(x):
    """2x2 max pooling, stride 2; gradient routes to the argmax of each window."""
    xd = x.data
    b, c, h, w = xd.shape
    if h % 2 or w % 2:
        raise ShapeError("maxpool2x2 requires even spatial extents")
    r = xd.reshape(b, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    r = np.ascontiguousarray(r).reshape(b, c, h // 2, w // 2, 4)
    idx = np.argmax(r, axis=-1)
    vals = np.take_along_axis(r, idx[..., None], axis=-1)[..., 0]
    _pattern_hook(idx)

    def min_gap():
        top2 = np.partition(r, -2, axis=-1)[..., -2:]
        return float(np.min(top2[..., 1] - top2[..., 0]))

    _kink_hook(min_gap)
    out = Tensor(vals)

    def bw(g):
        buf = np.zeros((b, c, h // 2, w // 2, 4))
        np.put_along_axis(buf, idx[..., None], g[..., None], axis=-1)
        buf = buf.reshape(b, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        return (np.ascontiguousarray(buf).reshape(b, c, h, w),)

    return _register(out, [x], bw)


# ---------------------------------------------------------------------------
# fused convolution blocks


def separable_conv_bn(x, dw, pw, gamma, beta, eps, stats=None, relu=False):
    """Depthwise conv, pointwise conv, batch norm and an optional ReLU, as
    one tape entry.

    x: (B, Cin, H, W); dw: (Cin, 1, k, k), k odd, run with 'same' zero
    padding; pw: (Cout, Cin, 1, 1); gamma, beta: (Cout,). The normalization
    is over axes (0, 2, 3), with batch statistics or the given stats = (mean,
    var), as in normalize. Returns (out, mean, var) as normalize does.

    The forward repeats the NumPy sequence of conv2d(groups=Cin), conv2d,
    normalize and relu, so outputs are bitwise equal to that composition;
    with one input channel, conv2d(groups=1) takes its dense path, and so
    does this. The backward is written out in the composition's order. The
    entry keeps its inputs, the batch mean and std and the ReLU mask: the
    backward rebuilds the depthwise output and the centred pointwise output
    from x with the forward's own ops, bit for bit, and drops each
    intermediate once used. It keeps no patch matrix either: the depthwise
    backward pads x again, and a dense one-channel backward gathers its
    patches again.
    """
    xd, dwd, pwd = x.data, dw.data, pw.data
    if xd.ndim != 4 or dwd.ndim != 4 or pwd.ndim != 4:
        raise ShapeError("separable_conv_bn expects rank-4 input and kernels")
    b, cin, h, w = xd.shape
    k, cout = dwd.shape[-1], pwd.shape[0]
    if (k % 2 == 0 or dwd.shape != (cin, 1, k, k)
            or pwd.shape != (cout, cin, 1, 1) or gamma.shape != (cout,)
            or beta.shape != (cout,)):
        raise ShapeError(
            f"separable_conv_bn: input {xd.shape} with depthwise {dwd.shape}, "
            f"pointwise {pwd.shape}, gamma {gamma.shape} and beta {beta.shape}"
        )
    if h == 0 or w == 0 or (stats is None and b == 0):
        raise ShapeError(f"separable_conv_bn: no pixels to normalize in {xd.shape}")
    reduced = (1, cout, 1, 1)
    if stats is not None and any(np.size(s) != cout for s in stats):
        raise ShapeError(f"separable_conv_bn: stats do not match {reduced}")
    p = (k - 1) // 2
    depthwise = cin > 1  # conv2d(groups=1) takes its dense paths
    g4, b4 = gamma.data.reshape(reduced), beta.data.reshape(reduced)
    inputs = [x, dw, pw, gamma, beta]
    keep = _recording(inputs)

    # each intermediate is dropped after its use, with or without a tape
    y1 = _conv(xd, dwd, p, depthwise)
    _check_finite(y1, "separable_conv_bn depthwise")
    y2 = _conv(y1, pwd, 0, False)
    _check_finite(y2, "separable_conv_bn pointwise")
    del y1
    y, centered, std, mean, var = _normalize(
        y2, g4, b4, (0, 2, 3), reduced, eps, stats, "separable_conv_bn")
    del y2, centered
    mask = None
    if relu:
        _kink_hook(lambda: float(np.min(np.abs(y))) if y.size else np.inf)
        mask = y > 0.0  # subgradient 0 at exactly 0
        _pattern_hook(mask)
        np.maximum(y, 0.0, out=y)
        mask = mask if keep else None
    out = Tensor(y)
    need_x, need_dw, need_pw = x.requires_grad, dw.requires_grad, pw.requires_grad

    def bw(g):
        if relu:
            g = g * mask
        # the forward's depthwise and centred pointwise outputs, rebuilt by
        # the same ops; both were finite there, so need no errstate here
        y1 = _conv(xd, dwd, p, depthwise)
        centred = _conv(y1, pwd, 0, False)
        centred -= mean
        gc, g_mean, g_gamma, g_beta = _normalize_grads(
            g, centred, std, g4, reduced, b * h * w, stats is None)
        del centred
        # the composition adds the mean-path gradient to the centred one
        if g_mean is not None:
            gc += g_mean
            del g_mean
        g1, g_pw = _conv_grads(gc, y1, pwd, 0, False, need_x or need_dw,
                               need_pw)
        del gc, y1
        gx = g_dw = None
        if g1 is not None:
            gx, g_dw = _conv_grads(g1, xd, dwd, p, depthwise, need_x, need_dw)
        return gx, g_dw, g_pw, g_gamma, g_beta

    return _register(out, inputs, bw), mean, var


def pointwise_mlp(x, w1, b1, w2, b2):
    """relu(x . w1 + b1) . w2 + b2 over the channels of an NCHW map, as one
    tape entry.

    x: (B, C, H, W); w1: (hidden, C, 1, 1), b1: (hidden,); w2: (Cout,
    hidden, 1, 1), b2: (Cout,). The forward repeats the NumPy sequence of
    the same MLP composed from conv2d, reshape, add and relu, so outputs are
    bitwise equal to it; the backward is written out in that composition's
    order. The entry keeps x and the weights and no hidden layer: the
    backward recomputes the ReLU hidden layer from x, bit for bit, without
    reporting its kinks or mask to grad_check again.
    """
    xd = x.data
    hid, dout = w1.shape[0] if w1.ndim else 0, w2.shape[0] if w2.ndim else 0
    cin = xd.shape[1] if xd.ndim == 4 else -1
    if (w1.shape, b1.shape, w2.shape, b2.shape) != (
        (hid, cin, 1, 1), (hid,), (dout, hid, 1, 1), (dout,)
    ):
        raise ShapeError(
            f"pointwise_mlp: input {xd.shape} with weights {w1.shape}, "
            f"{w2.shape} and biases {b1.shape}, {b2.shape}"
        )
    inputs = [x, w1, b1, w2, b2]
    w1d, b1d, w2d = w1.data, b1.data, w2.data
    need_hidden = x.requires_grad or w1.requires_grad or b1.requires_grad

    # a conv output that is not finite stays so after a finite bias
    with np.errstate(over="ignore", invalid="ignore"):
        hidden = _conv(xd, w1d, 0, False)
        hidden += b1d.reshape(1, hid, 1, 1)
        _check_finite(hidden, "pointwise_mlp hidden layer")
        _kink_hook(lambda: float(np.min(np.abs(hidden))) if hidden.size else np.inf)
        _pattern_hook(hidden > 0.0)
        np.maximum(hidden, 0.0, out=hidden)
        y = _conv(hidden, w2d, 0, False)
        y += b2.data.reshape(1, dout, 1, 1)
        _check_finite(y, "pointwise_mlp")
    out = Tensor(y)

    def bw(g):
        g_b2 = _unbroadcast(g, (1, dout, 1, 1)).reshape(-1)
        # the forward's hidden layer, recomputed by the same ops
        h = _conv(xd, w1d, 0, False)
        h += b1d.reshape(1, hid, 1, 1)
        np.maximum(h, 0.0, out=h)
        gh, g_w2 = _conv_grads(g, h, w2d, 0, False, need_hidden,
                               w2.requires_grad)
        if gh is None:
            return None, None, None, g_w2, g_b2
        gh *= h > 0.0  # the ReLU mask, from its output
        del h
        g_b1 = _unbroadcast(gh, (1, hid, 1, 1)).reshape(-1)
        gx, g_w1 = _conv_grads(gh, xd, w1d, 0, False, x.requires_grad,
                               w1.requires_grad)
        return gx, g_w1, g_b1, g_w2, g_b2

    return _register(out, inputs, bw)


# ---------------------------------------------------------------------------
# windowed multi-head self-attention


def _windows(a, n):
    """(B, C, H, W) -> (B*num_windows*n*n, C) token rows, window by window."""
    b, c, h, w = a.shape
    t = a.reshape(b, c, h // n, n, w // n, n).transpose(0, 2, 4, 3, 5, 1)
    return np.ascontiguousarray(t).reshape(-1, c)


_TOKEN_CACHE = {}


def _token_order(c, h, w, n, shift):
    """Per-image flat indices (to_rows, to_map) for a (B, c, h, w) array.

    a.reshape(B, -1).take(to_rows, axis=1) is _windows(np.roll(a, (-shift,
    -shift)), n), the token rows of the shifted map window by window, and
    rows.reshape(B, -1).take(to_map, axis=1) is its inverse: the rows put
    back in the map and shifted by (shift, shift). One gather each way
    replaces a roll and a layout copy.
    """
    key = (c, h, w, n, shift)
    if key not in _TOKEN_CACHE:
        pix = np.roll(np.arange(h * w).reshape(h, w), (-shift, -shift),
                      axis=(0, 1))
        pix = pix.reshape(h // n, n, w // n, n).transpose(0, 2, 1, 3)
        to_rows = (pix.reshape(-1, 1) + np.arange(c) * (h * w)).reshape(-1)
        to_map = np.empty_like(to_rows)
        to_map[to_rows] = np.arange(to_rows.size)
        # the narrowest type that holds them: a quarter of intp's cache
        # at these sizes, and take is as fast
        small = np.min_scalar_type(to_rows.size - 1)
        to_rows, to_map = to_rows.astype(small), to_map.astype(small)
        _TOKEN_CACHE[key] = to_rows, to_map
    return _TOKEN_CACHE[key]


def _split_heads(rows, windows, heads):
    """(windows*T, heads*hd) token rows -> (windows*heads, T, hd)."""
    t = rows.reshape(windows, -1, heads, rows.shape[1] // heads)
    t = np.ascontiguousarray(t.transpose(0, 2, 1, 3))
    return t.reshape(windows * heads, t.shape[2], t.shape[3])


def _biased_heads(part, bias):
    """(windows, T, heads, hd) view plus a (heads*hd,) bias -> (windows*heads,
    T, hd): _split_heads of the biased rows, written in one pass."""
    windows, tokens, heads, hd = part.shape
    out = np.empty((windows, heads, tokens, hd))
    np.add(part.transpose(0, 2, 1, 3), bias.reshape(heads, 1, hd), out=out)
    return out.reshape(windows * heads, tokens, hd)


def _merge_heads(a, windows):
    """(windows*heads, T, hd) -> (windows*T, heads*hd) token rows."""
    heads = a.shape[0] // windows
    t = a.reshape(windows, heads, a.shape[1], a.shape[2]).transpose(0, 2, 1, 3)
    return np.ascontiguousarray(t).reshape(-1, heads * a.shape[2])


def _row_max(p):
    """p.max(axis=-1, keepdims=True) as a new array, by halving the last
    axis with np.maximum: the same maximum, about twice as fast at 16 keys.
    It takes a quarter of the rows at a time, so that its buffers stay an
    eighth of p's size."""
    parts = []
    for m in np.array_split(p, 4):
        while m.shape[-1] > 1:
            k = m.shape[-1] // 2
            r = np.maximum(m[..., :k], m[..., k : 2 * k])
            if m.shape[-1] % 2:
                np.maximum(r[..., :1], m[..., 2 * k :], out=r[..., :1])
            m = r
        parts.append(m)
    return np.concatenate(parts)


_BLOCKED_CACHE = {}


def _shift_blocked(height, width, n, shift):
    """Boolean map (num_windows, n*n, n*n) of token pairs that became
    window-mates only through the cyclic shift and must not attend."""
    key = (height, width, n, shift)
    if key not in _BLOCKED_CACHE:
        ids = np.zeros((1, 1, height, width))
        region = 0
        for hs in (slice(0, height - n), slice(height - n, height - shift),
                   slice(height - shift, height)):
            for ws in (slice(0, width - n), slice(width - n, width - shift),
                       slice(width - shift, width)):
                ids[..., hs, ws] = region
                region += 1
        wins = _windows(ids, n).reshape(-1, n * n)
        _BLOCKED_CACHE[key] = wins[:, :, None] != wins[:, None, :]
    return _BLOCKED_CACHE[key]


def _attention_probs(q, kt, scale, blocked, heads, stats=None):
    """Softmax over keys of the scaled scores q @ kt, with the pairs blocked
    (None for no shift) masked out, and its (row max, row sum) statistics.
    Given the statistics of an earlier call on the same q and kt, the same
    ops in the same order rebuild its probabilities bit for bit."""
    p = q @ kt
    p *= scale
    if blocked is not None:
        tokens = p.shape[-1]
        np.copyto(p.reshape(-1, len(blocked), heads, tokens, tokens), -np.inf,
                  where=blocked[:, None])
    row_max = _row_max(p) if stats is None else stats[0]
    p -= row_max
    np.exp(p, out=p)
    row_sum = p.sum(axis=2, keepdims=True) if stats is None else stats[1]
    p /= row_sum
    return p, row_max, row_sum


def _qkv_heads(rows, wqkv, q_bias, v_bias, nwin, heads):
    """Token rows (nwin*T, C) -> the per-head q (nwin*heads, T, hd), k^T
    (nwin*heads, hd, T) and v (nwin*heads, T, hd), with the query and value
    biases added. None of the three is a view of the qkv product."""
    c = wqkv.shape[0]
    tokens, hd = rows.shape[0] // nwin, c // heads
    qkv = (rows @ wqkv).reshape(nwin, tokens, 3, heads, hd)
    q = _biased_heads(qkv[:, :, 0], q_bias)
    kt = qkv[:, :, 1].transpose(0, 2, 3, 1).copy()
    v = _biased_heads(qkv[:, :, 2], v_bias)
    return q, kt.reshape(nwin * heads, hd, tokens), v


def window_attention(x, qkv_w, q_bias, v_bias, proj_w, proj_b, n, heads, shift):
    """Multi-head self-attention within n x n windows of an NCHW map.

    The map is cyclically shifted by (-shift, -shift) first, and token pairs
    that became window-mates only through that wrap do not attend to each
    other; the output is shifted back. Queries and values carry biases, keys
    do not. One tape entry, with dS = P * (dP - rowsum(dP * P)) on the
    scores. The entry keeps its inputs and the row max and row sum of the
    softmax, no q, k^T, v or probabilities P: the backward rebuilds the
    token rows, q, k^T and v, and then P, from them with the forward's own
    ops, so bit for bit. Its P-sized work runs one image at a time.
    """
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError("window_attention expects a rank-4 input")
    b, c, h, w = xd.shape
    if not b * h * w:
        raise ShapeError(f"window_attention: no tokens in {xd.shape}")
    if h % n or w % n or c % heads or not 0 <= shift < n:
        raise ShapeError(
            f"window_attention: {(h, w)} in windows of {n}, {c} channels "
            f"in {heads} heads, shift {shift}"
        )
    if (qkv_w.shape, q_bias.shape, v_bias.shape, proj_w.shape, proj_b.shape) != (
        (c, 3 * c), (c,), (c,), (c, c), (c,)
    ):
        raise ShapeError(f"window_attention weights do not match {c} channels")
    wqkv, wproj = qkv_w.data, proj_w.data
    nwin, tokens, hd = b * (h // n) * (w // n), n * n, c // heads
    scale = 1.0 / math.sqrt(hd)
    rows_index, map_index = _token_order(c, h, w, n, shift)
    blocked = _shift_blocked(h, w, n, shift) if shift else None

    def to_rows(a):  # an NCHW map -> token rows of the shifted map
        return a.reshape(b, c * h * w).take(rows_index, axis=1).reshape(-1, c)

    def to_map(rows):  # token rows -> the NCHW map, shifted back
        return rows.reshape(b, c * h * w).take(map_index, axis=1).reshape(
            xd.shape)

    with np.errstate(over="ignore", invalid="ignore"):
        q, kt, v = _qkv_heads(to_rows(xd), wqkv, q_bias.data, v_bias.data,
                              nwin, heads)
        p, row_max, row_sum = _attention_probs(q, kt, scale, blocked, heads)
        y = _merge_heads(p @ v, nwin) @ wproj
        del p, q, kt, v
        y += proj_b.data
        out = Tensor(to_map(y))

    def bw(g):
        g_rows = to_rows(g)
        g_ctx = _split_heads(g_rows @ wproj.T, nwin, heads)
        rows = to_rows(xd)
        q, kt, v = _qkv_heads(rows, wqkv, q_bias.data, v_bias.data, nwin,
                              heads)
        # P, the context and dq, dk, dv one image at a time, into buffers
        # of the whole batch; dq, dk and dv in the column layout of qkv
        ctx = np.empty_like(q)
        dqkv = np.empty((nwin, tokens, 3, heads, hd))
        per = nwin // b  # windows per image
        for i in range(b):
            wins = slice(i * per, (i + 1) * per)
            s = slice(i * per * heads, (i + 1) * per * heads)
            p = _attention_probs(q[s], kt[s], scale, blocked, heads,
                                 (row_max[s], row_sum[s]))[0]
            np.matmul(p, v[s], out=ctx[s])
            ds = g_ctx[s] @ v[s].transpose(0, 2, 1)
            dv = p.transpose(0, 2, 1) @ g_ctx[s]
            ds -= np.sum(ds * p, axis=2, keepdims=True)
            ds *= p
            del p
            ds *= scale
            dqkv[wins, :, 0] = (ds @ kt[s].transpose(0, 2, 1)).reshape(
                per, heads, tokens, hd).transpose(0, 2, 1, 3)
            dqkv[wins, :, 1] = (q[s].transpose(0, 2, 1) @ ds).reshape(
                per, heads, hd, tokens).transpose(0, 3, 1, 2)
            dqkv[wins, :, 2] = dv.reshape(
                per, heads, tokens, hd).transpose(0, 2, 1, 3)
            del ds, dv
        del q, kt, v, g_ctx
        ctx = _merge_heads(ctx, nwin)
        dqkv = dqkv.reshape(-1, 3 * c)
        return (
            to_map(dqkv @ wqkv.T),
            rows.T @ dqkv,
            dqkv[:, :c].sum(axis=0),
            dqkv[:, 2 * c :].sum(axis=0),
            ctx.T @ g_rows,
            g_rows.sum(axis=0),
        )

    return _register(out, [x, qkv_w, q_bias, v_bias, proj_w, proj_b], bw)


# ---------------------------------------------------------------------------
# convolutional LSTM


def _lstm_weights(opname, cin, w_x, w_h, w_c, w_c_o, b):
    """(hidden channels, kernel size) of one direction's ConvLSTM weights
    for cin input channels; ShapeError unless they match conv_lstm_step's
    contract."""
    if w_c_o.ndim != 1:
        raise ShapeError(f"{opname} expects a (hidden,) peephole")
    hid = w_c_o.shape[0]
    k = w_x.shape[-1] if w_x.ndim else 0
    got = [w_x.shape, w_h.shape, w_c.shape, b.shape]
    want = [(4 * hid, cin, k, k), (4 * hid, hid, k, k), (2 * hid, hid, k, k),
            (4 * hid,)]
    if k % 2 == 0 or got != want:
        raise ShapeError(
            f"{opname} weights {got} do not match {cin} input and "
            f"{hid} hidden channels with one odd kernel size"
        )
    return hid, k


def _live_rows(hid):
    """The i, o and c gate rows of a stacked kernel: all a zero-state step
    uses."""
    return np.r_[:hid, 2 * hid : 4 * hid]


def _zero_forget(part, hid):
    """A zero-state step's gradient in the stacked gate layout: the forget
    rows, which the step does not use, get zeros."""
    if part is None:
        return None
    out = np.zeros((4 * hid,) + part.shape[1:])
    out[_live_rows(hid)] = part
    return out


def _channel_sum(d):
    """A per-channel bias's gradient from an NCHW gradient d."""
    return _unbroadcast(d, (1, d.shape[1], 1, 1)).reshape(-1)


def _lstm_gates(xd, wx, h, c, w_h, w_c, pad, bias, wco, opname):
    """Gate activations (i, f, g, o) and new cell c_new of one ConvLSTM
    step, as a tuple (i, f, g, o, c_new).

    xd is the step's input, wx its kernels: in the gate layout i, o, c for
    a zero-state step, which passes h, c, w_h and w_c as None and gets f
    None; in the layout i, f, o, c for a stateful step, whose w_h is in
    that layout too and w_c in i, f. bias is the four gates' (1, hid, 1, 1)
    biases, wco the (1, hid, 1, 1) output peephole. Each stream's
    convolution output is dropped as soon as the gates have read it. A
    pre-activation is checked before it is squashed: sigmoid(inf) and
    tanh(inf) are finite.
    """
    hid = wco.shape[1]
    bi, bf, bo, bc = bias

    def squash(fn, pre):
        _check_finite(pre, opname)
        return fn(pre)

    f = None
    fx = _dense_conv(xd, wx, pad)
    with np.errstate(over="ignore", invalid="ignore"):
        if h is None:
            i = squash(_sigmoid, fx[:, :hid] + bi)
            g = squash(np.tanh, fx[:, 2 * hid :] + bc)
            c_new = i * g
            pre = fx[:, hid : 2 * hid] + wco * c_new
        else:
            fh, fc = _dense_conv(h, w_h, pad), _dense_conv(c, w_c, pad)
            pre = fx[:, :hid] + fh[:, :hid]
            pre += fc[:, :hid]
            pre += bi
            i = squash(_sigmoid, pre)
            pre = fx[:, hid : 2 * hid] + fh[:, hid : 2 * hid]
            pre += fc[:, hid:]
            pre += bf
            f = squash(_sigmoid, pre)
            pre = fx[:, 3 * hid :] + fh[:, 3 * hid :]
            pre += bc
            g = squash(np.tanh, pre)
            c_new = f * c + i * g
            pre = fx[:, 2 * hid : 3 * hid] + fh[:, 2 * hid : 3 * hid]
            del fh, fc
            pre += wco * c_new
        del fx
        pre += bo
        o = squash(_sigmoid, pre)
    return i, f, g, o, c_new


def _lstm_dgates(g_h, g_c, gates, tc, c, wco):
    """(dgates, dc, dwco) of one ConvLSTM step from the gradients g_h of its
    hidden output and g_c of its cell output (either may be None): the gate
    pre-activation gradients in the layout of _lstm_gates's fx, the
    gradient reaching c_new, and the output peephole's gradient. gates is
    _lstm_gates's tuple, tc = tanh(c_new), c the previous cell (None for a
    zero-state step). A gate's slice gets exactly one contribution, added
    to zero as the composed step's narrow gradients are."""
    i, f, g, o, c_new = gates
    hid = i.shape[1]
    rows = 3 * hid if f is None else 4 * hid
    dgates = np.zeros((i.shape[0], rows) + i.shape[2:])
    dc, dwco = g_c, None
    if g_h is not None:
        dt = g_h * o * (1.0 - tc * tc)
        dc = dt if dc is None else dc + dt
        dpre_o = g_h * tc * o * (1.0 - o)
        dwco = _channel_sum(dpre_o * c_new)
        dc = dc + dpre_o * wco
        o_at = hid if f is None else 2 * hid
        dgates[:, o_at : o_at + hid] += dpre_o
    dgates[:, -hid:] += dc * i * (1.0 - g * g)
    dgates[:, :hid] += dc * g * i * (1.0 - i)
    if f is not None:
        dgates[:, hid : 2 * hid] += dc * c * f * (1.0 - f)
    return dgates, dc, dwco


def conv_lstm_step(x, h, c, w_x, w_h, w_c, w_c_o, b):
    """One ConvLSTM update as one tape entry with two outputs (h_new, c_new).

    x: (B, Cin, H, W). h, c: the (B, hid, H, W) hidden state and memory
    cell, or both None for the all-zero state. w_x (4 hid, Cin, k, k), w_h
    (4 hid, hid, k, k) and b (4 hid,): the kernels and biases of the input,
    forget, output and candidate gates, stacked in that order; w_c (2 hid,
    hid, k, k): the input and forget gates' k x k peepholes on c; w_c_o: the
    output gate's (hid,) Hadamard peephole on c_new. k is odd and every
    convolution keeps the spatial extent.

        i = sigmoid(x * w_xi + h * w_hi + c * w_ci + b_i)
        f = sigmoid(x * w_xf + h * w_hf + c * w_cf + b_f)
        c_new = f c + i tanh(x * w_xc + h * w_hc + b_c)
        o = sigmoid(x * w_xo + h * w_ho + w_c_o c_new + b_o)
        h_new = o tanh(c_new)

    From the zero state the h- and c-terms and f c vanish, so neither they
    nor the forget gate are computed: w_h and w_c are not inputs of the
    entry, and the forget rows of w_x and b get zero gradients. Each
    stream's kernels run as one dense convolution. The elementwise steps
    follow the NumPy order of the same update composed from taped ops, so
    outputs are bitwise equal to it; the backward is written out from the
    cached gate activations. The entry keeps its inputs and no patch matrix:
    each kernel gradient gathers its stream's patches again.
    """
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError("conv_lstm_step expects a rank-4 input")
    bsz, cin, height, width = xd.shape
    hid, k = _lstm_weights("conv_lstm_step", cin, w_x, w_h, w_c, w_c_o, b)
    state = (bsz, hid, height, width)
    if (h is None) != (c is None) or (h is not None and h.shape != state
                                      or c is not None and c.shape != state):
        raise ShapeError(f"conv_lstm_step state does not match {state}")

    pad = (k - 1) // 2
    bias = np.split(b.data.reshape(1, 4 * hid, 1, 1), 4, axis=1)
    wco = w_c_o.data.reshape(1, hid, 1, 1)
    if h is None:
        wx = w_x.data[_live_rows(hid)]
        inputs = [x, w_x, w_c_o, b]
        hd = cd = None
    else:
        wx = w_x.data
        inputs = [x, h, c, w_x, w_h, w_c, w_c_o, b]
        hd, cd = h.data, c.data
    gates = _lstm_gates(xd, wx, hd, cd, w_h.data, w_c.data, pad, bias, wco,
                        "conv_lstm_step")
    f, c_new = gates[1], gates[4]
    tc = np.tanh(c_new)
    outs = (Tensor(gates[3] * tc), Tensor(c_new))

    def bw(g_h, g_c):
        dgates, dc, dwco = _lstm_dgates(g_h, g_c, gates, tc, cd, wco)
        gx, gwx = _dense_conv_grads(dgates, xd, wx, pad, x.requires_grad,
                                    w_x.requires_grad)
        if h is None:
            return (gx, _zero_forget(gwx, hid), dwco,
                    _zero_forget(_channel_sum(dgates), hid))
        gh, gwh = _dense_conv_grads(dgates, h.data, w_h.data, pad,
                                    h.requires_grad, w_h.requires_grad)
        gcp, gwc = _dense_conv_grads(dgates[:, : 2 * hid], cd, w_c.data,
                                     pad, c.requires_grad, w_c.requires_grad)
        if gcp is not None:
            gcp = dc * f + gcp
        return gx, gh, gcp, gwx, gwh, gwc, dwco, _channel_sum(dgates)

    return _register(outs, inputs, bw)


def bconv_lstm(xs, fwd, bwd, mix_fwd, mix_bwd, mix_bias):
    """Bidirectional ConvLSTM over the sequence xs as one tape entry.

    xs: a non-empty list of (B, Cin, H, W) maps. fwd and bwd: each
    direction's (w_x, w_h, w_c, w_c_o, b), as conv_lstm_step takes them.
    mix_fwd, mix_bwd: (hid, hid, m, m) kernels, m odd, run with 'same'
    zero padding; mix_bias: (hid,).

        y = tanh(h_fwd * mix_fwd + h_bwd * mix_bwd + mix_bias)

    h_fwd is the last hidden state of conv_lstm_step run from the zero
    state over xs in order. The reverse direction runs from the last map
    to the first, so its state aligned with the last position is its
    first, zero-state step on xs[-1], and h_bwd is that step's output: the
    later reverse steps never reach y and are not run, so bwd's w_h and w_c
    get no gradient.

    The forward repeats the NumPy sequence of the same block composed from
    conv_lstm_step, conv2d, add, reshape and tanh, so y is bitwise equal to
    it. The entry lists an input once per use, in the order the
    composition's rules return its gradients, so accumulated gradients are
    bitwise equal too.
    It keeps its inputs, each forward step's i, g, o and c_new (and f after
    the first step), the reverse step's i, g, o and c_new, and y; the
    backward rebuilds tanh(c_new) and h = o tanh(c_new) by the forward's
    ops, one step at a time, and no mixing output or sum is kept.
    """
    if not xs:
        raise ShapeError("bconv_lstm requires a non-empty sequence")
    ref = xs[0].shape
    if len(ref) != 4 or any(t.shape != ref for t in xs):
        raise ShapeError("bconv_lstm sequence maps must be rank-4 and agree")
    cin = ref[1]
    hid, k = _lstm_weights("bconv_lstm", cin, *fwd)
    if _lstm_weights("bconv_lstm", cin, *bwd) != (hid, k):
        raise ShapeError("bconv_lstm directions differ in width or kernel")
    m = mix_fwd.shape[-1] if mix_fwd.ndim else 0
    if (m % 2 == 0 or mix_fwd.shape != (hid, hid, m, m)
            or mix_bwd.shape != mix_fwd.shape or mix_bias.shape != (hid,)):
        raise ShapeError(
            f"bconv_lstm mixing kernels {mix_fwd.shape}, {mix_bwd.shape} and "
            f"bias {mix_bias.shape} do not match {hid} hidden channels"
        )

    pad, mpad, live = (k - 1) // 2, (m - 1) // 2, _live_rows(hid)
    fw_x, fw_h, fw_c = fwd[0].data, fwd[1].data, fwd[2].data
    fwx0, rwx = fw_x[live], bwd[0].data[live]

    def step_constants(w_c_o, b):
        return (np.split(b.data.reshape(1, 4 * hid, 1, 1), 4, axis=1),
                w_c_o.data.reshape(1, hid, 1, 1))

    fbias, fco = step_constants(*fwd[3:])
    rbias, rco = step_constants(*bwd[3:])
    xds = [t.data for t in xs]
    last = len(xs) - 1
    inputs = [mix_bias, mix_bwd, mix_fwd, xs[last], bwd[0], bwd[3], bwd[4]]
    for t in range(last, 0, -1):
        inputs += [xs[t], *fwd]
    inputs += [xs[0], fwd[0], fwd[3], fwd[4]]
    keep = _recording(inputs)

    steps = []  # each forward step's gates and cell, while recording
    h = c = None
    for t, xd in enumerate(xds):
        gates = _lstm_gates(xd, fw_x if t else fwx0, h, c, fw_h, fw_c, pad,
                            fbias, fco, "bconv_lstm")
        c = gates[4]
        h = gates[3] * np.tanh(c)
        if keep:
            steps.append(gates)
        del gates
    del c
    rgates = _lstm_gates(xds[last], rwx, None, None, None, None, pad, rbias,
                         rco, "bconv_lstm")
    rh = rgates[3] * np.tanh(rgates[4])
    if not keep:
        del rgates
    with np.errstate(over="ignore", invalid="ignore"):
        s = _conv(h, mix_fwd.data, mpad, False)
        del h
        s += _conv(rh, mix_bwd.data, mpad, False)
        del rh
        s += mix_bias.data.reshape(1, hid, 1, 1)
    _check_finite(s, "bconv_lstm")
    y = np.tanh(s)
    del s
    out = Tensor(y)
    if not keep:
        return out
    need = [t.requires_grad for t in (mix_fwd, mix_bwd, bwd[0], *fwd[:3])]
    need_mf, need_mb, need_rwx, need_wx, need_wh, need_wc = need

    def bw(gy):
        dz = gy * (1.0 - y * y)
        grads = [_unbroadcast(dz, (1, hid, 1, 1)).reshape(mix_bias.shape)]
        rtc = np.tanh(rgates[4])
        g_h, g_mb = _conv_grads(dz, rgates[3] * rtc, mix_bwd.data, mpad,
                                False, True, need_mb)
        rd, _, r_dwco = _lstm_dgates(g_h, None, rgates, rtc, None, rco)
        del rtc
        rgx, g_rwx = _dense_conv_grads(rd, xds[last], rwx, pad,
                                       xs[last].requires_grad, need_rwx)
        reverse = [rgx, _zero_forget(g_rwx, hid), r_dwco,
                   _zero_forget(_channel_sum(rd), hid)]
        del rd, rgx
        o, c_new = steps[last][3], steps[last][4]
        g_h, g_mf = _conv_grads(dz, o * np.tanh(c_new), mix_fwd.data, mpad,
                                False, True, need_mf)
        del dz
        grads += [g_mb, g_mf, *reverse]
        del reverse
        g_c = None
        for t in range(last, -1, -1):
            gates, xd, need_x = steps[t], xds[t], xs[t].requires_grad
            wx = fw_x if t else fwx0
            c_prev = steps[t - 1][4] if t else None
            d, dc, dwco = _lstm_dgates(g_h, g_c, gates, np.tanh(gates[4]),
                                       c_prev, fco)
            gx, gwx = _dense_conv_grads(d, xd, wx, pad, need_x, need_wx)
            if not t:
                grads += [gx, _zero_forget(gwx, hid), dwco,
                          _zero_forget(_channel_sum(d), hid)]
                break
            h_prev = steps[t - 1][3] * np.tanh(c_prev)
            g_h, gwh = _dense_conv_grads(d, h_prev, fw_h, pad, True, need_wh)
            del h_prev
            gcp, gwc = _dense_conv_grads(d[:, : 2 * hid], c_prev, fw_c, pad,
                                         True, need_wc)
            g_c = dc * gates[1] + gcp
            grads += [gx, gwx, gwh, gwc, dwco, _channel_sum(d)]
            del d, dc, gcp
        return grads

    return _register(out, inputs, bw)


# ---------------------------------------------------------------------------
# backward pass and gradient checking


def backward(root):
    """Accumulate d(root)/d(leaf) into every requires_grad leaf on the active tape.

    root must be a scalar produced on the tape; the tape is consumed.
    Returns a map {leaf Tensor: gradient array}, leaves in order of first
    appearance on the tape.

    Each entry is dropped once its rule has run, and each op output's grad
    once that rule has read it, so an activation or gradient lives only as
    long as backward needs it. Afterwards only the leaves and the root keep
    a grad; len(tape) still counts the entries recorded.
    """
    tape = _TAPE
    if tape is None:
        raise TapeError("backward requires an active tape")
    if tape.consumed:
        raise TapeError("tape already consumed")
    if root.size != 1:
        raise ShapeError("backward root must be scalar")
    if root not in tape._produced:
        raise TapeError("root is detached from the active tape")

    leaves = {}  # in order of first appearance
    # the loop below rebinds these three names; one left bound (a ``_``)
    # would keep the last entry's rule alive through the whole backward
    for outs, inputs, bw in tape.ops:
        for t in outs:
            t.grad = None
        for t in inputs:
            t.grad = None
            if t.requires_grad and t not in tape._produced:
                leaves[t] = None
    tape._produced.clear()  # it alone would keep every op output alive
    tape.consumed = True
    root.grad = np.ones_like(root.data)

    ops = tape.ops
    for k in range(len(ops) - 1, -1, -1):
        outs, inputs, bw = ops[k]
        ops[k] = None  # the list keeps its length: len(tape) still counts
        gs = [t.grad for t in outs]
        for t in outs:
            if t is not root:
                t.grad = None
        if all(g is None for g in gs):
            continue
        grads = bw(*gs)
        for t, gt in zip(inputs, grads):
            if gt is None or not t.requires_grad:
                continue
            t.grad = gt if t.grad is None else t.grad + gt
    return {t: t.grad if t.grad is not None else np.zeros_like(t.data)
            for t in leaves}


@dataclass
class GradCheckResult:
    """Outcome of a finite-difference check.

    kink_events counts relu/maxpool evaluations that landed within eps of a
    nondifferentiable point during the analytic pass. excluded_elements
    counts checked coordinates whose +eps and -eps evaluations took
    different piecewise branches (a relu mask or maxpool argmax flipped inside
    the interval): central differences are meaningless across a kink, so
    those points are flagged and left out of the maximum, exactly as a
    kink-adjacent input is.
    """

    max_rel_error: float
    kink_events: int
    elements_checked: int
    excluded_elements: int = 0


def _eval_scalar(f, params):
    global _TAPE
    saved, _TAPE = _TAPE, None
    try:
        out = f(*params)
    finally:
        _TAPE = saved
    if out.size != 1:
        raise ShapeError("grad_check target must be scalar-valued")
    return float(out.data.reshape(()))


def _eval_with_pattern(f, params):
    """Evaluate f and capture the signature of every piecewise decision."""
    global _PATTERN_WATCH
    _PATTERN_WATCH = []
    try:
        value = _eval_scalar(f, params)
        signature = tuple(_PATTERN_WATCH)
    finally:
        _PATTERN_WATCH = None
    return value, signature


def grad_check(f, params, eps=1e-5, max_elements=None, seed=0):
    """Compare backward() against central differences, element by element.

    f is a deterministic scalar-valued function of the given parameter
    tensors. Every element is perturbed by +/-eps (or a seeded random subset
    of max_elements per tensor, for large models) and the relative error
    |a - n| / max(1e-8, |a| + |n|) is maximized over all checked elements.
    """
    if not 0.0 < eps <= 1e-2:
        raise ValueError("eps must lie in (0, 1e-2]")
    v1 = _eval_scalar(f, params)
    v2 = _eval_scalar(f, params)
    if v1 != v2:
        raise ValueError("grad_check requires a deterministic function")

    if _TAPE is not None:
        raise TapeError("grad_check cannot run inside an active tape")
    for p in params:  # drop stale gradients from earlier episodes
        p.grad = None
    with record() as tape:
        tape.kink_tol = eps
        out = f(*params)
        backward(out)
        analytic = [
            p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
            for p in params
        ]
        kinks = tape.kink_events

    rng = np.random.default_rng(seed)
    max_err = 0.0
    checked = 0
    excluded = 0
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = ana.reshape(-1)
        n = flat.size
        if max_elements is not None and n > max_elements:
            idxs = np.sort(rng.choice(n, size=max_elements, replace=False))
        else:
            idxs = range(n)
        for j in idxs:
            orig = flat[j]
            flat[j] = orig + eps
            fp, sig_p = _eval_with_pattern(f, params)
            flat[j] = orig - eps
            fm, sig_m = _eval_with_pattern(f, params)
            flat[j] = orig
            if sig_p != sig_m:
                excluded += 1  # a kink lies inside the interval
                continue
            numeric = (fp - fm) / (2.0 * eps)
            err = abs(aflat[j] - numeric) / max(1e-8, abs(aflat[j]) + abs(numeric))
            if err > max_err:
                max_err = err
            checked += 1
    return GradCheckResult(max_err, kinks, checked, excluded)


# ---------------------------------------------------------------------------
# serialization: magic "TBCL", version u32, rank u32, extents u64, f64 data LE

_MAGIC = b"TBCL"
_VERSION = 1


def tensor_to_bytes(t):
    arr = t.data if isinstance(t, Tensor) else np.asarray(t, dtype=np.float64)
    head = _MAGIC + struct.pack("<II", _VERSION, arr.ndim)
    head += struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
    return head + np.ascontiguousarray(arr, dtype="<f8").tobytes()


def tensor_from_bytes(buf, offset=0):
    """Decode one serialized tensor record; returns (Tensor, next_offset)."""
    if buf[offset : offset + 4] != _MAGIC:
        raise FormatError("bad tensor magic")
    offset += 4
    try:
        version, rank = struct.unpack_from("<II", buf, offset)
        offset += 8
        shape = struct.unpack_from(f"<{rank}Q", buf, offset) if rank else ()
        offset += 8 * rank
    except struct.error as exc:
        raise FormatError("truncated tensor header") from exc
    if version != _VERSION:
        raise FormatError(f"unsupported tensor format version {version}")
    count = math.prod(shape)  # exact: NumPy's int64 product can wrap to 0
    end = offset + 8 * count
    if end > len(buf):
        raise FormatError("truncated tensor payload")
    data = np.frombuffer(buf, dtype="<f8", count=count, offset=offset)
    try:
        return Tensor(data.reshape(shape).copy()), end
    except NonFiniteError as exc:
        raise FormatError("non-finite tensor payload") from exc
    except ValueError as exc:  # an empty array's other extents can be too large
        raise FormatError(f"tensor extents {shape}: {exc}") from exc
