"""Taped primitives and tape oracles that only the tests use.

The composed oracles (window attention, normalization, the separable-conv
block and the Swin MLP built from small ops) need a few differentiable ops
that the library itself no longer runs. They record onto the active tape
through tensor._register, so the oracles keep a taped backward to compare
the fused primitives' hand-written ones against.

backward_retaining is tensor.backward as it was before backward released
the tape as it ran, and closure_arrays lists what a tape entry's rule
holds; the tests of what the tape keeps alive use both.
window_attention_keeping_p, pointwise_mlp_keeping_hidden and
separable_conv_bn_keeping are the fused ops as they were while their
entries kept the attention probabilities, the MLP hidden layer and the
separable block's depthwise and centred outputs: the oracles for the
recomputing entries' bits. rule_peaks measures, with tracemalloc, the
memory peak of every backward rule on a tape.
"""

import math
import tracemalloc

import numpy as np

from hybridseg import tensor as T
from hybridseg.tensor import ShapeError, Tensor


def relu(a):
    x = a.data
    T._kink_hook(lambda: float(np.min(np.abs(x))) if x.size else np.inf)
    out = Tensor(np.maximum(x, 0.0))
    mask = x > 0.0  # subgradient 0 at exactly 0
    T._pattern_hook(mask)

    def bw(g):
        return (g * mask,)

    return T._register(out, [a], bw)


def sqrt(a):
    with np.errstate(invalid="ignore"):
        y = np.sqrt(a.data)
    out = Tensor(y)
    return T._register(out, [a], lambda g: (g * 0.5 / y,))


def matmul(a, b):
    """Matrix product of two rank-2 tensors or two batched rank-3 tensors."""
    da, db = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad
    if da.ndim == 2 and db.ndim == 2:
        if da.shape[1] != db.shape[0]:
            raise ShapeError(f"matmul inner extents {da.shape} x {db.shape}")

        def bw(g):
            return (g @ db.T if need_a else None,
                    da.T @ g if need_b else None)

    elif da.ndim == 3 and db.ndim == 3:
        if da.shape[0] != db.shape[0] or da.shape[2] != db.shape[1]:
            raise ShapeError(f"batched matmul extents {da.shape} x {db.shape}")

        def bw(g):
            return (g @ db.transpose(0, 2, 1) if need_a else None,
                    da.transpose(0, 2, 1) @ g if need_b else None)

    else:
        raise ShapeError("matmul supports rank-2 or batched rank-3 operands")
    with np.errstate(over="ignore", invalid="ignore"):
        out = Tensor(da @ db)  # non-finite results raise in Tensor()
    return T._register(out, [a, b], bw)


def transpose(a, axes):
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(np.ascontiguousarray(a.data.transpose(axes)))
    return T._register(out, [a], lambda g: (g.transpose(inv),))


def roll2d(a, shifts):
    """Cyclic shift of the last two axes."""
    sy, sx = shifts
    out = Tensor(np.roll(a.data, (sy, sx), axis=(-2, -1)))

    def bw(g):
        return (np.roll(g, (-sy, -sx), axis=(-2, -1)),)

    return T._register(out, [a], bw)


def backward_retaining(root):
    """tensor.backward that keeps every tape entry and every intermediate
    gradient to the end: the oracle for the releasing backward's leaf
    gradients. Returns {leaf: gradient} in order of first appearance."""
    tape = T.active_tape()
    if tape is None or tape.consumed or root not in tape._produced:
        raise T.TapeError("backward_retaining needs a live tape and its root")
    for outs, inputs, _ in tape.ops:
        for t in outs:
            t.grad = None
        for t in inputs:
            t.grad = None
    root.grad = np.ones_like(root.data)

    for outs, inputs, bw in reversed(tape.ops):
        gs = [t.grad for t in outs]
        if all(g is None for g in gs):
            continue
        grads = bw(*gs)
        for t, gt in zip(inputs, grads):
            if gt is None or not t.requires_grad:
                continue
            t.grad = gt if t.grad is None else t.grad + gt
    tape.consumed = True

    leaves = {}
    for _, inputs, _ in tape.ops:
        for t in inputs:
            if t.requires_grad and t not in tape._produced and t not in leaves:
                leaves[t] = t.grad if t.grad is not None else np.zeros_like(t.data)
    return leaves


def closure_arrays(fn):
    """Every NumPy array a function's closure cells reach, through nested
    functions, tuples and lists; a cell emptied by del holds nothing."""
    found, seen, todo = [], set(), [fn]
    while todo:
        v = todo.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, np.ndarray):
            found.append(v)
        elif isinstance(v, (tuple, list)):
            todo.extend(v)
        elif hasattr(v, "__closure__"):
            for cell in v.__closure__ or ():
                try:
                    todo.append(cell.cell_contents)
                except ValueError:
                    pass
    return found


def window_attention_keeping_p(x, qkv_w, q_bias, v_bias, proj_w, proj_b, n,
                               heads, shift):
    """T.window_attention whose entry keeps the token rows, the per-head q,
    k^T and v, the probabilities P and the merged context."""
    xd = x.data
    b, c, h, w = xd.shape
    wqkv, wproj = qkv_w.data, proj_w.data
    nwin = b * (h // n) * (w // n)
    scale = 1.0 / math.sqrt(c // heads)

    def unwindows(rows):
        t = rows.reshape(b, h // n, w // n, n, n, c).transpose(0, 5, 1, 3, 2, 4)
        return np.ascontiguousarray(t).reshape(xd.shape)

    with np.errstate(over="ignore", invalid="ignore"):
        rows = T._windows(np.roll(xd, (-shift, -shift), axis=(-2, -1)), n)
        qkv = rows @ wqkv
        q = T._split_heads(qkv[:, :c] + q_bias.data, nwin, heads)
        kt = qkv[:, c : 2 * c].reshape(nwin, n * n, heads, -1).transpose(0, 2, 3, 1)
        kt = np.ascontiguousarray(kt).reshape(nwin * heads, -1, n * n)
        v = T._split_heads(qkv[:, 2 * c :] + v_bias.data, nwin, heads)
        del qkv
        p = q @ kt
        p *= scale
        if shift:
            blocked = T._shift_blocked(h, w, n, shift)
            np.copyto(p.reshape(b, -1, heads, n * n, n * n), -np.inf,
                      where=blocked[:, None])
        p -= p.max(axis=2, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=2, keepdims=True)
        ctx = T._merge_heads(p @ v, nwin)
        y = ctx @ wproj
        y += proj_b.data
        out = Tensor(np.roll(unwindows(y), (shift, shift), axis=(-2, -1)))

    def bw(g):
        g_rows = T._windows(np.roll(g, (-shift, -shift), axis=(-2, -1)), n)
        g_ctx = T._split_heads(g_rows @ wproj.T, nwin, heads)
        ds = g_ctx @ v.transpose(0, 2, 1)
        dv = p.transpose(0, 2, 1) @ g_ctx
        ds -= (ds * p).sum(axis=2, keepdims=True)
        ds *= p
        ds *= scale
        dq = ds @ kt.transpose(0, 2, 1)
        dkt = q.transpose(0, 2, 1) @ ds
        dqkv = np.concatenate(
            [T._merge_heads(dq, nwin),
             T._merge_heads(dkt.transpose(0, 2, 1), nwin),
             T._merge_heads(dv, nwin)], axis=1)
        gx = unwindows(dqkv @ wqkv.T)
        return (
            np.roll(gx, (shift, shift), axis=(-2, -1)),
            rows.T @ dqkv,
            dqkv[:, :c].sum(axis=0),
            dqkv[:, 2 * c :].sum(axis=0),
            ctx.T @ g_rows,
            g_rows.sum(axis=0),
        )

    return T._register(out, [x, qkv_w, q_bias, v_bias, proj_w, proj_b], bw)


def pointwise_mlp_keeping_hidden(x, w1, b1, w2, b2):
    """T.pointwise_mlp whose entry keeps the ReLU hidden layer."""
    xd = x.data
    hid, dout = w1.shape[0], w2.shape[0]
    need_hidden = x.requires_grad or w1.requires_grad or b1.requires_grad
    with np.errstate(over="ignore", invalid="ignore"):
        hidden = T._conv(xd, w1.data, 0, False)
        hidden += b1.data.reshape(1, hid, 1, 1)
        np.maximum(hidden, 0.0, out=hidden)
        y = T._conv(hidden, w2.data, 0, False)
        y += b2.data.reshape(1, dout, 1, 1)
    out = Tensor(y)

    def bw(g):
        g_b2 = T._unbroadcast(g, (1, dout, 1, 1)).reshape(-1)
        gh, g_w2 = T._conv_grads(g, hidden, w2.data, 0, False, need_hidden,
                                 w2.requires_grad)
        if gh is None:
            return None, None, None, g_w2, g_b2
        gh *= hidden > 0.0
        g_b1 = T._unbroadcast(gh, (1, hid, 1, 1)).reshape(-1)
        gx, g_w1 = T._conv_grads(gh, xd, w1.data, 0, False, x.requires_grad,
                                 w1.requires_grad)
        return gx, g_w1, g_b1, g_w2, g_b2

    return T._register(out, [x, w1, b1, w2, b2], bw)


def separable_conv_bn_keeping(x, dw, pw, gamma, beta, eps, stats=None,
                              relu=False):
    """T.separable_conv_bn whose entry keeps the depthwise output and the
    centred pointwise output."""
    xd, dwd, pwd = x.data, dw.data, pw.data
    b, cin, h, w = xd.shape
    k, cout = dwd.shape[-1], pwd.shape[0]
    reduced = (1, cout, 1, 1)
    p, depthwise = (k - 1) // 2, cin > 1
    g4, b4 = gamma.data.reshape(reduced), beta.data.reshape(reduced)
    y1 = T._conv(xd, dwd, p, depthwise)
    y, centered, std, mean, var = T._normalize(
        T._conv(y1, pwd, 0, False), g4, b4, (0, 2, 3), reduced, eps, stats,
        "separable_conv_bn")
    mask = None
    if relu:
        mask = y > 0.0
        np.maximum(y, 0.0, out=y)
    out = Tensor(y)
    need_x, need_dw, need_pw = x.requires_grad, dw.requires_grad, pw.requires_grad

    def bw(g):
        if relu:
            g = g * mask
        gc, g_mean, g_gamma, g_beta = T._normalize_grads(
            g, centered, std, g4, reduced, b * h * w, stats is None)
        g2 = gc if g_mean is None else gc + g_mean
        g1, g_pw = T._conv_grads(g2, y1, pwd, 0, False, need_x or need_dw,
                                 need_pw)
        gx = g_dw = None
        if g1 is not None:
            gx, g_dw = T._conv_grads(g1, xd, dwd, p, depthwise, need_x,
                                     need_dw)
        return gx, g_dw, g_pw, g_gamma, g_beta

    return T._register(out, [x, dw, pw, gamma, beta], bw), mean, var


def rule_peaks(tape):
    """Wrap every backward rule on the tape so that, as backward runs it,
    the tracemalloc peak over the rule (the peak reset as it starts) is
    appended to the returned list as (tape index, op name, bytes). Start
    tracemalloc before the forward, so that the peaks count what the tape
    holds. A wrapper holds only its rule, so backward still releases each
    entry once its rule has run."""
    peaks = []

    def wrap(k, rule):
        def traced(*gs):
            tracemalloc.reset_peak()
            grads = rule(*gs)
            peaks.append((k, rule.__qualname__.split(".")[0],
                          tracemalloc.get_traced_memory()[1]))
            return grads
        return traced

    tape.ops[:] = [(outs, inputs, wrap(k, bw))
                   for k, (outs, inputs, bw) in enumerate(tape.ops)]
    return peaks
