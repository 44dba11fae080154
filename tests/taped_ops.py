"""Taped primitives and tape oracles that only the tests use.

The composed oracles (window attention, normalization, the separable-conv
block and the Swin MLP built from small ops) need a few differentiable ops
that the library itself no longer runs. They record onto the active tape
through tensor._register, so the oracles keep a taped backward to compare
the fused primitives' hand-written ones against.

backward_retaining is tensor.backward as it was before backward released
the tape as it ran, and closure_arrays lists what a tape entry's rule
holds; the tests of what the tape keeps alive use both.
"""

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
