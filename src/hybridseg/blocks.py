"""Neural building blocks for the hybrid segmentation network.

Everything here is a pure function of (input, params, state) built from the
taped primitives in hybridseg.tensor, so every block is differentiable and
checkable with grad_check. The single exception is batch-norm running-stat
tracking, which mutates the params in training mode on the training thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor


# ---------------------------------------------------------------------------
# separable convolution + batch norm


@dataclass
class SeparableConvParams:
    """Depthwise 3x3 (or any odd k) filter bank, 1x1 channel mixer, and the
    batch-norm affine/statistics that follow them."""

    depthwise: Tensor  # (C, 1, k, k)
    pointwise: Tensor  # (O, C, 1, 1)
    bn_gamma: Tensor  # (O,)
    bn_beta: Tensor  # (O,)
    bn_running_mean: Tensor  # (O,), requires_grad False
    bn_running_var: Tensor  # (O,), requires_grad False
    bn_momentum: float = 0.1
    bn_eps: float = 1e-5


def init_separable_conv(rng, in_ch, out_ch, k=3):
    if k % 2 == 0:
        raise ShapeError("separable conv kernel size must be odd")
    dw = rng.normal(0.0, math.sqrt(2.0 / (k * k)), size=(in_ch, 1, k, k))
    pw = rng.normal(0.0, math.sqrt(2.0 / in_ch), size=(out_ch, in_ch, 1, 1))
    return SeparableConvParams(
        depthwise=Tensor(dw, requires_grad=True),
        pointwise=Tensor(pw, requires_grad=True),
        bn_gamma=Tensor(np.ones(out_ch), requires_grad=True),
        bn_beta=Tensor(np.zeros(out_ch), requires_grad=True),
        bn_running_mean=Tensor(np.zeros(out_ch)),
        bn_running_var=Tensor(np.ones(out_ch)),
    )


def separable_conv_bn(x, p, training, update_stats=None, relu=False):
    """Depthwise conv, pointwise 1x1 conv, batch normalization, then a ReLU
    when relu: one tape entry (tensor.separable_conv_bn), which keeps its
    inputs, the batch mean and std and the ReLU mask, and rebuilds the
    convolutions' outputs in the backward.

    Training mode normalizes with batch statistics; inference mode with the
    stored running statistics. update_stats (default: same as training)
    controls whether running statistics are refreshed, so gradient checking
    can run the batch-statistics path without mutating state.
    """
    if update_stats is None:
        update_stats = training
    stats = None if training else (p.bn_running_mean.data,
                                   p.bn_running_var.data)
    out, mu, var = T.separable_conv_bn(x, p.depthwise, p.pointwise, p.bn_gamma,
                                       p.bn_beta, p.bn_eps, stats, relu)
    if training and update_stats:
        m = p.bn_momentum
        p.bn_running_mean.data = (
            (1.0 - m) * p.bn_running_mean.data + m * mu.reshape(-1)
        )
        p.bn_running_var.data = (
            (1.0 - m) * p.bn_running_var.data + m * var.reshape(-1)
        )
    return out


def encoder_block(x, params_pair, training=False, update_stats=None):
    """Two (separable conv + BN + ReLU) layers, then 2x2 max pooling.

    Returns (skip, pooled): the pre-pool activation kept for the skip path
    and the spatially halved feature map.
    """
    if x.shape[-2] % 2 or x.shape[-1] % 2:
        raise ShapeError("encoder block requires even spatial extents")
    h = x
    for p in params_pair:
        h = separable_conv_bn(h, p, training, update_stats, relu=True)
    return h, T.maxpool2x2(h)


# ---------------------------------------------------------------------------
# convolutional LSTM


@dataclass
class ConvLSTMParams:
    """Gate kernels for one ConvLSTM direction, one tensor per input stream,
    gates stacked on axis 0 in the order input, forget, output, candidate.

    Input/forget gates see the previous memory cell through convolutional
    peepholes; the output gate sees the updated cell through a per-channel
    Hadamard peephole. That asymmetry is deliberate and load-bearing.
    """

    w_x: Tensor  # (4 hidden, in, k, k)
    w_h: Tensor  # (4 hidden, hidden, k, k)
    w_c: Tensor  # (2 hidden, hidden, k, k) conv peepholes on the previous cell
    w_c_o: Tensor  # (hidden,) Hadamard peephole on the new cell
    b: Tensor  # (4 hidden,)


@dataclass
class ConvLSTMState:
    hidden: Tensor
    cell: Tensor


def zero_state(batch, hidden, height, width):
    return ConvLSTMState(
        Tensor(np.zeros((batch, hidden, height, width))),
        Tensor(np.zeros((batch, hidden, height, width))),
    )


def init_conv_lstm(rng, in_ch, hidden, k=3):
    def conv_w(cin):
        return rng.normal(0.0, math.sqrt(1.0 / (k * k * cin)),
                          size=(hidden, cin, k, k))

    # drawn gate by gate (x-kernel, h-kernel, then the gate's peephole), the
    # order every seeded weight depends on, and stacked per stream after
    w_x, w_h, w_c = [], [], []
    for gate in "ifoc":
        w_x.append(conv_w(in_ch))
        w_h.append(conv_w(hidden))
        if gate in "if":
            w_c.append(conv_w(hidden))
        elif gate == "o":
            w_c_o = rng.normal(0.0, 0.1, size=hidden)

    def param(data):
        return Tensor(data, requires_grad=True)

    return ConvLSTMParams(
        w_x=param(np.concatenate(w_x)), w_h=param(np.concatenate(w_h)),
        w_c=param(np.concatenate(w_c)), w_c_o=param(w_c_o),
        b=param(np.zeros(4 * hidden)),
    )


def conv_lstm_step(x, state, p):
    """One ConvLSTM update, one tape entry (tensor.conv_lstm_step).

    Gate order: input and forget gates first (conv peepholes on the previous
    cell), then the cell update, then the output gate (Hadamard peephole on
    the new cell), then the hidden state. Each input stream's kernels run as
    one convolution, so the patch gather happens once per stream in the
    forward, and again in the backward for that stream's kernel gradient.

    state=None stands for the all-zero initial state. Its h- and c-stream
    convolutions and the forget-gate term f * c_prev are exactly zero, so
    they are not computed, nor is the forget gate itself: outputs equal those
    of a zero_state step. w_h and w_c get no gradient (None) from the step,
    and the forget-gate rows of w_x and b get exact zeros.
    """
    h, c = (None, None) if state is None else (state.hidden, state.cell)
    hidden, cell = T.conv_lstm_step(x, h, c, p.w_x, p.w_h, p.w_c, p.w_c_o, p.b)
    return ConvLSTMState(hidden=hidden, cell=cell)


@dataclass
class BConvLSTMParams:
    forward: ConvLSTMParams
    backward: ConvLSTMParams
    mix_fwd: Tensor  # (hidden, hidden, k, k)
    mix_bwd: Tensor  # (hidden, hidden, k, k)
    mix_bias: Tensor  # (hidden,)


def init_bconv_lstm(rng, in_ch, hidden, k=3):
    def mix_w():
        return Tensor(
            rng.normal(0.0, math.sqrt(1.0 / (k * k * hidden)),
                       size=(hidden, hidden, k, k)),
            requires_grad=True,
        )

    return BConvLSTMParams(
        forward=init_conv_lstm(rng, in_ch, hidden, k),
        backward=init_conv_lstm(rng, in_ch, hidden, k),
        mix_fwd=mix_w(),
        mix_bwd=mix_w(),
        mix_bias=Tensor(np.zeros(hidden), requires_grad=True),
    )


def bconv_lstm(sequence, p):
    """Bidirectional ConvLSTM over a feature sequence, one tape entry
    (tensor.bconv_lstm).

    Both directions start from zero state. The forward pass runs first to
    last; the output mixes its final hidden state with the reverse pass's
    hidden state aligned at the final sequence position, through learned
    kernels and tanh. Both mixing terms are convolutions. The reverse pass
    runs last to first, so the state aligned at the final position is its
    first step: only that one step is run, since the later reverse steps
    never reach the output.
    """
    def weights(q):
        return q.w_x, q.w_h, q.w_c, q.w_c_o, q.b

    return T.bconv_lstm(list(sequence), weights(p.forward),
                        weights(p.backward), p.mix_fwd, p.mix_bwd, p.mix_bias)


# ---------------------------------------------------------------------------
# windowed multi-head self-attention


@dataclass
class AttentionParams:
    """Projections for one attention module.

    Queries and values carry biases; keys do not: a constant added to every
    key shifts all logits in a softmax row equally and cancels exactly, so a
    key bias would be an inert, unlearnable parameter.
    """

    qkv_w: Tensor  # (d, 3d)
    q_bias: Tensor  # (d,)
    v_bias: Tensor  # (d,)
    proj_w: Tensor  # (d, d)
    proj_b: Tensor  # (d,)


@dataclass
class MlpParams:
    w1: Tensor  # (hidden, d, 1, 1) pointwise
    b1: Tensor
    w2: Tensor  # (d, hidden, 1, 1)
    b2: Tensor


@dataclass
class LayerNormParams:
    # eps is deliberately large: with few channels the normalization becomes
    # a near-step function of channel differences, and a smaller constant
    # puts its curvature beyond what central differences can resolve
    gamma: Tensor
    beta: Tensor
    eps: float = 1e-2


@dataclass
class SwinBlockParams:
    """Parameters of two consecutive windowed-attention blocks.

    Block 1 attends within aligned windows; block 2 within windows cyclically
    shifted by window_size // 2 so information crosses window borders.
    """

    embed_dim: int
    window_size: int
    num_heads: int
    attn1: AttentionParams
    attn2: AttentionParams
    ln1a: LayerNormParams  # after W-MSA
    ln1b: LayerNormParams  # before block-1 MLP
    ln2a: LayerNormParams  # after SW-MSA
    ln2b: LayerNormParams  # before block-2 MLP
    mlp1: MlpParams
    mlp2: MlpParams

    @property
    def shift(self):
        return self.window_size // 2


def init_swin_pair(rng, embed_dim, window_size, num_heads, mlp_ratio=4):
    if embed_dim % num_heads:
        raise ShapeError(
            f"embed dim {embed_dim} not divisible by {num_heads} heads"
        )

    def linear(din, dout):
        return Tensor(
            rng.normal(0.0, math.sqrt(1.0 / din), size=(din, dout)),
            requires_grad=True,
        )

    def attn():
        return AttentionParams(
            qkv_w=linear(embed_dim, 3 * embed_dim),
            q_bias=Tensor(np.zeros(embed_dim), requires_grad=True),
            v_bias=Tensor(np.zeros(embed_dim), requires_grad=True),
            proj_w=linear(embed_dim, embed_dim),
            proj_b=Tensor(np.zeros(embed_dim), requires_grad=True),
        )

    def ln():
        return LayerNormParams(
            gamma=Tensor(np.ones(embed_dim), requires_grad=True),
            beta=Tensor(np.zeros(embed_dim), requires_grad=True),
        )

    hidden = int(embed_dim * mlp_ratio)

    def mlp():
        return MlpParams(
            w1=Tensor(
                rng.normal(0.0, math.sqrt(2.0 / embed_dim),
                           size=(hidden, embed_dim, 1, 1)),
                requires_grad=True,
            ),
            b1=Tensor(np.zeros(hidden), requires_grad=True),
            w2=Tensor(
                rng.normal(0.0, math.sqrt(2.0 / hidden),
                           size=(embed_dim, hidden, 1, 1)),
                requires_grad=True,
            ),
            b2=Tensor(np.zeros(embed_dim), requires_grad=True),
        )

    return SwinBlockParams(
        embed_dim=embed_dim,
        window_size=window_size,
        num_heads=num_heads,
        attn1=attn(),
        attn2=attn(),
        ln1a=ln(), ln1b=ln(), ln2a=ln(), ln2b=ln(),
        mlp1=mlp(), mlp2=mlp(),
    )


def window_attention(x, p, shifted):
    """Multi-head self-attention within non-overlapping windows.

    Tokens are the spatial positions of the NCHW feature map. When shifted,
    the map is cyclically shifted by window_size // 2, wrapped positions are
    masked out of each other's attention, and the shift is undone afterward.
    Output shape equals input shape.
    """
    ap = p.attn2 if shifted else p.attn1
    return T.window_attention(x, ap.qkv_w, ap.q_bias, ap.v_bias, ap.proj_w,
                              ap.proj_b, p.window_size, p.num_heads,
                              p.shift if shifted else 0)


def _layer_norm(x, p):
    """Per-position normalization over the channel axis of an NCHW map."""
    return T.normalize(x, p.gamma, p.beta, (1,), p.eps)[0]


def _mlp(x, p):
    return T.pointwise_mlp(x, p.w1, p.b1, p.w2, p.b2)


def swin_block_pair(x, p):
    """Two consecutive windowed-attention blocks with residual fusion.

    Block 1: aligned windows; block 2: shifted windows. Each block adds the
    layer-normed attention output to its input, then adds an MLP applied to
    the layer-normed intermediate. Shape is preserved.
    """
    z1 = x + _layer_norm(window_attention(x, p, shifted=False), p.ln1a)
    z2 = z1 + _mlp(_layer_norm(z1, p.ln1b), p.mlp1)
    z3 = z2 + _layer_norm(window_attention(z2, p, shifted=True), p.ln2a)
    return z3 + _mlp(_layer_norm(z3, p.ln2b), p.mlp2)


# ---------------------------------------------------------------------------
# complexity accounting


def complexity_msa(h, w, d):
    """Operation count of global multi-head self-attention on an h x w grid."""
    if min(h, w, d) < 1:
        raise ValueError("complexity arguments must be >= 1")
    hw = h * w
    return 4 * hw * d * d + 2 * hw * hw * d


def complexity_swmsa(h, w, d, n, literal=False):
    """Operation count of shifted-window attention (linear in h*w at fixed n).

    literal=True evaluates the quadratic-in-hw variant for side-by-side
    comparison; it contradicts the linear-scaling claim and is not used by
    the model counters.
    """
    if min(h, w, d, n) < 1:
        raise ValueError("complexity arguments must be >= 1")
    hw = h * w
    if literal:
        return 4 * hw * d * d + 2 * n * n * hw * hw * d
    return 4 * hw * d * d + 2 * n * n * hw * d


# ---------------------------------------------------------------------------
# transposed convolution


def transposed_conv(x, kernel):
    """Stride-2 transposed convolution with a 2x2 kernel: exact 2x upsampling."""
    return T.conv_transpose2d(x, kernel)


def init_transposed_conv(rng, in_ch, out_ch):
    w = rng.normal(0.0, math.sqrt(1.0 / in_ch), size=(in_ch, out_ch, 2, 2))
    return Tensor(w, requires_grad=True)


def params_of(obj, prefix=""):
    """Flatten any nested params dataclass into {path: Tensor}."""
    out = {}
    if isinstance(obj, Tensor):
        out[prefix] = obj
    elif hasattr(obj, "__dataclass_fields__"):
        for f in fields(obj):
            v = getattr(obj, f.name)
            if isinstance(v, (Tensor,)) or hasattr(v, "__dataclass_fields__"):
                key = f"{prefix}.{f.name}" if prefix else f.name
                out.update(params_of(v, key))
    return out
