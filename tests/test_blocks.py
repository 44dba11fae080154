import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import taped_ops as O
from hybridseg import blocks as B
from hybridseg import model as M
from hybridseg import tensor as T
from hybridseg.tensor import NonFiniteError, ShapeError, Tensor, grad_check

# ---------------------------------------------------------------------------
# independent oracles


def conv2d_oracle(x, w, padding, groups):
    """Nested-loop cross-correlation, the reference for every conv in the stack."""
    b, cin, h, wid = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho, wo = h + 2 * padding - kh + 1, wid + 2 * padding - kw + 1
    out = np.zeros((b, cout, ho, wo))
    for bi in range(b):
        for oc in range(cout):
            for i in range(ho):
                for j in range(wo):
                    s = 0.0
                    if groups == 1:
                        for c in range(cin):
                            for ki in range(kh):
                                for kj in range(kw):
                                    s += xp[bi, c, i + ki, j + kj] * w[oc, c, ki, kj]
                    else:
                        for ki in range(kh):
                            for kj in range(kw):
                                s += xp[bi, oc, i + ki, j + kj] * w[oc, 0, ki, kj]
                    out[bi, oc, i, j] = s
    return out


def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def conv_lstm_step_oracle(x, h_prev, c_prev, p):
    """Straight-line transcription of the gate equations with the loop conv."""

    def cv(a, w):
        return conv2d_oracle(a, w, (w.shape[-1] - 1) // 2, groups=1)

    def per_ch(v):
        return v.reshape(1, -1, 1, 1)

    hid = p.w_c_o.shape[0]
    # gate rows of the stacked tensors, in the order i, f, o, c
    w_x_i, w_x_f, w_x_o, w_x_c = np.split(p.w_x.data, 4)
    w_h_i, w_h_f, w_h_o, w_h_c = np.split(p.w_h.data, 4)
    w_c_i, w_c_f = p.w_c.data[:hid], p.w_c.data[hid:]
    b_i, b_f, b_o, b_c = np.split(p.b.data, 4)

    i = _sig(cv(x, w_x_i) + cv(h_prev, w_h_i) + cv(c_prev, w_c_i) + per_ch(b_i))
    f = _sig(cv(x, w_x_f) + cv(h_prev, w_h_f) + cv(c_prev, w_c_f) + per_ch(b_f))
    c_new = f * c_prev + i * np.tanh(
        cv(x, w_x_c) + cv(h_prev, w_h_c) + per_ch(b_c)
    )
    o = _sig(cv(x, w_x_o) + cv(h_prev, w_h_o)
             + per_ch(p.w_c_o.data) * c_new + per_ch(b_o))
    return o * np.tanh(c_new), c_new


def conv_lstm_step_composed(x, state, p):
    """A ConvLSTM step as a composition of taped primitives: the reference
    for T.conv_lstm_step's forward bits and hand-written backward. state=None
    skips the zero h- and c-streams and the forget gate, as the step does."""
    hid = p.w_c_o.shape[0]

    def conv_same(a, w):
        return T.conv2d(a, w, padding=(w.shape[-1] - 1) // 2)

    def gate(t, k):  # gate k's rows of a stacked tensor
        return T.narrow(t, 0, k * hid, hid)

    def per_ch(v):
        return T.reshape(v, (1, hid, 1, 1))

    if state is None:
        from_x = conv_same(x, T.concat([gate(p.w_x, 0), gate(p.w_x, 2),
                                        gate(p.w_x, 3)], 0))
        i = T.sigmoid(T.narrow(from_x, 1, 0, hid) + per_ch(gate(p.b, 0)))
        c_new = i * T.tanh(T.narrow(from_x, 1, 2 * hid, hid)
                           + per_ch(gate(p.b, 3)))
        o = T.sigmoid(T.narrow(from_x, 1, hid, hid)
                      + per_ch(p.w_c_o) * c_new + per_ch(gate(p.b, 2)))
        return B.ConvLSTMState(hidden=o * T.tanh(c_new), cell=c_new)

    h_prev, c_prev = state.hidden, state.cell
    from_x = conv_same(x, p.w_x)
    from_h = conv_same(h_prev, p.w_h)
    from_c = conv_same(c_prev, p.w_c)

    def gate_h(k):
        return T.narrow(from_x, 1, k * hid, hid) + T.narrow(from_h, 1, k * hid, hid)

    i = T.sigmoid(gate_h(0) + T.narrow(from_c, 1, 0, hid) + per_ch(gate(p.b, 0)))
    f = T.sigmoid(gate_h(1) + T.narrow(from_c, 1, hid, hid) + per_ch(gate(p.b, 1)))
    c_new = f * c_prev + i * T.tanh(gate_h(3) + per_ch(gate(p.b, 3)))
    o = T.sigmoid(gate_h(2) + per_ch(p.w_c_o) * c_new + per_ch(gate(p.b, 2)))
    return B.ConvLSTMState(hidden=o * T.tanh(c_new), cell=c_new)


def window_attention_oracle(x, p, shifted):
    """Dense per-window softmax attention, derived from first principles.

    Tokens that became window-mates only through the cyclic wrap (different
    wrap status along either axis) must not attend to each other.
    """
    b, c, height, width = x.shape
    n = p.window_size
    heads = p.num_heads
    hd = c // heads
    ap = p.attn2 if shifted else p.attn1
    s = p.shift if shifted else 0
    xs = np.roll(x, (-s, -s), axis=(2, 3))
    out = np.zeros_like(xs)

    for bi in range(b):
        for wi in range(height // n):
            for wj in range(width // n):
                coords = [
                    (wi * n + di, wj * n + dj) for di in range(n) for dj in range(n)
                ]
                toks = np.stack([xs[bi, :, y, xx] for y, xx in coords])
                qkv = toks @ ap.qkv_w.data
                q = qkv[:, :c] + ap.q_bias.data
                k = qkv[:, c : 2 * c]
                v = qkv[:, 2 * c :] + ap.v_bias.data
                wrapped = [
                    (y >= height - s, xx >= width - s) for y, xx in coords
                ]
                ctx = np.zeros((len(coords), c))
                for h_i in range(heads):
                    sl = slice(h_i * hd, (h_i + 1) * hd)
                    logits = q[:, sl] @ k[:, sl].T / math.sqrt(hd)
                    if s:
                        for a in range(len(coords)):
                            for bb in range(len(coords)):
                                if wrapped[a] != wrapped[bb]:
                                    logits[a, bb] = -np.inf
                    e = np.exp(logits - logits.max(axis=1, keepdims=True))
                    att = e / e.sum(axis=1, keepdims=True)
                    ctx[:, sl] = att @ v[:, sl]
                proj = ctx @ ap.proj_w.data + ap.proj_b.data
                for t, (y, xx) in enumerate(coords):
                    out[bi, :, y, xx] = proj[t]
    return np.roll(out, (s, s), axis=(2, 3))



def _shift_attention_mask(height, width, n, shift):
    """Additive mask (num_windows, n*n, n*n) blocking attention between
    regions that only became window-mates through the cyclic shift."""
    ids = np.zeros((height, width))
    region = 0
    for hs in (slice(0, height - n), slice(height - n, height - shift),
               slice(height - shift, height)):
        for ws in (slice(0, width - n), slice(width - n, width - shift),
                   slice(width - shift, width)):
            ids[hs, ws] = region
            region += 1
    wins = (
        ids.reshape(height // n, n, width // n, n)
        .transpose(0, 2, 1, 3)
        .reshape(-1, n * n)
    )
    diff = wins[:, :, None] - wins[:, None, :]
    return np.where(diff != 0.0, -1e9, 0.0)


def _tokens_linear(tokens, w, bias=None):
    b, t, d = tokens.shape
    out = O.matmul(T.reshape(tokens, (b * t, d)), w)
    if bias is not None:
        out = out + T.reshape(bias, (1, bias.shape[0]))
    return T.reshape(out, (b, t, w.shape[1]))


def window_attention_composed(x, p, shifted):
    """Window attention as a composition of taped primitives: the reference
    for T.window_attention's forward bits and hand-written backward."""
    b, c, height, width = x.shape
    n = p.window_size
    heads = p.num_heads
    hd = c // heads
    attn_p = p.attn2 if shifted else p.attn1
    shift = p.shift if shifted else 0

    if shift:
        x = O.roll2d(x, (-shift, -shift))
    t = T.reshape(x, (b, c, height // n, n, width // n, n))
    t = O.transpose(t, (0, 2, 4, 3, 5, 1))
    tokens = T.reshape(t, (b * (height // n) * (width // n), n * n, c))
    bw, tcount, _ = tokens.shape
    qkv = _tokens_linear(tokens, attn_p.qkv_w)

    def heads_of(part):
        t = T.reshape(part, (bw, tcount, heads, hd))
        return T.reshape(O.transpose(t, (0, 2, 1, 3)), (bw * heads, tcount, hd))

    q = heads_of(T.narrow(qkv, 2, 0, c) + T.reshape(attn_p.q_bias, (1, 1, c)))
    k = heads_of(T.narrow(qkv, 2, c, c))
    v = heads_of(T.narrow(qkv, 2, 2 * c, c) + T.reshape(attn_p.v_bias, (1, 1, c)))

    scores = O.matmul(q, O.transpose(k, (0, 2, 1))) * (1.0 / math.sqrt(hd))
    if shift:
        nw = (height // n) * (width // n)
        mask = Tensor(
            _shift_attention_mask(height, width, n, shift)
            .reshape(1, nw, 1, tcount, tcount)
        )
        scores = T.reshape(scores, (b, nw, heads, tcount, tcount)) + mask
        scores = T.reshape(scores, (bw * heads, tcount, tcount))
    ctx = O.matmul(T.softmax(scores, axis=2), v)  # (BW*heads, T, hd)

    ctx = T.reshape(ctx, (bw, heads, tcount, hd))
    ctx = T.reshape(O.transpose(ctx, (0, 2, 1, 3)), (bw, tcount, c))
    out = _tokens_linear(ctx, attn_p.proj_w, attn_p.proj_b)
    t = T.reshape(out, (b, height // n, width // n, n, n, c))
    t = O.transpose(t, (0, 5, 1, 3, 2, 4))
    out = T.reshape(t, (b, c, height, width))
    if shift:
        out = O.roll2d(out, (shift, shift))
    return out


def normalize_composed(x, gamma, beta, axes, eps, stats=None):
    """(x - mean) / sqrt(var + eps) * gamma + beta composed from taped ops:
    the reference for T.normalize's forward bits and hand-written backward.
    stats = (mean, var) arrays replace the batch statistics over axes."""
    per_ch = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    if stats is None:
        mu = T.tmean(x, axes=axes, keepdims=True)
        centered = x - mu
        var = T.tmean(centered * centered, axes=axes, keepdims=True)
    else:
        reduced = tuple(1 if i in axes else s for i, s in enumerate(x.shape))
        mu, var = (Tensor(np.reshape(s, reduced)) for s in stats)
        centered = x - mu
    xhat = centered / O.sqrt(var + eps)
    return T.reshape(gamma, per_ch) * xhat + T.reshape(beta, per_ch)


def batch_norm_composed(y, p, training):
    """The batch norm of separable_conv_bn, running-stat update left out."""
    stats = None if training else (p.bn_running_mean.data, p.bn_running_var.data)
    return normalize_composed(y, p.bn_gamma, p.bn_beta, [0, 2, 3], p.bn_eps,
                              stats)


def layer_norm_composed(x, p):
    """blocks._layer_norm: per-position normalization over channels."""
    return normalize_composed(x, p.gamma, p.beta, [1], p.eps)


def separable_conv_bn_composed(x, dw, pw, gamma, beta, eps, stats=None,
                               relu=False):
    """T.separable_conv_bn composed from taped ops, in its signature: the
    reference for its forward bits and hand-written backward."""
    k = dw.shape[-1]
    y = T.conv2d(x, dw, padding=(k - 1) // 2, groups=x.shape[1])
    y = T.conv2d(y, pw)
    out, mean, var = T.normalize(y, gamma, beta, (0, 2, 3), eps, stats)
    return (O.relu(out) if relu else out), mean, var


def mlp_composed(x, w1, b1, w2, b2):
    """T.pointwise_mlp composed from taped ops, in its signature: the
    reference for its forward bits and hand-written backward."""

    def per_ch(v):
        return T.reshape(v, (1, v.shape[0], 1, 1))

    h = O.relu(T.conv2d(x, w1) + per_ch(b1))
    return T.conv2d(h, w2) + per_ch(b2)


# ---------------------------------------------------------------------------


def identity_sepconv(channels, k=3):
    """Configuration whose inference-mode output equals its input."""
    dw = np.zeros((channels, 1, k, k))
    dw[:, 0, k // 2, k // 2] = 1.0
    pw = np.eye(channels).reshape(channels, channels, 1, 1)
    return B.SeparableConvParams(
        depthwise=Tensor(dw),
        pointwise=Tensor(pw),
        bn_gamma=Tensor(np.ones(channels)),
        bn_beta=Tensor(np.zeros(channels)),
        bn_running_mean=Tensor(np.zeros(channels)),
        bn_running_var=Tensor(np.ones(channels)),
        bn_eps=0.0,
    )


class TestSeparableConvBN:
    def test_identity_configuration(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.uniform(-1, 1, (1, 3, 6, 6)))
        out = B.separable_conv_bn(x, identity_sepconv(3), training=False)
        assert np.allclose(out.data, x.data, atol=1e-12)

    def test_zero_kernels_give_beta(self):
        rng = np.random.default_rng(1)
        p = identity_sepconv(2)
        p.depthwise = Tensor(np.zeros_like(p.depthwise.data))
        p.pointwise = Tensor(np.zeros_like(p.pointwise.data))
        p.bn_beta = Tensor(np.array([1.5, -2.0]))
        out = B.separable_conv_bn(
            Tensor(rng.uniform(-1, 1, (2, 2, 4, 4))), p, training=False
        )
        assert np.allclose(out.data[:, 0], 1.5) and np.allclose(out.data[:, 1], -2.0)

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 3, 8, 8))
        p = B.init_separable_conv(rng, 3, 5)
        expect = conv2d_oracle(
            conv2d_oracle(x, p.depthwise.data, 1, groups=3),
            p.pointwise.data, 0, groups=1,
        )
        mu = p.bn_running_mean.data.reshape(1, -1, 1, 1)
        var = p.bn_running_var.data.reshape(1, -1, 1, 1)
        expect = (expect - mu) / np.sqrt(var + p.bn_eps)
        out = B.separable_conv_bn(Tensor(x), p, training=False)
        assert np.allclose(out.data, expect, atol=1e-10)

    def test_channel_mismatch(self):
        p = B.init_separable_conv(np.random.default_rng(3), 3, 4)
        with pytest.raises(ShapeError):
            B.separable_conv_bn(Tensor(np.zeros((1, 2, 4, 4))), p, training=False)

    def test_zero_batch_training(self):
        p = B.init_separable_conv(np.random.default_rng(3), 2, 2)
        with pytest.raises(ShapeError):
            B.separable_conv_bn(Tensor(np.zeros((0, 2, 4, 4))), p, training=True)

    def test_running_stats_update(self):
        rng = np.random.default_rng(4)
        p = B.init_separable_conv(rng, 2, 3)
        before = p.bn_running_mean.data.copy()
        B.separable_conv_bn(Tensor(rng.standard_normal((2, 2, 4, 4))), p, True)
        assert not np.array_equal(p.bn_running_mean.data, before)
        after = p.bn_running_mean.data.copy()
        B.separable_conv_bn(
            Tensor(rng.standard_normal((2, 2, 4, 4))), p, True, update_stats=False
        )
        assert np.array_equal(p.bn_running_mean.data, after)

    def test_grad_check(self):
        rng = np.random.default_rng(5)
        p = B.init_separable_conv(rng, 2, 3)
        x = Tensor(rng.uniform(-1, 1, (2, 2, 4, 4)), requires_grad=True)
        leaves = [x] + list(B.params_of(p).values())
        leaves = [t for t in leaves if t.requires_grad]

        def f(*_):
            out = B.separable_conv_bn(x, p, training=True, update_stats=False)
            return T.tmean(out * out) * 0.1

        res = grad_check(f, leaves, eps=1e-5)
        assert res.max_rel_error <= 1e-4


def _normalize_grads(fn, xdata, gamma, beta, weights, residual=False):
    """Output and the (x, gamma, beta) gradients of sum(weights * out), with
    out = fn(x, gamma, beta), plus x when residual."""
    leaves = [Tensor(xdata, requires_grad=True), gamma, beta]
    for t in leaves:
        t.grad = None
    with T.record():
        out = fn(*leaves)
        if residual:
            out = leaves[0] + out
        T.backward(T.tsum(out * Tensor(weights)))
    return out.data, [t.grad for t in leaves]


class TestNormalizePrimitive:
    @settings(deadline=None, max_examples=60)
    @given(batch=st.integers(1, 3), channels=st.integers(1, 6),
           height=st.integers(1, 6), width=st.integers(1, 6),
           axes=st.sampled_from([(0, 2, 3), (1,)]), given_stats=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_matches_composition(self, batch, channels, height, width, axes,
                                 given_stats, seed):
        rng = np.random.default_rng(seed)
        shape = (batch, channels, height, width)
        reduced = tuple(1 if i in axes else s for i, s in enumerate(shape))
        stats = (rng.uniform(-1, 1, reduced), rng.uniform(0.1, 2, reduced)) \
            if given_stats else None
        gamma, beta = (Tensor(rng.uniform(-2, 2, channels), requires_grad=True)
                       for _ in range(2))
        xdata = rng.uniform(-3, 3, shape)
        weights = rng.uniform(-1, 1, shape)
        out, grads = _normalize_grads(
            lambda *a: T.normalize(*a, axes, 1e-2, stats)[0],
            xdata, gamma, beta, weights)
        ref, ref_grads = _normalize_grads(
            lambda *a: normalize_composed(*a, list(axes), 1e-2, stats),
            xdata, gamma, beta, weights)
        assert np.array_equal(out, ref)
        for g, r in zip(grads, ref_grads):
            assert np.array_equal(g, r)

    def test_returns_the_statistics_used(self):
        rng = np.random.default_rng(40)
        x = rng.uniform(-1, 1, (2, 3, 4, 5))
        gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
        _, mean, var = T.normalize(Tensor(x), gamma, beta, (0, 2, 3), 1e-5)
        assert mean.shape == var.shape == (1, 3, 1, 1)
        assert np.allclose(mean.reshape(-1), x.mean(axis=(0, 2, 3)))
        assert np.allclose(var.reshape(-1), x.var(axis=(0, 2, 3)))
        stats = (np.arange(3.0), np.full(3, 4.0))
        out, mean, var = T.normalize(Tensor(x), gamma, beta, (0, 2, 3), 0.0,
                                     stats)
        assert np.array_equal(mean.reshape(-1), stats[0])
        assert np.allclose(out.data, (x - np.arange(3.0)[:, None, None]) / 2.0)

    def test_residual_input_grad_matches_composition(self):
        # x feeds both the layer norm and a residual add, as z1 and z3 do in
        # swin_block_pair: its gradient terms must arrive in the same order
        rng = np.random.default_rng(41)
        p = B.init_swin_pair(rng, 5, 2, 1).ln1b
        p.gamma.data, p.beta.data = rng.uniform(-2, 2, (2, 5))
        xdata = rng.uniform(-3, 3, (2, 5, 4, 6))
        weights = rng.uniform(-1, 1, xdata.shape)
        results = [
            _normalize_grads(lambda x, *_: fn(x, p), xdata, p.gamma, p.beta,
                             weights, residual=True)
            for fn in (B._layer_norm, layer_norm_composed)
        ]
        (out, grads), (ref, ref_grads) = results
        assert np.array_equal(out, ref)
        for g, r in zip(grads, ref_grads):
            assert np.array_equal(g, r)

    def test_swin_pair_grads_match_composition(self, monkeypatch):
        rng = np.random.default_rng(42)
        p = B.init_swin_pair(rng, 4, 2, 2, mlp_ratio=2)
        leaves = [t for t in B.params_of(p).values() if t.requires_grad]
        xdata = rng.uniform(-1, 1, (2, 4, 4, 4))

        def run():
            x = Tensor(xdata, requires_grad=True)
            for t in leaves:
                t.grad = None
            with T.record():
                out = B.swin_block_pair(x, p)
                T.backward(T.tsum(out * out))
            return out.data, [x.grad] + [t.grad for t in leaves]

        out, grads = run()
        monkeypatch.setattr(B, "_layer_norm", layer_norm_composed)
        ref, ref_grads = run()
        assert np.array_equal(out, ref)
        for g, r in zip(grads, ref_grads):
            assert np.array_equal(g, r)

    @pytest.mark.parametrize("training", [True, False])
    def test_separable_conv_bn_matches_composition(self, training):
        rng = np.random.default_rng(43)
        p = B.init_separable_conv(rng, 3, 4)
        p.bn_running_mean.data = rng.uniform(-1, 1, 4)
        p.bn_running_var.data = rng.uniform(0.5, 2, 4)
        x = Tensor(rng.uniform(-1, 1, (2, 3, 5, 4)))
        y = T.conv2d(T.conv2d(x, p.depthwise, padding=1, groups=3), p.pointwise)
        ref = batch_norm_composed(y, p, training)
        out = B.separable_conv_bn(x, p, training, update_stats=False)
        assert np.array_equal(out.data, ref.data)

    @pytest.mark.parametrize("axes,given", [((0, 2, 3), False), ((1,), False),
                                            ((0, 2, 3), True), ((1,), True)])
    def test_entry_keeps_no_centred_copy(self, axes, given):
        # the backward recomputes x - mean: the entry holds x itself and no
        # other array of its shape
        rng = np.random.default_rng(46)
        xdata = rng.uniform(-3, 3, (2, 3, 4, 5))
        reduced = tuple(1 if i in axes else s for i, s in enumerate(xdata.shape))
        stats = (rng.uniform(-1, 1, reduced), rng.uniform(0.1, 2, reduced)) \
            if given else None
        gamma, beta = (Tensor(rng.uniform(-2, 2, 3), requires_grad=True)
                       for _ in range(2))
        x = Tensor(xdata, requires_grad=True)
        with T.record() as tape:
            T.normalize(x, gamma, beta, axes, 1e-2, stats)
            (_, _, bw), = tape.ops
            held = [a.shape for a in O.closure_arrays(bw)
                    if a.shape == xdata.shape and a is not x.data]
        assert held == []
        weights = rng.uniform(-1, 1, xdata.shape)
        out, grads = _normalize_grads(
            lambda *a: T.normalize(*a, axes, 1e-2, stats)[0],
            xdata, gamma, beta, weights)
        ref, ref_grads = _normalize_grads(
            lambda *a: normalize_composed(*a, list(axes), 1e-2, stats),
            xdata, gamma, beta, weights)
        assert np.array_equal(out, ref)
        for g, r in zip(grads, ref_grads):
            assert np.array_equal(g, r)

    @pytest.mark.parametrize("axes,given", [((0, 2, 3), False), ((1,), False),
                                            ((0, 2, 3), True)])
    def test_one_tape_entry(self, axes, given):
        rng = np.random.default_rng(44)
        x = Tensor(rng.uniform(-1, 1, (2, 3, 4, 4)), requires_grad=True)
        gamma, beta = Tensor(np.ones(3), requires_grad=True), Tensor(np.zeros(3))
        reduced = tuple(1 if i in axes else s for i, s in enumerate(x.shape))
        stats = (np.zeros(reduced), np.ones(reduced)) if given else None
        with T.record() as tape:
            T.normalize(x, gamma, beta, axes, 1e-5, stats)
        assert len(tape) == 1

    @pytest.mark.parametrize("axes", [(0, 2, 3), (1,)])
    def test_grad_check(self, axes):
        rng = np.random.default_rng(45)
        x = Tensor(rng.uniform(-1, 1, (2, 3, 3, 4)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 2, 3), requires_grad=True)
        beta = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
        weights = Tensor(rng.uniform(-1, 1, x.shape))

        def f(*_):
            out = T.normalize(x, gamma, beta, axes, 1e-2)[0]
            return T.tsum(out * weights)

        assert grad_check(f, [x, gamma, beta], eps=1e-5).max_rel_error <= 1e-4

    @pytest.mark.parametrize("axes", [(0, 2, 3), (1,)])
    def test_overflow_raises_non_finite_naming_the_op(self, axes):
        # centred * centred overflows: that must surface as NonFiniteError,
        # not as a floating-point warning, and say which op it came from
        x = Tensor(np.array([-1e200, 1e200, 3e200, -2e200]).reshape(2, 2, 1, 1))
        gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteError, match="normalize"):
                T.normalize(x, gamma, beta, axes, 1e-5)

    def test_rejects_bad_shapes(self):
        x = Tensor(np.zeros((2, 3, 4, 4)))
        ones = Tensor(np.ones(3))
        with pytest.raises(ShapeError):
            T.normalize(x, Tensor(np.ones(2)), ones, (0, 2, 3), 1e-5)
        with pytest.raises(ShapeError):
            T.normalize(x, ones, Tensor(np.ones(4)), (1,), 1e-5)
        with pytest.raises(ShapeError):
            T.normalize(x, ones, ones, (0, 2, 3), 1e-5,
                        (np.zeros(2), np.ones(2)))
        with pytest.raises(ShapeError):
            T.normalize(Tensor(np.zeros((0, 3, 4, 4))), ones, ones, (0, 2, 3),
                        1e-5)


def _leaf_grads(fn, leaves, weights):
    """Output, extra outputs and leaf gradients of sum(weights * out) with
    (out, *extra) = fn(*leaves); a leaf that needs no gradient gets None."""
    for t in leaves:
        t.grad = None
    with T.record():
        res = fn(*leaves)
        out, extra = (res[0], res[1:]) if isinstance(res, tuple) else (res, ())
        T.backward(T.tsum(out * Tensor(weights)))
    return out.data, extra, [t.grad for t in leaves]


def _assert_same(a, b):
    (out, extra, grads), (ref, ref_extra, ref_grads) = a, b
    assert np.array_equal(out, ref)
    for e, r in zip(extra, ref_extra):
        assert np.array_equal(e, r)
    for g, r in zip(grads, ref_grads):
        assert (g is None and r is None) or np.array_equal(g, r)


def _sepconv_leaves(rng, cin, cout, k, x_shape, x_grad):
    x = Tensor(rng.uniform(-2, 2, x_shape), requires_grad=x_grad)
    dw = Tensor(rng.normal(0, 1, (cin, 1, k, k)), requires_grad=True)
    pw = Tensor(rng.normal(0, 1, (cout, cin, 1, 1)), requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 2, cout), requires_grad=True)
    beta = Tensor(rng.uniform(-1, 1, cout), requires_grad=True)
    return [x, dw, pw, gamma, beta]


class TestSeparableConvPrimitive:
    @settings(deadline=None, max_examples=80)
    @given(batch=st.integers(1, 3), cin=st.integers(1, 4), cout=st.integers(1, 4),
           height=st.integers(1, 6), width=st.integers(1, 6),
           k=st.sampled_from([1, 3]), relu=st.booleans(),
           given_stats=st.booleans(), x_grad=st.booleans(),
           seed=st.integers(0, 2**16))
    @example(batch=2, cin=1, cout=3, height=4, width=5, k=3, relu=True,
             given_stats=False, x_grad=False, seed=1)
    @example(batch=2, cin=1, cout=3, height=4, width=5, k=3, relu=False,
             given_stats=True, x_grad=True, seed=2)
    @example(batch=2, cin=3, cout=2, height=5, width=4, k=3, relu=True,
             given_stats=True, x_grad=False, seed=3)
    @example(batch=2, cin=3, cout=2, height=5, width=4, k=3, relu=False,
             given_stats=False, x_grad=True, seed=4)
    @example(batch=1, cin=1, cout=2, height=3, width=4, k=3, relu=True,
             given_stats=False, x_grad=True, seed=5)
    @example(batch=3, cin=3, cout=2, height=5, width=4, k=3, relu=True,
             given_stats=True, x_grad=True, seed=7)
    @example(batch=3, cin=4, cout=4, height=2, width=5, k=1, relu=False,
             given_stats=False, x_grad=True, seed=8)
    def test_matches_composition(self, batch, cin, cout, height, width, k, relu,
                                 given_stats, x_grad, seed):
        # cin == 1 is conv2d's dense path, cin > 1 its depthwise one; the
        # backward rebuilds the depthwise and centred pointwise outputs from
        # x, so it also matches bit for bit the entry that kept them
        rng = np.random.default_rng(seed)
        leaves = _sepconv_leaves(rng, cin, cout, k, (batch, cin, height, width),
                                 x_grad)
        stats = (rng.uniform(-1, 1, cout), rng.uniform(0.1, 2, cout)) \
            if given_stats else None
        weights = rng.uniform(-1, 1, (batch, cout, height, width))
        results = [
            _leaf_grads(lambda *a, fn=fn: fn(*a, 1e-3, stats, relu), leaves,
                        weights)
            for fn in (T.separable_conv_bn, separable_conv_bn_composed,
                       O.separable_conv_bn_keeping)
        ]
        _assert_same(results[0], results[1])
        _assert_same(results[0], results[2])
        if not x_grad:
            assert results[0][2][0] is None

    @pytest.mark.parametrize("cin", [1, 3])
    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("given_stats", [True, False])
    def test_entry_keeps_no_feature_map(self, cin, relu, given_stats):
        # no depthwise output (B, Cin, H, W) besides x and no pointwise or
        # centred output (B, Cout, H, W); the ReLU mask is the one boolean
        # array of the output's shape
        rng = np.random.default_rng(57)
        x_shape, out_shape = (2, cin, 4, 5), (2, 2, 4, 5)
        leaves = _sepconv_leaves(rng, cin, 2, 3, x_shape, True)
        stats = (rng.uniform(-1, 1, 2), rng.uniform(0.1, 2, 2)) \
            if given_stats else None
        with T.record() as tape:
            T.separable_conv_bn(*leaves, 1e-5, stats, relu)
            (_, _, bw), = tape.ops
            held = O.closure_arrays(bw)
        maps = [(a.shape, a.dtype) for a in held
                if a.shape in (x_shape, out_shape) and a is not leaves[0].data]
        assert maps == ([(out_shape, np.dtype(bool))] if relu else [])

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("placement", ["skips_and_dense", "none"])
    def test_model_step_matches_composition(self, monkeypatch, training,
                                            placement):
        # every separable conv and Swin MLP of a model, both input-channel
        # paths and the ReLU-fused bottleneck convs among them
        cfg = M.ModelConfig(input_height=16, input_width=16, base_channels=2,
                            num_classes=3, window_size=2, num_heads=2,
                            mlp_ratio=2.0, transformer_placement=placement)
        xdata = np.random.default_rng(46).uniform(0, 1, (2, 1, 16, 16))

        def run():
            params = M.build(cfg, 3)
            leaves = list(params.trainable().values())
            x = Tensor(xdata, requires_grad=True)
            with T.record():
                out = M.forward(params, x, training=training)
                T.backward(T.tsum(out * out))
            flat = params.flat()
            return ([out.data, x.grad] + [t.grad for t in leaves]
                    + [flat[k].data for k in sorted(flat)])

        fused = run()
        monkeypatch.setattr(T, "separable_conv_bn", separable_conv_bn_composed)
        monkeypatch.setattr(T, "pointwise_mlp", mlp_composed)
        composed = run()
        assert len(fused) == len(composed)
        for a, b in zip(fused, composed):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("cin", [1, 3])
    def test_one_tape_entry(self, relu, cin):
        leaves = _sepconv_leaves(np.random.default_rng(47), cin, 2, 3,
                                 (2, cin, 4, 4), True)
        with T.record() as tape:
            T.separable_conv_bn(*leaves, 1e-5, None, relu)
        assert len(tape) == 1

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("cin", [1, 2])
    def test_grad_check(self, training, cin):
        rng = np.random.default_rng(48)
        p = B.init_separable_conv(rng, cin, 3)
        p.bn_running_mean.data = rng.uniform(-1, 1, 3)
        p.bn_running_var.data = rng.uniform(0.5, 2, 3)
        x = Tensor(rng.uniform(-1, 1, (2, cin, 4, 4)), requires_grad=True)
        leaves = [x] + [t for t in B.params_of(p).values() if t.requires_grad]
        weights = Tensor(rng.uniform(-1, 1, (2, 3, 4, 4)))

        def f(*_):
            out = B.separable_conv_bn(x, p, training, update_stats=False,
                                      relu=True)
            return T.tsum(out * weights) * 0.1

        assert grad_check(f, leaves, eps=1e-5).max_rel_error <= 1e-4

    def test_grad_check_excludes_relu_flip(self):
        # one pre-ReLU output is shifted to zero through beta, so the +eps
        # and -eps evaluations of beta[0] fall on either side of the kink
        rng = np.random.default_rng(49)
        leaves = _sepconv_leaves(rng, 2, 3, 3, (2, 2, 4, 4), True)
        beta = leaves[4]
        pre = T.separable_conv_bn(*leaves, 1e-2)[0].data
        beta.data = beta.data - np.array([pre[0, 0, 1, 2], 0.0, 0.0])
        weights = Tensor(rng.uniform(-1, 1, (2, 3, 4, 4)))
        results = [
            grad_check(lambda *_, fn=fn: T.tsum(
                fn(*leaves, 1e-2, None, True)[0] * weights), leaves, eps=1e-5)
            for fn in (T.separable_conv_bn, separable_conv_bn_composed)
        ]
        assert results[0] == results[1]  # same kinks, exclusions and error
        assert results[0].kink_events >= 1 and results[0].excluded_elements >= 1
        assert results[0].max_rel_error <= 1e-4

    def test_overflow_raises_non_finite_naming_the_op(self):
        leaves = _sepconv_leaves(np.random.default_rng(50), 2, 2, 3,
                                 (2, 2, 3, 3), True)
        leaves[0].data = np.full((2, 2, 3, 3), 1e300)
        leaves[1].data = np.full((2, 1, 3, 3), 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteError, match="separable_conv_bn"):
                T.separable_conv_bn(*leaves, 1e-5)

    def test_rejects_bad_shapes(self):
        x, dw, pw, gamma, beta = _sepconv_leaves(np.random.default_rng(51), 2,
                                                 3, 3, (2, 2, 4, 4), True)
        good = [x, dw, pw, gamma, beta]
        bad = {
            0: Tensor(np.zeros((2, 3, 4, 4))),
            1: Tensor(np.zeros((2, 1, 2, 2))),
            2: Tensor(np.zeros((3, 1, 1, 1))),
            3: Tensor(np.ones(2)),
            4: Tensor(np.zeros(4)),
        }
        for i, t in bad.items():
            args = list(good)
            args[i] = t
            with pytest.raises(ShapeError):
                T.separable_conv_bn(*args, 1e-5)
        with pytest.raises(ShapeError):
            T.separable_conv_bn(Tensor(np.zeros((0, 2, 4, 4))), dw, pw, gamma,
                                beta, 1e-5)
        with pytest.raises(ShapeError):
            T.separable_conv_bn(*good, 1e-5, (np.zeros(2), np.ones(2)))


def _mlp_leaves(rng, cin, hidden, cout, x_shape, x_grad):
    return [Tensor(rng.uniform(-2, 2, x_shape), requires_grad=x_grad),
            Tensor(rng.normal(0, 1, (hidden, cin, 1, 1)), requires_grad=True),
            Tensor(rng.uniform(-1, 1, hidden), requires_grad=True),
            Tensor(rng.normal(0, 1, (cout, hidden, 1, 1)), requires_grad=True),
            Tensor(rng.uniform(-1, 1, cout), requires_grad=True)]


class TestPointwiseMlpPrimitive:
    @settings(deadline=None, max_examples=60)
    @given(batch=st.integers(1, 3), cin=st.integers(1, 5),
           hidden=st.integers(1, 8), cout=st.integers(1, 5),
           height=st.integers(1, 5), width=st.integers(1, 5),
           x_grad=st.booleans(), seed=st.integers(0, 2**16))
    def test_matches_composition(self, batch, cin, hidden, cout, height, width,
                                 x_grad, seed):
        rng = np.random.default_rng(seed)
        leaves = _mlp_leaves(rng, cin, hidden, cout, (batch, cin, height, width),
                             x_grad)
        weights = rng.uniform(-1, 1, (batch, cout, height, width))
        results = [_leaf_grads(fn, leaves, weights)
                   for fn in (T.pointwise_mlp, mlp_composed)]
        _assert_same(*results)
        if not x_grad:
            assert results[0][2][0] is None

    @settings(deadline=None, max_examples=60)
    @given(batch=st.integers(1, 3), cin=st.integers(1, 5),
           hidden=st.integers(1, 8), cout=st.integers(1, 5),
           height=st.integers(1, 5), width=st.integers(1, 5),
           x_grad=st.booleans(), seed=st.integers(0, 2**16))
    def test_recomputed_hidden_layer_matches_kept_one(
            self, batch, cin, hidden, cout, height, width, x_grad, seed):
        # the backward rebuilds the hidden layer from x: output and every
        # gradient are bitwise those of the entry that kept it
        rng = np.random.default_rng(seed)
        leaves = _mlp_leaves(rng, cin, hidden, cout, (batch, cin, height, width),
                             x_grad)
        weights = rng.uniform(-1, 1, (batch, cout, height, width))
        _assert_same(*(_leaf_grads(fn, leaves, weights)
                       for fn in (T.pointwise_mlp,
                                  O.pointwise_mlp_keeping_hidden)))

    @pytest.mark.parametrize("x_grad", [True, False])
    def test_entry_keeps_no_hidden_layer(self, x_grad):
        leaves = _mlp_leaves(np.random.default_rng(56), 3, 5, 2, (2, 3, 4, 4),
                             x_grad)
        with T.record() as tape:
            T.pointwise_mlp(*leaves)
            (_, _, bw), = tape.ops
            held = [a.shape for a in O.closure_arrays(bw)
                    if a.shape == (2, 5, 4, 4)]
        assert held == []

    def test_one_tape_entry(self):
        leaves = _mlp_leaves(np.random.default_rng(52), 3, 6, 3, (2, 3, 2, 2),
                             True)
        with T.record() as tape:
            T.pointwise_mlp(*leaves)
        assert len(tape) == 1

    def test_grad_check_excludes_relu_flip(self):
        rng = np.random.default_rng(53)
        leaves = _mlp_leaves(rng, 3, 4, 3, (2, 3, 3, 3), True)
        x, w1, b1 = leaves[:3]
        pre = np.tensordot(x.data, w1.data.reshape(4, 3), axes=([1], [1]))
        b1.data = b1.data.copy()
        b1.data[0] = -pre[1, 2, 0, 0]  # one hidden pre-activation at zero
        weights = Tensor(rng.uniform(-1, 1, (2, 3, 3, 3)))
        results = [
            grad_check(lambda *_, fn=fn: T.tsum(fn(*leaves) * weights), leaves,
                       eps=1e-5)
            for fn in (T.pointwise_mlp, mlp_composed)
        ]
        assert results[0] == results[1]
        assert results[0].kink_events >= 1 and results[0].excluded_elements >= 1
        assert results[0].max_rel_error <= 1e-4

    def test_overflow_raises_non_finite_naming_the_op(self):
        leaves = _mlp_leaves(np.random.default_rng(54), 2, 3, 2, (1, 2, 2, 2),
                             True)
        leaves[0].data = np.full((1, 2, 2, 2), 1e300)
        leaves[1].data = np.full((3, 2, 1, 1), 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteError, match="pointwise_mlp"):
                T.pointwise_mlp(*leaves)

    def test_rejects_bad_shapes(self):
        good = _mlp_leaves(np.random.default_rng(55), 2, 3, 2, (1, 2, 2, 2),
                           True)
        bad = {0: Tensor(np.zeros((1, 3, 2, 2))), 1: Tensor(np.zeros((3, 2, 3, 3))),
               2: Tensor(np.zeros(2)), 3: Tensor(np.zeros((2, 4, 1, 1))),
               4: Tensor(np.zeros(3))}
        for i, t in bad.items():
            args = list(good)
            args[i] = t
            with pytest.raises(ShapeError):
                T.pointwise_mlp(*args)


class TestEncoderBlock:
    def test_shapes(self):
        rng = np.random.default_rng(6)
        pair = (B.init_separable_conv(rng, 3, 4), B.init_separable_conv(rng, 4, 4))
        skip, pooled = B.encoder_block(Tensor(rng.uniform(0, 1, (1, 3, 16, 16))), pair)
        assert skip.shape == (1, 4, 16, 16)
        assert pooled.shape == (1, 4, 8, 8)

    def test_negative_preactivation_zeroed(self):
        rng = np.random.default_rng(7)
        pair = (identity_sepconv(2), identity_sepconv(2))
        x = Tensor(np.full((1, 2, 4, 4), -3.0))
        skip, pooled = B.encoder_block(x, pair)
        assert np.all(skip.data == 0.0) and np.all(pooled.data == 0.0)

    def test_maxpool_single_window(self):
        out = T.maxpool2x2(Tensor([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert out.data.reshape(-1)[0] == 4.0

    def test_odd_extent_rejected(self):
        rng = np.random.default_rng(8)
        pair = (B.init_separable_conv(rng, 1, 1), B.init_separable_conv(rng, 1, 1))
        with pytest.raises(ShapeError):
            B.encoder_block(Tensor(np.zeros((1, 1, 5, 6))), pair)

    def test_grad_check(self):
        rng = np.random.default_rng(9)
        pair = (B.init_separable_conv(rng, 1, 2), B.init_separable_conv(rng, 2, 2))
        x = Tensor(rng.uniform(-1, 1, (1, 1, 4, 4)), requires_grad=True)
        leaves = [x] + [
            t for p in pair for t in B.params_of(p).values() if t.requires_grad
        ]

        def f(*_):
            skip, pooled = B.encoder_block(x, pair, training=True, update_stats=False)
            return T.tsum(skip * skip) + T.tsum(pooled)

        assert grad_check(f, leaves, eps=1e-5).max_rel_error <= 1e-4


def zero_conv_lstm(in_ch, hidden, k=3):
    rng = np.random.default_rng(0)
    p = B.init_conv_lstm(rng, in_ch, hidden, k)
    for t in B.params_of(p).values():
        t.data = np.zeros_like(t.data)
    return p


class TestConvLSTM:
    def test_zero_configuration(self):
        p = zero_conv_lstm(2, 2)
        st = B.conv_lstm_step(
            Tensor(np.zeros((1, 2, 4, 4))), B.zero_state(1, 2, 4, 4), p
        )
        assert np.all(st.cell.data == 0.0)
        assert np.all(st.hidden.data == 0.0)  # 0.5 * tanh(0)

    def test_gate_saturation_carries_memory(self):
        p = zero_conv_lstm(1, 1)
        p.b.data = np.array([-20.0, 20.0, 0.0, 0.0])  # gates i, f, o, c
        rng = np.random.default_rng(10)
        cell = rng.uniform(-1, 1, (1, 1, 4, 4))
        state = B.ConvLSTMState(Tensor(np.zeros((1, 1, 4, 4))), Tensor(cell))
        st = B.conv_lstm_step(Tensor(rng.uniform(-1, 1, (1, 1, 4, 4))), state, p)
        assert np.max(np.abs(st.cell.data - cell)) <= 1e-6

    def test_against_transcription_oracle(self):
        rng = np.random.default_rng(11)
        p = B.init_conv_lstm(rng, 2, 2)
        x = rng.uniform(-1, 1, (1, 2, 4, 4))
        h0 = rng.uniform(-1, 1, (1, 2, 4, 4))
        c0 = rng.uniform(-1, 1, (1, 2, 4, 4))
        st = B.conv_lstm_step(
            Tensor(x), B.ConvLSTMState(Tensor(h0), Tensor(c0)), p
        )
        h_ref, c_ref = conv_lstm_step_oracle(x, h0, c0, p)
        assert np.allclose(st.hidden.data, h_ref, atol=1e-10)
        assert np.allclose(st.cell.data, c_ref, atol=1e-10)

    def test_shape_mismatch(self):
        p = zero_conv_lstm(1, 1)
        with pytest.raises(ShapeError):
            B.conv_lstm_step(
                Tensor(np.zeros((1, 1, 4, 4))), B.zero_state(1, 1, 6, 6), p
            )

    def test_grad_check(self):
        rng = np.random.default_rng(12)
        p = B.init_conv_lstm(rng, 1, 2)
        x = Tensor(rng.uniform(-1, 1, (1, 1, 3, 3)), requires_grad=True)
        leaves = [x] + [t for t in B.params_of(p).values() if t.requires_grad]

        def f(*_):
            st = B.conv_lstm_step(x, B.zero_state(1, 2, 3, 3), p)
            return T.tsum(st.hidden * st.hidden) + T.tsum(T.tanh(st.cell))

        assert grad_check(f, leaves, eps=1e-5).max_rel_error <= 1e-4

    def test_none_state_equals_zero_state(self):
        rng = np.random.default_rng(18)
        p = B.init_conv_lstm(rng, 3, 2)
        p.b.data = rng.uniform(-1, 1, 8)
        xdata = rng.uniform(-1, 1, (2, 3, 4, 5))

        def run(state):
            x = Tensor(xdata, requires_grad=True)
            leaves = dict(B.params_of(p), x=x)
            for t in leaves.values():
                t.grad = None
            with T.record():
                st = B.conv_lstm_step(x, state, p)
                T.backward(T.tsum(st.hidden * st.hidden) + T.tsum(T.tanh(st.cell)))
            return st, {k: t.grad for k, t in leaves.items()}

        lazy, lazy_grads = run(None)
        eager, eager_grads = run(B.zero_state(2, 2, 4, 5))
        assert lazy.hidden.data.tobytes() == eager.hidden.data.tobytes()
        assert lazy.cell.data.tobytes() == eager.cell.data.tobytes()
        for k in ("x", "w_c_o"):
            assert lazy_grads[k].tobytes() == eager_grads[k].tobytes(), k
        live, forget = np.r_[:2, 4:8], slice(2, 4)  # rows of gates i, o, c; f
        for k in ("w_x", "b"):
            assert lazy_grads[k][live].tobytes() == eager_grads[k][live].tobytes(), k
            # the unused forget gate's rows get exact zeros from both steps
            assert not lazy_grads[k][forget].any(), k
            assert not eager_grads[k][forget].any(), k
        # the skipped kernels get no gradient; the zero-state step gives them
        # exact zeros
        for k in ("w_h", "w_c"):
            assert lazy_grads[k] is None, k
            assert not eager_grads[k].any(), k


def _random_conv_lstm(rng, cin, hidden, k=3):
    p = B.init_conv_lstm(rng, cin, hidden, k)
    p.b.data = rng.uniform(-1, 1, 4 * hidden)
    return p


def _step_state(kind, rng, batch, hidden, height, width):
    if kind == "none":
        return None
    if kind == "zero":
        return B.zero_state(batch, hidden, height, width)
    h, c = rng.uniform(-1, 1, (2, batch, hidden, height, width))
    return B.ConvLSTMState(Tensor(h, requires_grad=True),
                           Tensor(c, requires_grad=True))


def _step_grads(fn, xdata, state, p, w_h, w_c):
    """Outputs and gradients of sum(w_h * hidden) + sum(w_c * cell), with a
    None weight leaving that output out of the loss."""
    x = Tensor(xdata, requires_grad=True)
    leaves = dict(B.params_of(p), x=x)
    if state is not None:
        leaves.update(h=state.hidden, c=state.cell)
    for t in leaves.values():
        t.grad = None
    with T.record():
        st = fn(x, state, p)
        terms = [T.tsum(out * Tensor(w)) for out, w in
                 ((st.hidden, w_h), (st.cell, w_c)) if w is not None]
        T.backward(terms[0] if len(terms) == 1 else terms[0] + terms[1])
    return st, {k: t.grad for k, t in leaves.items()}


class TestConvLSTMPrimitive:
    @settings(deadline=None, max_examples=60)
    @given(batch=st.integers(1, 3), cin=st.integers(1, 4),
           hidden=st.integers(1, 4), height=st.integers(1, 6),
           width=st.integers(1, 6), k=st.sampled_from([3, 5]),
           state=st.sampled_from(["none", "zero", "random"]),
           outputs=st.sampled_from(["both", "hidden", "cell"]),
           seed=st.integers(0, 2**16))
    def test_matches_composition(self, batch, cin, hidden, height, width, k,
                                 state, outputs, seed):
        rng = np.random.default_rng(seed)
        p = _random_conv_lstm(rng, cin, hidden, k)
        xdata = rng.uniform(-1, 1, (batch, cin, height, width))
        s0 = _step_state(state, rng, batch, hidden, height, width)
        w_h, w_c = rng.uniform(-1, 1, (2, batch, hidden, height, width))
        w_h = None if outputs == "cell" else w_h
        w_c = None if outputs == "hidden" else w_c
        st_, grads = _step_grads(B.conv_lstm_step, xdata, s0, p, w_h, w_c)
        ref, ref_grads = _step_grads(conv_lstm_step_composed, xdata, s0, p,
                                     w_h, w_c)
        assert np.array_equal(st_.hidden.data, ref.hidden.data)
        assert np.array_equal(st_.cell.data, ref.cell.data)
        for key, r in ref_grads.items():
            g = grads[key]
            assert (g is None) == (r is None), key
            if r is not None:
                assert np.abs(g - r).max() <= 1e-12 * np.abs(r).max(), key

    @pytest.mark.parametrize("state", ["none", "random"])
    def test_one_tape_entry(self, state):
        rng = np.random.default_rng(30)
        p = B.init_conv_lstm(rng, 2, 3)
        x = Tensor(rng.uniform(-1, 1, (2, 2, 4, 5)), requires_grad=True)
        s0 = _step_state(state, rng, 2, 3, 4, 5)
        with T.record() as tape:
            B.conv_lstm_step(x, s0, p)
        assert len(tape) == 1

    @pytest.mark.parametrize("state", ["none", "random"])
    def test_grad_check(self, state):
        rng = np.random.default_rng(31)
        p = _random_conv_lstm(rng, 2, 2)
        x = Tensor(rng.uniform(-1, 1, (2, 2, 3, 4)), requires_grad=True)
        s0 = _step_state(state, rng, 2, 2, 3, 4)
        leaves = [x] + [t for t in B.params_of(p).values() if t.requires_grad]
        if s0 is not None:
            leaves += [s0.hidden, s0.cell]

        def f(*_):
            st_ = B.conv_lstm_step(x, s0, p)
            return T.tsum(st_.hidden * st_.hidden) + T.tsum(T.tanh(st_.cell))

        assert grad_check(f, leaves, eps=1e-5).max_rel_error <= 1e-4

    def test_rejects_bad_shapes(self):
        rng = np.random.default_rng(32)
        p = B.init_conv_lstm(rng, 2, 3)
        x = Tensor(np.zeros((2, 2, 4, 4)))
        for state in (B.ConvLSTMState(Tensor(np.zeros((2, 2, 4, 4))),
                                      Tensor(np.zeros((2, 3, 4, 4)))),
                      B.ConvLSTMState(Tensor(np.zeros((2, 3, 4, 4))),
                                      Tensor(np.zeros((1, 3, 4, 4)))),
                      B.zero_state(1, 3, 4, 4)):
            with pytest.raises(ShapeError):
                B.conv_lstm_step(x, state, p)
        with pytest.raises(ShapeError):  # input channels
            B.conv_lstm_step(Tensor(np.zeros((2, 1, 4, 4))), None, p)
        # one wrong shape per tensor: a gate short, the x-stream's channels
        # in w_h, a kernel size the others do not share, a peephole of the
        # wrong width, a bias that is not a vector
        bad = {"w_x": np.zeros((9, 2, 3, 3)), "w_h": np.zeros((12, 2, 3, 3)),
               "w_c": np.zeros((6, 3, 5, 5)), "w_c_o": np.zeros((2,)),
               "b": np.zeros((12, 1))}
        for name, value in bad.items():
            q = B.init_conv_lstm(rng, 2, 3)
            setattr(q, name, Tensor(value))
            for state in (None, B.zero_state(2, 3, 4, 4)):
                with pytest.raises(ShapeError):
                    B.conv_lstm_step(x, state, q)
        q = B.init_conv_lstm(rng, 2, 3, k=2)  # even kernels
        with pytest.raises(ShapeError):
            B.conv_lstm_step(x, None, q)

    @pytest.mark.parametrize("fn", [B.conv_lstm_step, conv_lstm_step_composed],
                             ids=["primitive", "composition"])
    def test_overflowing_preactivation_raises(self, fn):
        # sigmoid(inf) = tanh(inf) = 1, so a step that checked only its
        # outputs would let this overflow pass unseen
        rng = np.random.default_rng(33)
        p = B.init_conv_lstm(rng, 2, 2)
        p.w_x.data = p.w_x.data * 1e3
        x = Tensor(np.full((1, 2, 4, 4), 1e306))
        with pytest.raises(NonFiniteError):
            fn(x, None, p)


def bconv_lstm_composition(sequence, p):
    """Both directions run over the whole sequence from explicit zero
    states, as the gate equations read; the reverse output is the state
    aligned at the final position."""
    b, _, h, w = sequence[0].shape
    hidden = p.forward.w_c_o.shape[0]
    st = B.zero_state(b, hidden, h, w)
    for x in sequence:
        st = B.conv_lstm_step(x, st, p.forward)
    fwd = st.hidden
    st = B.zero_state(b, hidden, h, w)
    reverse = []
    for x in reversed(sequence):
        st = B.conv_lstm_step(x, st, p.backward)
        reverse.append(st.hidden)
    pad = (p.mix_fwd.shape[-1] - 1) // 2
    return T.tanh(
        T.conv2d(fwd, p.mix_fwd, padding=pad)
        + T.conv2d(reverse[0], p.mix_bwd, padding=pad)
        + T.reshape(p.mix_bias, (1, hidden, 1, 1))
    )


def bconv_lstm_steps(sequence, p):
    """The block composed of the taped ops tensor.bconv_lstm replaces:
    conv_lstm_step from the None state over the sequence, one None-state
    reverse step on its last map, two conv2d mixes, the bias and tanh. Its
    first steps skip the forget rows that bconv_lstm_composition's
    zero-state steps multiply, so a GEMM of another shape may round a
    gradient differently: the two agree to rounding, and bitwise only at
    some shapes."""
    st = None
    for x in sequence:
        st = B.conv_lstm_step(x, st, p.forward)
    bwd = B.conv_lstm_step(sequence[-1], None, p.backward)
    hidden, pad = p.mix_fwd.shape[0], (p.mix_fwd.shape[-1] - 1) // 2
    return T.tanh(
        T.conv2d(st.hidden, p.mix_fwd, padding=pad)
        + T.conv2d(bwd.hidden, p.mix_bwd, padding=pad)
        + T.reshape(p.mix_bias, (1, hidden, 1, 1))
    )


class TestBConvLSTM:
    def test_zero_mix_gives_zero(self):
        rng = np.random.default_rng(13)
        p = B.init_bconv_lstm(rng, 2, 2)
        p.mix_fwd.data = np.zeros_like(p.mix_fwd.data)
        p.mix_bwd.data = np.zeros_like(p.mix_bwd.data)
        p.mix_bias.data = np.zeros_like(p.mix_bias.data)
        out = B.bconv_lstm([Tensor(rng.uniform(-1, 1, (1, 2, 4, 4)))], p)
        assert np.all(out.data == 0.0)

    def test_length_one_directions_agree(self):
        # with identical direction params, a length-1 sequence must produce
        # equal forward and backward hidden states
        rng = np.random.default_rng(14)
        p = B.init_bconv_lstm(rng, 2, 2)
        p.backward = p.forward
        x = [Tensor(rng.uniform(-1, 1, (1, 2, 4, 4)))]
        zero = Tensor(np.zeros_like(p.mix_fwd.data))
        pf = B.BConvLSTMParams(p.forward, p.backward, p.mix_fwd, zero, p.mix_bias)
        pb = B.BConvLSTMParams(p.forward, p.backward, zero, p.mix_fwd, p.mix_bias)
        assert (B.bconv_lstm(x, pf).data.tobytes()
                == B.bconv_lstm(x, pb).data.tobytes())

    def test_length_two_against_step_composition(self):
        rng = np.random.default_rng(15)
        p = B.init_bconv_lstm(rng, 2, 2)
        seq = [Tensor(rng.uniform(-1, 1, (1, 2, 4, 4))) for _ in range(2)]
        out = B.bconv_lstm(seq, p)

        st = B.zero_state(1, 2, 4, 4)
        for x in seq:
            st = B.conv_lstm_step(x, st, p.forward)
        fwd = st.hidden
        bwd = B.conv_lstm_step(seq[-1], B.zero_state(1, 2, 4, 4), p.backward).hidden
        mixed = T.tanh(
            T.conv2d(fwd, p.mix_fwd, padding=1)
            + T.conv2d(bwd, p.mix_bwd, padding=1)
            + T.reshape(p.mix_bias, (1, 2, 1, 1))
        )
        assert out.data.tobytes() == mixed.data.tobytes()

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_gradients_match_step_composition(self, length):
        rng = np.random.default_rng(20 + length)
        p = B.init_bconv_lstm(rng, 3, 2)
        data = [rng.uniform(-1, 1, (2, 3, 4, 5)) for _ in range(length)]

        def run(fn):
            seq = [Tensor(d, requires_grad=True) for d in data]
            leaves = {**B.params_of(p), **{f"x{i}": t for i, t in enumerate(seq)}}
            for t in leaves.values():
                t.grad = None
            with T.record():
                out = fn(seq, p)
                T.backward(T.tsum(out * out))
            return out, {k: np.zeros_like(t.data) if t.grad is None else t.grad
                         for k, t in leaves.items()}

        out, grads = run(B.bconv_lstm)
        ref, ref_grads = run(bconv_lstm_composition)
        assert out.data.tobytes() == ref.data.tobytes()
        for k, g in ref_grads.items():
            assert np.array_equal(grads[k], g), k

    def test_empty_sequence(self):
        p = B.init_bconv_lstm(np.random.default_rng(16), 1, 1)
        with pytest.raises(ShapeError):
            B.bconv_lstm([], p)

    def test_grad_check(self):
        rng = np.random.default_rng(17)
        p = B.init_bconv_lstm(rng, 1, 1)
        x = Tensor(rng.uniform(-1, 1, (1, 1, 2, 2)), requires_grad=True)
        leaves = [x] + [t for t in B.params_of(p).values() if t.requires_grad]

        def f(*_):
            out = B.bconv_lstm([x, x * 0.5], p)
            return T.tsum(out * out)

        assert grad_check(f, leaves, eps=1e-5).max_rel_error <= 1e-4


def _bconv_run(fn, data, p, repeat, x_grad, weights):
    """fn's output and the gradients of sum(weights * output) for every
    parameter and sequence map, a missing gradient as zeros; with repeat,
    the sequence is one Tensor len(data) times."""
    seq = [Tensor(d, requires_grad=x_grad) for d in data]
    if repeat:
        seq = [seq[0]] * len(seq)
    leaves = {**B.params_of(p), **{f"x{i}": t for i, t in enumerate(seq)}}
    for t in leaves.values():
        t.grad = None
    with T.record():
        out = fn(seq, p)
        T.backward(T.tsum(out * Tensor(weights)))
    return out, {k: np.zeros_like(t.data) if t.grad is None else t.grad
                 for k, t in leaves.items()}


class TestBConvLSTMPrimitive:
    @settings(deadline=None, max_examples=60)
    @given(length=st.integers(1, 3), batch=st.integers(1, 3),
           cin=st.integers(1, 3), hidden=st.integers(1, 3),
           height=st.integers(1, 5), width=st.integers(1, 5),
           k=st.sampled_from([1, 3]), repeat=st.booleans(),
           x_grad=st.booleans(), frozen=st.sets(st.sampled_from(
               ["forward.w_x", "forward.w_h", "forward.b", "backward.w_x",
                "backward.w_c_o", "mix_fwd", "mix_bias"])),
           seed=st.integers(0, 2**16))
    def test_matches_composition(self, length, batch, cin, hidden, height,
                                 width, k, repeat, x_grad, frozen, seed):
        rng = np.random.default_rng(seed)
        p = B.init_bconv_lstm(rng, cin, hidden, k)
        for q in (p.forward, p.backward):
            q.b.data = rng.uniform(-1, 1, 4 * hidden)
        p.mix_bias.data = rng.uniform(-1, 1, hidden)
        params = B.params_of(p)
        for name in frozen:
            params[name].requires_grad = False
        assume(x_grad or any(t.requires_grad for t in params.values()))
        data = [rng.uniform(-1, 1, (batch, cin, height, width))
                for _ in range(length)]
        weights = rng.uniform(-1, 1, (batch, hidden, height, width))
        out, grads = _bconv_run(B.bconv_lstm, data, p, repeat, x_grad, weights)
        ref, ref_grads = _bconv_run(bconv_lstm_steps, data, p, repeat, x_grad,
                                    weights)
        assert np.array_equal(out.data, ref.data)
        assert grads.keys() == ref_grads.keys()
        for key, r in ref_grads.items():
            assert np.array_equal(grads[key], r), key
        # the gate equations run from explicit zero states
        ref, ref_grads = _bconv_run(bconv_lstm_composition, data, p, repeat,
                                    x_grad, weights)
        assert np.abs(out.data - ref.data).max() <= 1e-12
        for key, r in ref_grads.items():
            assert np.abs(grads[key] - r).max() <= 1e-12 * max(np.abs(r).max(),
                                                                1.0), key

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_one_tape_entry(self, length):
        rng = np.random.default_rng(34)
        p = B.init_bconv_lstm(rng, 3, 2)
        seq = [Tensor(rng.uniform(-1, 1, (2, 3, 4, 5)), requires_grad=True)
               for _ in range(length)]
        with T.record() as tape:
            B.bconv_lstm(seq, p)
        assert len(tape) == 1

    @pytest.mark.parametrize("length, gates", [(1, 8), (2, 13), (3, 18)])
    def test_entry_keeps_gates_not_states(self, length, gates):
        # the zero-state steps keep i, g, o and c, a stateful step f as well;
        # hidden states, tanh(c), the mixing outputs and their sums are
        # rebuilt or never kept. Input and hidden widths differ, so a
        # (B, hid, H, W) array is not a sequence map
        rng = np.random.default_rng(35)
        p = B.init_bconv_lstm(rng, 3, 2)
        seq = [Tensor(rng.uniform(-1, 1, (2, 3, 4, 5)), requires_grad=True)
               for _ in range(length)]
        with T.record() as tape:
            out = B.bconv_lstm(seq, p)
        (outs, _, bw), = tape.ops
        held = O.closure_arrays(bw)
        assert any(a is out.data for a in held)
        maps = [a for a in held if a.shape == out.shape and a is not out.data]
        assert len(maps) == gates

    @pytest.mark.parametrize("where", ["single", "paired_last", "paired_first"])
    def test_overflow_names_the_block(self, where):
        # sigmoid(inf) = tanh(inf) = 1: the block checks its pre-activations
        rng = np.random.default_rng(36)
        p = B.init_bconv_lstm(rng, 2, 2)
        for q in (p.forward, p.backward):
            q.w_x.data = q.w_x.data * 1e3
        big = Tensor(np.full((1, 2, 4, 4), 1e306))
        small = Tensor(rng.uniform(-1, 1, (1, 2, 4, 4)))
        seq = {"single": [big], "paired_last": [small, big],
               "paired_first": [big, small]}[where]
        with pytest.raises(NonFiniteError, match="bconv_lstm"):
            B.bconv_lstm(seq, p)

    def test_rejects_bad_shapes(self):
        rng = np.random.default_rng(37)
        x = Tensor(np.zeros((1, 2, 4, 4)))
        with pytest.raises(ShapeError):  # maps that disagree
            B.bconv_lstm([x, Tensor(np.zeros((1, 2, 4, 5)))],
                         B.init_bconv_lstm(rng, 2, 2))
        with pytest.raises(ShapeError):  # input channels
            B.bconv_lstm([x], B.init_bconv_lstm(rng, 3, 2))
        for name, value in (("mix_fwd", np.zeros((2, 3, 3, 3))),
                            ("mix_bwd", np.zeros((2, 2, 1, 1))),
                            ("mix_bias", np.zeros(3))):
            p = B.init_bconv_lstm(rng, 2, 2)
            setattr(p, name, Tensor(value))
            with pytest.raises(ShapeError):
                B.bconv_lstm([x], p)
        p = B.init_bconv_lstm(rng, 2, 2)
        p.backward = B.init_conv_lstm(rng, 2, 3)  # a wider reverse direction
        with pytest.raises(ShapeError):
            B.bconv_lstm([x], p)


def uniform_attention_params(c, n, heads=1):
    """Zero q/k (uniform attention), identity value and output projections."""
    p = B.init_swin_pair(np.random.default_rng(0), c, n, heads)
    for ap in (p.attn1, p.attn2):
        w = np.zeros((c, 3 * c))
        w[:, 2 * c :] = np.eye(c)
        ap.qkv_w = Tensor(w)
        ap.q_bias = Tensor(np.zeros(c))
        ap.v_bias = Tensor(np.zeros(c))
        ap.proj_w = Tensor(np.eye(c))
        ap.proj_b = Tensor(np.zeros(c))
    return p


class TestWindowAttention:
    def test_uniform_attention_gives_window_mean(self):
        rng = np.random.default_rng(18)
        x = rng.uniform(-1, 1, (1, 3, 4, 4))
        p = uniform_attention_params(3, 2)
        out = B.window_attention(Tensor(x), p, shifted=False)
        for wi in range(2):
            for wj in range(2):
                win = x[0, :, 2 * wi : 2 * wi + 2, 2 * wj : 2 * wj + 2]
                mean = win.mean(axis=(1, 2), keepdims=True)
                got = out.data[0, :, 2 * wi : 2 * wi + 2, 2 * wj : 2 * wj + 2]
                assert np.allclose(got, np.broadcast_to(mean, win.shape), atol=1e-12)

    def test_shifted_window_membership(self):
        # tokens averaged together under uniform shifted attention must be
        # exactly the manually unshifted window mates with equal wrap status
        height = width = 4
        n = 2
        s = 1
        idx = np.arange(height * width, dtype=float).reshape(1, 1, height, width)
        p = uniform_attention_params(1, n)
        out = B.window_attention(Tensor(idx), p, shifted=True)
        rolled = np.roll(idx[0, 0], (-s, -s), axis=(0, 1))
        expect = np.zeros_like(rolled)
        for wi in range(height // n):
            for wj in range(width // n):
                coords = [
                    (wi * n + a, wj * n + b) for a in range(n) for b in range(n)
                ]
                for y, xx in coords:
                    mates = [
                        (y2, x2)
                        for (y2, x2) in coords
                        if (y2 >= height - s) == (y >= height - s)
                        and (x2 >= width - s) == (xx >= width - s)
                    ]
                    expect[y, xx] = np.mean([rolled[m] for m in mates])
        expect = np.roll(expect, (s, s), axis=(0, 1))
        assert np.allclose(out.data[0, 0], expect, atol=1e-9)

    @pytest.mark.parametrize("shifted", [False, True])
    def test_against_dense_oracle(self, shifted):
        rng = np.random.default_rng(19)
        p = B.init_swin_pair(rng, 4, 2, 2)
        x = rng.uniform(-1, 1, (1, 4, 4, 4))
        out = B.window_attention(Tensor(x), p, shifted=shifted)
        ref = window_attention_oracle(x, p, shifted)
        assert np.allclose(out.data, ref, atol=1e-10)

    def test_window_size_must_divide(self):
        p = B.init_swin_pair(np.random.default_rng(20), 2, 4, 1)
        with pytest.raises(ShapeError):
            B.window_attention(Tensor(np.zeros((1, 2, 6, 6))), p, shifted=False)

    def test_permutation_equivariance_across_windows(self):
        rng = np.random.default_rng(21)
        p = B.init_swin_pair(rng, 2, 2, 1)
        x = rng.uniform(-1, 1, (1, 2, 4, 4))
        out = B.window_attention(Tensor(x), p, shifted=False).data

        def swap_windows(a):
            b = a.copy()
            b[:, :, 0:2, 0:2], b[:, :, 2:4, 2:4] = (
                a[:, :, 2:4, 2:4].copy(),
                a[:, :, 0:2, 0:2].copy(),
            )
            return b

        out_swapped = B.window_attention(Tensor(swap_windows(x)), p, shifted=False)
        assert np.allclose(out_swapped.data, swap_windows(out), atol=1e-12)

    @pytest.mark.parametrize("shifted", [False, True])
    def test_grad_check(self, shifted):
        rng = np.random.default_rng(22)
        p = B.init_swin_pair(rng, 2, 2, 1)
        x = Tensor(rng.uniform(-1, 1, (1, 2, 4, 4)), requires_grad=True)
        leaves = [x] + [t for t in B.params_of(p).values() if t.requires_grad]

        def f(*_):
            out = B.window_attention(x, p, shifted=shifted)
            return T.tsum(out * out)

        assert grad_check(f, leaves, eps=1e-5).max_rel_error <= 1e-4


def _attention_leaves(p, shifted):
    ap = p.attn2 if shifted else p.attn1
    return [ap.qkv_w, ap.q_bias, ap.v_bias, ap.proj_w, ap.proj_b]


def _attention_grads(fn, xdata, p, shifted, weights):
    """Output and the six gradients of sum(weights * fn(x, p, shifted))."""
    x = Tensor(xdata, requires_grad=True)
    leaves = [x] + _attention_leaves(p, shifted)
    for t in leaves:
        t.grad = None
    with T.record():
        out = fn(x, p, shifted)
        T.backward(T.tsum(out * Tensor(weights)))
    return out.data, [t.grad for t in leaves]


class TestWindowAttentionPrimitive:
    @settings(deadline=None, max_examples=40)
    @given(batch=st.integers(1, 3), heads=st.sampled_from([1, 2, 4]),
           head_dim=st.integers(1, 2), n=st.integers(2, 4),
           rows=st.integers(1, 3), cols=st.integers(1, 3),
           shifted=st.booleans(), seed=st.integers(0, 2**16))
    def test_matches_composition(self, batch, heads, head_dim, n, rows, cols,
                                 shifted, seed):
        rng = np.random.default_rng(seed)
        c = heads * head_dim
        p = B.init_swin_pair(rng, c, n, heads)
        for ap in (p.attn1, p.attn2):
            for bias in (ap.q_bias, ap.v_bias, ap.proj_b):
                bias.data = rng.uniform(-1, 1, c)
        shape = (batch, c, rows * n, cols * n)
        xdata = rng.uniform(-1, 1, shape)
        weights = rng.uniform(-1, 1, shape)
        out, grads = _attention_grads(B.window_attention, xdata, p, shifted,
                                      weights)
        ref, ref_grads = _attention_grads(window_attention_composed, xdata, p,
                                          shifted, weights)
        assert np.array_equal(out, ref)
        for g, r in zip(grads, ref_grads):
            assert np.abs(g - r).max() <= 1e-12 * np.abs(r).max()

    @settings(deadline=None, max_examples=80)
    @given(batch=st.integers(1, 3), heads=st.sampled_from([1, 2, 4]),
           head_dim=st.integers(1, 4), n=st.integers(2, 4),
           rows=st.integers(1, 3), cols=st.integers(1, 3),
           shifted=st.booleans(), x_grad=st.booleans(),
           seed=st.integers(0, 2**16))
    @example(batch=2, heads=2, head_dim=3, n=3, rows=2, cols=3, shifted=True,
             x_grad=True, seed=1)
    @example(batch=3, heads=4, head_dim=1, n=3, rows=3, cols=1, shifted=False,
             x_grad=False, seed=2)
    @example(batch=1, heads=1, head_dim=4, n=4, rows=2, cols=2, shifted=True,
             x_grad=False, seed=3)
    @example(batch=3, heads=4, head_dim=2, n=2, rows=2, cols=3, shifted=True,
             x_grad=True, seed=4)
    def test_recomputed_probabilities_match_kept_ones(
            self, batch, heads, head_dim, n, rows, cols, shifted, x_grad, seed):
        # the backward rebuilds the token rows, q, k^T, v, P and the
        # context, and runs P's work one image at a time: output and every
        # gradient are bitwise those of the entry that kept them
        rng = np.random.default_rng(seed)
        c = heads * head_dim
        shape = (batch, c, rows * n, cols * n)
        leaves = [Tensor(rng.uniform(-2, 2, shape), requires_grad=x_grad),
                  Tensor(rng.normal(0, 1, (c, 3 * c)), requires_grad=True)]
        leaves += [Tensor(rng.uniform(-1, 1, c), requires_grad=True)
                   for _ in range(2)]
        leaves += [Tensor(rng.normal(0, 1, (c, c)), requires_grad=True),
                   Tensor(rng.uniform(-1, 1, c), requires_grad=True)]
        shift = n // 2 if shifted else 0
        weights = rng.uniform(-1, 1, shape)
        results = [
            _leaf_grads(lambda *a, fn=fn: fn(*a, n, heads, shift), leaves,
                        weights)
            for fn in (T.window_attention, O.window_attention_keeping_p)]
        _assert_same(*results)
        if not x_grad:
            assert results[0][2][0] is None

    @pytest.mark.parametrize("shifted", [False, True])
    def test_entry_keeps_no_probabilities(self, shifted):
        # 2 images of 6 windows, 2 heads of width 3, 4 tokens per window:
        # P would be (24, 4, 4), q and v (24, 4, 3) and k^T (24, 3, 4), each
        # at least x's size and larger than anything else the entry may keep
        rng = np.random.default_rng(30)
        p = B.init_swin_pair(rng, 6, 2, 2)
        x = Tensor(rng.uniform(-1, 1, (2, 6, 4, 6)), requires_grad=True)
        with T.record() as tape:
            B.window_attention(x, p, shifted=shifted)
            (_, _, bw), = tape.ops
            held = O.closure_arrays(bw)
        shapes = {(24, 4, 4), (24, 4, 3), (24, 3, 4)}
        assert [a.shape for a in held if a.shape in shapes] == []
        assert [a.shape for a in held
                if a.size >= 24 * 4 * 3 and a is not x.data] == []
        # the row statistics keep no view of a larger buffer
        assert [a.shape for a in held
                if a.base is not None and a.base.size > a.size] == []

    @pytest.mark.parametrize("shifted", [False, True])
    def test_one_tape_entry(self, shifted):
        rng = np.random.default_rng(26)
        p = B.init_swin_pair(rng, 4, 2, 2)
        x = Tensor(rng.uniform(-1, 1, (2, 4, 4, 6)), requires_grad=True)
        with T.record() as tape:
            B.window_attention(x, p, shifted=shifted)
        assert len(tape) == 1

    @pytest.mark.parametrize("shifted", [False, True])
    def test_grad_check_two_heads(self, shifted):
        rng = np.random.default_rng(27)
        p = B.init_swin_pair(rng, 4, 3, 2)
        x = Tensor(rng.uniform(-1, 1, (2, 4, 6, 3)), requires_grad=True)
        leaves = [x] + _attention_leaves(p, shifted)

        def f(*_):
            out = B.window_attention(x, p, shifted=shifted)
            return T.tsum(out * out)

        assert grad_check(f, leaves, eps=1e-5).max_rel_error <= 1e-4

    def test_grad_check_padded_grid(self):
        rng = np.random.default_rng(28)
        p = B.init_swin_pair(rng, 4, 2, 2, mlp_ratio=1)
        x = Tensor(rng.uniform(-1, 1, (1, 4, 3, 5)), requires_grad=True)
        leaves = [x] + _attention_leaves(p, False) + _attention_leaves(p, True)

        def f(*_):
            out = M._swin_padded(x, p)
            return T.tsum(out * out)

        assert grad_check(f, leaves, eps=1e-5).max_rel_error <= 1e-4

    def test_rejects_bad_shapes(self):
        rng = np.random.default_rng(29)
        ap = B.init_swin_pair(rng, 4, 2, 2).attn1
        weights = [ap.qkv_w, ap.q_bias, ap.v_bias, ap.proj_w, ap.proj_b]
        x = Tensor(np.zeros((1, 4, 4, 4)))
        for n, heads, shift in ((3, 2, 0), (2, 3, 0), (2, 2, 2)):
            with pytest.raises(ShapeError):
                T.window_attention(x, *weights, n, heads, shift)
        with pytest.raises(ShapeError):
            T.window_attention(Tensor(np.zeros((1, 2, 4, 4))), *weights, 2, 2, 0)
        for empty in ((0, 4, 4, 4), (1, 4, 0, 4), (2, 4, 4, 0)):
            with pytest.raises(ShapeError, match="no tokens"):
                T.window_attention(Tensor(np.zeros(empty)), *weights, 2, 2, 0)


class TestSwinBlockPair:
    def test_zero_weights_zero_biases_identity(self):
        rng = np.random.default_rng(23)
        p = B.init_swin_pair(rng, 2, 2, 1)
        for t in B.params_of(p).values():
            t.data = np.zeros_like(t.data)
        for ln in (p.ln1a, p.ln1b, p.ln2a, p.ln2b):
            ln.gamma.data = np.ones_like(ln.gamma.data)
        x = rng.uniform(-1, 1, (1, 2, 4, 4))
        out = B.swin_block_pair(Tensor(x), p)
        assert np.allclose(out.data, x, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 4])
    def test_shape_preserved(self, n):
        rng = np.random.default_rng(24)
        p = B.init_swin_pair(rng, 8, n, 4)
        out = B.swin_block_pair(Tensor(rng.uniform(-1, 1, (1, 8, 8, 8))), p)
        assert out.shape == (1, 8, 8, 8)

    def test_grad_check(self):
        rng = np.random.default_rng(25)
        p = B.init_swin_pair(rng, 4, 2, 2, mlp_ratio=2)
        x = Tensor(rng.uniform(-1, 1, (1, 4, 4, 4)), requires_grad=True)
        leaves = [x] + [t for t in B.params_of(p).values() if t.requires_grad]

        def f(*_):
            out = B.swin_block_pair(x, p)
            return T.tsum(out * out)

        assert grad_check(f, leaves, eps=1e-5).max_rel_error <= 1e-4


class TestComplexity:
    def test_hand_substitution_msa(self):
        assert B.complexity_msa(8, 8, 4) == 36864

    def test_hand_substitution_swmsa(self):
        assert B.complexity_swmsa(8, 8, 4, 2) == 6144

    def test_quadratic_vs_linear_growth(self):
        # doubling h*w doubles the window-attention term but quadruples the
        # global attention term
        def attn_terms(hw):
            return (
                B.complexity_msa(hw, 1, 4) - 4 * hw * 16,
                B.complexity_swmsa(hw, 1, 4, 2) - 4 * hw * 16,
            )

        g1, l1 = attn_terms(64)
        g2, l2 = attn_terms(128)
        assert g2 == 4 * g1 and l2 == 2 * l1

    def test_msa_dominates_when_window_fits(self):
        for h, w, d, n in [(4, 4, 8, 2), (8, 8, 4, 2), (16, 16, 16, 4)]:
            if n * n <= h * w:
                assert B.complexity_msa(h, w, d) >= B.complexity_swmsa(h, w, d, n)

    def test_literal_variant(self):
        assert B.complexity_swmsa(8, 8, 4, 2, literal=True) == (
            4 * 64 * 16 + 2 * 4 * 64 * 64 * 4
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            B.complexity_msa(0, 8, 4)


class TestTransposedConv:
    def test_doubles_extents(self):
        rng = np.random.default_rng(28)
        x = Tensor(rng.uniform(-1, 1, (1, 3, 16, 16)))
        w = B.init_transposed_conv(rng, 3, 5)
        assert B.transposed_conv(x, w).shape == (1, 5, 32, 32)

    def test_ones_non_overlapping(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 2, 2)))
        out = B.transposed_conv(x, w)
        assert np.all(out.data == 1.0) and out.shape == (1, 1, 6, 6)

    def test_adjoint_identity(self):
        # <T(x), y> == <x, S(y)> where S is the stride-2 2x2 downsampling conv
        rng = np.random.default_rng(29)
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((2, 3, 2, 2))
        y = rng.standard_normal((1, 3, 10, 10))
        tx = B.transposed_conv(Tensor(x), Tensor(w)).data
        s_y = np.zeros((1, 2, 5, 5))
        for c in range(2):
            for i in range(5):
                for j in range(5):
                    acc = 0.0
                    for o in range(3):
                        for ki in range(2):
                            for kj in range(2):
                                acc += y[0, o, 2 * i + ki, 2 * j + kj] * w[c, o, ki, kj]
                    s_y[0, c, i, j] = acc
        assert abs(np.sum(tx * y) - np.sum(x * s_y)) <= 1e-10

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            B.transposed_conv(
                Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 3, 2, 2)))
            )

    def test_grad_check(self):
        rng = np.random.default_rng(30)
        x = Tensor(rng.uniform(-1, 1, (1, 2, 3, 3)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (2, 2, 2, 2)), requires_grad=True)

        def f(*_):
            out = B.transposed_conv(x, w)
            return T.tsum(out * out)

        assert grad_check(f, [x, w], eps=1e-5).max_rel_error <= 1e-4


DENSE_CONV_CASES = [  # (batch, cin, cout, height, width, kernel, padding)
    (1, 2, 3, 5, 6, 3, 0),
    (1, 3, 2, 4, 7, 5, 2),
    (2, 2, 5, 6, 4, 3, 2),
]


class TestConvOracle:
    def test_conv2d_matches_loops(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            x = rng.standard_normal((2, 3, 6, 7))
            w = rng.standard_normal((4, 3, 3, 3))
            out = T.conv2d(Tensor(x), Tensor(w), padding=1)
            assert np.allclose(out.data, conv2d_oracle(x, w, 1, 1), atol=1e-10)

    @pytest.mark.parametrize("case", DENSE_CONV_CASES)
    def test_dense_shapes_match_loops(self, case):
        b, cin, cout, h, w, k, pad = case
        rng = np.random.default_rng(36)
        x = rng.standard_normal((b, cin, h, w))
        wt = rng.standard_normal((cout, cin, k, k))
        out = T.conv2d(Tensor(x), Tensor(wt), padding=pad)
        assert np.allclose(out.data, conv2d_oracle(x, wt, pad, 1), atol=1e-10)

    def test_depthwise_matches_loops(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((1, 4, 5, 5))
        w = rng.standard_normal((4, 1, 3, 3))
        out = T.conv2d(Tensor(x), Tensor(w), padding=1, groups=4)
        assert np.allclose(out.data, conv2d_oracle(x, w, 1, 4), atol=1e-10)

    def test_conv_grad_check(self):
        rng = np.random.default_rng(33)
        x = Tensor(rng.uniform(-1, 1, (1, 2, 4, 4)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (3, 2, 3, 3)), requires_grad=True)

        def f(*_):
            out = T.conv2d(x, w, padding=1)
            return T.tsum(out * out)

        assert grad_check(f, [x, w], eps=1e-5).max_rel_error <= 1e-4

    @pytest.mark.parametrize("case", DENSE_CONV_CASES)
    @pytest.mark.parametrize("wants", ["both", "x", "w"])
    def test_dense_shapes_grad_check(self, case, wants):
        b, cin, cout, h, w, k, pad = case
        rng = np.random.default_rng(37)
        x = Tensor(rng.uniform(-1, 1, (b, cin, h, w)),
                   requires_grad=wants in ("both", "x"))
        wt = Tensor(rng.uniform(-1, 1, (cout, cin, k, k)),
                    requires_grad=wants in ("both", "w"))

        def f(*_):
            out = T.conv2d(x, wt, padding=pad)
            return T.tsum(out * out)

        leaves = [t for t in (x, wt) if t.requires_grad]
        assert grad_check(f, leaves, eps=1e-5).max_rel_error <= 1e-4
        assert all(t.grad is None for t in (x, wt) if not t.requires_grad)

    def test_depthwise_grad_check(self):
        rng = np.random.default_rng(34)
        x = Tensor(rng.uniform(-1, 1, (1, 3, 4, 4)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (3, 1, 3, 3)), requires_grad=True)

        def f(*_):
            out = T.conv2d(x, w, padding=1, groups=3)
            return T.tsum(out * out)

        assert grad_check(f, [x, w], eps=1e-5).max_rel_error <= 1e-4

    def test_maxpool_grad_check(self):
        rng = np.random.default_rng(35)
        x = Tensor(rng.uniform(-1, 1, (1, 2, 4, 4)), requires_grad=True)

        def f(*_):
            return T.tsum(T.maxpool2x2(x) * T.maxpool2x2(x))

        assert grad_check(f, [x], eps=1e-5).max_rel_error <= 1e-4


def patches_strided(xd, kh, kw, p):
    """The (B*Ho*Wo, Cin*kh*kw) patch matrix by one reshape of a strided
    window view: the library's earlier gather, kept as the reference for
    tensor._patches."""
    b, cin = xd.shape[:2]
    xp = np.pad(xd, ((0, 0), (0, 0), (p, p), (p, p)))
    _, _, hp, wp = xp.shape
    ho, wo = hp - kh + 1, wp - kw + 1
    sb, sc, sh, sw = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp, (b, cin, kh, kw, ho, wo), (sb, sc, sh, sw, sh, sw)
    ).transpose(0, 4, 5, 1, 2, 3)
    return win.reshape(b * ho * wo, cin * kh * kw)


class TestPatchGather:
    @settings(deadline=None, max_examples=150)
    @given(batch=st.integers(1, 3), cin=st.integers(1, 5),
           height=st.integers(1, 9), width=st.integers(1, 9),
           kh=st.sampled_from([1, 3, 5]), kw=st.sampled_from([1, 3, 5]),
           p=st.sampled_from([0, 1, 2]), seed=st.integers(0, 2**16))
    @example(batch=1, cin=1, height=1, width=1, kh=1, kw=1, p=0, seed=0)
    @example(batch=3, cin=5, height=9, width=1, kh=5, kw=3, p=1, seed=1)
    def test_matches_strided_oracle(self, batch, cin, height, width, kh, kw,
                                    p, seed):
        assume(height + 2 * p >= kh and width + 2 * p >= kw)
        x = np.random.default_rng(seed).standard_normal((batch, cin, height,
                                                         width))
        got = T._patches(x, kh, kw, p)
        assert np.array_equal(got, patches_strided(x, kh, kw, p))
        assert got.flags.c_contiguous

    @settings(deadline=None, max_examples=40)
    @given(batch=st.integers(1, 3), cin=st.integers(1, 4),
           cout=st.integers(1, 4), height=st.integers(1, 7),
           width=st.integers(1, 7), kh=st.sampled_from([3, 5]),
           kw=st.sampled_from([1, 3, 5]), p=st.sampled_from([0, 1, 2]),
           seed=st.integers(0, 2**16))
    def test_conv2d_bitwise_equal_on_oracle_gather(self, batch, cin, cout,
                                                   height, width, kh, kw, p,
                                                   seed):
        assume(height + 2 * p >= kh and width + 2 * p >= kw)
        rng = np.random.default_rng(seed)
        xdata = rng.uniform(-1, 1, (batch, cin, height, width))
        wdata = rng.uniform(-1, 1, (cout, cin, kh, kw))
        weights = rng.uniform(-1, 1, (batch, cout, height + 2 * p - kh + 1,
                                      width + 2 * p - kw + 1))

        def run():
            leaves = [Tensor(xdata, requires_grad=True),
                      Tensor(wdata, requires_grad=True)]
            return _leaf_grads(lambda x, w: T.conv2d(x, w, padding=p), leaves,
                               weights)

        got = run()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "_patches", patches_strided)
            ref = run()
        x0 = np.zeros((batch, cin, height, width))
        if patches_strided(x0, kh, kw, p).flags.c_contiguous:
            _assert_same(got, ref)
        else:
            # some batch-1 shapes (a kernel one pixel wide, or as wide or as
            # high as the padded map) make the oracle's reshape return a
            # strided view, not a copy, and the GEMM on that view may round
            # differently in the last bit
            for a, r in zip([got[0]] + got[2], [ref[0]] + ref[2]):
                assert np.abs(a - r).max() <= 1e-12 * np.abs(r).max()

    @pytest.mark.parametrize("k", [3, 5])
    def test_stateful_conv_lstm_step_bitwise_equal_on_oracle_gather(self, k):
        rng = np.random.default_rng(38)
        p = _random_conv_lstm(rng, 3, 2, k)
        xdata = rng.uniform(-1, 1, (2, 3, 5, 6))
        s0 = _step_state("random", rng, 2, 2, 5, 6)
        w_h, w_c = rng.uniform(-1, 1, (2, 2, 2, 5, 6))
        st_, grads = _step_grads(B.conv_lstm_step, xdata, s0, p, w_h, w_c)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "_patches", patches_strided)
            ref, ref_grads = _step_grads(B.conv_lstm_step, xdata, s0, p, w_h,
                                         w_c)
        assert np.array_equal(st_.hidden.data, ref.hidden.data)
        assert np.array_equal(st_.cell.data, ref.cell.data)
        assert set(grads) == set(ref_grads)
        for key, r in ref_grads.items():
            assert np.array_equal(grads[key], r), key
