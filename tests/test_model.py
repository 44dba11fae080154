import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridseg import blocks as B
from hybridseg import losses as L
from hybridseg import model as M
from hybridseg import tensor as T
from hybridseg.tensor import FormatError, ShapeError, Tensor, grad_check
from taped_ops import backward_retaining, closure_arrays


def tiny_config(**kw):
    base = dict(
        input_height=16, input_width=16, input_channels=1, base_channels=2,
        num_classes=1, window_size=2, num_heads=2, mlp_ratio=2.0,
    )
    base.update(kw)
    return M.ModelConfig(**base)


# closed-form parameter counts for the hand-count test


def sepconv_count(cin, cout):
    return 9 * cin + cin * cout + 2 * cout  # depthwise + pointwise + bn affine


def swin_count(d, ratio):
    attn = 3 * d * d + d + d + d * d + d  # qkv, q/v bias, proj, proj bias
    ln = 2 * d
    hidden = int(d * ratio)
    mlp = d * hidden + hidden + hidden * d + d
    return 2 * attn + 4 * ln + 2 * mlp


def bconv_count(w):
    per_dir = 10 * 9 * w * w + w + 4 * w  # 10 gate convs, hadamard peephole, biases
    return 2 * per_dir + 2 * 9 * w * w + w  # directions + mixing convs + bias


def hand_count(cfg):
    c = cfg.base_channels
    total = 0
    cin = cfg.input_channels
    for width in (c, 2 * c, 4 * c):
        total += sepconv_count(cin, width) + sepconv_count(width, width)
        cin = width
    total += sepconv_count(4 * c, 8 * c) + sepconv_count(8 * c, 8 * c)
    total += swin_count(8 * c, cfg.mlp_ratio)
    total += sepconv_count(16 * c, 8 * c) + sepconv_count(8 * c, 8 * c)
    for width in (c, 2 * c, 4 * c):
        total += bconv_count(width) + swin_count(width, cfg.mlp_ratio)
    dec_in = 32 * c
    for width in (4 * c, 2 * c, c):
        total += 4 * dec_in * width
        total += 2 * sepconv_count(width, width)
        dec_in = 2 * width
    total += sepconv_count(2 * c, c) + sepconv_count(c, cfg.num_classes)
    return total


def per_gate_checkpoint(src, dst, drop=None):
    """Rewrite checkpoint src at dst in the layout written before the
    ConvLSTM kernels were stacked per input stream: one record per gate
    (*.w_x_i ... *.b_c), gates in the order i, f, o, c. The key drop, if
    given, is left out."""
    gates = {"w_x": "ifoc", "w_h": "ifoc", "w_c": "if", "b": "ifoc"}
    flat = {}
    for key, t in M.load_checkpoint_tensors(src).items():
        prefix, name = key.rsplit(".", 1)
        if ".lstm." in key and name in gates:
            for g, part in zip(gates[name], np.split(t.data, len(gates[name]))):
                flat[f"{prefix}.{name}_{g}"] = part
        else:
            flat[key] = t.data
    if drop is not None:
        del flat[drop]
    dst.mkdir()
    manifest, offset = [], 0
    with open(dst / "tensors.bin", "wb") as fh:
        for key in sorted(flat):
            blob = T.tensor_to_bytes(flat[key])
            manifest.append(f"{key} {'x'.join(map(str, flat[key].shape))} {offset}")
            fh.write(blob)
            offset += len(blob)
    (dst / "manifest.txt").write_text("\n".join(manifest) + "\n")
    (dst / "config.txt").write_bytes((src / "config.txt").read_bytes())
    return dst


class TestBuild:
    def test_deterministic(self):
        cfg = tiny_config()
        a = M.build(cfg, seed=7).flat()
        b = M.build(cfg, seed=7).flat()
        assert set(a) == set(b)
        for k in a:
            assert np.array_equal(a[k].data, b[k].data), k

    def test_seed_changes_values(self):
        cfg = tiny_config()
        a = M.build(cfg, seed=1).flat()
        b = M.build(cfg, seed=2).flat()
        assert any(not np.array_equal(a[k].data, b[k].data) for k in a)

    def test_parameter_count_matches_hand_count(self):
        cfg = tiny_config(base_channels=1, num_heads=1)
        params = M.build(cfg, seed=0)
        assert M.count_params(params) == hand_count(cfg)

    def test_num_classes_only_touches_head_keys(self):
        a = M.build(tiny_config(num_classes=1), seed=3).flat()
        b = M.build(tiny_config(num_classes=3), seed=3).flat()
        assert set(a) == set(b)
        for k in a:
            if k.startswith("head."):
                continue
            assert np.array_equal(a[k].data, b[k].data), k
        changed = [k for k in a if a[k].shape != b[k].shape]
        assert changed and all(k.startswith("head.conv2") for k in changed)

    def test_extent_validation(self):
        with pytest.raises(ValueError):
            tiny_config(input_height=20)

    def test_heads_must_divide(self):
        with pytest.raises(ValueError):
            tiny_config(base_channels=3, num_heads=2)


class TestAllocate:
    @pytest.mark.parametrize("placement", M.PLACEMENTS)
    def test_shapes_and_fixed_values_match_build(self, placement):
        cfg = tiny_config(transformer_placement=placement,
                          skip_sequence_mode="paired", num_classes=3)
        built, zeros = M.build(cfg, seed=4).flat(), M.allocate(cfg).flat()
        assert list(zeros) == list(built)
        drawn = 0
        for k, t in built.items():
            z = zeros[k]
            assert z.shape == t.shape and z.requires_grad == t.requires_grad, k
            if np.array_equal(z.data, t.data):  # ones, zeros: not drawn
                continue
            assert not z.data.any(), k
            drawn += 1
        assert drawn > 0
        assert M.count_params(M.allocate(cfg)) == M.count_params(
            M.build(cfg, seed=0))

    def test_draws_no_random_numbers(self, monkeypatch):
        def no_rng(*args, **kwargs):
            raise AssertionError("random numbers drawn")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        assert M.count_params(M.allocate(tiny_config())) > 0
        with pytest.raises(AssertionError, match="random numbers drawn"):
            M.build(tiny_config(), seed=0)


class TestForward:
    def test_head_range_binary(self):
        cfg = M.ModelConfig(
            input_height=64, input_width=64, input_channels=3, base_channels=8,
            num_classes=1,
        )
        params = M.build(cfg, seed=0)
        rng = np.random.default_rng(0)
        out = M.forward(params, Tensor(rng.uniform(0, 1, (1, 3, 64, 64))))
        assert out.shape == (1, 1, 64, 64)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_multiclass_probabilities(self):
        cfg = tiny_config(num_classes=4)
        params = M.build(cfg, seed=1)
        rng = np.random.default_rng(1)
        out = M.forward(params, Tensor(rng.uniform(0, 1, (2, 1, 16, 16))))
        assert out.shape == (2, 4, 16, 16)
        sums = out.data.sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-9

    def test_inference_deterministic(self):
        cfg = tiny_config()
        params = M.build(cfg, seed=2)
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, (1, 1, 16, 16))
        a = M.forward(params, Tensor(x.copy())).data
        b = M.forward(params, Tensor(x.copy())).data
        assert np.array_equal(a, b)

    def test_input_shape_validation(self):
        params = M.build(tiny_config(), seed=0)
        with pytest.raises(ShapeError):
            M.forward(params, Tensor(np.zeros((1, 1, 24, 16))))

    def test_baseline_reduces_to_unet(self):
        cfg = tiny_config(transformer_placement="none", skip_lstm=False)
        params = M.build(cfg, seed=4)
        assert not any("swin" in k or "lstm" in k for k in params.flat())
        rng = np.random.default_rng(4)
        out = M.forward(params, Tensor(rng.uniform(0, 1, (1, 1, 16, 16))))
        assert out.shape == (1, 1, 16, 16)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    @pytest.mark.parametrize("placement", M.PLACEMENTS)
    def test_every_placement_builds_and_runs(self, placement):
        cfg = tiny_config(transformer_placement=placement)
        params = M.build(cfg, seed=5)
        rng = np.random.default_rng(5)
        out = M.forward(params, Tensor(rng.uniform(0, 1, (1, 1, 16, 16))))
        assert out.shape == (1, 1, 16, 16)

    def test_paired_skip_sequence(self):
        cfg = tiny_config(skip_sequence_mode="paired")
        params = M.build(cfg, seed=6)
        rng = np.random.default_rng(6)
        out = M.forward(params, Tensor(rng.uniform(0, 1, (1, 1, 16, 16))))
        assert out.shape == (1, 1, 16, 16)

    def test_labels_from_probs(self):
        binary = np.array([[[0.2, 0.5], [0.7, 0.4999]]])
        assert M.labels_from_probs(binary).tolist() == [[0, 1], [1, 0]]
        multi = np.random.default_rng(7).dirichlet(np.ones(3), (4, 5)).transpose(
            2, 0, 1)
        assert np.array_equal(M.labels_from_probs(multi), multi.argmax(axis=0))
        batch = np.stack([multi, multi[::-1]])
        assert np.array_equal(
            M.labels_from_probs(batch),
            np.stack([M.labels_from_probs(p) for p in batch]),
        )


class TestGradients:
    @pytest.mark.parametrize(
        "placement,skip_lstm,base_ch",
        [("none", False, 2), ("none", True, 2), ("dense", True, 2),
         ("decoder_pools", True, 4), ("skips", True, 2),
         ("skips_and_dense", True, 2)],
    )
    def test_all_placements_end_to_end(self, placement, skip_lstm, base_ch):
        # 16x16 and batch 2 keep the check well posed: a smaller scale runs
        # the bottleneck at 1x1 spatial where batch statistics zero the
        # activations and park every relu exactly on its kink
        cfg = M.ModelConfig(
            input_height=16, input_width=16, input_channels=1,
            base_channels=base_ch, num_classes=1, window_size=2, num_heads=2,
            mlp_ratio=1.0, transformer_placement=placement,
            skip_lstm=skip_lstm,
        )
        params = M.build(cfg, seed=8)
        rng = np.random.default_rng(8)
        x = Tensor(rng.uniform(0.1, 0.9, (2, 1, 16, 16)), requires_grad=True)
        g = Tensor((rng.random((2, 1, 16, 16)) < 0.5).astype(float))
        leaves = [x] + list(params.trainable().values())

        def f(*_):
            out = M.forward(params, x, training=True, update_stats=False)
            # scaled mean keeps rounding noise below the comparison floor
            return T.tmean((out - g) * (out - g)) * 0.01

        res = grad_check(f, leaves, eps=1e-5, max_elements=2, seed=0)
        assert res.max_rel_error <= 1e-4, (placement, skip_lstm)


class TestCounters:
    def test_channel_scaling(self):
        small = M.count_params(M.build(tiny_config(base_channels=2), 0))
        big = M.count_params(M.build(tiny_config(base_channels=4), 0))
        # pointwise-style terms scale as C^2, depthwise/bias terms as C
        assert big > 3 * small

    def test_flops_increase_with_extent(self):
        f16 = M.count_flops(tiny_config())
        f32 = M.count_flops(tiny_config(input_height=32, input_width=32))
        f64 = M.count_flops(tiny_config(input_height=64, input_width=64))
        assert f16 < f32 < f64

    def test_flops_placement_sensitivity(self):
        with_dense = M.count_flops(tiny_config(transformer_placement="dense"))
        without = M.count_flops(tiny_config(transformer_placement="none"))
        assert with_dense != without

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_convlstm_flops_match_executed_convolutions(self, monkeypatch,
                                                        length):
        cin, hidden, h, w = 3, 2, 4, 5
        rng = np.random.default_rng(40)
        p = B.init_bconv_lstm(rng, cin, hidden)
        seq = [Tensor(rng.uniform(-1, 1, (1, cin, h, w))) for _ in range(length)]
        executed = []
        dense_conv = T._dense_conv

        # every k x k convolution, the ones inside T.conv_lstm_step included,
        # runs through the shared dense-conv helper
        def counting(xd, wd, padding):
            out = dense_conv(xd, wd, padding)
            cout, cper, kh, kw = wd.shape
            executed.append(2 * cout * cper * kh * kw * out.shape[2] * out.shape[3])
            return out

        monkeypatch.setattr(T, "_dense_conv", counting)
        B.bconv_lstm(seq, p)
        assert sum(executed) == M._convlstm_flops(cin, hidden, h, w, length)

    @pytest.mark.parametrize("cfg", [M.ModelConfig(), tiny_config()],
                             ids=["acceptance", "tiny"])
    def test_transposed_conv_flops_match_executed(self, monkeypatch, cfg):
        executed = []
        conv_transpose2d = T.conv_transpose2d

        def counting(x, wt):
            out = conv_transpose2d(x, wt)
            executed.append(2 * out.size * x.shape[1])
            return out

        monkeypatch.setattr(T, "conv_transpose2d", counting)
        x = np.zeros((1, cfg.input_channels, cfg.input_height, cfg.input_width))
        M.forward(M.build(cfg, 0), Tensor(x))
        analytic = M.count_flops(cfg)
        monkeypatch.setattr(M, "_transposed_conv_flops", lambda *shape: 0)
        analytic -= M.count_flops(cfg)
        assert len(executed) == len(cfg.skip_channels())
        assert sum(executed) == analytic

    @pytest.mark.parametrize("skip_lstm", [True, False])
    @pytest.mark.parametrize("mode", ["single", "paired"])
    @pytest.mark.parametrize("placement", M.PLACEMENTS)
    @pytest.mark.parametrize("size", [16, 24])
    def test_flops_match_executed(self, monkeypatch, size, placement, mode,
                                  skip_lstm):
        # at 24x24 the 3x3 bottleneck runs its attention on a padded 4x4 grid
        cfg = tiny_config(input_height=size, input_width=size,
                          transformer_placement=placement,
                          skip_sequence_mode=mode, skip_lstm=skip_lstm)
        executed = []
        conv2d, conv_transpose2d = T.conv2d, T.conv_transpose2d
        window_attention, dense_conv = T.window_attention, T._dense_conv
        separable_conv_bn, pointwise_mlp = T.separable_conv_bn, T.pointwise_mlp

        # dense k x k convolutions, those inside T.conv_lstm_step and
        # T.separable_conv_bn among them, are counted in the shared helper;
        # conv2d and the fused ops count their other paths
        def counting_conv2d(x, wt, padding=0, groups=1):
            out = conv2d(x, wt, padding=padding, groups=groups)
            if groups != 1 or wt.shape[-1] == 1:
                executed.append(2 * out.size * int(np.prod(wt.shape[1:])))
            return out

        def counting_dense_conv(xd, wd, padding):
            out = dense_conv(xd, wd, padding)
            executed.append(2 * out.size * int(np.prod(wd.shape[1:])))
            return out

        def counting_separable_conv_bn(x, dw, pw, *rest):
            out = separable_conv_bn(x, dw, pw, *rest)
            b, cin, h, w = x.shape
            if cin > 1:  # one input channel runs the dense helper
                executed.append(2 * b * cin * h * w * dw.shape[-1] ** 2)
            executed.append(2 * out[0].size * cin)
            return out

        def counting_pointwise_mlp(x, w1, b1, w2, b2):
            out = pointwise_mlp(x, w1, b1, w2, b2)
            b, cin, h, w = x.shape
            executed.append(2 * b * h * w * w1.shape[0] * (cin + out.shape[1]))
            return out

        def counting_conv_transpose2d(x, wt):
            out = conv_transpose2d(x, wt)
            executed.append(2 * out.size * x.shape[1])
            return out

        def counting_window_attention(x, qkv_w, q_bias, v_bias, proj_w, proj_b,
                                      n, heads, shift):
            out = window_attention(x, qkv_w, q_bias, v_bias, proj_w, proj_b,
                                   n, heads, shift)
            b, c, h, w = out.shape
            tokens, t = b * h * w, n * n
            executed.append(2 * tokens * c * 3 * c
                            + 4 * (tokens // t * heads) * t * t * (c // heads)
                            + 2 * tokens * c * c)
            return out

        monkeypatch.setattr(T, "conv2d", counting_conv2d)
        monkeypatch.setattr(T, "_dense_conv", counting_dense_conv)
        monkeypatch.setattr(T, "separable_conv_bn", counting_separable_conv_bn)
        monkeypatch.setattr(T, "pointwise_mlp", counting_pointwise_mlp)
        monkeypatch.setattr(T, "conv_transpose2d", counting_conv_transpose2d)
        monkeypatch.setattr(T, "window_attention", counting_window_attention)
        M.forward(M.build(cfg, 0), Tensor(np.zeros((1, 1, size, size))))
        assert sum(executed) == M.count_flops(cfg)

    @pytest.mark.parametrize("mode", ["single", "paired"])
    def test_training_step_convolves_no_all_zero_input(self, monkeypatch, mode):
        cfg = M.ModelConfig(skip_sequence_mode=mode)  # acceptance configuration
        params = M.build(cfg, 0)
        x = Tensor(np.random.default_rng(41).uniform(0, 1, (8, 1, 32, 32)))
        shapes = []
        conv2d, dense_conv = T.conv2d, T._dense_conv
        separable_conv_bn, pointwise_mlp = T.separable_conv_bn, T.pointwise_mlp

        def watching(xin, wt, padding=0, groups=1):
            shapes.append(("conv2d", xin.shape, bool(xin.data.any())))
            return conv2d(xin, wt, padding=padding, groups=groups)

        # the ConvLSTM gate convolutions run inside T.conv_lstm_step, which
        # calls the dense-conv helper directly
        def watching_dense(xd, wd, padding):
            shapes.append(("dense", xd.shape, bool(xd.any())))
            return dense_conv(xd, wd, padding)

        def watching_separable(xin, *rest):
            shapes.append(("separable", xin.shape, bool(xin.data.any())))
            return separable_conv_bn(xin, *rest)

        def watching_mlp(xin, *rest):
            shapes.append(("mlp", xin.shape, bool(xin.data.any())))
            return pointwise_mlp(xin, *rest)

        monkeypatch.setattr(T, "conv2d", watching)
        monkeypatch.setattr(T, "_dense_conv", watching_dense)
        monkeypatch.setattr(T, "separable_conv_bn", watching_separable)
        monkeypatch.setattr(T, "pointwise_mlp", watching_mlp)
        with T.record():
            T.backward(T.tsum(M.forward(params, x, training=True)))
        assert {op for op, _, _ in shapes} == {"conv2d", "dense", "separable",
                                               "mlp"}
        assert [(op, s) for op, s, nonzero in shapes if not nonzero] == []

    def test_tape_holds_no_patch_matrix(self):
        # paired skips run stateful ConvLSTM steps, whose x, h and c streams
        # and the direction-mixing conv2d are all dense 3x3 convolutions
        cfg = tiny_config(skip_sequence_mode="paired")
        params = M.build(cfg, 0)
        rng = np.random.default_rng(42)
        x = Tensor(rng.uniform(0, 1, (2, 1, 16, 16)))
        g = Tensor((rng.uniform(0, 1, (2, 1, 16, 16)) < 0.4).astype(float))
        with T.record() as tape:
            out = M.forward(params, x, training=True)
            L.composite_loss(out, g, L.LossSchedule(), 0,
                             components=("dice", "jaccard"))
        assert any(bw.__qualname__.startswith("conv_lstm_step.")
                   and len(inputs) == 8 for _, inputs, bw in tape.ops)
        held = []
        for _, inputs, bw in tape.ops:
            patch_shapes = {
                (b * h * w, c * k * k)
                for b, c, h, w in (t.shape for t in inputs if t.ndim == 4)
                for k in (3, 5, 7)
            }
            held += [(bw.__qualname__, a.shape) for a in closure_arrays(bw)
                     if a.ndim == 2 and a.shape in patch_shapes]
        assert held == []


def training_loss(params, cfg, seed):
    """A training forward plus the three-term loss on a random batch of 2,
    as train.train records it; only the scalar loss is returned, so the
    tape alone keeps the intermediates alive."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(0, 1, (2, 1, cfg.input_height, cfg.input_width)))
    mask = rng.uniform(0, 1, (2, cfg.input_height, cfg.input_width)) < 0.4
    g = Tensor(mask[:, None].astype(float))
    level_sets = np.stack([L.level_set(m).values for m in mask])[:, None]
    out = M.forward(params, x, training=True)
    return L.composite_loss(out, g, L.LossSchedule(), 0,
                            level_sets=level_sets)[0]


# the arrays a rule keeps besides its inputs, by the op that made the entry
HELD_BY_RULE = {"window_attention": ("q", "kt", "v", "row_max", "row_sum"),
                "conv_lstm_step": ("i", "f", "o", "g", "tc")}


def watch_entries(tape, root):
    """Weak references to what every entry but the first keeps alive: its
    output arrays (the root's aside), its rule, and the attention's per-head
    q, k^T, v and softmax row statistics and the ConvLSTM gate activations
    in that rule's closure."""
    refs = []
    for outs, _, bw in tape.ops[1:]:
        op = bw.__qualname__.split(".")[0]
        refs += [(op, weakref.ref(t.data)) for t in outs if t is not root]
        refs.append((op, weakref.ref(bw)))
        for name in HELD_BY_RULE.get(op, ()):
            if name not in bw.__code__.co_freevars:
                continue
            cell = bw.__closure__[bw.__code__.co_freevars.index(name)]
            try:
                refs.append((f"{op}.{name}", weakref.ref(cell.cell_contents)))
            except ValueError:  # the zero-state step has no forget gate
                pass
    return refs


@pytest.mark.parametrize("mode", ["single", "paired"])
class TestBackwardReleasesTape:
    def test_entries_are_released_before_the_first_rule_runs(self, mode):
        cfg = tiny_config(skip_sequence_mode=mode)
        params = M.build(cfg, 0)
        alive_at_first = []
        with T.record() as tape:
            root = training_loss(params, cfg, 7)
            refs = watch_entries(tape, root)
            assert {op for op, _ in refs} >= {
                "window_attention", "window_attention.q", "window_attention.kt",
                "window_attention.v", "window_attention.row_max",
                "window_attention.row_sum", "conv_lstm_step.i",
                "conv_lstm_step.o", "conv_lstm_step.g", "conv_lstm_step.tc"}
            outs, inputs, first = tape.ops[0]

            def watched(*gs):
                alive_at_first.append([op for op, r in refs if r() is not None])
                return first(*gs)

            tape.ops[0] = (outs, inputs, watched)
            T.backward(root)
        assert alive_at_first == [[]]

    def test_only_leaves_and_root_keep_gradients(self, mode):
        cfg = tiny_config(skip_sequence_mode=mode)

        def run(backward):
            params = M.build(cfg, 0)
            with T.record() as tape:
                root = training_loss(params, cfg, 7)
                recorded = len(tape)
                produced = [t for outs, _, _ in tape.ops for t in outs]
                leaves = backward(root)
            return len(tape) - recorded, produced, root, leaves

        lost, produced, root, leaves = run(T.backward)
        assert lost == 0  # len(tape) still counts the recorded entries
        assert root.grad is not None
        assert [t for t in produced if t is not root and t.grad is not None] == []
        oracle = run(backward_retaining)[3]
        assert len(leaves) == len(oracle)
        for (t, g), (t_ref, g_ref) in zip(leaves.items(), oracle.items()):
            assert t.shape == t_ref.shape and g is t.grad
            assert np.array_equal(g, g_ref)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        cfg = tiny_config()
        params = M.build(cfg, seed=9)
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 1, (1, 1, 16, 16))
        before = M.forward(params, Tensor(x.copy())).data
        ckpt = tmp_path / "ckpt"
        M.save_checkpoint(params, ckpt)
        loaded = M.load_checkpoint(ckpt)
        after = M.forward(loaded, Tensor(x.copy())).data
        assert np.array_equal(before, after)
        flat_a = params.flat()
        flat_b = loaded.flat()
        assert set(flat_a) == set(flat_b)
        for k in flat_a:
            assert np.array_equal(flat_a[k].data, flat_b[k].data)

    def test_save_is_deterministic(self, tmp_path):
        params = M.build(tiny_config(), seed=10)
        M.save_checkpoint(params, tmp_path / "a")
        M.save_checkpoint(params, tmp_path / "b")
        assert (tmp_path / "a/tensors.bin").read_bytes() == (
            tmp_path / "b/tensors.bin"
        ).read_bytes()
        assert (tmp_path / "a/manifest.txt").read_text() == (
            tmp_path / "b/manifest.txt"
        ).read_text()

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FormatError):
            M.load_checkpoint_tensors(tmp_path / "nope")

    def test_per_gate_layout_loads_bitwise(self, tmp_path):
        cfg = tiny_config(skip_sequence_mode="paired")
        params = M.build(cfg, seed=15)
        M.save_checkpoint(params, tmp_path / "new")
        old = per_gate_checkpoint(tmp_path / "new", tmp_path / "old")
        keys = [line.split()[0] for line in
                (old / "manifest.txt").read_text().splitlines()]
        assert "skip1.lstm.forward.w_x_i" in keys
        assert "skip1.lstm.forward.w_x" not in keys
        loaded = M.load_checkpoint(old).flat()
        dst, report = M.transfer_weights(M.build(cfg, seed=16), old)
        assert not report.skipped_shape and not report.missing
        dst = dst.flat()
        for k, t in params.flat().items():
            assert loaded[k].data.tobytes() == t.data.tobytes(), k
            assert dst[k].data.tobytes() == t.data.tobytes(), k

    @pytest.mark.parametrize("drop", ["skip1.lstm.forward.w_x_i",
                                      "skip3.lstm.backward.b_f",
                                      "skip2.lstm.forward.w_c_f"])
    def test_per_gate_layout_missing_gate(self, tmp_path, drop):
        M.save_checkpoint(M.build(tiny_config(), seed=17), tmp_path / "new")
        old = per_gate_checkpoint(tmp_path / "new", tmp_path / "old", drop)
        with pytest.raises(FormatError, match=drop):
            M.load_checkpoint(old)
        with pytest.raises(FormatError, match=drop):
            M.transfer_weights(M.build(tiny_config(), seed=18), old)

    @pytest.mark.parametrize("placement", ["skips_and_dense", "decoder_pools"])
    @pytest.mark.parametrize("mode", ["single", "paired"])
    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch,
                                          placement, mode):
        cfg = tiny_config(transformer_placement=placement,
                          skip_sequence_mode=mode)
        params = M.build(cfg, seed=21)
        M.save_checkpoint(params, tmp_path)
        saved = params.flat()

        def no_rng(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(M.np.random, "default_rng", no_rng)
        loaded = M.load_checkpoint(tmp_path)
        assert loaded.config == cfg
        flat = loaded.flat()
        assert list(flat) == list(saved)
        for k, t in saved.items():
            assert flat[k].data.tobytes() == t.data.tobytes(), k
            assert flat[k].requires_grad == t.requires_grad, k


def tensor_bytes(params):
    return {k: t.data.tobytes() for k, t in params.flat().items()}


def _corrupt_copy(src, dst, manifest=None, blob=None):
    """Copy checkpoint src to dst, replacing manifest.txt and tensors.bin by
    the given bytes."""
    dst.mkdir()
    for name, data in (("config.txt", None), ("manifest.txt", manifest),
                       ("tensors.bin", blob)):
        (dst / name).write_bytes((src / name).read_bytes() if data is None
                                 else data)
    return dst


class TestCheckpointProperties:
    """Round trips and corruptions of the checkpoint files: a load either
    returns the saved tensors bitwise or raises FormatError."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        ckpt = tmp_path_factory.mktemp("ckpt") / "ckpt"
        params = M.build(tiny_config(num_classes=3, skip_sequence_mode="paired"),
                         seed=12)
        M.save_checkpoint(params, ckpt)
        return (ckpt, (ckpt / "manifest.txt").read_bytes(),
                (ckpt / "tensors.bin").read_bytes(), tensor_bytes(params))

    def load(self, saved, manifest=None, blob=None):
        with tempfile.TemporaryDirectory() as tmp:
            return M.load_checkpoint(
                _corrupt_copy(saved[0], Path(tmp) / "c", manifest, blob))

    @settings(deadline=None, max_examples=25)
    @given(placement=st.sampled_from(M.PLACEMENTS),
           mode=st.sampled_from(["single", "paired"]), skip_lstm=st.booleans(),
           num_classes=st.sampled_from([1, 3]), seed=st.integers(0, 2**16))
    def test_round_trip_bitwise(self, placement, mode, skip_lstm, num_classes,
                                seed):
        cfg = tiny_config(transformer_placement=placement,
                          skip_sequence_mode=mode, skip_lstm=skip_lstm,
                          num_classes=num_classes)
        params = M.build(cfg, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            M.save_checkpoint(params, tmp)
            loaded = M.load_checkpoint(tmp)
        assert loaded.config == cfg
        assert tensor_bytes(loaded) == tensor_bytes(params)

    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_cut_tensors_bin(self, saved, data):
        cut = data.draw(st.integers(0, len(saved[2]) - 1))
        with pytest.raises(FormatError):
            self.load(saved, blob=saved[2][:cut])

    @settings(deadline=None, max_examples=25)
    @given(extra=st.binary(min_size=1, max_size=64))
    def test_extended_tensors_bin(self, saved, extra):
        with pytest.raises(FormatError, match="trailing bytes"):
            self.load(saved, blob=saved[2] + extra)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_mutated_tensors_bin(self, saved, data):
        blob = bytearray(saved[2])
        at = data.draw(st.integers(0, len(blob) - 1))
        blob[at] = data.draw(st.integers(0, 255).filter(lambda v: v != blob[at]))
        try:
            params = self.load(saved, blob=bytes(blob))
        except FormatError:
            return
        # a changed payload byte is a finite value the format cannot tell
        # from the saved one; the load holds it, so a save writes it back
        with tempfile.TemporaryDirectory() as tmp:
            M.save_checkpoint(params, tmp)
            assert (Path(tmp) / "tensors.bin").read_bytes() == bytes(blob)
        loaded = tensor_bytes(params)
        assert sum(loaded[k] != saved[3][k] for k in loaded) == 1

    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_cut_manifest(self, saved, data):
        # the cut loses at least one character of the last line
        cut = data.draw(st.integers(0, len(saved[1].rstrip()) - 1))
        with pytest.raises(FormatError):
            self.load(saved, manifest=saved[1][:cut])

    @settings(deadline=None, max_examples=40)
    @given(extra=st.binary(min_size=1, max_size=40))
    def test_extended_manifest(self, saved, extra):
        try:
            blank = not extra.decode("utf-8").split()
        except UnicodeDecodeError:
            blank = False
        if blank:  # blank lines are allowed
            params = self.load(saved, manifest=saved[1] + extra)
            assert tensor_bytes(params) == saved[3]
            return
        with pytest.raises(FormatError):
            self.load(saved, manifest=saved[1] + extra)

    @settings(deadline=None, max_examples=80)
    @given(data=st.data())
    def test_mutated_manifest(self, saved, data):
        manifest = bytearray(saved[1])
        at = data.draw(st.integers(0, len(manifest) - 1))
        manifest[at] = data.draw(
            st.integers(0, 255).filter(lambda v: v != manifest[at]))
        try:
            params = self.load(saved, manifest=bytes(manifest))
        except FormatError:
            return
        # only a separator swapped for another one leaves the manifest valid
        assert bytes(manifest).decode().split() == saved[1].decode().split()
        assert tensor_bytes(params) == saved[3]


class TestTransfer:
    def test_same_config_full_copy(self, tmp_path):
        cfg = tiny_config()
        src = M.build(cfg, seed=11)
        M.save_checkpoint(src, tmp_path / "src")
        dst = M.build(cfg, seed=99)
        dst, report = M.transfer_weights(dst, tmp_path / "src")
        assert not report.skipped_shape and not report.missing
        src_flat, dst_flat = src.flat(), dst.flat()
        assert sorted(report.copied) == sorted(src_flat)
        for k in src_flat:
            assert np.array_equal(src_flat[k].data, dst_flat[k].data)

    def test_num_classes_mismatch_skips_head(self, tmp_path):
        M.save_checkpoint(M.build(tiny_config(num_classes=1), 12), tmp_path / "src")
        dst = M.build(tiny_config(num_classes=3), 13)
        dst, report = M.transfer_weights(dst, tmp_path / "src")
        assert report.skipped_shape
        assert all(k.startswith("head.conv2") for k in report.skipped_shape)
        assert not report.missing
        assert not any(k.startswith("head.conv2.pointwise") for k in report.copied)

    def test_empty_checkpoint(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "manifest.txt").write_text("")
        (empty / "tensors.bin").write_bytes(b"")
        dst = M.build(tiny_config(), 14)
        snapshot = {k: t.data.copy() for k, t in dst.flat().items()}
        dst, report = M.transfer_weights(dst, empty)
        assert not report.copied
        assert sorted(report.missing) == sorted(snapshot)
        for k, t in dst.flat().items():
            assert np.array_equal(t.data, snapshot[k])


class TestConfigText:
    def test_round_trip(self):
        cfg = tiny_config(transformer_placement="skips", skip_lstm=False)
        back = M.config_from_text(M.config_to_text(cfg))
        assert back == cfg

    def test_comments_and_overrides(self):
        text = "input_height=16\ninput_width=16\n# comment\nbase_channels=2\n"
        cfg = M.config_from_text(
            text, overrides={"base_channels": "4", "num_heads": "2"}
        )
        assert cfg.base_channels == 4 and cfg.num_heads == 2

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            M.config_from_text("depth=4\n")

    def test_config_from_kv_leaves_unknown_keys(self):
        values = {"lambda_d": "0.5", "max_epochs": "3", "depth": "4"}
        sched = M.config_from_kv(L.LossSchedule, values)
        assert sched.lambda_d == 0.5 and values == {"max_epochs": "3", "depth": "4"}

    def test_removed_field_loads_only_when_false(self):
        text = M.config_to_text(tiny_config())
        assert "literal_decoder_input" not in text
        old = text + "literal_decoder_input=False\n"
        assert M.config_from_text(old) == tiny_config()
        with pytest.raises(ValueError, match="literal_decoder_input"):
            M.config_from_text(text + "literal_decoder_input=True\n")
