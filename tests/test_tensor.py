import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import taped_ops as O
from hybridseg import model as M
from hybridseg import tensor as T
from hybridseg.tensor import (
    FormatError,
    NonFiniteError,
    ShapeError,
    TapeError,
    Tensor,
    backward,
    concat,
    grad_check,
    record,
    softmax,
)


def matmul_oracle(a, b):
    """Triple-loop matrix product, independent of numpy matmul."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


class TestElementwise:
    def test_relu_definition(self):
        out = O.relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_sigmoid_at_zero(self):
        out = T.sigmoid(Tensor([0.0]))
        assert np.allclose(out.data, [0.5])

    def test_sigmoid_bitwise_equals_two_branch_form(self):
        edges = [800.0, -800.0, 745.0, -745.0, 1e-300, -1e-300, 5e-324,
                 -5e-324, 0.0, -0.0]
        draw = np.random.default_rng(8).standard_normal(2**18)
        x = np.concatenate([edges, draw, 10.0 * draw])
        ref = np.empty_like(x)
        pos = x >= 0
        ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        ref[~pos] = ex / (1.0 + ex)
        assert T.sigmoid(Tensor(x)).data.tobytes() == ref.tobytes()

    def test_add(self):
        out = T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        assert np.array_equal(out.data, [4.0, 6.0])

    def test_broadcast_extent_one(self):
        out = Tensor(np.ones((2, 3))) + Tensor(np.full((2, 1), 2.0))
        assert out.shape == (2, 3)
        assert np.all(out.data == 3.0)

    def test_incompatible_shapes(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))

    def test_nonfinite_result(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0]) / Tensor([0.0])

    def test_nonfinite_construction(self):
        with pytest.raises(NonFiniteError):
            Tensor([np.nan])


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = O.matmul(Tensor(np.eye(2)), Tensor(a))
        assert np.array_equal(out.data, a)

    def test_small_product(self):
        out = O.matmul(Tensor([[1.0, 0.0]]), Tensor([[2.0], [3.0]]))
        assert np.array_equal(out.data, [[2.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 5))
        out = O.matmul(Tensor(a), Tensor(b))
        assert np.allclose(out.data, matmul_oracle(a, b), atol=1e-12)

    def test_batched(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((2, 4, 5))
        out = O.matmul(Tensor(a), Tensor(b))
        for i in range(2):
            assert np.allclose(out.data[i], matmul_oracle(a[i], b[i]), atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            O.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


class TestConcat:
    def test_columns(self):
        out = concat([Tensor([[1.0], [2.0]]), Tensor([[3.0], [4.0]])], axis=1)
        assert np.array_equal(out.data, [[1.0, 3.0], [2.0, 4.0]])

    def test_extent_addition(self):
        a = Tensor(np.zeros((2, 3, 8, 8)))
        b = Tensor(np.zeros((2, 5, 8, 8)))
        assert concat([a, b], axis=1).shape == (2, 8, 8, 8)

    def test_empty_list(self):
        with pytest.raises(ShapeError):
            concat([], axis=0)

    def test_off_axis_mismatch(self):
        with pytest.raises(ShapeError):
            concat([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))], axis=1)

    def test_concat_then_slice_identity(self):
        rng = np.random.default_rng(12)
        for axis, shapes in [
            (0, [(2, 3), (4, 3), (1, 3)]),
            (1, [(2, 1, 5), (2, 4, 5), (2, 2, 5)]),
            (2, [(1, 2, 3), (1, 2, 2)]),
        ]:
            parts = [Tensor(rng.standard_normal(s)) for s in shapes]
            cat = concat(parts, axis=axis)
            offset = 0
            for part in parts:
                size = part.shape[axis]
                back = T.narrow(cat, axis, offset, size)
                assert np.array_equal(back.data, part.data)
                offset += size

    def test_split_gradient_round_trip(self):
        # gradient through concat-then-slice is the identity on each input
        rng = np.random.default_rng(5)
        a = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        with record():
            cat = concat([a, b], axis=1)
            loss = T.tsum(cat * cat)
            backward(loss)
        assert np.allclose(a.grad, 2 * a.data, atol=1e-12)
        assert np.allclose(b.grad, 2 * b.data, atol=1e-12)


class TestReduce:
    def test_sum_all(self):
        out = T.tsum(Tensor([[1.0, 2.0], [3.0, 4.0]]))
        assert out.item() == 10.0

    def test_mean(self):
        assert T.tmean(Tensor([2.0, 4.0])).item() == 3.0

    def test_invalid_axis(self):
        with pytest.raises(ShapeError):
            T.tsum(Tensor([1.0, 2.0]), axes=[3])


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(Tensor([0.0, 0.0]), axis=0)
        assert np.allclose(out.data, [0.5, 0.5])

    def test_shift_invariance_no_overflow(self):
        out = softmax(Tensor([1000.0, 1000.0]), axis=0)
        assert np.allclose(out.data, [0.5, 0.5])

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        out = softmax(Tensor(rng.standard_normal(5)), axis=0)
        assert abs(out.data.sum() - 1.0) <= 1e-12
        assert np.all(out.data > 0) and np.all(out.data < 1)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with record():
            leaves = backward(T.tsum(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))
        assert leaves[x] is x.grad

    def test_square(self):
        x = Tensor([3.0], requires_grad=True)
        with record():
            backward(T.tsum(x * x))
        assert np.allclose(x.grad, [6.0])

    def test_nonscalar_root(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with record():
            y = x * x
            with pytest.raises(ShapeError):
                backward(y)

    def test_detached_root(self):
        x = Tensor([1.0], requires_grad=True)
        with record():
            with pytest.raises(TapeError):
                backward(x)

    def test_tape_consumed(self):
        x = Tensor([1.0], requires_grad=True)
        with record():
            loss = T.tsum(x * x)
            backward(loss)
            with pytest.raises(TapeError):
                x * x

    def test_nested_tape_rejected(self):
        with record():
            with pytest.raises(TapeError):
                with record():
                    pass

    def test_reused_node_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        with record():
            y = x * x  # reused below
            backward(T.tsum(y + y))
        assert np.allclose(x.grad, [8.0])

    def test_bitwise_reproducible(self):
        rng = np.random.default_rng(17)
        data = rng.standard_normal((4, 4))
        grads = []
        for _ in range(2):
            x = Tensor(data.copy(), requires_grad=True)
            with record():
                y = T.tanh(x * x - x)
                backward(T.tsum(y * y))
            grads.append(x.grad.copy())
        assert np.array_equal(grads[0], grads[1])


class TestGradCheck:
    def test_linear_is_exact(self):
        x = Tensor(np.random.default_rng(0).standard_normal(5), requires_grad=True)
        res = grad_check(lambda t: T.tsum(t), [x], eps=1e-5)
        assert res.max_rel_error <= 1e-10
        assert res.kink_events == 0

    def test_sigmoid_chain(self):
        x = Tensor(
            np.random.default_rng(1).uniform(-2, 2, size=8), requires_grad=True
        )
        res = grad_check(lambda t: T.tsum(T.sigmoid(t)), [x], eps=1e-5)
        assert res.max_rel_error <= 1e-6

    def test_relu_kink_flagged(self):
        x = Tensor([0.0, 1.0], requires_grad=True)
        res = grad_check(lambda t: T.tsum(O.relu(t)), [x], eps=1e-5)
        assert res.kink_events >= 1

    def test_relu_away_from_kink(self):
        x = Tensor([-1.5, 0.7, 2.0], requires_grad=True)
        res = grad_check(lambda t: T.tsum(O.relu(t)), [x], eps=1e-5)
        assert res.kink_events == 0
        assert res.max_rel_error <= 1e-8

    def test_composite_graph(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-2, 2, (4, 2)), requires_grad=True)

        def f(a_, b_):
            h = T.tanh(O.matmul(a_, b_))
            return T.tsum(T.sigmoid(h) * h)

        res = grad_check(f, [a, b], eps=1e-5)
        assert res.max_rel_error <= 1e-6

    def test_eps_validated(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            grad_check(lambda t: T.tsum(t), [x], eps=0.5)

    def test_nondeterministic_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        state = {"n": 0.0}

        def f(t):
            state["n"] += 1.0
            return T.tsum(t * Tensor([state["n"]]))

        with pytest.raises(ValueError):
            grad_check(f, [x], eps=1e-5)

    def test_sampled_subset(self):
        x = Tensor(
            np.random.default_rng(4).uniform(-1, 1, 50), requires_grad=True
        )
        res = grad_check(lambda t: T.tsum(T.tanh(t)), [x], eps=1e-5, max_elements=10)
        assert res.elements_checked == 10
        assert res.max_rel_error <= 1e-6


class TestStructuralGradients:
    def test_ops_against_finite_differences(self):
        rng = np.random.default_rng(9)
        weights = Tensor(rng.standard_normal((4, 4)))
        cases = {
            "narrow": lambda t: T.tsum(T.narrow(t, 1, 1, 2) * 3.0),
            "reshape": lambda t: T.tsum(T.reshape(t, (8, 2)) * T.reshape(t, (8, 2))),
            "transpose": lambda t: T.tsum(O.transpose(t, (1, 0)) * 2.0),
            "pad2d": lambda t: T.tsum(
                T.pad2d(T.reshape(t, (1, 1, 4, 4)), (1, 2, 0, 1))
                * T.pad2d(T.reshape(t, (1, 1, 4, 4)), (1, 2, 0, 1))
            ),
            "roll2d": lambda t: T.tsum(
                O.roll2d(T.reshape(t, (1, 1, 4, 4)), (1, -2)) * 1.7
            ),
            "softmax": lambda t: T.tsum(softmax(t, axis=1) * weights),
            "mean": lambda t: T.tmean(t * t),
            "div": lambda t: T.tsum(t / (t * t + 2.0)),
        }
        for name, f in cases.items():
            x = Tensor(rng.uniform(-2, 2, (4, 4)), requires_grad=True)
            res = grad_check(f, [x], eps=1e-5)
            assert res.max_rel_error <= 1e-6, name


class TestTapedOpsModule:
    """The test-side ops of taped_ops keep a checked backward: these are the
    library's former gradcheck rows for them."""

    @pytest.mark.parametrize("name", ["relu", "sqrt", "matmul", "matmul_batched",
                                      "transpose", "roll2d"])
    def test_grad_check(self, name):
        rng = np.random.default_rng(10)

        def rand(shape, lo=-2.0, hi=2.0):
            return Tensor(rng.uniform(lo, hi, shape), requires_grad=True)

        a, b = rand((3, 4)), rand((3, 4))
        pos, m = rand((3, 4), 0.5, 2.0), rand((4, 5))
        bm1, bm2 = rand((2, 3, 4)), rand((2, 4, 2))
        x4 = rand((1, 2, 4, 4))
        cases = {
            "relu": ([a], lambda: T.tsum(O.relu(a) * O.relu(a))),
            "sqrt": ([pos], lambda: T.tsum(O.sqrt(pos) * b)),
            "matmul": ([a, m], lambda: T.tsum(O.matmul(a, m) * O.matmul(a, m))),
            "matmul_batched": ([bm1, bm2], lambda: T.tsum(
                O.matmul(bm1, bm2) * O.matmul(bm1, bm2))),
            "transpose": ([a, b], lambda: T.tsum(O.transpose(a, (1, 0))
                                                 * O.transpose(b, (1, 0)))),
            "roll2d": ([x4], lambda: T.tsum(O.roll2d(x4, (1, -1))
                                            * O.roll2d(x4, (1, -1)))),
        }
        leaves, f = cases[name]
        res = grad_check(lambda *_: f(), leaves, eps=1e-5)
        assert res.max_rel_error <= 1e-4, res


# the 1x1 convolution's forward and input gradient as one (B*H*W, K)
# product transposed to NCHW: oracles that pin their bits, so that another
# product form (one NCHW product per image, say) must match them exactly
def pointwise_forward_oracle(xd, wd):
    y = np.tensordot(xd, wd.reshape(wd.shape[0], -1), axes=([1], [1]))
    return np.ascontiguousarray(y.transpose(0, 3, 1, 2))


def pointwise_input_grad_oracle(g, wd):
    w2 = wd.reshape(wd.shape[0], -1)
    return np.ascontiguousarray(
        np.tensordot(g, w2, axes=([1], [0])).transpose(0, 3, 1, 2))


class TestPointwiseProduct:
    def check(self, b, cin, cout, h, w, seed):
        rng = np.random.default_rng(seed)
        xd = rng.standard_normal((b, cin, h, w))
        wd = rng.standard_normal((cout, cin, 1, 1))
        g = rng.standard_normal((b, cout, h, w))
        y = T._conv(xd, wd, 0, False)
        gx, gw = T._conv_grads(g, xd, wd, 0, False, True, True)
        assert np.array_equal(y, pointwise_forward_oracle(xd, wd))
        assert np.array_equal(gx, pointwise_input_grad_oracle(g, wd))
        assert y.flags.c_contiguous and gx.flags.c_contiguous
        assert np.array_equal(gw, np.tensordot(
            g, xd, axes=([0, 2, 3], [0, 2, 3])).reshape(wd.shape))

    @settings(deadline=None, max_examples=200)
    @given(b=st.integers(1, 3), cin=st.integers(1, 5), cout=st.integers(1, 5),
           h=st.integers(1, 9), w=st.integers(1, 9), seed=st.integers(0, 2**16))
    def test_bitwise_equal_to_oracle(self, b, cin, cout, h, w, seed):
        self.check(b, cin, cout, h, w, seed)

    @pytest.mark.parametrize("b,cin,cout,h,w", [
        (1, 8, 32, 64, 64),  # separable conv pointwise at 64x64
        (8, 8, 32, 32, 32),
        (8, 32, 8, 32, 32),  # Swin MLP output layer
        (1, 1, 8, 64, 64),  # stem: one input channel
        (8, 8, 1, 32, 32),  # binary head: one output channel
        (2, 32, 16, 4, 4),  # the gradcheck --scope model shape
        (2, 15, 16, 4, 4),
        (8, 256, 64, 4, 4),
        (1, 64, 256, 8, 8),
        (3, 12, 5, 1, 1),
    ])
    def test_model_shapes(self, b, cin, cout, h, w):
        self.check(b, cin, cout, h, w, seed=b * cin + cout)

    def test_conv2d_backward_uses_the_oracle_bits(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((2, 3, 5, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 1, 1)), requires_grad=True)
        g = rng.standard_normal((2, 4, 5, 4))
        with record():
            y = T.conv2d(x, w)
            backward(T.tsum(y * Tensor(g)))
        assert np.array_equal(y.data, pointwise_forward_oracle(x.data, w.data))
        assert np.array_equal(x.grad, pointwise_input_grad_oracle(g, w.data))


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(21)
        t = Tensor(rng.standard_normal((2, 3, 4)))
        buf = T.tensor_to_bytes(t)
        assert buf[:4] == b"TBCL"
        back, end = T.tensor_from_bytes(buf)
        assert end == len(buf)
        assert back.shape == t.shape
        assert np.array_equal(back.data, t.data)

    def test_file_round_trip(self, tmp_path):
        t = Tensor(np.arange(12.0).reshape(3, 4))
        path = tmp_path / "t.bin"
        path.write_bytes(T.tensor_to_bytes(t))
        buf = path.read_bytes()
        back, end = T.tensor_from_bytes(buf)
        assert end == len(buf)
        assert np.array_equal(back.data, t.data)

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            T.tensor_from_bytes(b"XXXX" + b"\x00" * 32)

    def test_truncated(self):
        buf = T.tensor_to_bytes(Tensor(np.ones((4, 4))))
        with pytest.raises(FormatError):
            T.tensor_from_bytes(buf[:-8])


# TBCL records of rank 0-4 with finite values, empty arrays included
records = arrays(np.float64, array_shapes(min_dims=0, max_dims=4, min_side=0,
                                          max_side=4),
                 elements=st.floats(allow_nan=False, allow_infinity=False))
# header fields: (name, byte offset, struct format)
HEADER = [("magic", 0, "<4s"), ("version", 4, "<I"), ("rank", 8, "<I")]


class TestSerializationProperties:
    @settings(deadline=None)
    @given(arr=records, prefix=st.binary(max_size=9))
    def test_round_trip_bitwise(self, arr, prefix):
        buf = prefix + T.tensor_to_bytes(arr)
        back, end = T.tensor_from_bytes(buf, len(prefix))
        assert end == len(buf)
        assert back.shape == arr.shape
        assert back.data.tobytes() == arr.tobytes()  # -0.0 and subnormals too

    @settings(deadline=None)
    @given(arr=records, data=st.data())
    def test_cut_record_raises(self, arr, data):
        buf = T.tensor_to_bytes(arr)
        cut = data.draw(st.integers(0, len(buf) - 1))
        with pytest.raises(FormatError):
            T.tensor_from_bytes(buf[:cut])

    @settings(deadline=None)
    @given(arr=records, extra=st.binary(min_size=1, max_size=24))
    def test_extended_record(self, arr, extra):
        # a record reader leaves what follows a record to the next one; a
        # checkpoint whose tensors.bin runs past its last record is rejected
        buf = T.tensor_to_bytes(arr)
        back, end = T.tensor_from_bytes(buf + extra)
        assert end == len(buf)
        assert back.data.tobytes() == arr.tobytes()
        with tempfile.TemporaryDirectory() as tmp:
            ckpt = Path(tmp)
            shape = "x".join(str(s) for s in arr.shape)
            (ckpt / "manifest.txt").write_text(f"t {shape} 0\n")
            (ckpt / "tensors.bin").write_bytes(buf + extra)
            with pytest.raises(FormatError):
                M.load_checkpoint_tensors(ckpt)

    @settings(deadline=None)
    @given(arr=records, data=st.data())
    def test_mutated_header_field(self, arr, data):
        buf = bytearray(T.tensor_to_bytes(arr))
        fields = HEADER + [(f"extent{j}", 12 + 8 * j, "<Q")
                           for j in range(arr.ndim)]
        name, at, fmt = data.draw(st.sampled_from(fields))
        (old,) = struct.unpack_from(fmt, buf, at)
        if name == "magic":
            new = data.draw(st.binary(min_size=4, max_size=4).filter(
                lambda b: b != old))
        else:
            bits = 32 if fmt == "<I" else 64
            new = data.draw(st.integers(0, 2**bits - 1).filter(
                lambda v: v != old))
        struct.pack_into(fmt, buf, at, new)
        try:
            back, _ = T.tensor_from_bytes(bytes(buf))
        except FormatError:
            return
        # a new rank or extent can describe a consistent record of another
        # shape; the format cannot tell, the checkpoint manifest's shape can
        assert name == "rank" or name.startswith("extent")
        assert back.shape != arr.shape

    @settings(deadline=None)
    @given(arr=records.filter(lambda a: a.size > 0), data=st.data())
    def test_non_finite_value_raises(self, arr, data):
        buf = T.tensor_to_bytes(arr)
        head = len(buf) - 8 * arr.size
        at = head + 8 * data.draw(st.integers(0, arr.size - 1))
        value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        bad = buf[:at] + struct.pack("<d", value) + buf[at + 8 :]
        with pytest.raises(FormatError):
            T.tensor_from_bytes(bad)

    @pytest.mark.parametrize("extents", [(2**32, 2**32), (0, 2**63)])
    def test_extents_no_array_can_have(self, extents):
        # 2**32 * 2**32 is 0 in int64, so the record once passed as empty;
        # an empty array's other extents are still bounded
        buf = b"TBCL" + struct.pack("<II2Q", 1, 2, *extents)
        with pytest.raises(FormatError):
            T.tensor_from_bytes(buf)
