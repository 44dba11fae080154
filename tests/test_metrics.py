import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridseg import metrics as M
from hybridseg.tensor import ShapeError

# ---------------------------------------------------------------------------
# oracles


def confusion_oracle(s, g):
    tp = tn = fp = fn = 0
    for i in range(s.shape[0]):
        for j in range(s.shape[1]):
            if s[i, j] and g[i, j]:
                tp += 1
            elif s[i, j] and not g[i, j]:
                fp += 1
            elif not s[i, j] and g[i, j]:
                fn += 1
            else:
                tn += 1
    return tp, tn, fp, fn


def hausdorff_oracle(a, b):
    pa = [(i, j) for i in range(a.shape[0]) for j in range(a.shape[1]) if a[i, j]]
    pb = [(i, j) for i in range(b.shape[0]) for j in range(b.shape[1]) if b[i, j]]

    def directed(src, dst):
        return max(
            min(math.dist(p, q) for q in dst) for p in src
        )

    return max(directed(pa, pb), directed(pb, pa))


def t_two_tailed_quadrature(t, df):
    """Two-tailed t tail probability by Simpson integration of the density,
    mapped through x = sqrt(df) * tan(theta) so the domain is finite."""
    c = math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0))
    c /= math.sqrt(df * math.pi)
    theta0 = math.atan(abs(t) / math.sqrt(df))
    n = 200001
    thetas = np.linspace(theta0, math.pi / 2.0, n)
    f = c * math.sqrt(df) * np.cos(thetas) ** (df - 1)
    h = (math.pi / 2.0 - theta0) / (n - 1)
    integral = h / 3.0 * (f[0] + f[-1] + 4 * f[1:-1:2].sum() + 2 * f[2:-2:2].sum())
    return 2.0 * integral


def nonempty_mask(rng, h, w):
    while True:
        m = rng.random((h, w)) < 0.4
        if m.any():
            return m


class TestConfusion:
    def test_equal_masks(self):
        g = np.eye(4, dtype=bool)
        c = M.confusion(g, g)
        assert c.fp == 0 and c.fn == 0 and c.tp == 4 and c.tn == 12

    def test_complement(self):
        g = np.eye(4, dtype=bool)
        c = M.confusion(~g, g)
        assert c.tp == 0 and c.tn == 0 and c.fp == 12 and c.fn == 4

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            s = rng.random((8, 8)) < 0.5
            g = rng.random((8, 8)) < 0.5
            c = M.confusion(s, g)
            assert (c.tp, c.tn, c.fp, c.fn) == confusion_oracle(s, g)
            assert c.total == 64

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            M.confusion(np.zeros((2, 2)), np.zeros((3, 3)))


class TestSegMetrics:
    def test_fixture_counts(self):
        m = M.seg_metrics(M.ConfusionCounts(tp=50, tn=40, fp=5, fn=5))
        assert abs(m["J"] - 83.33) <= 0.01
        assert abs(m["D"] - 90.91) <= 0.01
        assert abs(m["Acc"] - 90.00) <= 0.01
        assert abs(m["Sn"] - 90.91) <= 0.01
        assert abs(m["Sp"] - 88.89) <= 0.01

    def test_degenerate_absent_not_zero(self):
        m = M.seg_metrics(M.ConfusionCounts(tp=0, tn=10, fp=0, fn=0))
        assert m["J"] is None and m["D"] is None and m["Sn"] is None
        assert m["Sp"] == 100.0 and m["Acc"] == 100.0

    def test_dice_jaccard_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            c = M.ConfusionCounts(*(int(v) for v in rng.integers(0, 100, 4)))
            m = M.seg_metrics(c)
            if m["J"] is None or m["D"] is None:
                continue
            j, d = m["J"] / 100.0, m["D"] / 100.0
            assert abs(d - 2 * j / (1 + j)) <= 1e-9
            assert m["D"] >= m["J"]


class TestHausdorff:
    def test_identical(self):
        m = np.zeros((5, 5), dtype=bool)
        m[1:3, 1:4] = True
        assert M.hausdorff(m, m) == 0.0

    def test_three_four_five(self):
        a = np.zeros((6, 6), dtype=bool)
        b = np.zeros((6, 6), dtype=bool)
        a[0, 0] = True
        b[3, 4] = True
        assert M.hausdorff(a, b) == 5.0

    def test_against_all_pairs_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = nonempty_mask(rng, 12, 12)
            b = nonempty_mask(rng, 12, 12)
            assert M.hausdorff(a, b) == pytest.approx(
                hausdorff_oracle(a, b), abs=0.0
            )

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a, b, c = (nonempty_mask(rng, 8, 8) for _ in range(3))
            assert M.hausdorff(a, b) == M.hausdorff(b, a)
            assert M.hausdorff(a, c) <= M.hausdorff(a, b) + M.hausdorff(b, c) + 1e-12

    def test_empty_mask(self):
        with pytest.raises(ValueError):
            M.hausdorff(np.zeros((3, 3)), np.ones((3, 3)))


class TestPairedTTest:
    def test_fixture(self):
        r = M.paired_t_test([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
        assert abs(r.t - 3.4641) <= 1e-4
        assert r.df == 2
        assert abs(r.p - 0.0742) <= 1e-3

    def test_fixture_against_quadrature(self):
        r = M.paired_t_test([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
        assert abs(r.p - t_two_tailed_quadrature(r.t, r.df)) <= 1e-9

    def test_t_tail_against_quadrature_sweep(self):
        for df in (1, 2, 3, 5, 10, 30):
            for t in (0.3, 1.0, 2.0, 3.4641, 6.0):
                mine = M.t_two_tailed_p(t, df)
                ref = t_two_tailed_quadrature(t, df)
                assert abs(mine - ref) <= 1e-9, (t, df)

    def test_antisymmetry(self):
        rng = np.random.default_rng(4)
        a = rng.random(10)
        b = rng.random(10)
        r1 = M.paired_t_test(a, b)
        r2 = M.paired_t_test(b, a)
        assert abs(r1.t + r2.t) <= 1e-12
        assert abs(r1.p - r2.p) <= 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.random(8)
        b = rng.random(8)
        r1 = M.paired_t_test(a, b)
        r2 = M.paired_t_test(a + 3.7, b + 3.7)
        assert abs(r1.t - r2.t) <= 1e-9
        assert abs(r1.p - r2.p) <= 1e-9

    def test_zero_variance(self):
        with pytest.raises(ValueError):
            M.paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            M.paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_significance_straddle(self):
        # scale a fixed difference pattern until the oracle p crosses 0.05
        # from both sides; classification must match the oracle's on each
        rng = np.random.default_rng(6)
        base = rng.random(10)
        noise = rng.standard_normal(10)
        noise -= noise.mean()  # shift moves t; noise fixes the spread
        found_sig = found_insig = False
        for shift in np.linspace(0.1, 1.5, 41):
            a = base + noise + shift
            r = M.paired_t_test(a, base)
            ref_p = t_two_tailed_quadrature(r.t, r.df)
            assert (r.p < 0.05) == (ref_p < 0.05)
            assert r.significant == (r.p < 0.05)
            found_sig |= ref_p < 0.05
            found_insig |= ref_p >= 0.05
        assert found_sig and found_insig


class TestBetaInc:
    def test_boundaries(self):
        assert M.betainc_reg(2.0, 3.0, 0.0) == 0.0
        assert M.betainc_reg(2.0, 3.0, 1.0) == 1.0

    def test_closed_form_a1(self):
        # I_x(1, b) = 1 - (1-x)^b
        for b in (0.5, 1.0, 2.5):
            for x in (0.1, 0.5, 0.9):
                assert abs(
                    M.betainc_reg(1.0, b, x) - (1.0 - (1.0 - x) ** b)
                ) <= 1e-12

    def test_symmetry(self):
        for a, b, x in [(2.0, 5.0, 0.3), (0.5, 0.5, 0.7), (4.0, 1.5, 0.25)]:
            assert abs(
                M.betainc_reg(a, b, x) + M.betainc_reg(b, a, 1.0 - x) - 1.0
            ) <= 1e-12


class TestMulticlassReport:
    def _perfect_case(self):
        labels = np.zeros((8, 8), dtype=int)
        labels[2:5, 2:5] = 1
        labels[6:8, 0:2] = 2
        probs = np.stack([(labels == k).astype(float) for k in range(3)])
        return probs, labels

    def test_perfect_prediction(self):
        probs, labels = self._perfect_case()
        rep = M.multiclass_report([probs], [labels], num_classes=3)
        row = rep.rows[0]
        for k in range(3):
            assert row[f"D_class_{k}"] == 100.0
            assert row[f"HD_class_{k}"] == 0.0
        assert row["J"] == 100.0 and row["D"] == 100.0
        assert row["D_mean"] == 100.0 and row["HD_mean"] == 0.0

    def test_absent_class_excluded(self):
        labels = np.zeros((4, 4), dtype=int)
        labels[1:3, 1:3] = 1
        probs = np.stack([(labels == k).astype(float) for k in range(3)])
        rep = M.multiclass_report([probs], [labels], num_classes=3)
        assert rep.rows[0]["D_class_2"] is None
        assert rep.aggregate()["D_class_2"] is None

    def test_against_binary_oracle(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 3, (8, 8))
        logits = rng.random((3, 8, 8))
        probs = logits / logits.sum(axis=0, keepdims=True)
        rep = M.multiclass_report([probs], [labels], num_classes=3)
        decided = probs.argmax(axis=0)
        overall = M.seg_metrics(M.confusion(decided > 0, labels > 0))
        assert rep.rows[0]["J"] == overall["J"]
        assert rep.rows[0]["Sp"] == overall["Sp"]
        for k in range(3):
            s, g = decided == k, labels == k
            if not s.any() and not g.any():
                assert rep.rows[0][f"D_class_{k}"] is None
                continue
            assert rep.rows[0][f"D_class_{k}"] == M.seg_metrics(
                M.confusion(s, g)
            )["D"]
            if s.any() and g.any():
                assert rep.rows[0][f"HD_class_{k}"] == hausdorff_oracle(s, g)


def _label_map(kind, rng, shape, num_classes):
    """An all-background, all-foreground (the last class) or random (H, W)
    label map."""
    if kind == "empty":
        return np.zeros(shape, dtype=int)
    if kind == "full":
        return np.full(shape, num_classes - 1)
    return rng.integers(0, num_classes, shape)


def _assert_cells_in_range(report):
    for row in report.rows + [
        {c: None if v is None else v[0] for c, v in report.aggregate().items()}
    ]:
        for c in report.columns:
            v = row[c]
            if v is None:
                continue
            assert math.isfinite(v), (c, v)
            assert v >= 0.0 if c.startswith("HD") else 0.0 <= v <= 100.0, (c, v)


masks = st.lists(st.tuples(st.sampled_from(["empty", "full", "random"]),
                           st.sampled_from(["empty", "full", "random"])),
                 min_size=1, max_size=3)


class TestReportsTotal:
    """Any masks, empty and full ones included, give a report: every cell
    is blank or a percentage in [0, 100], and a Hausdorff cell is >= 0."""

    @settings(deadline=None, max_examples=60)
    @given(kinds=masks, height=st.integers(1, 7), width=st.integers(1, 7),
           seed=st.integers(0, 2**16))
    def test_binary_report(self, kinds, height, width, seed):
        rng = np.random.default_rng(seed)
        preds = [_label_map(k, rng, (height, width), 2) > 0 for k, _ in kinds]
        truths = [_label_map(k, rng, (height, width), 2) > 0 for _, k in kinds]
        _assert_cells_in_range(M.binary_report(preds, truths))

    @settings(deadline=None, max_examples=60)
    @given(kinds=masks, height=st.integers(1, 7), width=st.integers(1, 7),
           num_classes=st.integers(1, 4), seed=st.integers(0, 2**16))
    def test_multiclass_report(self, kinds, height, width, num_classes, seed):
        rng = np.random.default_rng(seed)
        shape = (height, width)
        probs, labels = [], []
        for pred_kind, truth_kind in kinds:
            decided = _label_map(pred_kind, rng, shape, num_classes)
            # noise below the one-hot margin keeps decided as the argmax
            probs.append(0.5 * (decided == np.arange(num_classes)[:, None, None])
                         + rng.uniform(0.0, 0.4, (num_classes,) + shape))
            labels.append(_label_map(truth_kind, rng, shape, num_classes))
        _assert_cells_in_range(M.multiclass_report(probs, labels, num_classes))


class TestReportCsv:
    def test_emission(self, tmp_path):
        rep = M.binary_report(
            [np.eye(4, dtype=bool), np.zeros((4, 4), dtype=bool)],
            [np.eye(4, dtype=bool), np.zeros((4, 4), dtype=bool)],
            names=["a", "b"],
        )
        path = tmp_path / "report.csv"
        rep.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "image,J,D,Acc,Sn,Sp"
        assert lines[1].startswith("a,100.0000,100.0000")
        assert lines[2].split(",")[1] == ""  # absent J for empty/empty
        assert lines[3].startswith("mean±std,")

    def test_t_test_csv(self, tmp_path):
        r = M.paired_t_test([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
        path = tmp_path / "t.csv"
        M.write_t_test_csv(path, [("ours", "baseline", r)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "method_a,method_b,t,df,p"
        assert lines[1] == "ours,baseline,3.4641,2,0.0742"
