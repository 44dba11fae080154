"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The toy-convergence
criterion trains a real model and dominates the runtime.
"""

import math
import time

import numpy as np
import pytest

from hybridseg import blocks as B
from hybridseg import cli
from hybridseg import data as D
from hybridseg import losses as L
from hybridseg import metrics as ME
from hybridseg import model as M
from hybridseg import pgm
from hybridseg import tensor as T
from hybridseg import train as TR
from hybridseg.tensor import Tensor

import loss_oracles as LO
from test_blocks import conv_lstm_step_oracle, conv2d_oracle, window_attention_oracle
from test_losses import level_set_oracle
from test_metrics import hausdorff_oracle, t_two_tailed_quadrature


def _report(criterion, detail):
    print(f"[criterion {criterion}] PASS — {detail}")


class TestCriterion1GradientIntegrity:
    def test_gradcheck_all_scopes(self):
        t0 = time.monotonic()
        results = cli.gradcheck_ops() + cli.gradcheck_blocks() + cli.gradcheck_model()
        elapsed = time.monotonic() - t0
        worst = 0.0
        for name, res in results:
            assert res.max_rel_error <= 1e-4, (name, res)
            worst = max(worst, res.max_rel_error)
        assert elapsed < 300.0, f"gradcheck took {elapsed:.0f}s"
        _report(1, f"{len(results)} checks, worst rel err {worst:.2e}, "
                   f"{elapsed:.0f}s")


class TestCriterion2TranscriptionOracles:
    def test_conv_oracle_100(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            h = int(rng.integers(3, 13))
            w = int(rng.integers(3, 13))
            cin = int(rng.integers(1, 4))
            x = rng.standard_normal((1, cin, h, w))
            if rng.random() < 0.5:
                wk = rng.standard_normal((cin, 1, 3, 3))
                out = T.conv2d(Tensor(x), Tensor(wk), padding=1, groups=cin)
                ref = conv2d_oracle(x, wk, 1, cin)
            else:
                cout = int(rng.integers(1, 4))
                wk = rng.standard_normal((cout, cin, 3, 3))
                out = T.conv2d(Tensor(x), Tensor(wk), padding=1)
                ref = conv2d_oracle(x, wk, 1, 1)
            assert np.abs(out.data - ref).max() <= 1e-10
        _report(2, "conv2d matches the nested-loop oracle on 100 instances")

    def test_conv_lstm_oracle_100(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            ch = int(rng.integers(1, 3))
            hw = int(rng.integers(2, 5))
            p = B.init_conv_lstm(rng, ch, ch)
            x = rng.uniform(-1, 1, (1, ch, hw, hw))
            h0 = rng.uniform(-1, 1, (1, ch, hw, hw))
            c0 = rng.uniform(-1, 1, (1, ch, hw, hw))
            st = B.conv_lstm_step(
                Tensor(x), B.ConvLSTMState(Tensor(h0), Tensor(c0)), p
            )
            h_ref, c_ref = conv_lstm_step_oracle(x, h0, c0, p)
            assert np.abs(st.hidden.data - h_ref).max() <= 1e-10
            assert np.abs(st.cell.data - c_ref).max() <= 1e-10
        _report(2, "ConvLSTM step matches the gate transcription on 100 instances")

    def test_window_attention_oracle_100(self):
        rng = np.random.default_rng(102)
        for i in range(100):
            heads = int(rng.integers(1, 3))
            d = heads * int(rng.integers(1, 3))
            hw = 2 * int(rng.integers(1, 4))
            p = B.init_swin_pair(rng, d, 2, heads)
            x = rng.uniform(-1, 1, (1, d, hw, hw))
            shifted = i % 2 == 1
            out = B.window_attention(Tensor(x), p, shifted=shifted)
            ref = window_attention_oracle(x, p, shifted)
            assert np.abs(out.data - ref).max() <= 1e-10
        _report(2, "window attention matches the dense oracle on 100 instances")

    def test_level_set_oracle_100(self):
        rng = np.random.default_rng(103)
        done = 0
        while done < 100:
            h = int(rng.integers(3, 13))
            w = int(rng.integers(3, 13))
            g = (rng.random((h, w)) < rng.uniform(0.2, 0.8)).astype(float)
            if g.sum() in (0, g.size):
                continue
            assert np.array_equal(L.level_set(g).values, level_set_oracle(g))
            done += 1
        _report(2, "level set equals the all-pairs oracle exactly, 100 masks")

    def test_hausdorff_oracle_100(self):
        rng = np.random.default_rng(104)
        done = 0
        while done < 100:
            h = int(rng.integers(2, 13))
            w = int(rng.integers(2, 13))
            a = rng.random((h, w)) < 0.4
            b = rng.random((h, w)) < 0.4
            if not a.any() or not b.any():
                continue
            assert ME.hausdorff(a, b) == hausdorff_oracle(a, b)
            done += 1
        _report(2, "Hausdorff equals the all-pairs oracle exactly, 100 pairs")


class TestCriterion3LossIdentities:
    def test_identities(self):
        xi = 1e-6
        g = np.zeros((8, 8))
        g[2:6, 3:7] = 1.0  # fills its bounding box
        dice = LO.dice_loss(Tensor(g), Tensor(g), xi=xi).item()
        jac = LO.jaccard_loss(Tensor(g), Tensor(g), xi=xi).item()
        assert abs(dice - xi) <= 1e-15
        assert abs(jac - xi) <= 1e-12

        rng = np.random.default_rng(105)
        mask = np.zeros((8, 8))
        mask[1:5, 2:6] = 1.0
        lsm = L.level_set(mask)
        s = rng.random((8, 8))
        base = LO.boundary_loss(Tensor(s), lsm).item()
        for alpha in (0.0, 0.3, 0.55, 1.0):
            scaled = LO.boundary_loss(Tensor(alpha * s), lsm).item()
            assert abs(scaled - alpha * base) <= 1e-12

        sched = L.LossSchedule()
        assert sched.lambda_b(0) == 1.00
        assert sched.lambda_b(30) == 0.70
        for epoch in (99, 120, 500):
            assert sched.lambda_b(epoch) == 0.01
        _report(3, "dice/jaccard minima at xi, boundary linear, schedule exact")


class TestCriterion4ComplexityFormulas:
    def test_hand_values_and_scaling(self):
        assert B.complexity_msa(8, 8, 4) == 36864
        assert B.complexity_swmsa(8, 8, 4, 2) == 6144
        ratios = []
        hw = 64
        while hw <= 4096:
            h = int(math.isqrt(hw))
            ratios.append(
                B.complexity_swmsa(h, hw // h, 4, 2) / B.complexity_msa(h, hw // h, 4)
            )
            hw *= 2
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 0.01
        _report(4, f"hand values exact; ratio falls to {ratios[-1]:.4f} at hw=4096")


class TestCriterion5ToyConvergence:
    def test_toy_ellipse_task(self):
        spec = D.SynthSpec(image_size=32, count=200, noise_level=0.03)
        model_cfg = M.ModelConfig(
            input_height=32, input_width=32, input_channels=1,
            base_channels=8, num_classes=1, window_size=4, num_heads=4,
        )
        # the task crosses J=0.85 at epoch 3 under this seed; 6 epochs keeps
        # the run inside the wall-clock budget with margin (<= 60 allowed)
        train_cfg = TR.TrainConfig(max_epochs=6, seed=42, batch_size=8)
        t0 = time.monotonic()
        dataset = D.synth_dataset(spec, seed=42)
        result = TR.train(model_cfg, train_cfg, dataset)
        elapsed = time.monotonic() - t0

        assert not result.aborted
        assert result.best_val_j >= 0.85, result.best_val_j
        assert result.epochs_run <= 60
        assert elapsed <= 600.0, f"took {elapsed:.0f}s"

        sched = train_cfg.schedule
        lr = train_cfg.initial_lr
        history = []
        for row in result.log_rows:
            assert row["lambda_b"] == sched.lambda_b(row["epoch"])
            assert row["lr"] == lr
            history.append(row["val_J"])
            lr = TR.lr_schedule(history, lr, train_cfg)
        _report(5, f"val J {result.best_val_j:.3f} at epoch {result.best_epoch}, "
                   f"{result.epochs_run} epochs in {elapsed:.0f}s; "
                   f"schedules verified")
        TestCriterion5ToyConvergence.result = result


class TestCriterion6MetricsArithmetic:
    def test_fixture_and_identity(self):
        m = ME.seg_metrics(ME.ConfusionCounts(tp=50, tn=40, fp=5, fn=5))
        assert abs(m["J"] - 83.33) <= 0.01
        assert abs(m["D"] - 90.91) <= 0.01
        assert abs(m["Acc"] - 90.00) <= 0.01
        assert abs(m["Sn"] - 90.91) <= 0.01
        assert abs(m["Sp"] - 88.89) <= 0.01

        rng = np.random.default_rng(106)
        checked = 0
        while checked < 1000:
            c = ME.ConfusionCounts(*(int(v) for v in rng.integers(0, 200, 4)))
            vals = ME.seg_metrics(c)
            if vals["J"] is None:
                continue
            j, d = vals["J"] / 100.0, vals["D"] / 100.0
            assert abs(d - 2 * j / (1 + j)) <= 1e-9
            checked += 1
        _report(6, "fixture rates exact to 0.01; D=2J/(1+J) on 1000 counts")


class TestCriterion7Statistics:
    def test_t_test_fixture_and_straddle(self):
        r = ME.paired_t_test([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
        assert abs(r.t - 3.4641) <= 1e-4
        assert r.df == 2
        assert abs(r.p - 0.0742) <= 1e-3
        assert abs(r.p - t_two_tailed_quadrature(r.t, r.df)) <= 1e-3

        rng = np.random.default_rng(107)
        base = rng.random(10)
        noise = rng.standard_normal(10)
        noise -= noise.mean()
        sig = insig = 0
        for shift in np.linspace(0.1, 1.5, 29):
            res = ME.paired_t_test(base + noise + shift, base)
            ref = t_two_tailed_quadrature(res.t, res.df)
            assert (res.p < 0.05) == (ref < 0.05)
            sig += res.p < 0.05
            insig += res.p >= 0.05
        assert sig and insig  # cases straddle the threshold
        _report(7, f"t fixture exact; {sig} significant / {insig} not, "
                   f"all matching the quadrature oracle")


class TestCriterion8AblationShape:
    @pytest.mark.parametrize("mode,expected", [
        ("loss_combo", [name for name, _ in TR.LOSS_COMBOS]),
        ("placement", [name for name, _, _ in TR.PLACEMENT_ROWS]),
    ])
    def test_row_sets_and_determinism(self, mode, expected, tmp_path):
        outs = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.csv"
            assert cli.run(["ablate", "--mode", mode, "--seed", "11",
                            "--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        lines = outs[0].decode().strip().splitlines()
        assert lines[0] == "variant,J,D,Acc,Sn,Sp"
        labels = [line.split(",")[0] for line in lines[1:]]
        assert labels == expected
        _report(8, f"{mode}: {len(labels)} rows, byte-identical reruns")


class TestCriterion9ReproducibilityAndFormats:
    def test_checkpoint_round_trip_bitwise(self, tmp_path):
        cfg = M.ModelConfig(
            input_height=16, input_width=16, input_channels=1,
            base_channels=2, num_classes=1, window_size=2, num_heads=2,
            mlp_ratio=1.0,
        )
        params = M.build(cfg, seed=21)
        rng = np.random.default_rng(21)
        x = rng.uniform(0, 1, (1, 1, 16, 16))
        before = M.forward(params, Tensor(x.copy())).data
        M.save_checkpoint(params, tmp_path / "c1")
        loaded = M.load_checkpoint(tmp_path / "c1")
        after = M.forward(loaded, Tensor(x.copy())).data
        assert np.array_equal(before, after)
        M.save_checkpoint(loaded, tmp_path / "c2")
        assert (tmp_path / "c1/tensors.bin").read_bytes() == (
            tmp_path / "c2/tensors.bin"
        ).read_bytes()
        _report(9, "checkpoint round trip is bitwise identical")

    def test_pgm_ppm_round_trips(self, tmp_path):
        rng = np.random.default_rng(22)
        gray = rng.integers(0, 256, (1, 9, 7), dtype=np.uint8)
        rgb = rng.integers(0, 256, (3, 5, 11), dtype=np.uint8)
        for i, raw in enumerate((gray, rgb)):
            rec = pgm.ImageRecord(pixels=raw.astype(float) / 255.0)
            path = tmp_path / f"img{i}.pnm"
            pgm.write_image(rec, path)
            assert np.array_equal(pgm.read_image(path).pixels, rec.pixels)
        _report(9, "PGM and PPM round trips are lossless")

    def test_seeded_training_logs_identical(self, tmp_path):
        dataset = D.synth_dataset(
            D.SynthSpec(image_size=16, count=10, noise_level=0.03), seed=23
        )
        cfg = M.ModelConfig(
            input_height=16, input_width=16, input_channels=1,
            base_channels=2, num_classes=1, window_size=2, num_heads=2,
            mlp_ratio=1.0,
        )
        tcfg = TR.TrainConfig(max_epochs=2, batch_size=8, val_fraction=0.25,
                              seed=23)
        logs = [TR.train(cfg, tcfg, dataset).log_csv() for _ in range(2)]
        assert logs[0] == logs[1]
        _report(9, "identically seeded training runs emit identical logs")
