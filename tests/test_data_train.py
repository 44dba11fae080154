import warnings

import numpy as np
import pytest

from hybridseg import data as D
from hybridseg import losses as L
from hybridseg import model as M
from hybridseg import train as TR
from hybridseg.tensor import NonFiniteError, ShapeError, Tensor, grad_check

import loss_oracles as LO


def adam_oracle(x0, grad_fn, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference transcription of the bias-corrected update recurrence."""
    x, m, v = x0, 0.0, 0.0
    for t in range(1, steps + 1):
        g = grad_fn(x)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        x = x - lr * mhat / (np.sqrt(vhat) + eps)
    return x


def tiny_model_cfg(**kw):
    base = dict(
        input_height=16, input_width=16, input_channels=1, base_channels=2,
        num_classes=1, window_size=2, num_heads=2, mlp_ratio=1.0,
    )
    base.update(kw)
    return M.ModelConfig(**base)


class TestSynthDataset:
    def test_deterministic(self):
        spec = D.SynthSpec(image_size=16, count=5)
        a = D.synth_dataset(spec, seed=3)
        b = D.synth_dataset(spec, seed=3)
        for (ia, ma), (ib, mb) in zip(a, b):
            assert np.array_equal(ia, ib) and np.array_equal(ma, mb)

    def test_ellipse_masks_are_filled_and_bounded(self):
        spec = D.SynthSpec(image_size=16, count=10)
        for img, mask in D.synth_dataset(spec, seed=4):
            assert mask.any() and not mask.all()
            # a filled convex shape has one contiguous run per row
            for row in mask:
                on = np.flatnonzero(row)
                if on.size:
                    assert on[-1] - on[0] + 1 == on.size

    def test_noiseless_image_is_two_level_render(self):
        spec = D.SynthSpec(image_size=16, count=5, noise_level=0.0)
        for img, mask in D.synth_dataset(spec, seed=5):
            levels = np.unique(img)
            assert levels.size == 2
            assert np.array_equal(img[0] == levels[1], mask == 1)

    def test_multiclass_labels(self):
        spec = D.SynthSpec(image_size=16, count=8, num_classes=3)
        for _, mask in D.synth_dataset(spec, seed=6):
            assert mask.max() < 3
            assert set(np.unique(mask)) >= {0, 1, 2}

    def test_families(self):
        for family in D.FAMILIES:
            spec = D.SynthSpec(image_size=16, count=3, family=family)
            for _, mask in D.synth_dataset(spec, seed=7):
                assert mask.any()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            D.SynthSpec(family="squares")
        with pytest.raises(ValueError):
            D.SynthSpec(image_size=12)


class TestAugment:
    def _sample(self):
        spec = D.SynthSpec(image_size=16, count=1)
        return D.synth_dataset(spec, seed=8)[0]

    def test_factor_five(self):
        img, mask = self._sample()
        out = D.augment(img, mask)
        assert len(out) == 5

    def test_flip_involution(self):
        img, mask = self._sample()
        hflip_img, hflip_mask = D.augment(img, mask)[3]
        img2, mask2 = D.augment(hflip_img, hflip_mask)[3]
        assert np.array_equal(img2, img) and np.array_equal(mask2, mask)

    def test_constant_image_contrast_invariant(self):
        img = np.full((1, 8, 8), 0.4)
        mask = np.zeros((8, 8), dtype=np.int64)
        mask[2:4, 2:4] = 1
        for aug_img, _ in D.augment(img, mask)[1:3]:
            assert np.allclose(aug_img, img)

    def test_masks_follow_flips_only(self):
        img, mask = self._sample()
        out = D.augment(img, mask)
        fg = mask.sum()
        for _, m in out:
            assert m.sum() == fg  # flip-invariant foreground count
        assert np.array_equal(out[1][1], mask)  # contrast leaves masks alone
        assert np.array_equal(out[3][1], mask[..., ::-1])
        assert np.array_equal(out[4][1], mask[::-1, :])


class TestAdam:
    def test_zero_gradients_no_move(self):
        p = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
        state = TR.AdamState.for_params(p)
        before = p["w"].data.copy()
        TR.adam_step(p, {"w": np.zeros(2)}, state, lr=0.1)
        assert np.array_equal(p["w"].data, before)

    def test_first_step_is_signed_lr(self):
        p = {"w": Tensor(np.array([1.0, 1.0]), requires_grad=True)}
        state = TR.AdamState.for_params(p)
        TR.adam_step(p, {"w": np.array([0.3, -4.0])}, state, lr=0.01)
        assert np.allclose(p["w"].data, [1.0 - 0.01, 1.0 + 0.01], atol=1e-7)

    def test_ten_steps_against_reference(self):
        p = {"x": Tensor(np.array([1.0]), requires_grad=True)}
        state = TR.AdamState.for_params(p)
        x = 1.0
        for _ in range(10):
            TR.adam_step(p, {"x": 2.0 * p["x"].data}, state, lr=0.05)
        expect = adam_oracle(1.0, lambda x_: 2.0 * x_, lr=0.05, steps=10)
        assert abs(p["x"].data[0] - expect) <= 1e-12

    def test_in_place_steps_are_bitwise_the_formula(self):
        # m, v and the parameters are updated in their own arrays, in the
        # formula's operation order, so every element is the oracle's
        rng = np.random.default_rng(9)
        x0 = {k: rng.standard_normal(s)
              for k, s in {"w": (3, 2, 3, 3), "b": (5,), "s": ()}.items()}
        p = {k: Tensor(x.copy(), requires_grad=True) for k, x in x0.items()}
        state = TR.AdamState.for_params(p)
        arrays = [p[k].data for k in p] + list(state.m.values()) + list(
            state.v.values())

        def grad_fn(x):
            return np.sin(3.0 * x) + x**3

        for _ in range(6):
            TR.adam_step(p, {k: grad_fn(t.data) for k, t in p.items()}, state,
                         lr=0.01)
        for k, x in x0.items():
            assert np.array_equal(p[k].data,
                                  adam_oracle(x, grad_fn, lr=0.01, steps=6))
        after = [p[k].data for k in p] + list(state.m.values()) + list(
            state.v.values())
        assert all(a is b for a, b in zip(arrays, after))

    def test_key_mismatch(self):
        p = {"w": Tensor(np.zeros(2), requires_grad=True)}
        state = TR.AdamState.for_params(p)
        with pytest.raises(KeyError):
            TR.adam_step(p, {"v": np.zeros(2)}, state, lr=0.1)

    def test_nonfinite_gradient(self):
        p = {"w": Tensor(np.zeros(2), requires_grad=True)}
        state = TR.AdamState.for_params(p)
        with pytest.raises(NonFiniteError):
            TR.adam_step(p, {"w": np.array([np.nan, 0.0])}, state, lr=0.1)


class TestLrSchedule:
    def test_improving_keeps_lr(self):
        cfg = TR.TrainConfig()
        assert TR.lr_schedule([0.1, 0.2, 0.3], 0.001, cfg) == 0.001

    def test_plateau_quarters(self):
        cfg = TR.TrainConfig()
        history = [0.5, 0.4, 0.4, 0.4, 0.4, 0.4]  # best is 5 epochs old
        assert TR.lr_schedule(history, 0.001, cfg) == 0.00025

    def test_floors_at_min_lr(self):
        cfg = TR.TrainConfig()
        history = [0.5] + [0.4] * 50
        lr = 0.001
        for _ in range(40):
            lr = TR.lr_schedule(history, lr, cfg)
        assert lr == 1e-7


def loss_batch(classes, batch=3, size=8, seed=9):
    """Probabilities away from the 0.5 box edge, (B, C, H, W) targets (the
    mask for one class, one-hot otherwise) and foreground level sets."""
    rng = np.random.default_rng(seed)
    labels = []
    while len(labels) < batch:
        lab = rng.integers(0, max(classes, 2), (size, size))
        if len(np.unique(lab)) == max(classes, 2):
            labels.append(lab)
    lab = np.stack(labels)[:, None]
    g = (lab > 0 if classes == 1 else lab == np.arange(classes)[:, None, None])
    g = g.astype(float)
    u = rng.random(g.shape)
    s = np.where(u < 0.5, 0.05 + 0.8 * u, 0.55 + 0.8 * (u - 0.5))
    fg = range(classes)[1:] if classes > 1 else range(1)
    level_sets = np.stack(
        [[L.level_set(gi[k]).values for k in fg] for gi in g]
    )
    return s, g, level_sets, fg


class TestBatchedLossAgreesWithPerSample:
    """The batched composite equals the mean over samples of the
    single-plane terms composed by hand."""

    def test_equality(self):
        sched = L.LossSchedule()
        for classes in (1, 3):
            s, g, level_sets, fg = loss_batch(classes)
            total, parts = L.composite_loss(
                Tensor(s), Tensor(g), sched, 7, level_sets=level_sets
            )
            per_sample = []
            for si, gi in zip(s, g):
                zd = LO.dice_loss(Tensor(si), Tensor(gi)).item()
                zj = np.mean([
                    LO.jaccard_loss(Tensor(si[k]), Tensor(gi[k])).item()
                    for k in fg
                ])
                zb = np.mean([
                    LO.boundary_loss(Tensor(si[k]), L.level_set(gi[k])).item()
                    for k in fg
                ])
                per_sample.append((zd, zj, zb))
            zd, zj, zb = np.mean(per_sample, axis=0)
            expect = (sched.lambda_d * zd + sched.lambda_j * zj
                      + sched.lambda_b(7) * zb)
            assert abs(total.item() - expect) <= 1e-12, classes
            assert abs(parts["dice"] - zd) <= 1e-12
            assert abs(parts["jaccard"] - zj) <= 1e-12
            assert abs(parts["boundary"] - zb) <= 1e-12

    @pytest.mark.parametrize("classes", [1, 3])
    def test_grad_check(self, classes):
        s, g, level_sets, _ = loss_batch(classes)
        s = Tensor(s, requires_grad=True)

        def f(s):
            return L.composite_loss(s, Tensor(g), L.LossSchedule(), 7,
                                    level_sets=level_sets)[0]

        assert grad_check(f, [s], eps=1e-5).max_rel_error <= 1e-4

    @pytest.mark.parametrize("classes", [1, 3])
    def test_level_sets_missing_or_misshaped(self, classes):
        s, g, level_sets, _ = loss_batch(classes)
        sched = L.LossSchedule()
        for bad in (None, level_sets[:, 0], level_sets[:-1],
                    np.concatenate([level_sets, level_sets], axis=1)):
            with pytest.raises(ShapeError):
                L.composite_loss(Tensor(s), Tensor(g), sched, 0,
                                 level_sets=bad)
        _, parts = L.composite_loss(Tensor(s), Tensor(g), sched, 0,
                                    components=("dice", "jaccard"))
        assert "boundary" not in parts


class TestTrainLoop:
    def _dataset(self, count=10):
        return D.synth_dataset(
            D.SynthSpec(image_size=16, count=count, noise_level=0.03), seed=10
        )

    def _train_cfg(self, **kw):
        base = dict(max_epochs=2, batch_size=8, val_fraction=0.25, seed=10)
        base.update(kw)
        return TR.TrainConfig(**base)

    def test_identical_seeds_identical_logs(self):
        a = TR.train(tiny_model_cfg(), self._train_cfg(), self._dataset())
        b = TR.train(tiny_model_cfg(), self._train_cfg(), self._dataset())
        assert a.log_csv() == b.log_csv()

    def test_lambda_b_column_follows_schedule(self):
        res = TR.train(
            tiny_model_cfg(), self._train_cfg(max_epochs=4), self._dataset()
        )
        sched = L.LossSchedule()
        for row in res.log_rows:
            assert row["lambda_b"] == sched.lambda_b(row["epoch"])

    def test_lr_column_follows_plateau_rule(self):
        cfg = self._train_cfg(max_epochs=8, initial_lr=1e-12,
                              early_stop_patience=20)
        res = TR.train(tiny_model_cfg(), cfg, self._dataset())
        lr = cfg.initial_lr
        history = []
        for row in res.log_rows:
            assert row["lr"] == lr
            history.append(row["val_J"])
            lr = TR.lr_schedule(history, lr, cfg)

    def test_early_stop_patience(self):
        # lr ~ 0 freezes the weights; batch-norm running statistics still
        # drift for a few epochs, so assert the stopping rule itself
        cfg = self._train_cfg(max_epochs=40, initial_lr=1e-15,
                              early_stop_patience=6)
        res = TR.train(tiny_model_cfg(), cfg, self._dataset())
        assert not res.aborted
        assert res.epochs_run == res.best_epoch + cfg.early_stop_patience + 1
        assert res.epochs_run > cfg.early_stop_patience  # never stops earlier

    def test_divergence_aborts_cleanly(self):
        cfg = self._train_cfg(max_epochs=5, initial_lr=1e160)
        res = TR.train(tiny_model_cfg(), cfg, self._dataset())
        assert res.aborted
        assert res.epochs_run < 5
        assert np.isfinite(
            next(iter(res.params.flat().values())).data
        ).all()  # best checkpoint is the pre-divergence state

    def test_divergence_raises_no_runtime_warning(self):
        # overflow is reported once, as NonFiniteError, not as a warning first
        cfg = self._train_cfg(max_epochs=5, initial_lr=1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = TR.train(tiny_model_cfg(), cfg, self._dataset())
        assert res.aborted

    def test_checkpoint_and_log_written(self, tmp_path):
        res = TR.train(
            tiny_model_cfg(), self._train_cfg(), self._dataset(),
            out_dir=tmp_path,
        )
        assert (tmp_path / "log.csv").read_text() == res.log_csv()
        loaded = M.load_checkpoint(tmp_path / "checkpoint")
        for k, t in res.params.flat().items():
            assert np.array_equal(t.data, loaded.flat()[k].data)

    def test_warm_start_from_checkpoint(self, tmp_path):
        res = TR.train(
            tiny_model_cfg(), self._train_cfg(max_epochs=1), self._dataset(),
            out_dir=tmp_path,
        )
        warm = TR.train(
            tiny_model_cfg(), self._train_cfg(max_epochs=1), self._dataset(),
            init_checkpoint=tmp_path / "checkpoint",
        )
        assert warm.log_csv() != res.log_csv() or warm.best_val_j >= 0.0

    def test_loss_component_subset(self):
        res = TR.train(
            tiny_model_cfg(),
            self._train_cfg(loss_components=("dice",)),
            self._dataset(),
        )
        for row in res.log_rows:
            assert row["loss_d"] is not None
            assert row["loss_j"] is None and row["loss_b"] is None

    @pytest.mark.parametrize("classes", [1, 3])
    def test_all_background_masks_train(self, classes):
        # a mask without foreground has no boundary: its planes get all-zero
        # level sets and add nothing to the boundary term
        dataset = D.synth_dataset(
            D.SynthSpec(image_size=16, count=10, num_classes=classes,
                        noise_level=0.03),
            seed=10,
        )
        dataset = [(img, np.zeros_like(mask)) for img, mask in dataset]
        res = TR.train(tiny_model_cfg(num_classes=classes), self._train_cfg(),
                       dataset)
        assert not res.aborted and res.epochs_run == 2
        assert [row["loss_b"] for row in res.log_rows] == [0.0, 0.0]

    def test_multiclass_training_runs(self):
        dataset = D.synth_dataset(
            D.SynthSpec(image_size=16, count=8, num_classes=3,
                        noise_level=0.03),
            seed=11,
        )
        res = TR.train(
            tiny_model_cfg(num_classes=3),
            self._train_cfg(loss_components=("dice",)),
            dataset,
        )
        assert len(res.log_rows) >= 1


class TestAblationHarness:
    def test_loss_combo_rows(self):
        rows = TR.ablation_harness("loss_combo", seed=1, sample_count=8)
        labels = [r[0] for r in rows]
        assert labels == [name for name, _ in TR.LOSS_COMBOS]
        assert len(labels) == 7

    def test_placement_rows(self):
        rows = TR.ablation_harness("placement", seed=1, sample_count=8)
        labels = [r[0] for r in rows]
        assert labels == [name for name, _, _ in TR.PLACEMENT_ROWS]
        assert len(labels) == 6

    def test_transfer_rows(self):
        rows = TR.ablation_harness("transfer", seed=1, sample_count=8)
        assert [r[0] for r in rows] == ["scratch", "transferred"]

    def test_deterministic(self):
        a = TR.ablation_csv(TR.ablation_harness("loss_combo", seed=2,
                                                sample_count=8))
        b = TR.ablation_csv(TR.ablation_harness("loss_combo", seed=2,
                                                sample_count=8))
        assert a == b

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            TR.ablation_harness("optimizer")
