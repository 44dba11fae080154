import contextlib
import dataclasses
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridseg import cli
from hybridseg import data as D
from hybridseg import losses as L
from hybridseg import model as M
from hybridseg import pgm
from hybridseg import train as TR

from test_model import per_gate_checkpoint


VERBS = ("synth", "train", "eval", "predict", "gradcheck", "complexity",
         "ttest", "ablate")


def run(*argv):
    return cli.run(list(argv))


def tiny_train_config(tmp_path, **extra):
    lines = [
        "input_height=16", "input_width=16", "input_channels=1",
        "base_channels=2", "num_classes=1", "window_size=2", "num_heads=2",
        "mlp_ratio=1.0", "max_epochs=2", "batch_size=8", "val_fraction=0.25",
    ]
    lines += [f"{k}={v}" for k, v in extra.items()]
    path = tmp_path / "train.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


def tiny_checkpoint(path, num_classes=1):
    cfg = M.ModelConfig(input_height=16, input_width=16, base_channels=2,
                        num_classes=num_classes, window_size=2, num_heads=2,
                        mlp_ratio=1.0)
    M.save_checkpoint(M.build(cfg, 0), path)
    return path


@pytest.fixture
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    assert run(
        "synth", "--set", "image_size=16", "--set", "count=10",
        "--set", "noise_level=0.03", "--out", str(out), "--seed", "5",
    ) == 0
    return out


class TestSynth:
    def test_writes_dataset(self, dataset_dir):
        samples, num_classes = cli.read_dataset(dataset_dir)
        assert len(samples) == 10 and num_classes == 1
        image, mask = samples[0]
        assert image.shape == (1, 16, 16) and mask.shape == (16, 16)

    def test_seeded_outputs_bytewise_identical(self, tmp_path):
        for name in ("a", "b"):
            assert run(
                "synth", "--set", "image_size=16", "--set", "count=4",
                "--out", str(tmp_path / name), "--seed", "9",
            ) == 0
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_unknown_key_fails_validation(self, tmp_path):
        assert run(
            "synth", "--set", "shape=disk", "--out", str(tmp_path / "x")
        ) == 1

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("image_size=16\ncount=3\n# comment\n")
        assert run("synth", "--spec", str(spec),
                   "--out", str(tmp_path / "d")) == 0
        samples, _ = cli.read_dataset(tmp_path / "d")
        assert len(samples) == 3

    def test_malformed_spec_line_fails_validation(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("image_size=16\ncount 3\n")
        assert run("synth", "--spec", str(spec),
                   "--out", str(tmp_path / "d")) == 1
        assert "malformed line 'count 3'" in capsys.readouterr().err


class TestTrainEvalPredict:
    def test_pipeline(self, tmp_path, dataset_dir, capsys):
        cfg = tiny_train_config(tmp_path)
        out = tmp_path / "run"
        assert run(
            "train", "--config", str(cfg), "--data", str(dataset_dir),
            "--out", str(out), "--seed", "3",
        ) == 0
        assert (out / "log.csv").exists()
        assert (out / "checkpoint" / "manifest.txt").exists()

        report = tmp_path / "report.csv"
        overlays = tmp_path / "overlays"
        assert run(
            "eval", "--checkpoint", str(out / "checkpoint"),
            "--data", str(dataset_dir), "--report", str(report),
            "--overlay-dir", str(overlays),
        ) == 0
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "image,J,D,Acc,Sn,Sp"
        assert len(lines) == 12  # 10 rows + header + summary
        assert lines[-1].startswith("mean±std")
        assert len(list(overlays.glob("*.ppm"))) == 10

        mask_out = tmp_path / "pred.pgm"
        assert run(
            "predict", "--checkpoint", str(out / "checkpoint"),
            "--image", str(dataset_dir / "img_0000.pgm"),
            "--out", str(mask_out),
        ) == 0
        rec = pgm.read_mask(mask_out, num_classes=1)
        assert rec.labels.shape == (16, 16)

    def test_identical_seeds_identical_logs(self, tmp_path, dataset_dir):
        cfg = tiny_train_config(tmp_path)
        for name in ("r1", "r2"):
            assert run(
                "train", "--config", str(cfg), "--data", str(dataset_dir),
                "--out", str(tmp_path / name), "--seed", "3",
            ) == 0
        assert (tmp_path / "r1" / "log.csv").read_bytes() == (
            tmp_path / "r2" / "log.csv"
        ).read_bytes()
        assert (tmp_path / "r1" / "checkpoint" / "tensors.bin").read_bytes() == (
            tmp_path / "r2" / "checkpoint" / "tensors.bin"
        ).read_bytes()

    def test_config_mismatch_is_validation_error(self, tmp_path, dataset_dir):
        cfg = tiny_train_config(tmp_path, num_classes="3")
        assert run(
            "train", "--config", str(cfg), "--data", str(dataset_dir),
            "--out", str(tmp_path / "x"),
        ) == 1

    def test_all_background_masks_train(self, tmp_path, dataset_dir):
        samples, _ = cli.read_dataset(dataset_dir)
        empty = tmp_path / "empty"
        cli.write_dataset([(img, np.zeros_like(mask)) for img, mask in samples],
                          empty, 1)
        out = tmp_path / "run"
        assert run(
            "train", "--config", str(tiny_train_config(tmp_path)),
            "--data", str(empty), "--out", str(out), "--seed", "3",
        ) == 0
        rows = (out / "log.csv").read_text().splitlines()
        assert rows[0].split(",")[5] == "loss_b"
        assert [r.split(",")[5] for r in rows[1:]] == ["0", "0"]

    @pytest.mark.parametrize("num_classes", [1, 3])
    def test_all_background_masks_eval(self, tmp_path, dataset_dir,
                                       num_classes):
        # no foreground anywhere: sensitivity and the absent classes'
        # Hausdorff distances are undefined, so their cells stay blank
        samples, _ = cli.read_dataset(dataset_dir)
        empty = tmp_path / "empty"
        cli.write_dataset([(img, np.zeros_like(mask)) for img, mask in samples],
                          empty, num_classes)
        report = tmp_path / "report.csv"
        assert run(
            "eval", "--checkpoint",
            str(tiny_checkpoint(tmp_path / "ckpt", num_classes)),
            "--data", str(empty), "--report", str(report),
        ) == 0
        header, *rows = [line.split(",")
                         for line in report.read_text().splitlines()]
        assert len(rows) == len(samples) + 1  # and the mean±std row
        blank = ["Sn"] + [f"HD_class_{k}" for k in range(1, num_classes)]
        assert set(blank) <= set(header)
        for row in rows:
            assert [row[header.index(c)] for c in blank] == [""] * len(blank)

    def test_all_background_masks_ablate(self, capsys, monkeypatch):
        # every dataset the harness draws has no foreground: sensitivity is
        # undefined, so its cells stay blank, and the rest are percentages
        synth = D.synth_dataset
        monkeypatch.setattr(D, "synth_dataset", lambda spec, seed: [
            (img, np.zeros_like(mask)) for img, mask in synth(spec, seed)])
        assert run("ablate", "--mode", "transfer", "--seed", "3") == 0
        header, *rows = [line.split(",")
                         for line in capsys.readouterr().out.splitlines()]
        assert header == ["variant", "J", "D", "Acc", "Sn", "Sp"]
        assert [row[0] for row in rows] == ["scratch", "transferred"]
        for row in rows:
            assert row[header.index("Sn")] == ""
            assert all(cell == "" or 0.0 <= float(cell) <= 100.0
                       for cell in row[1:])

    def test_missing_data_is_io_error(self, tmp_path):
        cfg = tiny_train_config(tmp_path)
        assert run(
            "train", "--config", str(cfg), "--data", str(tmp_path / "nope"),
            "--out", str(tmp_path / "x"),
        ) == 2


BAD_DATASET_META = {
    "count_missing": "num_classes=1\n",
    "count_not_integer": "count=ten\nnum_classes=1\n",
    "count_zero": "count=0\nnum_classes=1\n",
    "num_classes_missing": "count=10\n",
    "num_classes_not_integer": "count=10\nnum_classes=1.5\n",
    "num_classes_negative": "count=10\nnum_classes=-1\n",
}


class TestDatasetMeta:
    @pytest.mark.parametrize("meta", sorted(BAD_DATASET_META))
    @pytest.mark.parametrize("verb", ["train", "eval"])
    def test_bad_count_is_io_error(self, tmp_path, dataset_dir, capsys, verb,
                                   meta):
        (dataset_dir / "dataset.txt").write_text(BAD_DATASET_META[meta])
        if verb == "train":
            argv = ["--config", str(tiny_train_config(tmp_path)),
                    "--out", str(tmp_path / "run")]
        else:
            argv = ["--checkpoint", str(tiny_checkpoint(tmp_path / "ckpt")),
                    "--report", str(tmp_path / "report.csv")]
        assert run(verb, "--data", str(dataset_dir), *argv) == 2
        assert "must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["train", "eval"])
    def test_repeated_key_fails_validation(self, tmp_path, dataset_dir, capsys,
                                           verb):
        meta = dataset_dir / "dataset.txt"
        meta.write_text("count=10\nnum_classes=1\ncount=4\n")
        if verb == "train":
            argv = ["--config", str(tiny_train_config(tmp_path)),
                    "--out", str(tmp_path / "run")]
        else:
            argv = ["--checkpoint", str(tiny_checkpoint(tmp_path / "ckpt")),
                    "--report", str(tmp_path / "report.csv")]
        assert run(verb, "--data", str(dataset_dir), *argv) == 1
        assert f"{meta}: key 'count' given twice" in capsys.readouterr().err


def _tamper(ckpt, defect):
    lines = (ckpt / "manifest.txt").read_text().splitlines()
    buf = (ckpt / "tensors.bin").read_bytes()
    if defect == "trailing_bytes":
        buf += bytes(8)
    elif defect == "gap":  # 8 bytes after the first record, later offsets moved
        end = int(lines[1].split()[2])
        buf = buf[:end] + bytes(8) + buf[end:]
        lines = lines[:1] + [
            f"{key} {shape} {int(offset) + 8}"
            for key, shape, offset in (line.split() for line in lines[1:])
        ]
    elif defect == "overlap":  # a later record points at an earlier one
        fields = [line.split() for line in lines]
        i, j = next((i, j) for i in range(len(fields))
                    for j in range(i + 1, len(fields))
                    if fields[i][1] == fields[j][1])
        fields[j][2] = fields[i][2]
        lines = [" ".join(f) for f in fields]
    elif defect == "duplicate_key":
        lines.append(lines[0])
    (ckpt / "manifest.txt").write_text("\n".join(lines) + "\n")
    (ckpt / "tensors.bin").write_bytes(buf)


class TestCheckpointFormat:
    @pytest.mark.parametrize("defect,message", [
        ("trailing_bytes", "trailing bytes"), ("gap", "gap"),
        ("overlap", "overlaps"), ("duplicate_key", "twice"),
    ])
    def test_predict_rejects_bad_layout(self, tmp_path, dataset_dir, capsys,
                                        defect, message):
        ckpt = tiny_checkpoint(tmp_path / "ckpt")
        argv = ["predict", "--checkpoint", str(ckpt), "--image",
                str(dataset_dir / "img_0000.pgm"), "--out", str(tmp_path / "m.pgm")]
        assert run(*argv) == 0
        _tamper(ckpt, defect)
        assert run(*argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("shape", ["2x3x", "2xax3", "9" * 5000],
                             ids=["trailing_x", "letter", "5000_digits"])
    def test_predict_rejects_malformed_shape_field(self, tmp_path, dataset_dir,
                                                   capsys, shape):
        ckpt = tiny_checkpoint(tmp_path / "ckpt")
        lines = (ckpt / "manifest.txt").read_text().splitlines()
        key, _, offset = lines[0].split()
        lines[0] = f"{key} {shape} {offset}"
        (ckpt / "manifest.txt").write_text("\n".join(lines) + "\n")
        assert run("predict", "--checkpoint", str(ckpt), "--image",
                   str(dataset_dir / "img_0000.pgm"), "--out",
                   str(tmp_path / "m.pgm")) == 2
        assert "malformed manifest line" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [0, 1, 2],
                             ids=["width", "height", "maxval"])
    def test_predict_rejects_overlong_header_field(self, tmp_path, capsys,
                                                   field):
        # 5,000 digits are over Python's integer-string conversion limit
        header = [b"16", b"16", b"255"]
        header[field] = b"9" * 5000
        image = tmp_path / "long.pgm"
        image.write_bytes(b"P5\n" + b" ".join(header) + b"\n" + bytes(256))
        ckpt = tiny_checkpoint(tmp_path / "ckpt")
        assert run("predict", "--checkpoint", str(ckpt), "--image", str(image),
                   "--out", str(tmp_path / "m.pgm")) == 2
        assert "long.pgm" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["config.txt", "manifest.txt"])
    def test_predict_rejects_non_utf8_text(self, tmp_path, dataset_dir, capsys,
                                           name):
        ckpt = tiny_checkpoint(tmp_path / "ckpt")
        with open(ckpt / name, "ab") as fh:
            fh.write(b"\x80\n")
        assert run("predict", "--checkpoint", str(ckpt), "--image",
                   str(dataset_dir / "img_0000.pgm"), "--out",
                   str(tmp_path / "m.pgm")) == 2
        assert f"{name} is not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("value,code", [("False", 0), ("True", 1)])
    def test_config_with_removed_field(self, tmp_path, dataset_dir, value, code):
        ckpt = tiny_checkpoint(tmp_path / "ckpt")
        image = str(dataset_dir / "img_0000.pgm")
        assert run("predict", "--checkpoint", str(ckpt), "--image", image,
                   "--out", str(tmp_path / "new.pgm")) == 0
        with open(ckpt / "config.txt", "a") as fh:
            fh.write(f"literal_decoder_input={value}\n")
        assert run("predict", "--checkpoint", str(ckpt), "--image", image,
                   "--out", str(tmp_path / "old.pgm")) == code
        if code == 0:
            assert (tmp_path / "old.pgm").read_bytes() == (
                tmp_path / "new.pgm").read_bytes()

    def test_per_gate_checkpoint(self, tmp_path, dataset_dir, capsys):
        # the layout written before the ConvLSTM gates were stacked
        ckpt = tiny_checkpoint(tmp_path / "ckpt")

        def predict(checkpoint, out):
            return run("predict", "--checkpoint", str(checkpoint), "--image",
                       str(dataset_dir / "img_0000.pgm"), "--out",
                       str(tmp_path / out))

        assert predict(ckpt, "new.pgm") == 0
        assert predict(per_gate_checkpoint(ckpt, tmp_path / "old"), "old.pgm") == 0
        assert (tmp_path / "old.pgm").read_bytes() == (
            tmp_path / "new.pgm").read_bytes()
        broken = per_gate_checkpoint(ckpt, tmp_path / "broken",
                                     "skip2.lstm.forward.w_h_o")
        capsys.readouterr()
        assert predict(broken, "broken.pgm") == 2
        assert "skip2.lstm.forward.w_h_o" in capsys.readouterr().err

    def test_config_with_repeated_key(self, tmp_path, dataset_dir, capsys):
        ckpt = tiny_checkpoint(tmp_path / "ckpt")
        with open(ckpt / "config.txt", "a") as fh:
            fh.write("skip_lstm=False\n")
        assert run("predict", "--checkpoint", str(ckpt), "--image",
                   str(dataset_dir / "img_0000.pgm"),
                   "--out", str(tmp_path / "m.pgm")) == 1
        err = capsys.readouterr().err
        assert f"{ckpt / 'config.txt'}: key 'skip_lstm' given twice" in err


def run_quiet(*argv):
    """(exit code, standard error) of cli.run, its output kept quiet."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        return run(*argv), err.getvalue()


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A 3-class checkpoint and a 16x16 image it accepts."""
    root = tmp_path_factory.mktemp("served")
    ckpt = tiny_checkpoint(root / "ckpt", num_classes=3)
    image = root / "img.pgm"
    pixels = np.random.default_rng(4).integers(0, 256, (1, 16, 16)) / 255.0
    pgm.write_image(pgm.ImageRecord(pixels=pixels), image)
    return ckpt, image


def predict_corrupt(served, manifest=None, blob=None, image=None):
    """predict on a copy of the served checkpoint and image with the given
    bytes in place of manifest.txt, tensors.bin or the image."""
    ckpt, img = served
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "ckpt").mkdir()
        for name, data in (("config.txt", None), ("manifest.txt", manifest),
                           ("tensors.bin", blob)):
            (tmp / "ckpt" / name).write_bytes(
                (ckpt / name).read_bytes() if data is None else data)
        (tmp / "img.pgm").write_bytes(img.read_bytes() if image is None
                                      else image)
        return run_quiet("predict", "--checkpoint", str(tmp / "ckpt"),
                         "--image", str(tmp / "img.pgm"), "--out",
                         str(tmp / "mask.pgm"))


class TestPredictOnCorruptFiles:
    """A cut, extended or mutated checkpoint or image makes predict exit 2
    with one error line, never a traceback."""

    def test_pristine_files_predict(self, served):
        assert predict_corrupt(served) == (0, "")

    @settings(deadline=None, max_examples=30)
    @given(target=st.sampled_from(["manifest.txt", "tensors.bin", "image"]),
           data=st.data())
    def test_cut(self, served, target, data):
        raw = self.read(served, target)
        # a manifest may lose its final newline and stay valid
        end = len(raw.rstrip()) if target == "manifest.txt" else len(raw)
        cut = raw[:data.draw(st.integers(0, end - 1))]
        code, err = predict_corrupt(served, **self.replace(target, cut))
        assert code == 2 and err.startswith("hybridseg: io error:"), err

    @settings(deadline=None, max_examples=30)
    @given(target=st.sampled_from(["manifest.txt", "tensors.bin", "image"]),
           extra=st.binary(min_size=1, max_size=32))
    def test_extended(self, served, target, extra):
        try:
            blank = not extra.decode("utf-8").split()
        except UnicodeDecodeError:
            blank = False
        if blank and target == "manifest.txt":  # blank lines are allowed
            return
        raw = self.read(served, target)
        code, err = predict_corrupt(served, **self.replace(target, raw + extra))
        assert code == 2 and err.startswith("hybridseg: io error:"), err

    @settings(deadline=None, max_examples=60)
    @given(target=st.sampled_from(["manifest.txt", "tensors.bin", "image"]),
           data=st.data())
    def test_mutated_byte(self, served, target, data):
        raw = bytearray(self.read(served, target))
        at = data.draw(st.integers(0, len(raw) - 1))
        raw[at] = data.draw(st.integers(0, 255).filter(lambda v: v != raw[at]))
        code, err = predict_corrupt(served, **self.replace(target, bytes(raw)))
        # a changed payload byte can be a valid pixel or weight
        assert code in (0, 1, 2), (code, err)
        if code:
            assert err.startswith("hybridseg: "), err
            assert err.count("\n") == 1 and "Traceback" not in err, err

    @staticmethod
    def read(served, target):
        ckpt, image = served
        return (image if target == "image" else ckpt / target).read_bytes()

    @staticmethod
    def replace(target, raw):
        return {"manifest.txt": {"manifest": raw}, "tensors.bin": {"blob": raw},
                "image": {"image": raw}}[target]


# every settable field, with a non-default value and what it should read as
NON_DEFAULT = {
    "image_size": ("16", 16), "family": ("multi_lesion", "multi_lesion"),
    "noise_level": ("0.1", 0.1), "contrast_lo": ("0.2", 0.2),
    "contrast_hi": ("0.7", 0.7), "num_classes": ("3", 3), "count": ("5", 5),
    "input_height": ("16", 16), "input_width": ("24", 24),
    "input_channels": ("3", 3), "base_channels": ("4", 4),
    "window_size": ("2", 2), "num_heads": ("2", 2), "mlp_ratio": ("2.5", 2.5),
    "transformer_placement": ("skips", "skips"), "skip_lstm": ("false", False),
    "skip_sequence_mode": ("paired", "paired"),
    "max_epochs": ("3", 3), "initial_lr": ("0.01", 0.01),
    "plateau_patience": ("2", 2), "plateau_factor": ("0.5", 0.5),
    "early_stop_patience": ("4", 4), "batch_size": ("4", 4), "seed": ("7", 7),
    "loss_components": ("dice, boundary", ("dice", "boundary")),
    "val_fraction": ("0.2", 0.2), "min_lr": ("1e-6", 1e-6),
    "lambda_d": ("0.5", 0.5), "lambda_j": ("0.25", 0.25),
    "lambda_b_initial": ("2.0", 2.0), "lambda_b_decay": ("0.05", 0.05),
    "lambda_b_floor": ("0.1", 0.1),
}

CONFIG_FIELDS = [
    (cls, f.name)
    for cls in (D.SynthSpec, M.ModelConfig, TR.TrainConfig, L.LossSchedule)
    for f in dataclasses.fields(cls)
    if f.name != "schedule"  # its keys are LossSchedule's fields
]


class TestConfigKeys:
    @pytest.mark.parametrize("cls,name", CONFIG_FIELDS,
                             ids=[f"{c.__name__}.{n}" for c, n in CONFIG_FIELDS])
    def test_every_field_is_a_key(self, cls, name):
        text, expected = NON_DEFAULT[name]
        values = cli._load_kv(None, [f"{name}={text}"])
        if cls is D.SynthSpec:
            found = cli._build_synth_spec(values)
        else:
            model_cfg, train_cfg = cli._build_configs(values)
            found = {M.ModelConfig: model_cfg, TR.TrainConfig: train_cfg,
                     L.LossSchedule: train_cfg.schedule}[cls]
        assert getattr(found, name) == expected
        assert getattr(cls(), name) != expected

    def test_schedule_alone_is_unknown(self, tmp_path, dataset_dir):
        assert run(
            "train", "--config", str(tiny_train_config(tmp_path)),
            "--set", "schedule=1", "--data", str(dataset_dir),
            "--out", str(tmp_path / "x"),
        ) == 1

    @pytest.mark.parametrize("text,expected", [
        ("TRUE", True), ("True", True), ("1", True),
        ("FALSE", False), ("false", False), ("0", False),
        ("yes", None), ("", None),
    ])
    def test_bool_spellings(self, text, expected):
        code = run("complexity", "--set", f"skip_lstm={text}")
        assert code == (1 if expected is None else 0)
        if expected is not None:
            model_cfg, _ = cli._build_configs(
                cli._load_kv(None, [f"skip_lstm={text}"]))
            assert model_cfg.skip_lstm is expected

    @pytest.mark.parametrize("verb,key", [("complexity", "skip_lstm"),
                                          ("synth", "count")])
    def test_repeated_key_in_file_fails_validation(self, tmp_path, capsys,
                                                   verb, key):
        path = tmp_path / "values.txt"
        path.write_text(f"{key}=1\n# again\n{key}=0\n")
        argv = {"complexity": ["--config", str(path)],
                "synth": ["--spec", str(path), "--out", str(tmp_path / "d")]}
        assert run(verb, *argv[verb]) == 1
        assert f"{path}: key '{key}' given twice" in capsys.readouterr().err

    @pytest.mark.parametrize("verb,setting", [
        ("complexity", "num_heads=0"), ("complexity", "num_heads=-4"),
        ("complexity", "window_size=0"), ("complexity", "mlp_ratio=0"),
        ("complexity", "mlp_ratio=0.01"), ("complexity", "mlp_ratio=nan"),
        ("complexity", "mlp_ratio=inf"), ("complexity", "input_height=0"),
        ("complexity", "input_width=-8"), ("synth", "image_size=0"),
    ])
    def test_degenerate_value_is_validation_error(self, tmp_path, capsys,
                                                  verb, setting):
        # one error line naming the key, before anything is printed
        argv = [verb, "--set", setting]
        if verb == "synth":
            argv += ["--out", str(tmp_path / "d")]
        assert run(*argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("hybridseg: error:")
        assert setting.split("=")[0] in err

    def test_set_overrides_file_value(self, tmp_path, capsys):
        small = ["input_height=16", "input_width=16", "base_channels=2",
                 "num_heads=2", "window_size=2"]
        path = tmp_path / "model.cfg"
        path.write_text("\n".join(small + ["skip_lstm=false"]) + "\n")
        sets = [arg for kv in small for arg in ("--set", kv)]
        outputs = {}
        for name, argv in {
            "file": ["--config", str(path)],
            "file_then_set": ["--config", str(path), "--set", "skip_lstm=true"],
            "set_only": sets + ["--set", "skip_lstm=true"],
        }.items():
            assert run("complexity", *argv) == 0
            outputs[name] = capsys.readouterr().out
        assert outputs["file_then_set"] == outputs["set_only"]
        assert outputs["file_then_set"] != outputs["file"]


class TestGradcheckVerb:
    def test_ops_scope_passes(self, capsys):
        assert run("gradcheck", "--scope", "ops") == 0
        out = capsys.readouterr().out
        assert "conv2d " in out and "softmax" in out
        for row in ("normalize_batch ", "normalize_layer ",
                    "normalize_given_stats "):
            assert row in out, row
        for row in ("relu ", "matmul ", "transpose ", "roll2d "):
            assert row not in out, row  # test-side ops, checked in the tests
        assert "worst max_rel_err" in out

    def test_blocks_scope_passes(self, capsys):
        assert run("gradcheck", "--scope", "blocks") == 0
        out = capsys.readouterr().out
        for row in ("conv_lstm_step ", "conv_lstm_step_lazy ", "bconv_lstm ",
                    "bconv_lstm_single ", "separable_conv_bn_relu ",
                    "pointwise_mlp "):
            assert row in out, row
        assert "worst max_rel_err" in out


class TestComplexityVerb:
    def test_direct_mode_hand_values(self, capsys):
        assert run("complexity", "--h", "8", "--w", "8", "--d", "4",
                   "--n", "2") == 0
        out = capsys.readouterr().out
        assert "C_MSA=36864" in out
        assert "C_SW-MSA=6144" in out

    def test_literal_variant_differs(self, capsys):
        assert run("complexity", "--h", "8", "--w", "8", "--d", "4",
                   "--n", "2", "--literal-eq15") == 0
        out = capsys.readouterr().out
        # 4*64*16 + 2*4*64^2*4 with the quadratic window term
        assert "C_SW-MSA=135168" in out

    def test_config_mode(self, capsys):
        assert run(
            "complexity", "--set", "input_height=16", "--set",
            "input_width=16", "--set", "base_channels=2", "--set",
            "num_heads=2", "--set", "window_size=2",
        ) == 0
        out = capsys.readouterr().out
        assert "params=" in out and "flops=" in out

    def test_partial_direct_flags_rejected(self):
        assert run("complexity", "--h", "8") == 1

    @pytest.mark.parametrize("sets", [
        [],
        ["input_height=16", "input_width=16", "base_channels=2",
         "num_heads=2", "window_size=2", "num_classes=3",
         "transformer_placement=decoder_pools", "skip_sequence_mode=paired"],
    ])
    def test_config_mode_counts_without_drawing(self, capsys, monkeypatch,
                                                sets):
        cfg = M.config_from_text("", overrides=dict(
            kv.split("=") for kv in sets))
        expected = (f"params={M.count_params(M.build(cfg, seed=0))}\n"
                    f"flops={M.count_flops(cfg)}\n")

        def no_rng(*args, **kwargs):
            raise AssertionError("complexity drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        argv = ["complexity"] + [a for kv in sets for a in ("--set", kv)]
        assert run(*argv) == 0
        assert capsys.readouterr().out.startswith(expected)


class TestTtestVerb:
    def test_fixture_values(self, tmp_path, capsys):
        a = tmp_path / "ours.csv"
        b = tmp_path / "base.csv"
        a.write_text("2.0\n4.0\n6.0\n")
        b.write_text("1.0\n2.0\n3.0\n")
        out_csv = tmp_path / "t.csv"
        assert run("ttest", "--a", str(a), "--b", str(b),
                   "--out", str(out_csv)) == 0
        out = capsys.readouterr().out
        assert "t=3.4641" in out and "df=2" in out and "p=0.0742" in out
        assert out_csv.read_text().splitlines()[0] == "method_a,method_b,t,df,p"

    def test_header_tolerated(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("score\n2.0\n4.0\n6.0\n")
        b.write_text("score\n1.0\n2.0\n3.0\n")
        assert run("ttest", "--a", str(a), "--b", str(b)) == 0

    def test_missing_file_is_io_error(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("1.0\n2.0\n")
        assert run("ttest", "--a", str(a), "--b", str(tmp_path / "nope")) == 2

    def test_zero_variance_is_validation_error(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("1.0\n2.0\n")
        assert run("ttest", "--a", str(a), "--b", str(a)) == 1

    def test_nan_score_is_validation_error(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("2.0\nnan\n6.0\n")
        b.write_text("1.0\n2.0\n3.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("ttest", "--a", str(a), "--b", str(b)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("hybridseg: error:") and "finite" in err


class TestArgumentHandling:
    def test_unknown_flag_exits_one(self):
        assert run("synth", "--out", "x", "--frobnicate") == 1

    def test_unknown_verb_exits_one(self):
        assert run("frobnicate") == 1

    def test_help_exits_zero(self):
        assert run("--help") == 0

    def test_missing_required_flag(self):
        assert run("synth") == 1


def full_parser_output(argv, capsys):
    """(exit code, stdout, stderr) of the parser with every verb's
    subparser, the one build_parser returns, on argv."""
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


class TestPerVerbParser:
    # a request builds its verb's subparser alone; what it prints and
    # returns must be what the parser with every verb gives
    def test_help_lists_every_verb(self, capsys):
        assert run("--help") == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(VERBS) + "}" in out
        assert (0, out, "") == full_parser_output(["--help"], capsys)

    @pytest.mark.parametrize("verb", VERBS)
    def test_verb_help_is_unchanged(self, verb, capsys):
        assert run(verb, "--help") == 0
        out, err = capsys.readouterr()
        assert out.startswith(f"usage: hybridseg {verb} ") and err == ""
        assert (0, out, err) == full_parser_output([verb, "--help"], capsys)

    @pytest.mark.parametrize("argv", [["frobnicate"], [], ["--frobnicate"],
                                      ["predict", "--image", "x"],
                                      ["gradcheck", "--scope", "nothing"]]
                             + [[verb, "--frobnicate"] for verb in VERBS])
    def test_errors_are_unchanged(self, argv, capsys):
        assert run(*argv) == 1
        out, err = capsys.readouterr()
        assert err.startswith("hybridseg") and out == ""
        assert (1, out, err) == full_parser_output(argv, capsys)

    def test_request_builds_only_its_verb(self, monkeypatch):
        built = []
        parser = cli._parser

        def watching(verbs):
            built.append(tuple(verbs))
            return parser(verbs)

        monkeypatch.setattr(cli, "_parser", watching)
        assert run("ttest", "--a", "missing-a", "--b", "missing-b") == 2
        assert run("frobnicate") == 1
        assert built == [("ttest",), VERBS]
