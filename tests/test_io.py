import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hybridseg import metrics as ME
from hybridseg import pgm
from hybridseg.tensor import FormatError, ShapeError


def write_raw(path, magic, w, h, payload, maxval=255):
    with open(path, "wb") as fh:
        fh.write(magic + b"\n" + f"{w} {h}\n{maxval}\n".encode())
        fh.write(payload)


class TestReadImage:
    def test_exact_scaling(self, tmp_path):
        path = tmp_path / "a.pgm"
        write_raw(path, b"P5", 2, 2, bytes([0, 128, 255, 64]))
        rec = pgm.read_image(path)
        assert rec.pixels.shape == (1, 2, 2)
        assert np.allclose(
            rec.pixels.reshape(-1),
            [0.0, 128 / 255.0, 1.0, 64 / 255.0],
        )

    def test_round_trip_is_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, size=(1, 5, 7), dtype=np.uint8)
        rec = pgm.ImageRecord(pixels=raw.astype(float) / 255.0)
        path = tmp_path / "b.pgm"
        pgm.write_image(rec, path)
        back = pgm.read_image(path)
        assert np.array_equal(back.pixels, rec.pixels)

    def test_rgb_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        raw = rng.integers(0, 256, size=(3, 4, 6), dtype=np.uint8)
        rec = pgm.ImageRecord(pixels=raw.astype(float) / 255.0)
        path = tmp_path / "c.ppm"
        pgm.write_image(rec, path)
        assert np.array_equal(pgm.read_image(path).pixels, rec.pixels)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "d.pgm"
        write_raw(path, b"P5", 4, 4, bytes(10))  # needs 16
        with pytest.raises(FormatError):
            pgm.read_image(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "e.pgm"
        path.write_bytes(b"P2\n2 2\n255\n....")
        with pytest.raises(FormatError):
            pgm.read_image(path)

    def test_unsupported_depth(self, tmp_path):
        path = tmp_path / "f.pgm"
        write_raw(path, b"P5", 1, 1, bytes([0, 0]), maxval=65535)
        with pytest.raises(FormatError):
            pgm.read_image(path)

    def test_comments_allowed(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x00\xff")
        rec = pgm.read_image(path)
        assert np.allclose(rec.pixels.reshape(-1), [0.0, 1.0])


class TestMask:
    def test_binary_convention(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_raw(path, b"P5", 2, 2, bytes([255, 255, 255, 255]))
        rec = pgm.read_mask(path, num_classes=1)
        assert np.array_equal(rec.labels, np.ones((2, 2), dtype=np.int64))

    def test_binary_rejects_other_bytes(self, tmp_path):
        path = tmp_path / "m2.pgm"
        write_raw(path, b"P5", 2, 1, bytes([0, 7]))
        with pytest.raises(FormatError):
            pgm.read_mask(path, num_classes=1)

    def test_multiclass_range(self, tmp_path):
        path = tmp_path / "m3.pgm"
        write_raw(path, b"P5", 2, 1, bytes([0, 7]))
        with pytest.raises(FormatError):
            pgm.read_mask(path, num_classes=4)
        rec = pgm.read_mask(path, num_classes=8)
        assert np.array_equal(rec.labels, [[0, 7]])

    def test_prediction_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        labels = (rng.random((6, 6)) < 0.5).astype(np.int64)
        path = tmp_path / "m4.pgm"
        pgm.write_mask(pgm.MaskRecord(labels=labels, num_classes=1), path)
        back = pgm.read_mask(path, num_classes=1)
        assert np.array_equal(back.labels, labels)

    def test_multiclass_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 4, size=(5, 5))
        path = tmp_path / "m5.pgm"
        pgm.write_mask(pgm.MaskRecord(labels=labels, num_classes=4), path)
        back = pgm.read_mask(path, num_classes=4)
        assert np.array_equal(back.labels, labels)


class TestOverlay:
    def test_equal_masks_only_green_or_untinted(self, tmp_path):
        rng = np.random.default_rng(4)
        img = rng.random((1, 8, 8))
        g = rng.random((8, 8)) < 0.4
        rgb = pgm.overlay_report(img, g, g, tmp_path / "o.ppm")
        # true positives are green-tinted: green strictly dominant
        tp = g
        assert np.all(rgb[1][tp] > rgb[0][tp])
        assert np.all(rgb[1][tp] > rgb[2][tp])
        tn = ~g
        assert np.allclose(rgb[0][tn], rgb[1][tn])
        assert np.allclose(rgb[1][tn], rgb[2][tn])

    def test_inverted_foreground_red_and_blue(self, tmp_path):
        img = np.full((1, 4, 4), 0.5)
        g = np.zeros((4, 4), dtype=bool)
        g[:2] = True
        rgb = pgm.overlay_report(img, g, ~g, tmp_path / "o2.ppm")
        fp = ~g
        fn = g
        assert np.all(rgb[0][fp] > rgb[1][fp])  # red beats green
        assert np.all(rgb[2][fn] > rgb[1][fn])  # blue beats green

    def test_counts_match_confusion(self, tmp_path):
        rng = np.random.default_rng(5)
        img = rng.random((1, 10, 10))
        g = rng.random((10, 10)) < 0.5
        s = rng.random((10, 10)) < 0.5
        rgb = pgm.overlay_report(img, g, s, tmp_path / "o3.ppm")
        c = ME.confusion(s, g)
        green = (rgb[1] > rgb[0]) & (rgb[1] > rgb[2])
        red = (rgb[0] > rgb[1]) & (rgb[0] > rgb[2])
        blue = (rgb[2] > rgb[0]) & (rgb[2] > rgb[1])
        untinted = ~(green | red | blue)
        assert green.sum() == c.tp
        assert red.sum() == c.fp
        assert blue.sum() == c.fn
        assert untinted.sum() == c.tn

    def test_shape_mismatch(self, tmp_path):
        with pytest.raises(ShapeError):
            pgm.overlay_report(
                np.zeros((1, 4, 4)), np.zeros((4, 4)), np.zeros((5, 5)),
                tmp_path / "o4.ppm",
            )


# 8-bit images of one (P5) or three (P6) channels, 1 to 8 pixels a side
images = arrays(np.uint8, st.tuples(st.sampled_from([1, 3]),
                                    st.integers(1, 8), st.integers(1, 8)))


def encode(raw):
    """The bytes write_image writes for the uint8 image raw."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.pgm"
        pgm.write_image(pgm.ImageRecord(pixels=raw / 255.0), path)
        return path.read_bytes()


def read(data, reader=pgm.read_image, **kw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.pgm"
        path.write_bytes(data)
        return reader(path, **kw)


READERS = [(pgm.read_image, {}), (pgm.read_mask, {"num_classes": 1}),
           (pgm.read_mask, {"num_classes": 256})]


class TestPgmProperties:
    """Round trips and corruptions of PGM/PPM files: a read returns the
    written values bitwise, or a damaged file raises FormatError."""

    @settings(deadline=None)
    @given(raw=images)
    def test_image_round_trip(self, raw):
        data = encode(raw)
        back = read(data)
        assert back.pixels.tobytes() == (raw / 255.0).tobytes()
        assert encode(np.round(back.pixels * 255.0).astype(np.uint8)) == data

    @settings(deadline=None)
    @given(labels=arrays(np.int64, st.tuples(st.integers(1, 8),
                                            st.integers(1, 8)),
                         elements=st.integers(0, 5)),
           binary=st.booleans())
    def test_mask_round_trip(self, labels, binary):
        num_classes = 1 if binary else 6
        labels = labels % 2 if binary else labels
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.pgm"
            pgm.write_mask(pgm.MaskRecord(labels, num_classes), path)
            back = pgm.read_mask(path, num_classes=num_classes)
        assert np.array_equal(back.labels, labels)

    @settings(deadline=None)
    @given(raw=images, reader=st.sampled_from(READERS), data=st.data())
    def test_cut(self, raw, reader, data):
        full = encode(raw)
        cut = data.draw(st.integers(0, len(full) - 1))
        with pytest.raises(FormatError):
            read(full[:cut], reader[0], **reader[1])

    @settings(deadline=None)
    @given(raw=images, reader=st.sampled_from(READERS),
           extra=st.binary(min_size=1, max_size=16))
    def test_extended(self, raw, reader, extra):
        with pytest.raises(FormatError):
            read(encode(raw) + extra, reader[0], **reader[1])

    @settings(deadline=None)
    @given(raw=images, reader=st.sampled_from(READERS),
           field=st.sampled_from(["magic", "width", "height", "maxval"]),
           data=st.data())
    def test_mutated_header_field(self, raw, reader, field, data):
        c, h, w = raw.shape
        header = {"magic": b"P5" if c == 1 else b"P6", "width": w,
                  "height": h, "maxval": 255}
        if field == "magic":
            new = data.draw(st.binary(min_size=2, max_size=2))
        else:
            new = data.draw(st.integers(0, 10**30))
        if new == header[field]:
            return
        header[field] = new
        body = raw[0] if c == 1 else raw.transpose(1, 2, 0)
        bad = (header["magic"] + b"\n"
               + f"{header['width']} {header['height']}\n"
                 f"{header['maxval']}\n".encode() + body.tobytes())
        with pytest.raises(FormatError):
            read(bad, reader[0], **reader[1])

    @settings(deadline=None, max_examples=200)
    @given(raw=images, reader=st.sampled_from(READERS), data=st.data())
    def test_mutated_byte(self, raw, reader, data):
        full = bytearray(encode(raw))
        at = data.draw(st.integers(0, len(full) - 1))
        full[at] = data.draw(st.integers(0, 255).filter(lambda v: v != full[at]))
        try:
            rec = read(bytes(full), reader[0], **reader[1])
        except FormatError:
            return
        # what still reads is a well-formed record: a changed pixel, or a
        # header separator swapped for another
        if reader[0] is pgm.read_image:
            assert rec.pixels.shape[0] in (1, 3)
            assert 0.0 <= rec.pixels.min() and rec.pixels.max() <= 1.0
        else:
            assert rec.labels.min() >= 0
            assert rec.labels.max() < max(2, reader[1]["num_classes"])

    @settings(deadline=None)
    @given(labels=arrays(np.uint8, st.tuples(st.integers(1, 6),
                                            st.integers(1, 6)),
                         elements=st.sampled_from([0, 255])),
           data=st.data())
    def test_mask_byte_out_of_range(self, labels, data):
        i = data.draw(st.integers(0, labels.shape[0] - 1))
        j = data.draw(st.integers(0, labels.shape[1] - 1))
        labels[i, j] = data.draw(st.integers(1, 254))
        h, w = labels.shape
        bad = f"P5\n{w} {h}\n255\n".encode() + labels.tobytes()
        with pytest.raises(FormatError):
            read(bad, pgm.read_mask, num_classes=1)
        with pytest.raises(FormatError):
            read(bad, pgm.read_mask, num_classes=int(labels[i, j]))
