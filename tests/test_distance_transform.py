"""The squared distance transform behind metrics.hausdorff and
losses.level_set, checked against the all-pairs oracles on random masks."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hybridseg import losses as L
from hybridseg import metrics as M
from hybridseg.tensor import ShapeError

from test_losses import level_set_oracle
from test_metrics import hausdorff_oracle

SIDES = st.integers(1, 20)


@st.composite
def mask_of_shape(draw, h, w):
    """A random, full, single-pixel, box or holed mask of shape (h, w)."""
    kind = draw(st.sampled_from(["random", "full", "pixel", "box", "hole"]))
    if kind == "random":
        return draw(arrays(bool, (h, w)))
    if kind == "full":
        return np.ones((h, w), dtype=bool)
    i0, j0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
    i1, j1 = i0 + 1, j0 + 1
    if kind != "pixel":
        i1, j1 = draw(st.integers(i1, h)), draw(st.integers(j1, w))
    m = np.zeros((h, w), dtype=bool)
    m[i0:i1, j0:j1] = True
    return ~m if kind == "hole" else m


@st.composite
def masks(draw):
    return draw(mask_of_shape(draw(SIDES), draw(SIDES)))


@st.composite
def mask_pairs(draw):
    h, w = draw(SIDES), draw(SIDES)
    return draw(mask_of_shape(h, w)), draw(mask_of_shape(h, w))


def sq_distance_oracle(mask):
    pix = np.argwhere(np.ones(mask.shape, dtype=bool))
    pts = np.argwhere(mask)
    d2 = ((pix[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    return d2.min(axis=1).reshape(mask.shape)


@settings(deadline=None)
@given(mask_pairs())
@example((np.ones((1, 7), dtype=bool), np.eye(1, 7, 3, dtype=bool)))
@example((np.eye(9, 1, 8, dtype=bool), np.ones((9, 1), dtype=bool)))
def test_hausdorff_matches_oracle(pair):
    a, b = pair
    assume(a.any() and b.any())
    assert M.hausdorff(a, b) == hausdorff_oracle(a, b)


@settings(deadline=None)
@given(masks())
@example(np.eye(1, 7, 3))
@example(np.eye(9, 1, 8))
def test_level_set_matches_oracle(g):
    g = g.astype(float)
    assume(0 < g.sum() < g.size)
    assert np.array_equal(L.level_set(g).values, level_set_oracle(g))


@settings(deadline=None)
@given(masks())
def test_sq_distance_matches_oracle(mask):
    assume(mask.any())
    d2 = M.sq_distance_to(mask)
    assert d2.dtype == np.int64
    assert np.array_equal(d2, sq_distance_oracle(mask))


@pytest.mark.parametrize("shape", [(150, 70), (70, 150)])
def test_sq_distance_across_row_chunks(shape):
    # a 70-wide row pass splits 150 rows into uneven chunks
    rng = np.random.default_rng(11)
    mask = np.zeros(shape, dtype=bool)
    mask.flat[rng.choice(mask.size, size=25, replace=False)] = True
    assert np.array_equal(M.sq_distance_to(mask), sq_distance_oracle(mask))


def test_hausdorff_256_known_answer():
    # every pixel of the 10x10 hole is within 5 pixels of the holed mask
    full = np.ones((256, 256), dtype=bool)
    holed = full.copy()
    holed[100:110, 40:50] = False
    assert M.hausdorff(full, holed) == 5.0
    assert M.hausdorff(holed, full) == 5.0


@pytest.mark.parametrize("mask,error", [
    (np.zeros((3, 4), dtype=bool), ValueError),
    (np.ones(5, dtype=bool), ShapeError),
    (np.ones((2, 2, 2), dtype=bool), ShapeError),
])
def test_sq_distance_rejects(mask, error):
    with pytest.raises(error):
        M.sq_distance_to(mask)


def test_hausdorff_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        M.hausdorff(np.ones((3, 3)), np.ones((3, 4)))
