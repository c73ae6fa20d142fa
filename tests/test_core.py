"""Domain types: dataset validation, segmentations, piecewise-constant fits."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from segbasis import (
    PiecewiseModel,
    Segmentation,
    build_sse_table,
    fit_model,
    new_dataset,
    partition_totals,
    reconstruct,
    segmentation_from_ends,
)


def test_new_dataset_basic():
    ds = new_dataset([0.0, 1.0, 2.5], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert ds.n == 2 and ds.m == 3
    assert ds.grid.tolist() == [0.0, 1.0, 2.5]
    assert not ds.values.flags.writeable
    assert not ds.grid.flags.writeable


def test_new_dataset_promotes_single_row():
    ds = new_dataset([0.0, 1.0], [3.0, 4.0])
    assert ds.n == 1 and ds.values.shape == (1, 2)


@pytest.mark.parametrize(
    "grid,values,message",
    [
        ([1.0, 1.0, 2.0], [[0.0, 0.0, 0.0]], "grid not strictly increasing"),
        ([2.0, 1.0], [[0.0, 0.0]], "grid not strictly increasing"),
        ([0.0, 1.0], [[1.0, 2.0], [3.0]], "ragged rows"),
        ([0.0, 1.0], [[1.0, float("nan")]], "non-finite entry in values"),
        ([0.0, float("inf")], [[1.0, 2.0]], "non-finite entry in grid"),
        ([0.0, 1.0, 2.0], [[1.0, 2.0]], "does not match grid length"),
        ([], [[]], "non-empty"),
        ([0.0, 1.0], "ab", "non-numeric entry in values"),
        ([0.0, 1.0], [[1.0, 2.0], [3.0, "x"]], "non-numeric entry in values"),
        ([0.0, 1.0], [[[1.0, 2.0]], [[3.0, 4.0]]], "1-d or 2-d, got 3-d"),
        ([0.0], 1.0, "1-d or 2-d, got 0-d"),
        ([0.0, 1.0], [None, 1.0], "non-numeric entry in values"),
        ([0.0, 1.0], ["1.5", "2"], "non-numeric entry in values"),
        ([0.0, 1.0], [b"1", b"2"], "non-numeric entry in values"),
    ],
)
def test_new_dataset_rejects(grid, values, message):
    with pytest.raises(ValueError, match=message):
        new_dataset(grid, values)


def test_segmentation_properties():
    seg = segmentation_from_ends([2, 4, 7], 7)
    assert seg.k == 3
    assert seg.starts == (1, 3, 5)
    assert seg.lengths == (2, 2, 3)
    assert seg.intervals() == [(1, 2), (3, 4), (5, 7)]
    assert seg.slices() == [slice(0, 2), slice(2, 4), slice(4, 7)]


@pytest.mark.parametrize(
    "ends,m,message",
    [
        ([], 4, "empty"),
        ([3, 2, 4], 4, "not strictly increasing"),
        ([2, 3], 4, "does not equal m"),
        ([0, 4], 4, "out of range"),
        ([5], 4, "out of range"),
        ([2], 0, "m must be at least 1"),
    ],
)
def test_segmentation_rejects(ends, m, message):
    with pytest.raises(ValueError, match=message):
        segmentation_from_ends(ends, m)


@pytest.mark.parametrize(
    "ends,message",
    [
        ((), "empty"),
        ((5, 3, 7), "not strictly increasing"),
        ((2, 2, 7), "not strictly increasing"),
        ((0, 7), "out of range"),
        ((-1,), "out of range"),
    ],
)
def test_segmentation_rejects_malformed_ends(ends, message):
    # built directly, such ends once priced at +inf from the SSE table and
    # finite from the dataset, and fitted NaN coefficients
    with pytest.raises(ValueError, match=message):
        Segmentation(ends=ends)


@given(st.data())
def test_segmentation_partitions_the_grid(data):
    m = data.draw(st.integers(min_value=1, max_value=30))
    cuts = data.draw(st.sets(st.integers(1, max(1, m - 1)), max_size=m - 1))
    ends = sorted(c for c in cuts if c < m) + [m]
    seg = segmentation_from_ends(ends, m)
    assert seg.starts[0] == 1
    assert seg.ends[-1] == m
    assert sum(seg.lengths) == m
    covered = [i for sl in seg.slices() for i in range(sl.start, sl.stop)]
    assert covered == list(range(m))


def test_fit_and_reconstruct_step():
    ds = new_dataset([0.0, 1.0, 2.0, 3.0], [[0.0, 0.0, 1.0, 1.0]])
    seg = segmentation_from_ends([2, 4], 4)
    model = fit_model(ds, seg)
    assert model.coefficients.tolist() == [[0.0, 1.0]]
    recon = reconstruct(ds, model)
    assert recon.tolist() == [[0.0, 0.0, 1.0, 1.0]]


def test_fit_reconstruct_sse_equals_direct():
    rng = np.random.default_rng(5)
    ds = new_dataset(np.arange(9.0), rng.normal(size=(4, 9)))
    seg = segmentation_from_ends([3, 5, 9], 9)
    recon = reconstruct(ds, fit_model(ds, seg))
    direct = 0.0
    for sl in seg.slices():
        block = ds.values[:, sl]
        direct += ((block - block.mean(axis=1, keepdims=True)) ** 2).sum()
    assert np.isclose(((ds.values - recon) ** 2).sum(), direct, rtol=1e-12)


def test_fit_model_mismatched_m():
    ds = new_dataset([0.0, 1.0], [[1.0, 2.0]])
    seg = segmentation_from_ends([3], 3)
    with pytest.raises(ValueError, match="segmentation covers 3 points"):
        fit_model(ds, seg)
    with pytest.raises(ValueError, match="model covers 3 points"):
        reconstruct(ds, fit_model(new_dataset([0, 1, 2], [[1, 2, 3]]), seg))


def test_segmentation_ends_fix_its_grid_size():
    # a segmentation's m is its last end, so one ending short of the
    # dataset is rejected wherever it is priced, fitted or evaluated
    seg = Segmentation(ends=(2, 4))
    assert seg.m == 4
    ds = new_dataset(np.arange(7.0), np.random.default_rng(3).normal(size=(2, 7)))
    for source in (build_sse_table(ds), ds):
        with pytest.raises(ValueError, match="segmentation covers 4 points"):
            partition_totals(source, [seg])
    with pytest.raises(ValueError, match="segmentation covers 4 points"):
        fit_model(ds, seg)
    model = PiecewiseModel(segmentation=seg, coefficients=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="model covers 4 points"):
        reconstruct(ds, model)


def test_reconstruct_rejects_foreign_coefficients():
    ds = new_dataset([0.0, 1.0, 2.0], [[1.0, 2.0, 3.0]])
    seg = segmentation_from_ends([1, 3], 3)
    model = fit_model(ds, seg)
    bad = type(model)(segmentation=seg, coefficients=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="coefficient matrix shape"):
        reconstruct(ds, bad)
