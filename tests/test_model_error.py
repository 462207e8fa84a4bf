"""``model_error`` against the dense formula it replaces, at every row blocking."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netdmd import netdmdc
from netdmd.dmdcore import ExactLinearModel
from netdmd.errors import DimensionMismatch, NonFiniteEntry
from netdmd.netdmdc import model_error
from netdmd.numkernel import ConditioningRecord

RECORD = ConditioningRecord(1.0, 1.0, 0.0, False)


def _model(a, b=None):
    return ExactLinearModel(a=np.asarray(a, dtype=float), b=b, conditioning=RECORD)


def _dense_error(a, ta, b=None, tb=None):
    """The formula ``model_error`` used before it summed row blocks."""
    parts = [a - ta] if b is None else [a - ta, b - tb]
    return float(np.linalg.norm(np.hstack(parts)))


def _error_with_block_rows(rows, width, *args):
    """``model_error`` with its buffer sized to hold exactly ``rows`` rows of ``width`` columns."""
    with mock.patch.object(netdmdc, "_SCORE_BLOCK_ELEMENTS", rows * max(width, 1)):
        return model_error(*args)


@given(
    n=st.integers(1, 24),
    block_rows=st.integers(1, 10),
    l=st.integers(0, 4),
    input_part=st.sampled_from(["both", "none", "zero_width"]),
    scale=st.sampled_from([1e-12, 1.0, 1e6]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=6, block_rows=6, l=2, input_part="both", scale=1.0, seed=0)  # n equal to the block rows
@example(n=3, block_rows=8, l=1, input_part="both", scale=1.0, seed=1)  # n below the block rows
@example(n=7, block_rows=3, l=3, input_part="both", scale=1.0, seed=2)  # n not a multiple
@example(n=7, block_rows=3, l=0, input_part="zero_width", scale=1.0, seed=3)
@settings(max_examples=150, deadline=None)
def test_matches_the_dense_formula(n, block_rows, l, input_part, scale, seed):
    rng = np.random.default_rng(seed)
    a, ta = scale * rng.standard_normal((2, n, n))
    if input_part == "both":
        b, tb = scale * rng.standard_normal((2, n, l))
        args, width = (_model(a, b), ta, tb), n + l
        want = _dense_error(a, ta, b, tb)
    elif input_part == "zero_width":
        args, width = (_model(a, np.zeros((n, 0))), ta, np.zeros((n, 0))), n
        want = _dense_error(a, ta)
    else:
        args, width = (_model(a), ta), n
        want = _dense_error(a, ta)
    got = _error_with_block_rows(block_rows, width, *args)
    assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["a", "truth_a", "b", "truth_b"])
def test_non_finite_entries_raise(bad, where):
    arrays = {"a": np.eye(5), "truth_a": np.zeros((5, 5)), "b": np.ones((5, 2)), "truth_b": np.zeros((5, 2))}
    arrays[where][3, 1] = bad
    with pytest.raises(NonFiniteEntry):
        _error_with_block_rows(2, 7, _model(arrays["a"], arrays["b"]), arrays["truth_a"], arrays["truth_b"])


def test_finite_overflow_returns_inf():
    a = np.zeros((4, 4))
    a[2, 2] = 1e200
    with np.errstate(over="ignore"):
        assert model_error(_model(a), np.zeros((4, 4))) == np.inf
        assert _dense_error(a, np.zeros((4, 4))) == np.inf


def test_overflowing_difference_raises_like_the_dense_formula():
    a = np.full((2, 2), 1e308)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteEntry):
        model_error(_model(a), -a)


@pytest.mark.parametrize(
    "b, truth_b", [(None, np.ones((3, 1))), (np.ones((3, 1)), None), (np.ones((3, 2)), np.ones((3, 1)))]
)
def test_one_sided_or_mismatched_input_part_raises(b, truth_b):
    with pytest.raises(DimensionMismatch):
        model_error(_model(np.eye(3), b), np.eye(3), truth_b)


def test_mismatched_input_rows_raise():
    with pytest.raises(DimensionMismatch):
        model_error(_model(np.eye(3), np.ones((3, 1))), np.eye(3), np.ones((1, 1)))


@pytest.mark.parametrize("truth_b", [np.ones(3), np.ones((3, 1, 1))], ids=["vector", "3-D"])
def test_truth_input_part_that_is_not_a_matrix_raises(truth_b):
    # a 1-D truth B once raised a bare IndexError reading its column count
    with pytest.raises(DimensionMismatch, match="truth B must be a matrix"):
        model_error(_model(np.eye(3), np.ones((3, 1))), np.eye(3), truth_b)
