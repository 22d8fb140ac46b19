import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wstnn import tensor_ops as top


def brute_force_j(indices, shape, skip):
    """0-based flat index over the modes not in ``skip`` (1-based mode ids),
    first surviving mode fastest."""
    j = 0
    stride = 1
    for mode, (i, n) in enumerate(zip(indices, shape), start=1):
        if mode in skip:
            continue
        j += i * stride
        stride *= n
    return j


def assert_index_map(x, unfolded, lead):
    """Element idx of ``x`` sits in ``unfolded`` at its indices along the
    ``lead`` modes, then the brute-force flat index of the remaining modes."""
    for idx in np.ndindex(x.shape):
        j = brute_force_j(idx, x.shape, skip=lead)
        assert unfolded[tuple(idx[k - 1] for k in lead) + (j,)] == x[idx]


shapes = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5)


def random_tensor(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


class TestVectorize:
    def test_column_major_2x2(self):
        x = np.array([[1.0, 3.0], [2.0, 4.0]])
        assert top.vectorize(x).tolist() == [1, 2, 3, 4]

    def test_one_way_identity(self):
        x = np.array([5.0, 6.0, 7.0])
        np.testing.assert_array_equal(top.vectorize(x), x)

    def test_j_formula_2x3x2(self):
        # x(i,j,s) = 100 i + 10 j + s; (2,3,1) lands at 1-based flat position 6
        x = np.fromfunction(
            lambda i, j, s: 100 * (i + 1) + 10 * (j + 1) + (s + 1), (2, 3, 2)
        )
        v = top.vectorize(x)
        assert v[6 - 1] == 231

    def test_exhaustive_index_map(self):
        shape = (2, 3, 4)
        x = random_tensor(shape, 1)
        v = top.vectorize(x)
        for idx in np.ndindex(shape):
            assert v[brute_force_j(idx, shape, skip=())] == x[idx]

    @settings(max_examples=30, deadline=None)
    @given(shape=shapes)
    def test_index_map_property(self, shape):
        x = random_tensor(shape, 11)
        assert_index_map(x, top.vectorize(x), lead=())


class TestModeKUnfold:
    @pytest.mark.parametrize("shape", [(2, 3, 4), (2, 2, 3, 2), (3, 1, 2, 2, 2), (0, 3, 2),
                                       (3, 0, 2)])
    def test_roundtrip(self, shape):
        x = random_tensor(shape, 2)
        for k in range(1, len(shape) + 1):
            back = top.mode_k_fold(top.mode_k_unfold(x, k), k, shape)
            np.testing.assert_array_equal(back, x)

    def test_row_tensor(self):
        x = random_tensor((1, 4, 1), 3)
        m = top.mode_k_unfold(x, 2)
        assert m.shape == (4, 1)
        np.testing.assert_array_equal(m.ravel(), x.ravel())

    def test_exhaustive_index_map(self):
        shape = (2, 3, 2)
        x = random_tensor(shape, 4)
        for k in range(1, 4):
            m = top.mode_k_unfold(x, k)
            for idx in np.ndindex(shape):
                j = brute_force_j(idx, shape, skip=(k,))
                assert m[idx[k - 1], j] == x[idx]

    def test_out_of_range(self):
        x = random_tensor((2, 2, 2))
        m = top.mode_k_unfold(x, 1)
        # out of range, or not one integer
        for k in [4, 0, 1.5, 2.0, (1,), True]:
            with pytest.raises(ValueError, match="invalid modes"):
                top.mode_k_unfold(x, k)
            with pytest.raises(ValueError, match="invalid modes"):
                top.mode_k_fold(m, k, (2, 2, 2))

    def test_fold_shape_mismatch(self):
        with pytest.raises(ValueError):
            top.mode_k_fold(np.zeros((2, 5)), 1, (2, 2, 2))

    def test_fold_zero(self):
        out = top.mode_k_fold(np.zeros((3, 8)), 2, (2, 3, 4))
        np.testing.assert_array_equal(out, np.zeros((2, 3, 4)))

    @settings(max_examples=30, deadline=None)
    @given(shape=shapes)
    def test_roundtrip_property(self, shape):
        shape = tuple(shape)
        x = random_tensor(shape, 12)
        for k in range(1, len(shape) + 1):
            m = top.mode_k_unfold(x, k)
            assert_index_map(x, m, lead=(k,))
            np.testing.assert_array_equal(top.mode_k_fold(m, k, shape), x)


class TestModePairs:
    def test_lexicographic(self):
        assert top.mode_pairs(4) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


class TestModeK1K2:
    def test_paper_worked_element(self):
        # 2x3x3x2 tensor, pair (2,4): element (1,2,1,2) appears at (2,2,1)
        x = random_tensor((2, 3, 3, 2), 5)
        y = top.mode_k1k2_unfold(x, (2, 4))
        assert y.shape == (3, 2, 6)
        assert y[1, 1, 0] == x[0, 1, 0, 1]

    def test_three_way_identity_pair(self):
        x = random_tensor((3, 4, 5), 6)
        np.testing.assert_array_equal(top.mode_k1k2_unfold(x, (1, 2)), x)

    def test_three_way_permutations(self):
        x = random_tensor((3, 4, 5), 7)
        # x(i,j,s) = x_(13)(i,s,j) = x_(23)(j,s,i)
        np.testing.assert_array_equal(
            top.mode_k1k2_unfold(x, (1, 3)), np.transpose(x, (0, 2, 1))
        )
        np.testing.assert_array_equal(
            top.mode_k1k2_unfold(x, (2, 3)), np.transpose(x, (1, 2, 0))
        )

    def test_exhaustive_index_map(self):
        shape = (2, 3, 4, 5)
        x = random_tensor(shape, 8)
        for pair in top.mode_pairs(4):
            y = top.mode_k1k2_unfold(x, pair)
            k1, k2 = pair
            for idx in np.ndindex(shape):
                j = brute_force_j(idx, shape, skip=pair)
                assert y[idx[k1 - 1], idx[k2 - 1], j] == x[idx]

    def test_preserves_values_and_norm(self):
        x = random_tensor((2, 3, 4, 2), 9)
        for pair in top.mode_pairs(4):
            y = top.mode_k1k2_unfold(x, pair)
            np.testing.assert_array_equal(np.sort(y.ravel()), np.sort(x.ravel()))
            assert top.frobenius_norm(y) == pytest.approx(
                top.frobenius_norm(x), rel=1e-14
            )

    def test_fold_all_ones(self):
        shape = (2, 3, 2, 2)
        y = np.ones((3, 2, 4))
        out = top.mode_k1k2_fold(y, (2, 4), shape)
        np.testing.assert_array_equal(out, np.ones(shape))

    def test_invalid_pair(self):
        x = random_tensor((2, 2, 2), 10)
        # out of range or not increasing, not two modes, or not integers
        for pair in [(2, 1), (0, 1), (1, 4), (2, 2), (1, 2, 3), (1,), 3, (1.0, 2), (1, 1.5),
                     (True, 2)]:
            with pytest.raises(ValueError, match="invalid modes"):
                top.mode_k1k2_unfold(x, pair)
            with pytest.raises(ValueError, match="invalid modes"):
                top.mode_k1k2_fold(x, pair, x.shape)

    def test_fold_shape_mismatch(self):
        with pytest.raises(ValueError):
            top.mode_k1k2_fold(np.zeros((2, 2, 5)), (1, 2), (2, 2, 4))

    # an empty mode unfolds as any other, in the lead or in the trailing axis
    @pytest.mark.parametrize("shape", [(0, 3, 3), (3, 0, 2, 2)])
    def test_zero_extent_roundtrip(self, shape):
        x = np.zeros(shape)
        for k1, k2 in top.mode_pairs(len(shape)):
            y = top.mode_k1k2_unfold(x, (k1, k2))
            assert y.shape[:2] == (shape[k1 - 1], shape[k2 - 1]) and y.size == 0
            assert top.mode_k1k2_fold(y, (k1, k2), shape).shape == shape

    @settings(max_examples=30, deadline=None)
    @given(shape=shapes, data=st.data())
    def test_roundtrip_property(self, shape, data):
        shape = tuple(shape)
        x = random_tensor(shape, data.draw(st.integers(0, 2**31)))
        for pair in top.mode_pairs(len(shape)):
            y = top.mode_k1k2_unfold(x, pair)
            assert_index_map(x, y, lead=pair)
            np.testing.assert_array_equal(top.mode_k1k2_fold(y, pair, shape), x)

    # the solvers' unfold and fold copy nothing on three-way data
    @settings(max_examples=30, deadline=None)
    @given(shape=st.lists(st.integers(min_value=1, max_value=4), min_size=3, max_size=3))
    def test_three_way_views(self, shape):
        x = random_tensor(shape, 13)
        for pair in top.mode_pairs(3):
            y = top.mode_k1k2_unfold(x, pair)
            fresh = y.copy()
            assert np.shares_memory(y, x)
            assert np.shares_memory(top.mode_k1k2_fold(y, pair, shape), x)
            assert np.shares_memory(top.mode_k1k2_fold(fresh, pair, shape), fresh)


class TestNorms:
    def test_frobenius_zero(self):
        assert top.frobenius_norm(np.zeros((2, 2, 2))) == 0.0

    def test_frobenius_3_4_5(self):
        x = np.array([3.0, 4.0]).reshape(1, 1, 2)
        assert top.frobenius_norm(x) == pytest.approx(5.0)

    def test_frobenius_in_range_is_plain_norm(self):
        x = random_tensor((6, 5, 4), 10)
        for scale in (1e-150, 1.0, 1e150):
            assert top.frobenius_norm(scale * x) == np.linalg.norm((scale * x).ravel())

    # the sum of squares overflows above about 1e154; the norm must not
    def test_frobenius_large_entries(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = top.frobenius_norm(1e200 * np.ones(8))
        assert norm == pytest.approx(np.sqrt(8.0) * 1e200, rel=1e-15)

    @pytest.mark.parametrize("bad, expected", [(np.inf, np.inf), (np.nan, np.nan)],
                             ids=["inf", "nan"])
    def test_frobenius_nonfinite_entry(self, bad, expected):
        x = np.ones(4)
        x[2] = bad
        np.testing.assert_equal(top.frobenius_norm(x), expected)
