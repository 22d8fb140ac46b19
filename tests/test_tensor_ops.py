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


shapes = st.lists(st.integers(min_value=1, max_value=4), min_size=3, max_size=5)


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


class TestModeKUnfold:
    @pytest.mark.parametrize("shape", [(2, 3, 4), (2, 2, 3, 2), (3, 1, 2, 2, 2)])
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
        with pytest.raises(ValueError):
            top.mode_k_unfold(random_tensor((2, 2, 2)), 4)

    def test_fold_shape_mismatch(self):
        with pytest.raises(ValueError):
            top.mode_k_fold(np.zeros((2, 5)), 1, (2, 2, 2))

    def test_fold_zero(self):
        out = top.mode_k_fold(np.zeros((3, 8)), 2, (2, 3, 4))
        np.testing.assert_array_equal(out, np.zeros((2, 3, 4)))


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
        for pair in [(2, 1), (0, 1), (1, 4), (2, 2)]:
            with pytest.raises(ValueError):
                top.mode_k1k2_unfold(x, pair)

    def test_fold_shape_mismatch(self):
        with pytest.raises(ValueError):
            top.mode_k1k2_fold(np.zeros((2, 2, 5)), (1, 2), (2, 2, 4))

    @settings(max_examples=30, deadline=None)
    @given(shape=shapes, data=st.data())
    def test_roundtrip_property(self, shape, data):
        shape = tuple(shape)
        pair = data.draw(st.sampled_from(top.mode_pairs(len(shape))))
        x = random_tensor(shape, data.draw(st.integers(0, 2**31)))
        back = top.mode_k1k2_fold(top.mode_k1k2_unfold(x, pair), pair, shape)
        np.testing.assert_array_equal(back, x)


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
