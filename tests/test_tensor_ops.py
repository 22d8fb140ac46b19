import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_j, random_tensor
from wstnn import ntubal, solvers, synth, tensor_io, tsvd
from wstnn import tensor_ops as top


def assert_index_map(x, unfolded, lead):
    """Element idx of ``x`` sits in ``unfolded`` at its indices along the
    ``lead`` modes, then the brute-force flat index of the remaining modes."""
    for idx in np.ndindex(x.shape):
        j = brute_force_j(idx, x.shape, skip=lead)
        assert unfolded[tuple(idx[k - 1] for k in lead) + (j,)] == x[idx]


shapes = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5)


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
        assert [len(top.mode_pairs(n)) for n in (3, 4, 5)] == [3, 6, 10]

    @pytest.mark.parametrize("order", [3.5, 3.0, True, "3"], ids=repr)
    def test_order_must_be_integer(self, order):
        with pytest.raises(ValueError, match="an order is an integer"):
            top.mode_pairs(order)


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


def _uniform(shape):
    n = len(top.mode_pairs(len(shape)))
    return np.full(n, 1.0 / n)


# every N-way entry point applies one shape rule (order >= 3, positive
# integer extents); the two that take a tensor see only an ndarray's
# shape, whose extents are nonnegative integers, so they get the order
# and zero-extent cases
SHAPE_ENTRY_POINTS = {
    "cpspec": lambda shape: synth.CpSpec(shape, 1),
    "validated": lambda shape: solvers.TrpcaConfig(alpha=_uniform(shape)).validated(shape),
    "default_lambda": lambda shape: solvers.default_lambda(shape, _uniform(shape)),
    "weights_rank_aware": lambda shape: ntubal.weights_rank_aware(
        shape, np.zeros(len(top.mode_pairs(len(shape))))),
}
TENSOR_ENTRY_POINTS = {
    "estimate_n_tubal_rank": lambda shape: ntubal.estimate_n_tubal_rank(np.ones(shape)),
    "wstnn": lambda shape: ntubal.wstnn(np.ones(shape), _uniform(shape)),
}
BAD_SHAPES = {
    "order-2": ((4, 5), "an N-way tensor has order >= 3"),
    "zero-extent": ((3, 0, 3), "extents must be positive"),
    "negative-extent": ((3, -2, 3), "extents must be positive"),
    "float-extent": ((3, 4.5, 3), "extents must be integers"),
    "bool-extent": ((3, True, 3), "extents must be integers"),
}
SHAPE_RULE_CASES = [
    pytest.param(call, *BAD_SHAPES[case], id=f"{name}-{case}")
    for points, cases in [(SHAPE_ENTRY_POINTS, BAD_SHAPES),
                          (TENSOR_ENTRY_POINTS, ["order-2", "zero-extent"])]
    for name, call in points.items() for case in cases
]


@pytest.mark.parametrize("call, shape, message", SHAPE_RULE_CASES)
def test_nway_shape_rule(call, shape, message):
    with pytest.raises(ValueError, match=message):
        call(shape)


def _rank2_integer_draw(n=20):
    # small-integer entries, which float16, float32 and int16 hold exactly,
    # so the draw's tubal rank is 2 in each of them
    rng = np.random.default_rng(0)
    factors = [rng.integers(-2, 3, size=(n, 2)) for _ in range(3)]
    return np.einsum("ir,jr,kr->ijk", *factors).astype(np.float64)


def _write_tensor(x, tmp_path):
    path = tmp_path / "x.ntb"
    tensor_io.write_tensor(path, x)
    return np.frombuffer(path.read_bytes(), dtype=np.uint8)


_MASK = synth.sample_mask((20, 20, 20), 0.5, 1)

# every entry point that takes a tensor, called on one 20^3 tensor x; a
# t_product takes x once on each side, so each operand is checked
ELEMENT_ENTRY_POINTS = {
    "dft_tubes": lambda x, _: tsvd.dft_tubes(x),
    "conj_transpose": lambda x, _: tsvd.conj_transpose(x),
    "t_product-left": lambda x, _: tsvd.t_product(x, tsvd.identity_tensor(20, 20)),
    "t_product-right": lambda x, _: tsvd.t_product(tsvd.identity_tensor(20, 20), x),
    "t_svd": lambda x, _: tsvd.t_svd(x),
    "fourier_singular_values": lambda x, _: tsvd.fourier_singular_values(x),
    "tubal_rank": lambda x, _: tsvd.tubal_rank(x),
    "tnn": lambda x, _: tsvd.tnn(x),
    "t_svt": lambda x, _: tsvd.t_svt(x, 1.0),
    "estimate_n_tubal_rank": lambda x, _: ntubal.estimate_n_tubal_rank(x),
    "wstnn": lambda x, _: ntubal.wstnn(x, ntubal.weights_uniform(3)),
    "rse": lambda x, _: synth.rse(x, x[::-1]),
    "lrtc_solve": lambda x, _: solvers.lrtc_solve(x, _MASK, solvers.LrtcConfig(p_max=2)),
    "trpca_solve": lambda x, _: solvers.trpca_solve(x, solvers.TrpcaConfig(p_max=2)),
    "add_salt_pepper": lambda x, _: synth.add_salt_pepper(x, 0.1, 2),
    "write_tensor": _write_tensor,
    "vectorize": lambda x, _: top.vectorize(x),
}


def _arrays(result):
    """A call's result as a flat list of arrays, a solve report as its trace."""
    if isinstance(result, tuple):
        return [a for part in result for a in _arrays(part)]
    if isinstance(result, solvers.SolveReport):
        return [np.array(result.rel_change_trace)]
    return [np.asarray(result)]


@pytest.mark.parametrize("dtype", [np.float32, np.float16, np.int16, np.bool_, np.longdouble],
                         ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("name", ELEMENT_ENTRY_POINTS)
def test_element_rule_computes_in_float64(name, dtype, tmp_path):
    call = ELEMENT_ENTRY_POINTS[name]
    x = _rank2_integer_draw().astype(dtype)
    expected = _arrays(call(x.astype(np.float64), tmp_path))
    actual = _arrays(call(x, tmp_path))
    assert [a.dtype for a in actual] == [e.dtype for e in expected]
    assert [a.tobytes() for a in actual] == [e.tobytes() for e in expected]


@pytest.mark.parametrize("name", ELEMENT_ENTRY_POINTS)
def test_element_rule_rejects_complex(name, tmp_path):
    x = _rank2_integer_draw().astype(np.complex128)
    with warnings.catch_warnings():
        # a ComplexWarning (a cast that drops the imaginary part) fails here
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="got dtype complex128"):
            ELEMENT_ENTRY_POINTS[name](x, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_element_rule_float64_input_is_not_copied():
    x = np.ones((2, 3, 4))
    assert top._real_tensor(x) is x


@pytest.mark.parametrize("dtype", ["<M8[s]", "<m8[s]", "U3", object])
def test_element_rule_rejects_non_numeric_dtypes(dtype):
    with pytest.raises(ValueError, match="got dtype"):
        top._real_tensor(np.zeros((2, 2, 2), dtype=dtype))


def test_idft_tubes_takes_a_complex_spectrum():
    x = _rank2_integer_draw()
    np.testing.assert_allclose(tsvd.idft_tubes(tsvd.dft_tubes(x)).real, x, atol=1e-12)
