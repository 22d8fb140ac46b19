import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import random_tensor, small_shapes, traced_peak
from wstnn import tsvd
from wstnn.tensor_ops import frobenius_norm

# relative bound of the half-spectrum code against the full-FFT references
REL = 1e-12


class TestDft:
    def test_roundtrip(self):
        x = random_tensor((3, 4, 5), 0)
        back = tsvd.idft_tubes(tsvd.dft_tubes(x))
        np.testing.assert_allclose(back.real, x, atol=1e-12)
        assert np.abs(back.imag).max() < 1e-12

    def test_first_slice_is_tube_sum(self):
        x = random_tensor((2, 3, 4), 1)
        np.testing.assert_allclose(tsvd.dft_tubes(x)[:, :, 0], x.sum(axis=2))

    def test_requires_three_way(self):
        with pytest.raises(ValueError):
            tsvd.dft_tubes(np.zeros((2, 2)))


def other_operand(x, shape):
    # a zero t-product operand of the given n1 x n2 shape that matches x's
    # slices, with one slice where x has none, so that only x breaks the rule
    return np.zeros(shape + (max(x.shape[2], 1),))


# every entry point that takes a tensor, and its result on an empty
# n1 x n2 x n3 input (arrays by their shapes)
EMPTY_RESULTS = {
    "dft_tubes": (tsvd.dft_tubes, lambda n1, n2, n3: (n1, n2, n3)),
    "idft_tubes": (tsvd.idft_tubes, lambda n1, n2, n3: (n1, n2, n3)),
    "conj_transpose": (tsvd.conj_transpose, lambda n1, n2, n3: (n2, n1, n3)),
    "t_product-left": (lambda x: tsvd.t_product(x, other_operand(x, (x.shape[1], 2))),
                       lambda n1, n2, n3: (n1, 2, n3)),
    "t_product-right": (lambda x: tsvd.t_product(other_operand(x, (2, x.shape[0])), x),
                        lambda n1, n2, n3: (2, n2, n3)),
    "t_svd": (tsvd.t_svd, lambda n1, n2, n3: ((n1, n1, n3), (n1, n2, n3), (n2, n2, n3))),
    "fourier_singular_values": (tsvd.fourier_singular_values, lambda n1, n2, n3: (n3, 0)),
    "tubal_rank": (tsvd.tubal_rank, lambda n1, n2, n3: 0),
    "tnn": (tsvd.tnn, lambda n1, n2, n3: 0.0),
    "t_svt": (lambda x: tsvd.t_svt(x, 1.0), lambda n1, n2, n3: (n1, n2, n3)),
}


def shapes_of(result):
    if isinstance(result, tuple):
        return tuple(shapes_of(r) for r in result)
    return result.shape if isinstance(result, np.ndarray) else result


# the shape rule: no frontal slice is a ValueError that names the shape,
# while a zero n1 or n2 is an empty t-SVD with a defined result
@pytest.mark.parametrize("shape", [(3, 4, 0), (0, 4, 3), (3, 0, 4)], ids=["n3=0", "n1=0", "n2=0"])
@pytest.mark.parametrize("name", EMPTY_RESULTS)
def test_shape_rule_on_empty_extents(name, shape):
    call, result = EMPTY_RESULTS[name]
    x = np.zeros(shape)
    if shape[2] == 0:
        with pytest.raises(ValueError, match=re.escape(f"n3 >= 1, got shape {shape}")):
            call(x)
    else:
        assert shapes_of(call(x)) == result(*shape)


class TestConjTranspose:
    def test_single_slice_is_matrix_transpose(self):
        x = random_tensor((3, 4, 1), 2)
        np.testing.assert_array_equal(tsvd.conj_transpose(x)[:, :, 0], x[:, :, 0].T)

    def test_slice_reversal(self):
        x = random_tensor((2, 3, 5), 3)
        xt = tsvd.conj_transpose(x)
        np.testing.assert_array_equal(xt[:, :, 0], x[:, :, 0].T)
        for i in range(1, 5):
            np.testing.assert_array_equal(xt[:, :, i], x[:, :, 5 - i].T)

    def test_involution(self):
        x = random_tensor((3, 2, 4), 4)
        np.testing.assert_array_equal(tsvd.conj_transpose(tsvd.conj_transpose(x)), x)

    def test_product_rule(self):
        x = random_tensor((3, 4, 5), 5)
        y = random_tensor((4, 2, 5), 6)
        lhs = tsvd.conj_transpose(tsvd.t_product(x, y))
        rhs = tsvd.t_product(tsvd.conj_transpose(y), tsvd.conj_transpose(x))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestTProduct:
    def test_tube_circular_convolution(self):
        # 1x1 tubes multiply by circular convolution: (1,2,3)*(4,5,6)
        a = np.array([1.0, 2.0, 3.0]).reshape(1, 1, 3)
        b = np.array([4.0, 5.0, 6.0]).reshape(1, 1, 3)
        np.testing.assert_allclose(
            tsvd.t_product(a, b).ravel(), [31.0, 31.0, 28.0], atol=1e-12
        )

    def test_single_slice_is_matmul(self):
        x = random_tensor((3, 4, 1), 7)
        y = random_tensor((4, 2, 1), 8)
        np.testing.assert_allclose(
            tsvd.t_product(x, y)[:, :, 0], x[:, :, 0] @ y[:, :, 0], atol=1e-12
        )

    def test_identity_laws(self):
        x = random_tensor((3, 4, 5), 9)
        left = tsvd.t_product(tsvd.identity_tensor(3, 5), x)
        right = tsvd.t_product(x, tsvd.identity_tensor(4, 5))
        np.testing.assert_allclose(left, x, atol=1e-12)
        np.testing.assert_allclose(right, x, atol=1e-12)

    def test_associativity(self):
        x = random_tensor((2, 3, 4), 10)
        y = random_tensor((3, 3, 4), 11)
        z = random_tensor((3, 2, 4), 12)
        lhs = tsvd.t_product(tsvd.t_product(x, y), z)
        rhs = tsvd.t_product(x, tsvd.t_product(y, z))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tsvd.t_product(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)))
        with pytest.raises(ValueError):
            tsvd.t_product(np.zeros((2, 3, 4)), np.zeros((3, 2, 5)))

    @settings(max_examples=25, deadline=None)
    @given(shape=small_shapes, n4=st.integers(1, 4), seed=st.integers(0, 2**31))
    def test_matches_bcirc_oracle(self, shape, n4, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape)
        y = rng.standard_normal((shape[1], n4, shape[2]))
        np.testing.assert_allclose(
            tsvd.t_product(x, y), oracles.bcirc_oracle(x, y), atol=1e-10
        )


class TestBcirc:
    def test_layout_3_slices(self):
        x = random_tensor((2, 2, 3), 13)
        b = oracles.bcirc(x)
        assert b.shape == (6, 6)
        # first block column stacks the slices in order; circulant shifts right
        np.testing.assert_array_equal(b[0:2, 0:2], x[:, :, 0])
        np.testing.assert_array_equal(b[2:4, 0:2], x[:, :, 1])
        np.testing.assert_array_equal(b[4:6, 0:2], x[:, :, 2])
        np.testing.assert_array_equal(b[0:2, 2:4], x[:, :, 2])
        np.testing.assert_array_equal(b[0:2, 4:6], x[:, :, 1])


class TestTSvd:
    # the contract is checked with the library's half-spectrum t-product and
    # with the full-FFT reference, so a t_svd fault that t_product mirrors
    # back cannot hide
    @pytest.mark.parametrize("reference", [False, True])
    def test_contract_8x6x5(self, reference):
        prod = oracles.full_t_product if reference else tsvd.t_product
        x = random_tensor((8, 6, 5), 14)
        u, s, v = tsvd.t_svd(x)
        assert u.shape == (8, 8, 5)
        assert s.shape == (8, 6, 5)
        assert v.shape == (6, 6, 5)
        recon = prod(prod(u, s), tsvd.conj_transpose(v))
        assert frobenius_norm(recon - x) <= 1e-10 * frobenius_norm(x)
        eye8 = tsvd.identity_tensor(8, 5)
        eye6 = tsvd.identity_tensor(6, 5)
        assert frobenius_norm(prod(tsvd.conj_transpose(u), u) - eye8) < 1e-10
        assert frobenius_norm(prod(tsvd.conj_transpose(v), v) - eye6) < 1e-10

    def test_f_diagonal_and_ordered(self):
        x = random_tensor((5, 4, 3), 15)
        s = tsvd.t_svd(x).s
        sf = tsvd.dft_tubes(s)
        for i in range(3):
            slice_i = sf[:, :, i].copy()
            diag = np.diagonal(slice_i).real.copy()
            np.fill_diagonal(slice_i, 0.0)
            assert np.abs(slice_i).max() < 1e-10
            assert np.all(np.diff(diag) <= 1e-10)
            assert np.all(diag >= -1e-10)


def assert_rel_close(actual, expected):
    assert frobenius_norm(actual - expected) <= REL * frobenius_norm(expected)


half_spectrum_cases = pytest.mark.parametrize("n3", [1, 2, 5, 6])
extents = st.integers(1, 5)
seeds = st.integers(0, 2**31)


class TestHalfSpectrum:
    """The rfft path agrees with the full-FFT references for n3 = 1, 2,
    odd and even."""

    @half_spectrum_cases
    @settings(max_examples=25, deadline=None)
    @given(n1=extents, n2=extents, seed=seeds)
    def test_fourier_singular_values_match_full_fft(self, n3, n1, n2, seed):
        x = np.random.default_rng(seed).standard_normal((n1, n2, n3))
        sv = tsvd.fourier_singular_values(x)
        assert sv.shape == (n3, min(n1, n2))
        assert_rel_close(sv, oracles.full_fourier_singular_values(x))

    @half_spectrum_cases
    @settings(max_examples=25, deadline=None)
    @given(n1=extents, n2=extents, n4=extents, seed=seeds)
    def test_t_product_matches_full_fft(self, n3, n1, n2, n4, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n1, n2, n3))
        y = rng.standard_normal((n2, n4, n3))
        assert_rel_close(tsvd.t_product(x, y), oracles.full_t_product(x, y))

    @half_spectrum_cases
    @settings(max_examples=25, deadline=None)
    @given(n1=extents, n2=extents, seed=seeds)
    def test_t_svd_matches_full_fft(self, n3, n1, n2, seed):
        # u and v are unique only up to slice-wise unitary freedom, so they
        # are checked through the contract, with the reference t-product
        x = np.random.default_rng(seed).standard_normal((n1, n2, n3))
        u, s, v = tsvd.t_svd(x)
        assert_rel_close(s, oracles.full_t_svd_s(x))
        recon = oracles.full_t_product(oracles.full_t_product(u, s), tsvd.conj_transpose(v))
        assert_rel_close(recon, x)
        for f in (u, v):
            eye = tsvd.identity_tensor(f.shape[0], n3)
            assert_rel_close(oracles.full_t_product(tsvd.conj_transpose(f), f), eye)

    @half_spectrum_cases
    @settings(max_examples=25, deadline=None)
    @given(n1=extents, n2=extents, scale=st.sampled_from([0.0, 1.0]),
           tau_frac=st.sampled_from([0.0, 0.5, 1.5]), seed=seeds)
    def test_t_svt_matches_full_fft(self, n3, n1, n2, scale, tau_frac, seed):
        # tau is 0, half the largest Fourier singular value, or above it
        x = scale * np.random.default_rng(seed).standard_normal((n1, n2, n3))
        tau = tau_frac * oracles.full_fourier_singular_values(x).max()
        assert_rel_close(tsvd.t_svt(x, tau), oracles.full_t_svt(x, tau))

    @pytest.mark.parametrize(
        "n3, where", [(5, 0), (6, 0), (6, -1)], ids=["dc-odd", "dc-even", "nyquist"]
    )
    def test_non_real_self_conjugate_slice_raises(self, monkeypatch, n3, where):
        # a unit phase on one slice's singular vectors is still a valid SVD
        # of that slice, but makes the DC or Nyquist factor slice non-real
        svd = np.linalg.svd

        def phased_svd(a, *args, **kwargs):
            u, sig, vh = svd(a, *args, **kwargs)
            u[where] *= 1j
            vh[where] *= -1j
            return u, sig, vh

        monkeypatch.setattr(np.linalg, "svd", phased_svd)
        with pytest.raises(tsvd.NumericError):
            tsvd.t_svd(random_tensor((4, 3, n3), 26))

    # t_svt's guard: a shrunk DC or Nyquist slice turned imaginary must
    # raise, whether t_svt inverts the full spectrum or the half
    @pytest.mark.parametrize(
        "n3, where", [(5, 0), (6, 0), (6, 3)], ids=["dc-odd", "dc-even", "nyquist"]
    )
    def test_t_svt_non_real_self_conjugate_slice_raises(self, monkeypatch, n3, where):
        shrink = tsvd._gram_shrink
        assert n3 <= tsvd.SVT_BLOCK  # one block: slice indices are global

        def phased_shrink(stack, tau):
            out = shrink(stack, tau)
            out[where] *= 1j
            return out

        monkeypatch.setattr(tsvd, "_gram_shrink", phased_shrink)
        with pytest.raises(tsvd.NumericError, match="imaginary residue"):
            tsvd.t_svt(random_tensor((4, 3, n3), 28), 0.1)

    # a NaN stops at the finite check before the SVD; its NumericError is a
    # LinAlgError, like numpy's own SVD failure, so one except catches both
    @pytest.mark.parametrize("op", [tsvd.t_svd, lambda x: tsvd.t_svt(x, 1.0)],
                             ids=["t_svd", "t_svt"])
    def test_nan_entry_raises_linalg_error(self, op):
        assert issubclass(tsvd.NumericError, np.linalg.LinAlgError)
        x = random_tensor((4, 3, 5), 27)
        x[1, 2, 3] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="non-finite value in the Fourier slices"):
            op(x)

    # LAPACK's SVD of a slice holding an inf may never return, or return
    # garbage that reads as rank 0; no non-finite slice may reach it
    @pytest.mark.parametrize("op", [
        tsvd.t_svd, tsvd.fourier_singular_values, lambda x: tsvd.t_svt(x, 1.0),
    ], ids=["t_svd", "fourier_singular_values", "t_svt"])
    def test_inf_entry_raises_numeric_error(self, op):
        x = random_tensor((5, 4, 3), 28)
        x[2, 1, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(tsvd.NumericError):
            op(x)


class TestRanks:
    def test_tubal_rank_identity(self):
        assert tsvd.tubal_rank(tsvd.identity_tensor(4, 3)) == 4

    def test_tubal_rank_relative_threshold(self):
        # a second term 1e-3 the size of the first counts by default,
        # not above 1% of the largest Fourier singular value
        rng = np.random.default_rng(21)
        x = sum(
            scale * np.multiply.outer(
                np.outer(rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 5)),
                rng.uniform(-1, 1, 4),
            )
            for scale in (1.0, 1e-3)
        )
        assert tsvd.tubal_rank(x) == 2
        assert tsvd.tubal_rank(x, 0.01) == 1

    def test_tubal_rank_outer_product(self):
        rng = np.random.default_rng(17)
        a = rng.uniform(-1, 1, 6)
        b = rng.uniform(-1, 1, 5)
        c = rng.uniform(-1, 1, 4)
        x = np.multiply.outer(np.outer(a, b), c)
        assert tsvd.tubal_rank(x) == 1

    def test_tubal_rank_zero(self):
        assert tsvd.tubal_rank(np.zeros((3, 3, 3))) == 0

    def test_tubal_rank_sum_of_outers(self):
        rng = np.random.default_rng(18)
        x = np.zeros((8, 8, 8))
        r = 3
        for _ in range(r):
            x += np.multiply.outer(
                np.outer(rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8)),
                rng.uniform(-1, 1, 8),
            )
        assert tsvd.tubal_rank(x) == r

    @pytest.mark.parametrize("rel_threshold", [np.nan, -1.0, 0.0, 1.5])
    def test_tubal_rank_rejects_bad_threshold(self, rel_threshold):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            tsvd.tubal_rank(random_tensor((4, 5, 6), 28), rel_threshold)


class TestTnn:
    def test_zero(self):
        assert tsvd.tnn(np.zeros((3, 4, 5))) == 0.0

    def test_delta_slice_equals_nuclear_norm(self):
        # only the first frontal slice is nonzero: every Fourier slice
        # equals A, so their mean nuclear norm is ||A||_*
        a = random_tensor((4, 3), 19)
        x = np.zeros((4, 3, 6))
        x[:, :, 0] = a
        expected = np.linalg.svd(a, compute_uv=False).sum()
        assert tsvd.tnn(x) == pytest.approx(expected, rel=1e-12)

    def test_circular_shift_invariance(self):
        x = random_tensor((3, 4, 5), 20)
        shifted = np.roll(x, 2, axis=2)
        assert tsvd.tnn(shifted) == pytest.approx(tsvd.tnn(x), rel=1e-12)

    def test_matches_tsvd_tubes(self):
        x = random_tensor((4, 5, 3), 21)
        s = tsvd.t_svd(x).s
        # tnn is the mean over slices of the Fourier-domain diagonal sums
        sf = tsvd.dft_tubes(s)
        total = sum(np.diagonal(sf[:, :, i]).real.sum() for i in range(3))
        assert tsvd.tnn(x) == pytest.approx(total / 3, rel=1e-10)


class TestTSvt:
    def test_tau_zero_is_identity(self):
        x = random_tensor((4, 3, 5), 22)
        np.testing.assert_allclose(tsvd.t_svt(x, 0.0), x, atol=1e-12)

    @pytest.mark.parametrize("tau", [-0.1, float("nan")])
    def test_negative_tau_rejected(self, tau):
        with pytest.raises(ValueError):
            tsvd.t_svt(np.zeros((2, 2, 2)), tau)

    def test_large_tau_annihilates(self):
        x = random_tensor((3, 3, 3), 23)
        tau = tsvd.fourier_singular_values(x).max() + 1.0
        np.testing.assert_allclose(tsvd.t_svt(x, tau), 0.0, atol=1e-12)

    # n3 below, at, above and twice the slice block; a tall tensor and a
    # transposed view whose spectrum is not C-ordered. The shrink blocks
    # must not change a bit of the one-batch result
    @pytest.mark.parametrize("n3", [tsvd.SVT_BLOCK - 1, tsvd.SVT_BLOCK, tsvd.SVT_BLOCK + 1,
                                    2 * tsvd.SVT_BLOCK], ids=["below", "at", "above", "twice"])
    @pytest.mark.parametrize("layout", ["c", "tall", "transposed"])
    def test_blocks_match_one_batch(self, monkeypatch, n3, layout):
        if layout == "c":
            z = random_tensor((5, 4, n3), n3)
        elif layout == "tall":
            z = random_tensor((40, 3, n3), n3)
        else:
            z = np.transpose(random_tensor((4, n3, 5), n3), (0, 2, 1))
        top = tsvd.fourier_singular_values(z).max()
        for tau in (0.0, 0.5 * top, 1.5 * top):
            out = tsvd.t_svt(z, tau)
            with monkeypatch.context() as one_batch:
                one_batch.setattr(tsvd, "SVT_BLOCK", n3)
                assert out.tobytes() == tsvd.t_svt(z, tau).tobytes()
            assert out.flags.c_contiguous
            assert_rel_close(out, oracles.full_t_svt(z, tau))
            assert_rel_close(out, oracles.batched_t_svt(z, tau))

    # one forward and one inverse tube DFT per call, through the module
    # functions that perfbench/tracer.py wraps; 15x15x225 is a 15^4 unfolding
    @pytest.mark.parametrize("shape", [(15, 15, 225), (30, 30, 30), (20, 20, 20), (5, 4, 6)],
                             ids=["15x15x225", "30^3", "20^3", "5x4x6"])
    def test_one_dft_each_way(self, monkeypatch, shape):
        calls = {"dft_tubes": 0, "idft_tubes": 0}
        for name in calls:
            def counted(x, fn=getattr(tsvd, name), name=name):
                calls[name] += 1
                return fn(x)

            monkeypatch.setattr(tsvd, name, counted)
        tsvd.t_svt(random_tensor(shape, 27), 1.0)
        assert calls == {"dft_tubes": 1, "idft_tubes": 1}

    # on a 15^4 unfolding the forward tube DFT sets t_svt's peak: neither the
    # shrink blocks nor the one-call inverse may allocate more
    def test_peak_is_forward_dft(self):
        z = random_tensor((15, 15, 225), 28)
        tsvd.t_svt(z, 1.0)  # a first call's one-time allocations are not working set
        assert traced_peak(tsvd.t_svt, z, 1.0) <= 1.01 * traced_peak(tsvd.dft_tubes, z)

    def test_shrinks_fourier_singular_values(self):
        x = random_tensor((4, 4, 4), 24)
        tau = 0.5
        out = tsvd.t_svt(x, tau)
        sv_in = tsvd.fourier_singular_values(x)
        sv_out = tsvd.fourier_singular_values(out)
        np.testing.assert_allclose(sv_out, np.maximum(sv_in - tau, 0.0), atol=1e-10)

    @pytest.mark.parametrize("frac", [0.1, 0.5, 1.1])
    @settings(max_examples=25, deadline=None)
    @given(shape=small_shapes, seed=seeds)
    def test_prox_optimality(self, frac, shape, seed):
        # t_svt(z, tau) minimizes tau * tnn(w) + 0.5*||w - z||_F^2; no random
        # perturbation of the minimizer may score better
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(shape)
        tau = frac * tsvd.fourier_singular_values(z).max()
        w = tsvd.t_svt(z, tau)

        def objective(c):
            return tau * tsvd.tnn(c) + 0.5 * frobenius_norm(c - z) ** 2

        best = objective(w)
        for _ in range(100):
            scale = rng.choice([1e-3, 1e-1, 1.0])
            pert = w + scale * rng.standard_normal(w.shape)
            assert objective(pert) >= best - 1e-9


def graded_matrix(shape, sig, seed):
    """A matrix of the given shape with singular values ``sig``."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((shape[0], len(sig))))
    v, _ = np.linalg.qr(rng.standard_normal((shape[1], len(sig))))
    return (u * sig) @ v.T


slice_shapes = pytest.mark.parametrize("shape", [(7, 3, 5), (3, 7, 5), (5, 5, 5)],
                                       ids=["tall", "wide", "square"])


class TestGramShrink:
    """Edge cases of t_svt's shrink through each slice's Gram matrix."""

    # singular values of 1e-10 square to below the rounding of 1, so some
    # of their eigenvalues come out at or below 0; at tau 0 their
    # components must still come back whole
    @slice_shapes
    def test_tau_zero_returns_input(self, shape):
        graded = np.zeros(shape)
        k = min(shape[:2])
        graded[:, :, 0] = graded_matrix(shape[:2], [1.0] + [1e-10] * (k - 1), 30)
        for z in (random_tensor(shape, 30), graded):
            np.testing.assert_allclose(tsvd.t_svt(z, 0.0), z, rtol=0.0, atol=1e-12)

    # a zero slice and a singular value at or below tau shrink without a
    # division, so no RuntimeWarning (an error in this suite) and no NaN;
    # at 1e-310, tau over a slice's scale overflows to an infinite threshold
    @slice_shapes
    @pytest.mark.parametrize("scale", [0.0, 1.0, 1e-310], ids=["zero", "unit", "subnormal"])
    def test_rank_deficient_shrinks_to_exact_zeros(self, shape, scale):
        rng = np.random.default_rng(31)
        z = scale * np.multiply.outer(np.outer(rng.standard_normal(shape[0]),
                                               rng.standard_normal(shape[1])),
                                      rng.standard_normal(shape[2]))
        top = tsvd.fourier_singular_values(z).max()
        assert not tsvd.t_svt(z, 1.5 * max(top, 1.0)).any()
        if top:
            assert_rel_close(tsvd.t_svt(z, 0.5 * top), oracles.full_t_svt(z, 0.5 * top))

    # squares of entries near 1e±200 would overflow or underflow
    @slice_shapes
    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_scales_match_oracle(self, shape, scale):
        z = scale * random_tensor(shape, 32)
        top = oracles.full_fourier_singular_values(z).max()
        for tau in (0.0, 0.5 * top, 1.5 * top):
            assert_rel_close(tsvd.t_svt(z, tau), oracles.full_t_svt(z, tau))

    @slice_shapes
    def test_inf_entry_raises_numeric_error(self, shape):
        z = random_tensor(shape, 33)
        z[1, 2, 3] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(
                tsvd.NumericError, match="before the eigendecomposition"):
            tsvd.t_svt(z, 1.0)

    # an inf entry of z spreads over its whole tube, so it reaches block 0;
    # an inf in one Fourier slice of a later block must raise as well, on
    # a tall slice and on the transposed path of a wide one
    @pytest.mark.parametrize("shape", [(7, 3), (3, 7)], ids=["tall", "wide"])
    def test_inf_slice_in_later_block_raises(self, monkeypatch, shape):
        dft = tsvd.dft_tubes

        def inf_slice(x):
            spectrum = dft(x)
            spectrum[1, 2, tsvd.SVT_BLOCK + 1] = np.inf
            return spectrum

        monkeypatch.setattr(tsvd, "dft_tubes", inf_slice)
        z = random_tensor((*shape, 2 * tsvd.SVT_BLOCK), 35)
        with pytest.raises(tsvd.NumericError, match="before the eigendecomposition"):
            tsvd.t_svt(z, 1.0)

    # squaring a slice loses accuracy for a kept singular value far below
    # the largest, within the bound t_svt's docstring states; these two
    # cases read 1.3e-11 and 8e-10 against the SVD, above REL
    @pytest.mark.parametrize("sig, tau", [((1.0, 1e-3, 1e-6, 1e-9), 5e-7),
                                          ((1.0, 1e-4, 1e-8), 5e-9)], ids=["5e-7", "5e-9"])
    def test_small_kept_singular_values_within_stated_bound(self, sig, tau):
        # only the first frontal slice is nonzero, so every Fourier slice
        # equals it and has singular values sig (sigma_max = 1)
        z = np.zeros((20, 20, 4))
        z[:, :, 0] = graded_matrix((20, 20), sig, 34)
        eps = np.finfo(np.float64).eps
        ref = oracles.full_t_svt(z, tau)
        err = frobenius_norm(tsvd.t_svt(z, tau) - ref) / frobenius_norm(ref)
        assert err <= min(eps / tau, np.sqrt(eps))
