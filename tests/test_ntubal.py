import numpy as np
import pytest

from oracles import random_tensor
from wstnn import ntubal
from wstnn.synth import CpSpec, gen_cp_tensor
from wstnn.tensor_ops import mode_k1k2_unfold, mode_pairs
from wstnn.tsvd import tnn


class TestWeights:
    # an order follows the number rule: 3.5 was "order 3.5 with 4 pairs"
    @pytest.mark.parametrize("order", [3.5, True], ids=repr)
    def test_order_must_be_integer(self, order):
        for call in (ntubal.weights_uniform,
                     lambda n: ntubal.validate_weights(np.full(4, 0.25), n)):
            with pytest.raises(ValueError, match="order"):
                call(order)

    def test_uniform_three_way(self):
        np.testing.assert_allclose(ntubal.weights_uniform(3), [1 / 3] * 3)

    def test_uniform_four_way(self):
        np.testing.assert_allclose(ntubal.weights_uniform(4), [1 / 6] * 6)

    def test_spectral(self):
        theta = 0.001
        w = ntubal.weights_spectral(theta)
        np.testing.assert_allclose(w, np.array([theta, 1.0, 1.0]) / (2 + theta))
        assert w.sum() == pytest.approx(1.0)

    def test_spectral_negative_theta(self):
        with pytest.raises(ValueError):
            ntubal.weights_spectral(-0.5)

    def test_validate_rejects_bad(self):
        with pytest.raises(ValueError):
            ntubal.validate_weights(np.array([0.5, 0.5]), 3)
        with pytest.raises(ValueError):
            ntubal.validate_weights(np.array([0.7, 0.5, -0.2]), 3)
        with pytest.raises(ValueError):
            ntubal.validate_weights(np.array([0.5, 0.4, 0.2]), 3)

    def test_rank_aware_ordering(self):
        # shape 30^3, ranks (2, 10, 20): lower-rank pairs get larger weight
        w = ntubal.weights_rank_aware((30, 30, 30), np.array([2, 10, 20]), eta=1.0)
        assert w[0] > w[1] > w[2]
        assert w.sum() == pytest.approx(1.0)
        assert (w > 0).all()

    def test_rank_aware_full_rank_falls_back(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="wstnn.ntubal"):
            w = ntubal.weights_rank_aware((5, 5, 5), np.array([5, 5, 5]))
        np.testing.assert_allclose(w, ntubal.weights_uniform(3))
        assert any("uniform" in rec.message for rec in caplog.records)

    def test_rank_aware_overfull_rank_clamped(self):
        w = ntubal.weights_rank_aware((5, 5, 5), np.array([1, 7, 7]))
        assert w[0] > w[1] == w[2]


class TestEstimate:
    @pytest.mark.parametrize("shape", [(12, 12, 12), (8, 8, 8, 8)])
    @pytest.mark.parametrize("r", [1, 3])
    def test_cp_tensor_rank(self, shape, r):
        x = gen_cp_tensor(CpSpec(shape, r, seed=42))
        est = ntubal.estimate_n_tubal_rank(x)
        np.testing.assert_array_equal(est, np.full(len(mode_pairs(len(shape))), r))

    def test_rejects_matrices(self):
        with pytest.raises(ValueError):
            ntubal.estimate_n_tubal_rank(np.zeros((4, 4)))

    def test_rejects_bad_threshold(self):
        x = np.zeros((3, 3, 3))
        for t in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                ntubal.estimate_n_tubal_rank(x, t)


class TestWstnn:
    def test_one_hot_reduces_to_tnn(self):
        x = random_tensor((4, 5, 3), 1)
        for i, pair in enumerate(mode_pairs(3)):
            alpha = np.zeros(3)
            alpha[i] = 1.0
            assert ntubal.wstnn(x, alpha) == pytest.approx(
                tnn(mode_k1k2_unfold(x, pair)), rel=1e-12
            )

    def test_absolute_homogeneity(self):
        x = random_tensor((3, 4, 5), 2)
        alpha = ntubal.weights_uniform(3)
        base = ntubal.wstnn(x, alpha)
        assert ntubal.wstnn(-2.5 * x, alpha) == pytest.approx(2.5 * base, rel=1e-10)

    def test_triangle_inequality(self):
        alpha = ntubal.weights_uniform(3)
        x = random_tensor((4, 4, 4), 3)
        y = random_tensor((4, 4, 4), 4)
        assert ntubal.wstnn(x + y, alpha) <= ntubal.wstnn(x, alpha) + ntubal.wstnn(
            y, alpha
        ) + 1e-10

    def test_zero_tensor(self):
        assert ntubal.wstnn(np.zeros((3, 3, 3)), ntubal.weights_uniform(3)) == 0.0

    def test_four_way(self):
        x = random_tensor((3, 4, 2, 3), 5)
        alpha = ntubal.weights_uniform(4)
        expected = sum(
            tnn(mode_k1k2_unfold(x, pair)) for pair in mode_pairs(4)
        ) / 6.0
        assert ntubal.wstnn(x, alpha) == pytest.approx(expected, rel=1e-12)
