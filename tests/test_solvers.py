import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy import inf, nan
from test_tsvd import small_shapes

from wstnn import solvers
from wstnn.ntubal import weights_rank_aware, weights_spectral, weights_uniform, wstnn
from wstnn.synth import CpSpec, gen_cp_tensor, rse, sample_mask
from wstnn.tensor_ops import frobenius_norm, mode_pairs


class TestSoftThreshold:
    def test_worked_example(self):
        x = np.array([-3.0, 0.5, 2.0])
        np.testing.assert_allclose(solvers.soft_threshold(x, 1.0), [-2.0, 0.0, 1.0])

    def test_zero_threshold_identity(self):
        x = np.random.default_rng(0).standard_normal((3, 3))
        np.testing.assert_array_equal(solvers.soft_threshold(x, 0.0), x)

    @pytest.mark.parametrize("xi", [-1.0, nan])
    def test_negative_threshold_rejected(self, xi):
        with pytest.raises(ValueError):
            solvers.soft_threshold(np.zeros(3), xi)


class TestDefaultLambda:
    def test_cube_uniform(self):
        # 30^3, uniform weights: every pair gives 1/(3*30), total 1/30
        lam = solvers.default_lambda((30, 30, 30), weights_uniform(3))
        assert lam == pytest.approx(1.0 / 30.0, rel=1e-12)

    def test_one_hot(self):
        lam = solvers.default_lambda((30, 30, 30), np.array([1.0, 0.0, 0.0]))
        assert lam == pytest.approx(1.0 / 30.0, rel=1e-12)

    def test_rectangular_one_hot(self):
        # pair (1,2) on 4x9x16: max extent 9, d = 16
        lam = solvers.default_lambda((4, 9, 16), np.array([1.0, 0.0, 0.0]))
        assert lam == pytest.approx(1.0 / 12.0, rel=1e-12)


class TestConfigValidation:
    def test_lrtc_rejects_nonpositive_tau(self):
        cfg = solvers.LrtcConfig(alpha=weights_uniform(3), tau=0.0)
        with pytest.raises(ValueError):
            cfg.validated(3)

    def test_lrtc_rejects_all_zero_alpha(self):
        cfg = solvers.LrtcConfig(alpha=np.zeros(3), tau=1.0)
        with pytest.raises(ValueError):
            cfg.validated(3)

    def test_trpca_rho_default(self):
        cfg = solvers.TrpcaConfig(
            alpha=weights_uniform(3), tau=np.array([5.0, 10.0, 15.0]), lam=0.1
        ).validated(3)
        assert cfg.rho == pytest.approx(0.1)

    def test_trpca_rejects_bad_lambda(self):
        cfg = solvers.TrpcaConfig(alpha=weights_uniform(3), tau=1.0, lam=0.0)
        with pytest.raises(ValueError):
            cfg.validated(3)

    def test_scalar_tau_broadcast(self):
        cfg = solvers.LrtcConfig(alpha=weights_uniform(4), tau=7.0).validated(4)
        np.testing.assert_array_equal(cfg.tau, np.full(6, 7.0))

    # every non-finite setting is a ValueError at validation, before a solve
    @pytest.mark.parametrize("check", [
        lambda: solvers.LrtcConfig(alpha=[nan, 0.5, 0.5]).validated(3),
        lambda: solvers.LrtcConfig(alpha=weights_uniform(3), tau=nan).validated(3),
        lambda: solvers.LrtcConfig(alpha=weights_uniform(3), tau=inf).validated(3),
        lambda: solvers.LrtcConfig(alpha=weights_uniform(3), tau=[10, nan, 10]).validated(3),
        lambda: solvers.LrtcConfig(alpha=weights_uniform(3), rel_tol=nan).validated(3),
        lambda: solvers.LrtcConfig(alpha=weights_uniform(3), rel_tol=inf).validated(3),
        lambda: solvers.TrpcaConfig(alpha=weights_uniform(3), lam=nan).validated(3),
        lambda: solvers.TrpcaConfig(alpha=weights_uniform(3), lam=inf).validated(3),
        lambda: solvers.TrpcaConfig(alpha=weights_uniform(3), lam=0.1, tau=nan).validated(3),
        lambda: weights_rank_aware((5, 5, 5), [1, 2, 3], eta=nan),
        lambda: weights_rank_aware((5, 5, 5), [1, 2, 3], eta=inf),
        lambda: weights_rank_aware((5, 5, 5), [nan, 1, 1]),
        lambda: weights_rank_aware((5, 5, 5), [1, inf, 1]),
        lambda: weights_spectral(nan),
        lambda: weights_spectral(inf),
    ], ids=[
        "alpha-nan", "tau-nan", "tau-inf", "tau-vector-nan", "rel_tol-nan", "rel_tol-inf",
        "lam-nan", "lam-inf", "trpca-tau-nan", "eta-nan", "eta-inf", "rank-nan", "rank-inf",
        "theta-nan", "theta-inf",
    ])
    def test_nonfinite_setting_rejected(self, check):
        with pytest.raises(ValueError):
            check()


# unit extents and n3 = 1
DEGENERATE_SHAPES = [(1, 1, 1), (1, 5, 4), (5, 5, 1), (3, 1, 4, 2)]


def _shape_id(shape):
    return "x".join(map(str, shape))


# both solvers on random data of shapes with unit extents and n3 = 1
@settings(max_examples=25, deadline=None)
@given(shape=small_shapes, sr=st.floats(0.05, 1.0), seed=st.integers(0, 2**31))
def test_degenerate_shapes_solve(shape, sr, seed):
    x = np.random.default_rng(seed).standard_normal(shape)
    alpha = weights_uniform(3)
    cfg = solvers.TrpcaConfig(alpha=alpha, lam=solvers.default_lambda(shape, alpha))
    low, sparse, report = solvers.trpca_solve(x, cfg)
    assert np.isfinite(low).all() and np.isfinite(sparse).all()
    assert report.constraint_residual == frobenius_norm(x - low - sparse) / frobenius_norm(x)
    mask = sample_mask(shape, sr, seed)
    xhat, _ = solvers.lrtc_solve(np.where(mask, x, 0.0), mask, solvers.LrtcConfig(alpha=alpha))
    assert np.isfinite(xhat).all()
    np.testing.assert_array_equal(xhat[mask], x[mask])


class TestLrtc:
    @pytest.mark.parametrize("shape", [(10, 10, 10)] + DEGENERATE_SHAPES, ids=_shape_id)
    def test_fully_observed_returns_input(self, shape):
        x = np.random.default_rng(0).standard_normal(shape)
        omega = np.ones_like(x, dtype=bool)
        cfg = solvers.LrtcConfig(alpha=weights_uniform(len(shape)), tau=10.0)
        xhat, report = solvers.lrtc_solve(x, omega, cfg)
        np.testing.assert_array_equal(xhat, x)
        assert report.iterations == 1
        assert report.converged

    @pytest.mark.parametrize("shape", [(5, 4, 3)] + DEGENERATE_SHAPES, ids=_shape_id)
    def test_empty_mask_returns_zeros(self, shape):
        f = np.random.default_rng(1).standard_normal(shape)
        omega = np.zeros_like(f, dtype=bool)
        cfg = solvers.LrtcConfig(alpha=weights_uniform(len(shape)), tau=10.0)
        xhat, report = solvers.lrtc_solve(f, omega, cfg)
        np.testing.assert_array_equal(xhat, 0.0)
        assert report.iterations == 1
        assert report.converged

    def test_max_iter_reports_not_converged(self):
        x = gen_cp_tensor(CpSpec((10, 10, 10), 1, seed=0))
        omega = sample_mask(x.shape, 0.6, seed=1)
        cfg = solvers.LrtcConfig(alpha=weights_uniform(3), tau=10.0, p_max=2)
        _, report = solvers.lrtc_solve(np.where(omega, x, 0.0), omega, cfg)
        assert report.converged is False
        assert report.iterations == 2
        assert report.final_rel_change >= cfg.rel_tol

    def test_observed_entries_preserved(self):
        x = gen_cp_tensor(CpSpec((12, 12, 12), 2, seed=1))
        omega = sample_mask(x.shape, 0.6, seed=2)
        cfg = solvers.LrtcConfig(alpha=weights_uniform(3), tau=10.0)
        xhat, _ = solvers.lrtc_solve(np.where(omega, x, 0.0), omega, cfg)
        np.testing.assert_array_equal(xhat[omega], x[omega])

    def test_recovers_easy_instance(self):
        x = gen_cp_tensor(CpSpec((20, 20, 20), 2, seed=3))
        omega = sample_mask(x.shape, 0.6, seed=4)
        cfg = solvers.LrtcConfig(alpha=weights_uniform(3), tau=10.0)
        xhat, report = solvers.lrtc_solve(np.where(omega, x, 0.0), omega, cfg)
        assert rse(xhat, x) < 1e-3
        assert report.iterations < cfg.p_max

    # (SR, generation seed, mask seed): the first instance stalls after one
    # sweep with a change of 0.0, the second runs 22 sweeps
    @pytest.mark.parametrize(
        "sr, gen_seed, mask_seed", [(0.5, 5, 6), (0.6, 0, 1)], ids=["stalled", "multi-sweep"]
    )
    def test_report_trace_matches_iterations(self, sr, gen_seed, mask_seed):
        x = gen_cp_tensor(CpSpec((10, 10, 10), 1, seed=gen_seed))
        omega = sample_mask(x.shape, sr, seed=mask_seed)
        cfg = solvers.LrtcConfig(alpha=weights_uniform(3), tau=10.0)
        _, report = solvers.lrtc_solve(np.where(omega, x, 0.0), omega, cfg)
        assert len(report.rel_change_trace) == report.iterations
        assert report.final_rel_change == report.rel_change_trace[-1]
        assert report.final_rel_change < cfg.rel_tol
        assert report.converged
        assert report.wall_time > 0

    # full-rank data, so the weights decide the answer: the solve under alpha
    # must score no worse on wstnn(., alpha) than the solve under weights
    # proportional to alpha_i * d_i, d_i the product of the other extents;
    # slower penalty growth lets ADMM converge tightly enough to rank them
    @pytest.mark.parametrize("shape, sr, seed", [((3, 4, 10), 0.5, 1), ((3, 4, 5, 2), 0.4, 4)],
                             ids=["3-way", "4-way"])
    def test_minimises_wstnn(self, monkeypatch, shape, sr, seed):
        monkeypatch.setattr(solvers.LrtcConfig, "gamma", 1.02)
        rng = np.random.default_rng(seed)
        truth = rng.standard_normal(shape)
        mask = sample_mask(shape, sr, seed)
        alpha = weights_uniform(len(shape))
        d = np.array([np.prod(shape) / (shape[k1 - 1] * shape[k2 - 1])
                      for k1, k2 in mode_pairs(len(shape))])

        def solve(weights):
            cfg = solvers.LrtcConfig(alpha=weights, tau=0.5, p_max=20000, rel_tol=1e-12)
            return solvers.lrtc_solve(np.where(mask, truth, 0.0), mask, cfg)[0]

        scaled = alpha * d / (alpha * d).sum()
        assert wstnn(solve(alpha), alpha) <= wstnn(solve(scaled), alpha)

    def test_zero_weight_pair_skipped(self):
        x = gen_cp_tensor(CpSpec((15, 15, 15), 1, seed=7))
        omega = sample_mask(x.shape, 0.6, seed=8)
        cfg = solvers.LrtcConfig(alpha=np.array([0.5, 0.5, 0.0]), tau=10.0)
        xhat, _ = solvers.lrtc_solve(np.where(omega, x, 0.0), omega, cfg)
        assert rse(xhat, x) < 1e-2

    def test_mask_shape_mismatch(self):
        cfg = solvers.LrtcConfig(alpha=weights_uniform(3), tau=10.0)
        with pytest.raises(ValueError):
            solvers.lrtc_solve(np.zeros((3, 3, 3)), np.ones((3, 3, 2), bool), cfg)

    def test_nonfinite_observed_rejected(self):
        f = np.zeros((3, 3, 3))
        f[0, 0, 0] = np.nan
        cfg = solvers.LrtcConfig(alpha=weights_uniform(3), tau=10.0)
        with pytest.raises(ValueError):
            solvers.lrtc_solve(f, np.ones_like(f, dtype=bool), cfg)


class TestTrpca:
    @pytest.mark.parametrize("shape", [(8, 8, 8)] + DEGENERATE_SHAPES, ids=_shape_id)
    def test_zero_input(self, shape):
        cfg = solvers.TrpcaConfig(alpha=weights_uniform(len(shape)), tau=10.0, lam=0.1)
        low, sparse, report = solvers.trpca_solve(np.zeros(shape), cfg)
        np.testing.assert_array_equal(low, 0.0)
        np.testing.assert_array_equal(sparse, 0.0)
        assert report.constraint_residual == 0.0
        assert report.iterations == 1
        assert report.converged

    def test_sparse_only_input(self):
        # a handful of spikes and no low-rank part: low component goes to ~0
        rng = np.random.default_rng(9)
        x = np.zeros((15, 15, 15))
        idx = rng.choice(x.size, size=20, replace=False)
        x.ravel()[idx] = rng.uniform(5, 10, size=20)
        cfg = solvers.TrpcaConfig(
            alpha=weights_uniform(3), tau=10.0, lam=1.0 / 15.0, rel_tol=1e-6
        )
        low, sparse, _ = solvers.trpca_solve(x, cfg)
        assert frobenius_norm(low) < 1e-2 * frobenius_norm(x)
        assert frobenius_norm(x - low - sparse) < 1e-5 * frobenius_norm(x)

    def test_splits_low_plus_sparse(self):
        from wstnn.synth import add_salt_pepper

        truth = gen_cp_tensor(CpSpec((20, 20, 20), 2, seed=10))
        noisy = add_salt_pepper(truth, 0.1, seed=11)
        lam = solvers.default_lambda(truth.shape, weights_uniform(3))
        cfg = solvers.TrpcaConfig(
            alpha=weights_uniform(3), tau=10.0, lam=lam, rel_tol=1e-6
        )
        low, sparse, report = solvers.trpca_solve(noisy, cfg)
        assert rse(low, truth) < 1e-3
        assert report.constraint_residual < 1e-6

    def test_stopping_is_scale_invariant(self):
        # the first sweep moves away from a zero iterate; its relative
        # change must not read as an absolute norm, which at data scale
        # 1e-6 fell below rel_tol and stopped the solve after one sweep
        from wstnn.synth import add_salt_pepper

        truth = gen_cp_tensor(CpSpec((10, 10, 10), 1, seed=0))
        noisy = add_salt_pepper(truth, 0.05, seed=1)
        lam = solvers.default_lambda(truth.shape, weights_uniform(3))
        runs = []
        for scale in (1.0, 1e-6):
            cfg = solvers.TrpcaConfig(alpha=weights_uniform(3), tau=scale, lam=lam)
            low, _, report = solvers.trpca_solve(scale * noisy, cfg)
            assert report.rel_change_trace[0] == np.inf
            runs.append((report.iterations, rse(low, scale * truth), report.constraint_residual))
        (iters, err, res), (iters_small, err_small, res_small) = runs
        assert iters_small == iters > 1
        assert err_small == pytest.approx(err, rel=1e-9)
        assert res_small == pytest.approx(res, rel=1e-9)
        assert err < 0.1

    def test_nonfinite_rejected(self):
        cfg = solvers.TrpcaConfig(alpha=weights_uniform(3), tau=10.0, lam=0.1)
        x = np.zeros((3, 3, 3))
        x[1, 1, 1] = np.inf
        with pytest.raises(ValueError):
            solvers.trpca_solve(x, cfg)

    # a finite input whose iterates overflow mid-run: at 1e308 the tube DFT
    # of the first pair's unfolding overflows in sweep 2; at 1e300 the
    # unfolding itself holds an inf in sweep 115, whose SVD never returned
    @pytest.mark.parametrize("x, sweep", [
        (1e308 * gen_cp_tensor(CpSpec((10, 10, 10), 2, 0)), 2),
        (1e300 * np.random.default_rng(0).standard_normal((5, 4, 3)), 115),
    ], ids=["dft-overflow", "inf-unfolding"])
    def test_midrun_breakdown_names_sweep_and_pair(self, x, sweep):
        alpha = weights_uniform(3)
        cfg = solvers.TrpcaConfig(alpha=alpha, lam=solvers.default_lambda(x.shape, alpha))
        start = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(np.linalg.LinAlgError,
                              match=rf"^sweep {sweep}, mode pair \(1, 2\): ") as info:
            solvers.trpca_solve(x, cfg)
        assert time.perf_counter() - start < 1.0
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
