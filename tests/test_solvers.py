import dataclasses
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy import inf, nan
from oracles import small_shapes, traced_peak, two_buffer_admm

from wstnn import solvers
from wstnn.ntubal import (estimate_n_tubal_rank, weights_rank_aware, weights_spectral,
                          weights_uniform, wstnn)
from wstnn.synth import CpSpec, PhaseGrid, add_salt_pepper, gen_cp_tensor, rse, sample_mask
from wstnn.tensor_ops import frobenius_norm, mode_pairs
from wstnn.tsvd import identity_tensor, t_svt, tubal_rank


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


CUBE = (5, 5, 5)


def _shape_id(shape):
    return "x".join(map(str, shape))


class TestConfigValidation:
    def test_lrtc_rejects_nonpositive_tau(self):
        cfg = solvers.LrtcConfig(alpha=weights_uniform(3), tau=0.0)
        with pytest.raises(ValueError):
            cfg.validated(CUBE)

    def test_lrtc_rejects_all_zero_alpha(self):
        cfg = solvers.LrtcConfig(alpha=np.zeros(3), tau=1.0)
        with pytest.raises(ValueError):
            cfg.validated(CUBE)

    # rho is exactly 1 / tau, with no rounding from averaging the tau
    def test_trpca_rho_default(self):
        cfg = solvers.TrpcaConfig(alpha=weights_uniform(3), tau=0.1, lam=0.1).validated(CUBE)
        assert cfg.rho == 1 / 0.1

    def test_trpca_rejects_bad_lambda(self):
        cfg = solvers.TrpcaConfig(alpha=weights_uniform(3), tau=1.0, lam=0.0)
        with pytest.raises(ValueError):
            cfg.validated(CUBE)

    # tau is one number for every mode pair; a vector of any length, even
    # one value per pair, is a setting error
    def test_vector_tau_rejected(self):
        for tau in ([7.0] * 6, np.full(6, 7.0), [7.0]):
            with pytest.raises(ValueError, match="^tau must be one positive finite number"):
                solvers.LrtcConfig(alpha=weights_uniform(4), tau=tau).validated((5, 5, 5, 5))

    # every non-finite setting, every bool where a count or threshold is
    # expected (bool is an Integral), and every weighted starting penalty
    # that is not a positive normal float, is a ValueError at validation
    @pytest.mark.parametrize("check", [
        lambda: solvers.LrtcConfig(alpha=[nan, 0.5, 0.5]).validated(CUBE),
        lambda: solvers.LrtcConfig(alpha=weights_uniform(3), tau=nan).validated(CUBE),
        lambda: solvers.LrtcConfig(alpha=weights_uniform(3), tau=inf).validated(CUBE),
        lambda: solvers.LrtcConfig(alpha=weights_uniform(3), tau=[10, nan, 10]).validated(CUBE),
        lambda: solvers.LrtcConfig(alpha=weights_uniform(3), rel_tol=nan).validated(CUBE),
        lambda: solvers.LrtcConfig(alpha=weights_uniform(3), rel_tol=inf).validated(CUBE),
        lambda: solvers.TrpcaConfig(alpha=weights_uniform(3), lam=nan).validated(CUBE),
        lambda: solvers.TrpcaConfig(alpha=weights_uniform(3), lam=inf).validated(CUBE),
        lambda: solvers.TrpcaConfig(alpha=weights_uniform(3), lam=0.1, tau=nan).validated(CUBE),
        lambda: weights_rank_aware((5, 5, 5), [1, 2, 3], eta=nan),
        lambda: weights_rank_aware((5, 5, 5), [1, 2, 3], eta=inf),
        lambda: weights_rank_aware((5, 5, 5), [nan, 1, 1]),
        lambda: weights_rank_aware((5, 5, 5), [1, inf, 1]),
        lambda: weights_rank_aware((3, 3, 3), [-5, 1, 1]),
        lambda: weights_spectral(nan),
        lambda: weights_spectral(inf),
        # beta_2 = 5e-324 / 10 underflows to 0; every beta_i = (1/3) / 1e308
        # is subnormal (and so is rho = 1 / tau = 1e-308)
        lambda: solvers.LrtcConfig(alpha=(1, 5e-324, 0), tau=10).validated(CUBE),
        lambda: solvers.TrpcaConfig(tau=1e308).validated(CUBE),
        lambda: solvers.LrtcConfig(tau=True).validated(CUBE),
        lambda: solvers.LrtcConfig(p_max=True).validated(CUBE),
        lambda: solvers.LrtcConfig(rel_tol=True).validated(CUBE),
        lambda: solvers.TrpcaConfig(p_max=np.True_).validated(CUBE),
        # a setting that is not a number names the setting in a ValueError,
        # not a TypeError from the arithmetic on it
        lambda: solvers.TrpcaConfig(lam=True).validated(CUBE),
        lambda: solvers.TrpcaConfig(lam="0.1").validated(CUBE),
        lambda: solvers.LrtcConfig(rel_tol="x").validated(CUBE),
        lambda: sample_mask(CUBE, True),
        lambda: add_salt_pepper(np.ones(CUBE), False),
        # the same rule holds for the weight, rank and threshold functions
        # and the sweep grid, not only for the configs
        lambda: weights_spectral(True),
        lambda: weights_spectral("0.1"),
        lambda: weights_rank_aware((5, 5, 5), [1, 2, 3], eta=True),
        lambda: weights_rank_aware((5, 5, 5), [1, 2, 3], eta="1"),
        lambda: tubal_rank(np.ones(CUBE), "0.1"),
        lambda: estimate_n_tubal_rank(np.ones(CUBE), "0.1"),
        lambda: solvers.soft_threshold(np.ones(3), True),
        lambda: solvers.soft_threshold(np.ones(3), "1"),
        lambda: t_svt(np.ones(CUBE), True),
        lambda: t_svt(np.ones(CUBE), "1"),
        lambda: PhaseGrid(success_threshold="1e-3"),
        lambda: PhaseGrid(success_threshold=None),
        # a zero extent is a bad shape, not a division by zero in lam
        lambda: solvers.LrtcConfig().validated((3, 0, 3)),
        lambda: solvers.TrpcaConfig().validated((3, 0, 3)),
        # an extent is an integer, for the t-SVD layer's identity too
        lambda: identity_tensor(2.5, 2),
        lambda: identity_tensor(True, 2),
        lambda: identity_tensor(2, np.float64(3)),
    ], ids=[
        "alpha-nan", "tau-nan", "tau-inf", "tau-vector-nan", "rel_tol-nan", "rel_tol-inf",
        "lam-nan", "lam-inf", "trpca-tau-nan", "eta-nan", "eta-inf", "rank-nan", "rank-inf",
        "rank-negative", "theta-nan", "theta-inf", "beta-subnormal", "trpca-tau-huge",
        "tau-bool", "p_max-bool", "rel_tol-bool", "trpca-p_max-numpy-bool", "lam-bool",
        "lam-string", "rel_tol-string", "sr-bool", "nl-bool", "theta-bool", "theta-string",
        "eta-bool", "eta-string", "rel_threshold-string", "estimate-rel_threshold-string",
        "xi-bool", "xi-string", "t_svt-tau-bool", "t_svt-tau-string",
        "success_threshold-string", "success_threshold-none", "lrtc-zero-extent",
        "trpca-zero-extent", "identity-float-extent", "identity-bool-extent",
        "identity-numpy-float-extent",
    ])
    def test_nonfinite_setting_rejected(self, check):
        with pytest.raises(ValueError):
            check()

    # a starting penalty that underflows is a bad setting, not a numeric
    # breakdown mid-solve or a NaN split marked converged
    def test_degenerate_penalty_rejected_by_solve(self):
        x = gen_cp_tensor(CpSpec(CUBE, 1, 0))
        mask = sample_mask(CUBE, 0.6, 1)
        for name, solve in [
            ("beta = alpha / tau",
             lambda: solvers.lrtc_solve(x, mask, solvers.LrtcConfig(alpha=(1, 5e-324, 0)))),
            # alpha / tau (2e307 and 9e307) would be normal, but 1 / 5e-309
            # is inf, and every pair's penalty is alpha times that rho
            ("rho = 1 / tau",
             lambda: solvers.trpca_solve(x, solvers.TrpcaConfig(alpha=(0.1, 0.45, 0.45),
                                                                tau=5e-309))),
            ("rho = 1 / tau",
             lambda: solvers.lrtc_solve(x, mask, solvers.LrtcConfig(alpha=(0.1, 0.45, 0.45),
                                                                    tau=5e-309))),
            ("lam / rho", lambda: solvers.trpca_solve(x, solvers.TrpcaConfig(lam=5e-324))),
        ]:
            with pytest.raises(ValueError, match=rf"^{name} must be a positive normal float"):
                solve()

    # None settings resolve to the library's defaults for the data shape
    @pytest.mark.parametrize("shape", [(30, 30, 30), (4, 9, 16), (15, 15, 15, 15)],
                             ids=_shape_id)
    def test_defaults_resolve_per_shape(self, shape):
        alpha = weights_uniform(len(shape))
        by_hand = [solvers.LrtcConfig(alpha=alpha),
                   solvers.TrpcaConfig(alpha=alpha, lam=solvers.default_lambda(shape, alpha))]
        for default, hand in zip([solvers.LrtcConfig(), solvers.TrpcaConfig()], by_hand):
            got, want = default.validated(shape), hand.validated(shape)
            for f in dataclasses.fields(want):
                np.testing.assert_array_equal(getattr(got, f.name), getattr(want, f.name))
            # the CLI prints lam, so its type must match too
            assert type(getattr(got, "lam", None)) is type(getattr(want, "lam", None))


# unit extents and n3 = 1
DEGENERATE_SHAPES = [(1, 1, 1), (1, 5, 4), (5, 5, 1), (3, 1, 4, 2)]

# the same kinds of shapes drawn at random: orders 3 to 5, extents 1 to 4
random_shapes = st.lists(st.integers(1, 4), min_size=3, max_size=5).map(tuple)
taus = st.sampled_from([0.1, 1.0, 10.0])


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

    @settings(max_examples=50, deadline=None)
    @given(shape=random_shapes, tau=taus, seed=st.integers(0, 2**31))
    def test_fully_observed_returns_input_random_shape(self, shape, tau, seed):
        x = np.random.default_rng(seed).standard_normal(shape)
        cfg = solvers.LrtcConfig(tau=tau)
        xhat, report = solvers.lrtc_solve(x, np.ones(shape, dtype=bool), cfg)
        np.testing.assert_array_equal(xhat, x)
        assert report.iterations == 1
        assert report.converged

    @settings(max_examples=50, deadline=None)
    @given(shape=random_shapes, tau=taus, seed=st.integers(0, 2**31))
    def test_empty_mask_returns_zeros_random_shape(self, shape, tau, seed):
        f = np.random.default_rng(seed).standard_normal(shape)
        cfg = solvers.LrtcConfig(tau=tau)
        xhat, report = solvers.lrtc_solve(f, np.zeros(shape, dtype=bool), cfg)
        np.testing.assert_array_equal(xhat, 0.0)
        assert report.iterations == 1
        assert report.converged

    @settings(max_examples=50, deadline=None)
    @given(shape=random_shapes, tau=taus, sr=st.floats(0.05, 1.0), seed=st.integers(0, 2**31))
    def test_zero_input_returns_zeros_random_shape(self, shape, tau, sr, seed):
        cfg = solvers.LrtcConfig(tau=tau)
        xhat, report = solvers.lrtc_solve(np.zeros(shape), sample_mask(shape, sr, seed), cfg)
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

    # the solve reads f only where omega is True: any other value there, a
    # NaN, an inf or one whose square overflows, gives the same bytes
    @pytest.mark.parametrize("fill", [0.0, nan, inf, -inf, 1e300])
    def test_unobserved_entries_are_ignored(self, fill):
        truth = gen_cp_tensor(CpSpec((10, 12, 14), 2, seed=9))
        omega = sample_mask(truth.shape, 0.5, seed=10)
        cfg = solvers.LrtcConfig()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected, expected_report = solvers.lrtc_solve(truth, omega, cfg)
            xhat, report = solvers.lrtc_solve(np.where(omega, truth, fill), omega, cfg)
        assert xhat.tobytes() == expected.tobytes()
        assert report == expected_report

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

    # a breakdown trial's record carries SolveReport(), with no sweeps
    def test_empty_report_final_change_is_nan(self):
        report = solvers.SolveReport()
        assert report.iterations == 0 and np.isnan(report.final_rel_change)

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

    @settings(max_examples=50, deadline=None)
    @given(shape=random_shapes, tau=taus)
    def test_zero_input_random_shape(self, shape, tau):
        low, sparse, report = solvers.trpca_solve(np.zeros(shape), solvers.TrpcaConfig(tau=tau))
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
        truth = gen_cp_tensor(CpSpec((20, 20, 20), 2, seed=10))
        noisy = add_salt_pepper(truth, 0.1, seed=11)
        lam = solvers.default_lambda(truth.shape, weights_uniform(3))
        cfg = solvers.TrpcaConfig(
            alpha=weights_uniform(3), tau=10.0, lam=lam, rel_tol=1e-6
        )
        low, sparse, report = solvers.trpca_solve(noisy, cfg)
        assert rse(low, truth) < 1e-3
        assert report.constraint_residual < 1e-6

    def test_stops_only_when_split_holds(self):
        # at the default tau the low part of this x0.1 draw freezes after
        # its second sweep, a relative change of ~1e-16 with half of x
        # still unexplained; the solve must run on until the split holds
        truth = 0.1 * gen_cp_tensor(CpSpec((20, 20, 20), 2, 0))
        cfg = solvers.TrpcaConfig()
        low, _, report = solvers.trpca_solve(add_salt_pepper(truth, 0.1, 1), cfg)
        assert report.converged
        assert report.iterations > 2
        assert report.constraint_residual < cfg.rel_tol
        assert rse(low, truth) < 1e-6

    def test_runs_on_at_the_penalty_cap(self):
        # with no stop rule, rho reaches PENALTY_MAX after sweep 139 of the
        # same x0.1 draw at the default tau; the solve runs on at the cap to
        # p_max, and its split must still hold there
        truth = 0.1 * gen_cp_tensor(CpSpec((20, 20, 20), 2, 0))
        cfg = solvers.TrpcaConfig(rel_tol=0, p_max=160)
        _, _, report = solvers.trpca_solve(add_salt_pepper(truth, 0.1, 1), cfg)
        assert report.iterations == 160 and not report.converged
        assert report.constraint_residual < 1e-4

    def test_stopping_is_scale_invariant(self):
        # the first sweep moves away from a zero iterate; its relative
        # change must not read as an absolute norm, which at data scale
        # 1e-6 fell below rel_tol and stopped the solve after one sweep
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

    # at 1e200 the squares of the entries overflow; the relative changes
    # must not, or the solve runs all p_max sweeps on a NaN trace
    def test_stops_on_huge_entries(self):
        truth = gen_cp_tensor(CpSpec((10, 10, 10), 2, 0))
        alpha = weights_uniform(3)
        lam = solvers.default_lambda(truth.shape, alpha)
        runs = []
        for scale, tau in ((1.0, 1.0), (1e200, 1e200), (1e200, 10.0)):
            cfg = solvers.TrpcaConfig(alpha=alpha, tau=tau, lam=lam)
            low, _, report = solvers.trpca_solve(scale * truth, cfg)
            assert report.converged
            assert np.isfinite(report.rel_change_trace[1:]).all()
            runs.append((report.iterations, rse(low, scale * truth)))
        (iters, err), (iters_huge, err_huge), (iters_tau10, _) = runs
        assert iters_huge == iters == 34
        assert err_huge == pytest.approx(err, rel=1e-9)
        assert iters_tau10 == 2

    def test_nonfinite_rejected(self):
        cfg = solvers.TrpcaConfig(alpha=weights_uniform(3), tau=10.0, lam=0.1)
        x = np.zeros((3, 3, 3))
        x[1, 1, 1] = np.inf
        with pytest.raises(ValueError):
            solvers.trpca_solve(x, cfg)

    # a finite input whose iterates overflow mid-run: at 1e308 the tube DFT
    # of the first pair's unfolding overflows in sweep 2; at 3e307 the
    # unfolding itself holds an inf in sweep 3 (an SVD of such a slice
    # may never return)
    @pytest.mark.parametrize("x, sweep", [
        (1e308 * gen_cp_tensor(CpSpec((10, 10, 10), 2, 0)), 2),
        (3e307 * np.random.default_rng(0).standard_normal((5, 4, 3)), 3),
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


def _lrtc_case(shape, rank, sr, seed, tau, alpha=None, p_max=500):
    truth = gen_cp_tensor(CpSpec(shape, rank, seed))
    mask = sample_mask(shape, sr, seed + 1)
    alpha = weights_uniform(len(shape)) if alpha is None else np.asarray(alpha)
    cfg = solvers.LrtcConfig(alpha=alpha, tau=tau, p_max=p_max)
    return lambda: solvers.lrtc_solve(np.where(mask, truth, 0.0), mask, cfg)


def _trpca_case(shape, rank, nl, seed, tau, alpha=None, p_max=500):
    noisy = add_salt_pepper(gen_cp_tensor(CpSpec(shape, rank, seed)), nl, seed + 1)
    alpha = weights_uniform(len(shape)) if alpha is None else np.asarray(alpha)
    cfg = solvers.TrpcaConfig(alpha=alpha, tau=tau, lam=solvers.default_lambda(shape, alpha),
                              rel_tol=1e-6, p_max=p_max)
    return lambda: solvers.trpca_solve(noisy, cfg)


class TestOneBufferAdmm:
    """The one-buffer ADMM loop against the loop that keeps every pair's
    auxiliary variable and multiplier apart: the same sweeps, and results
    that differ only in rounding. Each instance runs 23-62 sweeps, or to
    its p_max (a smaller tau where tau 10 would stop after a sweep or two)."""

    @pytest.mark.parametrize("solve", [
        _lrtc_case((12, 12, 12), 2, 0.5, 0, tau=3.0),
        _lrtc_case((6, 7, 5, 4), 1, 0.5, 2, tau=1.0),
        _lrtc_case((15, 15, 15), 1, 0.6, 7, tau=10.0, alpha=[0.5, 0.5, 0.0]),
        _lrtc_case((6, 7, 5, 4), 2, 0.3, 4, tau=1.0, p_max=4),
        _trpca_case((15, 15, 15), 2, 0.1, 3, tau=10.0),
        _trpca_case((6, 7, 5, 4), 1, 0.05, 5, tau=3.0, alpha=[0.3, 0.0, 0.2, 0.2, 0.1, 0.2]),
        _trpca_case((12, 12, 12), 2, 0.1, 6, tau=10.0, p_max=5),
    ], ids=["lrtc-3way", "lrtc-4way", "lrtc-zero-weight", "lrtc-p_max",
            "trpca-3way", "trpca-4way-zero-weight", "trpca-p_max"])
    def test_matches_two_buffer_loop(self, monkeypatch, solve):
        lean = solve()
        monkeypatch.setattr(solvers, "_admm", two_buffer_admm)
        ref = solve()
        lean_report, ref_report = lean[-1], ref[-1]
        assert lean_report.iterations == ref_report.iterations > 1
        assert lean_report.converged == ref_report.converged
        for a, b in zip(lean[:-1], ref[:-1]):
            assert frobenius_norm(a - b) <= 1e-10 * frobenius_norm(b)


class TestOnePenalty:
    """Every pair's t-SVT threshold in a sweep is the one number 1 / rho_k,
    where rho_1 = 1 / tau and rho_{k+1} = min(gamma * rho_k, PENALTY_MAX).
    At tau 1e-8 robust PCA runs sweeps 27-40 at the cap."""

    @pytest.mark.parametrize("tau", [3.0, 1e-8])
    @pytest.mark.parametrize("task", ["lrtc", "trpca"])
    def test_each_sweep_uses_one_threshold(self, monkeypatch, task, tau):
        shape, alpha = (8, 9, 7), (0.5, 0.3, 0.2)
        truth = gen_cp_tensor(CpSpec(shape, 2, 0))
        thresholds, real_t_svt = [], solvers.t_svt

        def spy(z, threshold):
            thresholds.append(threshold)
            return real_t_svt(z, threshold)

        monkeypatch.setattr(solvers, "t_svt", spy)
        if task == "lrtc":
            mask = sample_mask(shape, 0.5, 1)
            cfg = solvers.LrtcConfig(alpha=alpha, tau=tau, rel_tol=0, p_max=40)
            solvers.lrtc_solve(np.where(mask, truth, 0.0), mask, cfg)
        else:
            cfg = solvers.TrpcaConfig(alpha=alpha, tau=tau, rel_tol=0, p_max=40)
            solvers.trpca_solve(add_salt_pepper(truth, 0.1, 1), cfg)
        assert len(thresholds) == 3 * 40
        rho = 1 / tau
        for sweep in range(40):
            assert thresholds[3 * sweep:3 * sweep + 3] == [1 / rho] * 3, f"sweep {sweep + 1}"
            rho = min(cfg.gamma * rho, solvers.PENALTY_MAX)


class TestWorkingSet:
    """Peak memory a 5-sweep solve allocates, as a multiple of the data size
    (one buffer per pair, and t-SVT's slice blocks)."""

    @pytest.mark.parametrize("shape", [(12, 12, 12, 12), (8, 9, 10, 11), (30, 30, 30)],
                             ids=_shape_id)
    def test_peak_within_budget(self, shape):
        truth = gen_cp_tensor(CpSpec(shape, 2, 0))
        alpha = weights_uniform(len(shape))
        mask = sample_mask(shape, 0.5, 1)
        f = np.where(mask, truth, 0.0)
        lrtc_cfg = solvers.LrtcConfig(alpha=alpha, p_max=5)
        assert traced_peak(solvers.lrtc_solve, f, mask, lrtc_cfg) <= 16 * f.nbytes
        noisy = add_salt_pepper(truth, 0.1, 2)
        trpca_cfg = solvers.TrpcaConfig(alpha=alpha, lam=solvers.default_lambda(shape, alpha),
                                        p_max=5)
        assert traced_peak(solvers.trpca_solve, noisy, trpca_cfg) <= 18 * noisy.nbytes
