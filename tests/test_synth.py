import concurrent.futures
import ctypes
import logging
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import factors_admissible_loop, phase_sweep_serial, phase_trials_serial
from wstnn import solvers, synth
from wstnn.ntubal import estimate_n_tubal_rank, weights_uniform
from wstnn.solvers import SolveReport
from wstnn.tsvd import NumericError


def _exact_and_close(record):
    report = record.report
    residual = np.nan if report.constraint_residual is None else report.constraint_residual
    return ((record.rank, record.level, record.trial, record.error,
             report.iterations, report.converged),
            [record.rse, residual, *report.rel_change_trace])


def assert_records_match(got, want):
    """Equal records; the RSE, the constraint residual and the relative
    changes to 1e-9 relative (NaN matches NaN)."""
    (exact, close), (exact_want, close_want) = (
        zip(*map(_exact_and_close, records)) for records in (got, want))
    assert exact == exact_want
    for values, values_want in zip(close, close_want):
        np.testing.assert_allclose(values, values_want, rtol=1e-9)


class TestCpSpec:
    def test_rejects_low_order(self):
        with pytest.raises(ValueError):
            synth.CpSpec((5, 5), 1)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            synth.CpSpec((5, 5, 5), 0)
        with pytest.raises(ValueError):
            synth.CpSpec((5, 5, 5), 6)
        with pytest.raises(ValueError):
            synth.CpSpec((5, 5, 5), 1.5)
        with pytest.raises(ValueError, match="cp_rank must be an integer"):
            synth.CpSpec((5, 5, 5), True)

    def test_rejects_zero_extent(self):
        with pytest.raises(ValueError, match="extents must be positive"):
            synth.CpSpec((5, 0, 5), 1)

    def test_rejects_non_integral_extent(self):
        with pytest.raises(ValueError, match="extents must be integers"):
            synth.CpSpec((5.7, 5, 5), 1)


class TestGenCpTensor:
    def test_deterministic(self):
        spec = synth.CpSpec((10, 10, 10), 3, seed=7)
        np.testing.assert_array_equal(
            synth.gen_cp_tensor(spec), synth.gen_cp_tensor(spec)
        )

    def test_seed_changes_output(self):
        a = synth.gen_cp_tensor(synth.CpSpec((10, 10, 10), 3, seed=1))
        b = synth.gen_cp_tensor(synth.CpSpec((10, 10, 10), 3, seed=2))
        assert not np.array_equal(a, b)

    def test_values_bounded(self):
        # sum of r rank-one terms with factors in [-1, 1]
        r = 4
        x = synth.gen_cp_tensor(synth.CpSpec((8, 8, 8), r, seed=3))
        assert np.abs(x).max() <= r

    @pytest.mark.parametrize("r", [1, 3, 5])
    def test_n_tubal_rank_exact(self, r):
        x = synth.gen_cp_tensor(synth.CpSpec((15, 15, 15), r, seed=11))
        np.testing.assert_array_equal(estimate_n_tubal_rank(x), [r, r, r])

    def test_four_way_rank(self):
        x = synth.gen_cp_tensor(synth.CpSpec((8, 8, 8, 8), 2, seed=13))
        np.testing.assert_array_equal(estimate_n_tubal_rank(x), [2] * 6)

    # small-integer factors give exact zeros in the spectra and rank-deficient
    # sets, so both decisions occur; the one-DFT check must agree with the
    # per-term loop on every draw, or gen_cp_tensor's draws would change
    @settings(max_examples=200, deadline=None)
    @given(shape=st.lists(st.integers(1, 4), min_size=3, max_size=5), r=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1), integral=st.booleans())
    def test_admissible_matches_loop(self, shape, r, seed, integral):
        rng = np.random.default_rng(seed)
        if integral:
            factors = [rng.integers(-1, 2, (n, r)).astype(float) for n in shape]
        else:
            factors = [rng.uniform(-1.0, 1.0, (n, r)) for n in shape]
        want = factors_admissible_loop(factors, tuple(shape), r)
        assert synth._factors_admissible(factors, tuple(shape), r) == want


class TestSampleMask:
    def test_exact_count_30_cubed(self):
        mask = synth.sample_mask((30, 30, 30), 0.5, seed=0)
        assert mask.sum() == 13500

    def test_exact_count_rounding(self):
        mask = synth.sample_mask((3, 3, 3), 0.5, seed=0)
        assert mask.sum() == round(0.5 * 27)

    def test_full_rate(self):
        assert synth.sample_mask((4, 4, 4), 1.0, seed=0).all()

    def test_deterministic(self):
        a = synth.sample_mask((10, 10, 10), 0.3, seed=5)
        b = synth.sample_mask((10, 10, 10), 0.3, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_rate(self):
        for sr in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                synth.sample_mask((3, 3, 3), sr)


class TestSaltPepper:
    def test_corrupted_count_and_values(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (10, 10, 10))
        noisy = synth.add_salt_pepper(x, 0.2, seed=2)
        changed = noisy != x
        assert changed.sum() <= round(0.2 * x.size)
        assert np.isin(noisy[changed], [x.min(), x.max()]).all()

    def test_zero_level_is_copy(self):
        x = np.random.default_rng(3).standard_normal((5, 5, 5))
        noisy = synth.add_salt_pepper(x, 0.0, seed=0)
        np.testing.assert_array_equal(noisy, x)
        assert noisy is not x

    def test_deterministic(self):
        x = np.random.default_rng(4).standard_normal((8, 8, 8))
        a = synth.add_salt_pepper(x, 0.3, seed=9)
        b = synth.add_salt_pepper(x, 0.3, seed=9)
        np.testing.assert_array_equal(a, b)

    # the noise lands on the same column-major positions whatever the
    # input's memory order, and the input is left as it was
    def test_memory_order_and_input_untouched(self):
        x = np.random.default_rng(5).standard_normal((6, 7, 8))
        results = []
        for arr in (np.ascontiguousarray(x), np.asfortranarray(x)):
            before = arr.copy()
            results.append(synth.add_salt_pepper(arr, 0.3, seed=9))
            np.testing.assert_array_equal(arr, before)
        np.testing.assert_array_equal(results[0], results[1])
        assert (results[0] != x).any()

    def test_rejects_bad_level(self):
        x = np.zeros((3, 3, 3))
        for nl in (-0.1, 1.0):
            with pytest.raises(ValueError):
                synth.add_salt_pepper(x, nl)


class TestRse:
    def test_exact_match(self):
        x = np.ones((3, 3, 3))
        assert synth.rse(x, x) == 0.0

    def test_zero_estimate(self):
        x = np.ones((3, 3, 3))
        assert synth.rse(np.zeros_like(x), x) == pytest.approx(1.0)

    def test_doubling(self):
        x = np.ones((2, 2, 2))
        assert synth.rse(2 * x, x) == pytest.approx(1.0)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            synth.rse(np.ones((2, 2, 2)), np.zeros((2, 2, 2)))


class TestPhaseSweep:
    def test_small_completion_sweep(self):
        grid = synth.PhaseGrid(ranks=[1], levels=[0.6], trials=2)
        rows = synth.phase_sweep(grid, "complete", (15, 15, 15), base_seed=0)
        assert len(rows) == 1
        row = rows[0]
        assert row["rank"] == 1 and row["level"] == 0.6 and row["trials"] == 2
        assert row["successes"] == 2 and row["rate"] == 1.0

    def test_sweep_deterministic(self):
        grid = synth.PhaseGrid(ranks=[1, 2], levels=[0.5], trials=2)
        a = synth.phase_sweep(grid, "complete", (10, 10, 10), base_seed=3)
        b = synth.phase_sweep(grid, "complete", (10, 10, 10), base_seed=3)
        assert a == b

    def test_rpca_sweep_runs(self):
        grid = synth.PhaseGrid(ranks=[1], levels=[0.1], trials=1)
        rows = synth.phase_sweep(grid, "rpca", (15, 15, 15), base_seed=0)
        assert rows[0]["successes"] == 1

    def test_four_way_default_config(self):
        # the default tau must not stall the first sweep on four-way data
        grid = synth.PhaseGrid(ranks=[1], levels=[0.5], trials=2)
        rows = synth.phase_sweep(grid, "complete", (10, 10, 10, 10))
        assert rows[0]["rate"] == 1.0

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            synth.phase_sweep(synth.PhaseGrid(), "denoise", (5, 5, 5))

    @staticmethod
    def _marking_spec(tmp_path):
        # the first call a trial makes in the worker, wrapped: a spec built
        # with a trial's draw seed leaves a file named by that seed,
        # (cell, trial, 0), before the real CpSpec checks anything. The
        # parent's own CpSpec(shape, rank) checks pass no seed and leave none
        real = synth.CpSpec

        def spec(shape, rank, seed=0):
            if isinstance(seed, np.random.SeedSequence):
                (tmp_path / "-".join(map(str, seed.spawn_key))).touch()
            return real(shape, rank, seed)

        return spec

    def test_rank_above_shape_rejected_before_any_trial(self, monkeypatch, tmp_path):
        monkeypatch.setattr(synth, "CpSpec", self._marking_spec(tmp_path))
        grid = synth.PhaseGrid(ranks=[1, 2, 6], levels=[0.5], trials=2)
        with pytest.raises(ValueError, match=r"cp_rank 6 .*\(5, 5, 5\)"):
            synth.phase_sweep(grid, "complete", (5, 5, 5))
        assert list(tmp_path.iterdir()) == []

    # each bad setting, shapes, levels and config templates alike, raises
    # before the pool forks, so no trial runs
    @pytest.mark.parametrize("task, shape, levels, cfg", [
        ("complete", (5, 5, 5), [0.5, 1.5], None),
        ("complete", (5, 5, 5), [0.5, float("nan")], None),
        ("rpca", (5, 5, 5), [0.1, 1.0], None),
        ("complete", (5, 5, 5), [0.5],
         solvers.LrtcConfig(alpha=weights_uniform(3), tau=float("nan"))),
        ("complete", (5, 5, 5), [0.5], solvers.LrtcConfig(alpha=[float("nan"), 0.5, 0.5])),
        ("complete", (5, 5, 5), [0.5], solvers.LrtcConfig(alpha=weights_uniform(4))),
        ("complete", (5, 5, 5), [0.5], solvers.TrpcaConfig(alpha=weights_uniform(3), lam=0.1)),
        ("rpca", (5, 5, 5), [0.1], solvers.LrtcConfig(alpha=weights_uniform(3))),
        ("rpca", (5, 5, 5), [0.1],
         solvers.TrpcaConfig(alpha=weights_uniform(3), lam=float("nan"))),
        ("complete", (5, 5, 5), [0.5], solvers.LrtcConfig(alpha=weights_uniform(3), p_max=2.5)),
        ("complete", (5.7, 5, 5), [0.5], None),
        ("complete", (True, 5, 5), [0.5], None),
        ("complete", (5, 5, 5), [0.5], solvers.LrtcConfig(p_max=True)),
        ("rpca", (5, 5, 5), [0.1], solvers.TrpcaConfig(tau=True)),
        ("complete", (5, 5, 5), [True], None),
        ("rpca", (5, 5, 5), [False], None),
        ("rpca", (5, 5, 5), [0.1], solvers.TrpcaConfig(lam=True)),
        ("rpca", (5, 5, 5), [0.1], solvers.TrpcaConfig(lam="0.1")),
        ("complete", (5, 5, 5), [0.5], solvers.LrtcConfig(rel_tol="x")),
    ], ids=[
        "sr-1.5", "sr-nan", "nl-1.0", "tau-nan", "alpha-nan", "alpha-4way",
        "complete-trpca-template", "rpca-lrtc-template", "lam-nan", "p_max-2.5",
        "shape-5.7", "shape-bool", "p_max-bool", "tau-bool", "sr-bool", "nl-bool",
        "lam-bool", "lam-string", "rel_tol-string",
    ])
    def test_bad_setting_rejected_before_any_trial(self, monkeypatch, tmp_path,
                                                   task, shape, levels, cfg):
        monkeypatch.setattr(synth, "CpSpec", self._marking_spec(tmp_path))
        grid = synth.PhaseGrid(ranks=[1], levels=levels, trials=2)
        with pytest.raises(ValueError):
            synth.phase_sweep(grid, task, shape, config_template=cfg)
        assert list(tmp_path.iterdir()) == []

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            synth.PhaseGrid(ranks=[])
        with pytest.raises(ValueError):
            synth.PhaseGrid(trials=0)
        with pytest.raises(ValueError):
            synth.PhaseGrid(trials=1.5)
        with pytest.raises(ValueError, match="^trials must be"):
            synth.PhaseGrid(trials=True)
        with pytest.raises(ValueError, match="^success_threshold must be"):
            synth.PhaseGrid(success_threshold=True)
        with pytest.raises(ValueError):
            synth.PhaseGrid(success_threshold=float("nan"))

    @staticmethod
    def _raising_solver(exc):
        def solve(*args, **kwargs):
            raise exc

        return solve

    def test_programming_error_propagates(self, monkeypatch):
        monkeypatch.setattr(synth, "lrtc_solve", self._raising_solver(TypeError("bug")))
        grid = synth.PhaseGrid(ranks=[1], levels=[0.5], trials=2)
        with pytest.raises(TypeError, match="bug"):
            synth.phase_sweep(grid, "complete", (5, 5, 5))

    def test_numeric_error_is_logged_and_unsuccessful(self, monkeypatch, caplog):
        monkeypatch.setattr(
            synth, "lrtc_solve", self._raising_solver(NumericError("breakdown"))
        )
        grid = synth.PhaseGrid(ranks=[1], levels=[0.5], trials=2)
        with caplog.at_level(logging.ERROR, logger="wstnn.synth"):
            rows = synth.phase_sweep(grid, "complete", (5, 5, 5))
        assert rows[0]["successes"] == 0 and rows[0]["rate"] == 0.0
        logged = [r for r in caplog.records if r.name == "wstnn.synth"]
        assert len(logged) == 2
        assert all(isinstance(r.exc_info[1], NumericError) for r in logged)

    def test_programming_error_cancels_pending_trials(self, monkeypatch, tmp_path):
        # the first trial's draw raises at once, every other one takes
        # 50 ms and leaves a file behind; 40 trials on two workers would
        # take a second to run out
        def gen(spec):
            _, index, _ = spec.seed.spawn_key
            if index == 0:
                raise TypeError("bug")
            time.sleep(0.05)
            (tmp_path / f"{index}").touch()
            return np.ones(spec.shape)

        monkeypatch.setattr(synth, "gen_cp_tensor", gen)
        grid = synth.PhaseGrid(ranks=[1], levels=[0.5], trials=40)
        with pytest.raises(TypeError, match="bug"):
            synth.phase_sweep(grid, "complete", (5, 5, 5))
        assert len(list(tmp_path.iterdir())) < 10

    # 10^3 instances with mixed outcomes: completion at tau 3, robust PCA
    # at its defaults; the repeated grid runs one (rank, level) cell twice
    @pytest.mark.parametrize("base_seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "task, ranks, levels",
        [
            ("complete", [1, 3], [0.3, 0.7]),
            ("complete", [1, 1], [0.7, 0.7]),
            ("rpca", [1, 2], [0.05, 0.3]),
        ],
    )
    def test_matches_serial_reference(self, task, ranks, levels, base_seed):
        grid = synth.PhaseGrid(ranks=ranks, levels=levels, trials=2)
        cfg = None
        if task == "complete":
            cfg = solvers.LrtcConfig(alpha=weights_uniform(3), tau=3.0)
        args = (grid, task, (10, 10, 10), base_seed, cfg)
        assert synth.phase_sweep(*args) == phase_sweep_serial(*args)
        assert_records_match(synth.phase_trials(*args), phase_trials_serial(*args))

    # with no template the trials run the config defaults, resolved by the
    # solver: the records equal those of the defaults built by hand
    @pytest.mark.parametrize("task, levels", [("complete", [0.3, 0.7]), ("rpca", [0.05, 0.3])])
    def test_no_template_runs_default_config(self, task, levels):
        shape, alpha = (10, 10, 10), weights_uniform(3)
        explicit = (solvers.LrtcConfig(alpha=alpha) if task == "complete" else
                    solvers.TrpcaConfig(alpha=alpha, lam=solvers.default_lambda(shape, alpha)))
        grid = synth.PhaseGrid(ranks=[1, 2], levels=levels, trials=2)
        assert (synth.phase_trials(grid, task, shape, 3)
                == synth.phase_trials(grid, task, shape, 3, explicit))

    def test_errors_match_serial_reference(self, monkeypatch, caplog):
        # each trial's draw seed picks its outcome: a numeric breakdown of
        # either kind, or a constant truth of 2 or 3 that the faked solve
        # estimates as 2, a success (RSE 0) or a failure (RSE 1/9)
        def gen(spec):
            outcome = spec.seed.generate_state(1)[0] % 4
            if outcome == 0:
                raise NumericError("breakdown")
            if outcome == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return np.full(spec.shape, float(outcome))

        monkeypatch.setattr(synth, "gen_cp_tensor", gen)
        monkeypatch.setattr(synth, "trpca_solve",
                            lambda x, cfg: (np.full_like(x, 2.0), None, SolveReport()))
        grid = synth.PhaseGrid(ranks=[1, 2, 2], levels=[0.1, 0.2], trials=5)
        with caplog.at_level(logging.ERROR, logger="wstnn.synth"):
            rows = synth.phase_sweep(grid, "rpca", (5, 5, 5), base_seed=4)
        assert rows == phase_sweep_serial(grid, "rpca", (5, 5, 5), base_seed=4)
        errors = sum(row["errors"] for row in rows)
        assert 0 < errors < 30 and any(row["successes"] for row in rows)
        assert len([r for r in caplog.records if r.name == "wstnn.synth"]) == errors

    def test_workers_run_single_threaded_blas(self, monkeypatch):
        get_threads = synth._openblas_function("get_num_threads")
        if get_threads is None or synth._openblas_function("set_num_threads") is None:
            pytest.skip("no OpenBLAS thread controls found in numpy's bundled libraries")
        get_threads.restype = ctypes.c_int

        # each trial scores its worker's BLAS thread count: 0 (a success)
        # when it is one
        monkeypatch.setattr(synth, "rse", lambda xhat, x: float(get_threads() != 1))
        grid = synth.PhaseGrid(ranks=[1], levels=[0.5], trials=4)
        rows = synth.phase_sweep(grid, "complete", (5, 5, 5))
        assert rows[0]["successes"] == 4

    # without numpy's bundled OpenBLAS there is no set_num_threads export,
    # and the pool runs one worker on the BLAS as it is
    def test_one_worker_without_blas_thread_control(self, monkeypatch):
        sizes = []
        executor = concurrent.futures.ProcessPoolExecutor

        def pool(workers, **kwargs):
            sizes.append(workers)
            return executor(workers, **kwargs)

        monkeypatch.setattr(synth, "_openblas_function", lambda name: None)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        grid = synth.PhaseGrid(ranks=[1, 2], levels=[0.3, 0.7], trials=2)
        args = (grid, "complete", (10, 10, 10), 0,
                solvers.LrtcConfig(alpha=weights_uniform(3), tau=3.0))
        assert_records_match(synth.phase_trials(*args), phase_trials_serial(*args))
        assert sizes == [1]


class TestTrialRecords:
    """Each record carries its own solve's report, the one a direct solve
    of the same seeded instance returns."""

    @staticmethod
    def _direct_report(task, shape, rank, level, seed, cfg):
        gen_seed, corrupt_seed = seed.spawn(2)
        truth = synth.gen_cp_tensor(synth.CpSpec(shape, rank, gen_seed))
        if task == "complete":
            mask = synth.sample_mask(shape, level, corrupt_seed)
            return solvers.lrtc_solve(np.where(mask, truth, 0.0), mask, cfg)[1]
        return solvers.trpca_solve(synth.add_salt_pepper(truth, level, corrupt_seed), cfg)[2]

    # 10^3 trials of 18-58 sweeps with mixed outcomes
    @pytest.mark.parametrize("task, levels, cfg", [
        ("complete", [0.3, 0.7], solvers.LrtcConfig(tau=3.0)),
        ("rpca", [0.05, 0.3], solvers.TrpcaConfig(tau=3.0)),
    ])
    def test_report_matches_direct_solve(self, task, levels, cfg):
        shape, base_seed = (10, 10, 10), 5
        grid = synth.PhaseGrid(ranks=[1, 2], levels=levels, trials=2)
        records = synth.phase_trials(grid, task, shape, base_seed, cfg)
        cells = [(rank, level) for rank in grid.ranks for level in grid.levels]
        keys = [(rank, level, trial) for rank, level in cells for trial in range(grid.trials)]
        assert [(r.rank, r.level, r.trial) for r in records] == keys
        for record, (rank, level, trial) in zip(records, keys):
            seed = synth._trial_seed(base_seed, cells.index((rank, level)), trial)
            want = self._direct_report(task, shape, rank, level, seed, cfg)
            got = record.report
            assert (got.iterations, got.converged) == (want.iterations, want.converged)
            np.testing.assert_allclose(got.rel_change_trace, want.rel_change_trace, rtol=1e-9)
            if task == "complete":
                assert got.constraint_residual is want.constraint_residual is None
            else:
                np.testing.assert_allclose(got.constraint_residual, want.constraint_residual,
                                           rtol=1e-9)
            assert got.wall_time > 0 and not record.error

    def test_breakdown_record_has_empty_report(self, monkeypatch):
        def solve(*args):
            raise NumericError("breakdown")

        monkeypatch.setattr(synth, "trpca_solve", solve)
        grid = synth.PhaseGrid(ranks=[1], levels=[0.1], trials=2)
        for record in synth.phase_trials(grid, "rpca", (5, 5, 5)):
            assert record.error and np.isnan(record.rse) and record.report == SolveReport()
            assert (record.report.iterations, record.report.converged,
                    record.report.constraint_residual) == (0, False, None)
            assert np.isnan(record.report.final_rel_change)

    def test_reports_equal_up_to_wall_time(self):
        report = SolveReport([np.inf, 0.5, 5e-5], wall_time=1.0, converged=True)
        assert report == replace(report, wall_time=2.0)
        assert report != replace(report, rel_change_trace=[np.inf, 0.5, 6e-5])
        assert report != replace(report, converged=False)
