"""End-to-end acceptance checks.

Each test prints a single "criterion NN ...: PASS/FAIL" line on the live
terminal (bypassing capture) and then asserts. The synthetic criteria
write their results to CSV; the determinism criterion recomputes them
from the same seeds, requires byte-identical CSV output, and prints the
sha256 of each CSV above its own line.
"""

import hashlib
import io

import numpy as np
import pytest

from oracles import bcirc_oracle, brute_force_j
from wstnn import ntubal, solvers, synth, tsvd
from wstnn.tensor_ops import (
    frobenius_norm,
    mode_k1k2_fold,
    mode_k1k2_unfold,
    mode_k_fold,
    mode_k_unfold,
    mode_pairs,
    vectorize,
)

RNG_BASE = 20240817


def report(capsys, num, name, ok):
    with capsys.disabled():
        print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} {name} failed"


def test_criterion_01_index_map_oracle(capsys):
    rng = np.random.default_rng(RNG_BASE)
    shapes = [(10, 14, 9), (5, 6, 7, 8), (3, 4, 5, 4, 3), (2, 2, 2, 2, 2)]
    ok = True
    for shape in shapes:
        assert np.prod(shape) <= 2000
        x = rng.standard_normal(shape)
        v = vectorize(x)
        for k in range(1, len(shape) + 1):
            m = mode_k_unfold(x, k)
            ok &= np.array_equal(mode_k_fold(m, k, shape), x)
        unfolds = {pair: mode_k1k2_unfold(x, pair) for pair in mode_pairs(len(shape))}
        for pair, y in unfolds.items():
            ok &= np.array_equal(mode_k1k2_fold(y, pair, shape), x)
        for idx in np.ndindex(shape):
            if v[brute_force_j(idx, shape, skip=())] != x[idx]:
                ok = False
            for k in range(1, len(shape) + 1):
                m = mode_k_unfold(x, k)
                if m[idx[k - 1], brute_force_j(idx, shape, (k,))] != x[idx]:
                    ok = False
            for (k1, k2), y in unfolds.items():
                j = brute_force_j(idx, shape, (k1, k2))
                if y[idx[k1 - 1], idx[k2 - 1], j] != x[idx]:
                    ok = False
    report(capsys, 1, "index-map oracle", ok)


def test_criterion_02_t_product_oracle(capsys):
    rng = np.random.default_rng(RNG_BASE + 1)
    ok = True
    for _ in range(20):
        n1, n2, n4 = rng.integers(1, 7, size=3)
        n3 = int(rng.integers(1, 8))
        x = rng.standard_normal((n1, n2, n3))
        y = rng.standard_normal((n2, n4, n3))
        fast = tsvd.t_product(x, y)
        ref = bcirc_oracle(x, y)
        ok &= frobenius_norm(fast - ref) <= 1e-10 * (1 + frobenius_norm(ref))
    report(capsys, 2, "t-product vs block-circulant oracle", ok)


def test_criterion_03_t_svd_contract(capsys):
    rng = np.random.default_rng(RNG_BASE + 2)
    ok = True
    for _ in range(20):
        x = rng.standard_normal((8, 6, 5))
        u, s, v = tsvd.t_svd(x)
        recon = tsvd.t_product(tsvd.t_product(u, s), tsvd.conj_transpose(v))
        ok &= frobenius_norm(recon - x) <= 1e-10 * frobenius_norm(x)
        eye_u = tsvd.identity_tensor(8, 5)
        eye_v = tsvd.identity_tensor(6, 5)
        ok &= frobenius_norm(tsvd.t_product(tsvd.conj_transpose(u), u) - eye_u) < 1e-9
        ok &= frobenius_norm(tsvd.t_product(tsvd.conj_transpose(v), v) - eye_v) < 1e-9
        sf = np.fft.fft(s, axis=2)
        for i in range(5):
            off = sf[:, :, i].copy()
            np.fill_diagonal(off, 0.0)
            ok &= np.abs(off).max() < 1e-9
    report(capsys, 3, "t-SVD factorization contract", ok)


def test_criterion_04_t_svt_optimality(capsys):
    rng = np.random.default_rng(RNG_BASE + 3)
    ok = True
    for _ in range(10):
        z = rng.standard_normal((5, 5, 4))
        ok &= frobenius_norm(tsvd.t_svt(z, 0.0) - z) <= 1e-10
        sigma_max = tsvd.fourier_singular_values(z).max()
        for frac in (0.1, 0.5, 1.1):
            tau = frac * sigma_max
            w = tsvd.t_svt(z, tau)
            # prox objective: tau * tnn + 0.5||.-z||^2
            best = tau * tsvd.tnn(w) + 0.5 * frobenius_norm(w - z) ** 2
            scales = 10.0 ** rng.uniform(-3, -1, size=500)
            for scale in scales:
                pert = w + scale * rng.standard_normal(w.shape)
                obj = tau * tsvd.tnn(pert) + 0.5 * frobenius_norm(pert - z) ** 2
                ok &= obj >= best - 1e-9
    report(capsys, 4, "t-SVT prox optimality", ok)


# --- synthetic criteria: computations shared with the determinism check ---


def _csv_bytes(header, rows):
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(str(v) for v in row) + "\n")
    return buf.getvalue().encode()


def run_rank_reproduction():
    rows = []
    all_exact = True
    for shape in [(30, 30, 30), (10, 10, 10, 10)]:
        n_pairs = len(mode_pairs(len(shape)))
        for r in (1, 3, 5):
            for draw in range(20):
                seed = np.random.SeedSequence(
                    entropy=RNG_BASE, spawn_key=(len(shape), r, draw)
                )
                x = synth.gen_cp_tensor(synth.CpSpec(shape, r, seed))
                est = ntubal.estimate_n_tubal_rank(x, 0.01)
                exact = bool(np.array_equal(est, np.full(n_pairs, r)))
                all_exact &= exact
                rows.append(
                    ["x".join(map(str, shape)), r, draw,
                     " ".join(map(str, est)), int(exact)]
                )
    return all_exact, _csv_bytes(["shape", "r", "draw", "estimate", "exact"], rows)


LRTC_CELLS = [(2, 0.5), (5, 0.8), (20, 0.05)]


def run_lrtc_cells():
    cfg = solvers.LrtcConfig(alpha=ntubal.weights_uniform(3), tau=10.0)
    grid_rows = []
    rates = {}
    for idx, (r, sr) in enumerate(LRTC_CELLS):
        grid = synth.PhaseGrid(ranks=[r], levels=[sr], trials=10)
        row = synth.phase_sweep(
            grid, "complete", (30, 30, 30),
            base_seed=RNG_BASE + 100 + idx, config_template=cfg,
        )[0]
        rates[(r, sr)] = row["rate"]
        grid_rows.append([row["rank"], row["level"], row["trials"],
                          row["successes"], row["rate"]])
    return rates, _csv_bytes(["rank", "level", "trials", "successes", "rate"], grid_rows)


def run_dominance():
    # uniform weights against all weight on mode pair (1, 2)
    grid = synth.PhaseGrid(ranks=[2], levels=[0.4], trials=10)
    wstnn, baseline = (
        synth.phase_trials(grid, "complete", (15, 15, 15, 15), RNG_BASE + 200,
                           solvers.LrtcConfig(alpha=alpha, tau=10.0))
        for alpha in (ntubal.weights_uniform(4), np.eye(6)[0])
    )
    wins = {name: sum(r.rse < grid.success_threshold for r in records)
            for name, records in (("wstnn", wstnn), ("baseline", baseline))}
    rows = [[w.trial, repr(w.rse), repr(b.rse)] for w, b in zip(wstnn, baseline)]
    return wins, _csv_bytes(["trial", "rse_wstnn", "rse_baseline"], rows)


def run_trpca_cells():
    shape = (30, 30, 30)
    alpha = ntubal.weights_uniform(3)
    lam = solvers.default_lambda(shape, alpha)
    cfg = solvers.TrpcaConfig(alpha=alpha, tau=20.0, lam=lam, rel_tol=1e-6)
    grid = synth.PhaseGrid(ranks=[2], levels=[0.1], trials=10)
    records = synth.phase_trials(grid, "rpca", shape, RNG_BASE + 300, cfg)
    successes = sum(r.rse < grid.success_threshold for r in records)
    residual_ok = all(r.report.constraint_residual < 1e-6 for r in records)
    rows = [[r.trial, repr(r.rse), repr(r.report.constraint_residual)] for r in records]
    return (successes, residual_ok, lam), _csv_bytes(["trial", "rse", "rel_residual"], rows)


@pytest.fixture(scope="module")
def rank_results():
    return run_rank_reproduction()


@pytest.fixture(scope="module")
def lrtc_results():
    return run_lrtc_cells()


@pytest.fixture(scope="module")
def dominance_results():
    return run_dominance()


@pytest.fixture(scope="module")
def trpca_results():
    return run_trpca_cells()


def test_criterion_05_rank_reproduction(capsys, rank_results):
    all_exact, _ = rank_results
    report(capsys, 5, "exact N-tubal rank of synthetic draws", all_exact)


def test_criterion_06_lrtc_phase_cells(capsys, lrtc_results):
    rates, _ = lrtc_results
    ok = (
        rates[(2, 0.5)] == 1.0
        and rates[(5, 0.8)] == 1.0
        and rates[(20, 0.05)] == 0.0
    )
    report(capsys, 6, "completion phase-transition cells", ok)


def test_criterion_07_wstnn_dominance(capsys, dominance_results):
    wins, _ = dominance_results
    report(capsys, 7, "WSTNN vs one-pair baseline dominance",
           wins["wstnn"] >= wins["baseline"])


def test_criterion_08_trpca_phase_cell(capsys, trpca_results):
    (successes, residual_ok, lam), _ = trpca_results
    ok = successes >= 9 and residual_ok and lam == pytest.approx(1.0 / 30.0)
    report(capsys, 8, "robust PCA recovery cell", ok)


def test_criterion_09_convergence_trace(capsys):
    cfg = solvers.LrtcConfig(alpha=ntubal.weights_uniform(3), tau=10.0)
    seed = np.random.SeedSequence(entropy=RNG_BASE + 100, spawn_key=(0, 0))
    gen_seed, mask_seed = seed.spawn(2)
    truth = synth.gen_cp_tensor(synth.CpSpec((30, 30, 30), 2, gen_seed))
    mask = synth.sample_mask(truth.shape, 0.5, mask_seed)
    _, rep = solvers.lrtc_solve(np.where(mask, truth, 0.0), mask, cfg)
    trace = np.asarray(rep.rel_change_trace)
    ok = (
        np.isfinite(trace).all()
        and rep.iterations < 500
        and trace[-1] < 1e-4
        and bool((np.diff(trace[-20:]) < 0).all())
    )
    report(capsys, 9, "relative-change convergence trace", ok)


def test_criterion_10_determinism(
    capsys, rank_results, lrtc_results, dominance_results, trpca_results
):
    first = [rank_results[1], lrtc_results[1], dominance_results[1], trpca_results[1]]
    second = [
        run_rank_reproduction()[1],
        run_lrtc_cells()[1],
        run_dominance()[1],
        run_trpca_cells()[1],
    ]
    ok = all(a == b for a, b in zip(first, second))
    # the CSV hashes on the live terminal, so a log records each run's
    # figures and a change to them shows without recomputing them by hand
    with capsys.disabled():
        for num, csv in zip((5, 6, 7, 8), first):
            print(f"criterion {num:02d} CSV sha256 {hashlib.sha256(csv).hexdigest()}")
    report(capsys, 10, "byte-identical rerun of synthetic criteria", ok)
