import csv
import dataclasses
import inspect
import time

import numpy as np
import pytest

from wstnn import cli, ntubal, solvers, synth, tensor_io
from wstnn.synth import CpSpec, gen_cp_tensor


class TestTensorFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        x = np.random.default_rng(0).standard_normal((4, 5, 3, 2))
        path = tmp_path / "x.ntb"
        tensor_io.write_tensor(path, x)
        back = tensor_io.read_tensor(path)
        assert back.shape == x.shape
        np.testing.assert_array_equal(back, x)

    def test_roundtrip_one_way(self, tmp_path):
        x = np.array([1.5, -2.25, 3.0])
        path = tmp_path / "v.ntb"
        tensor_io.write_tensor(path, x)
        np.testing.assert_array_equal(tensor_io.read_tensor(path), x)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.ntb"
        tensor_io.write_tensor(path, np.zeros((2, 3, 4)))
        raw = path.read_bytes()
        assert raw[:6] == b"NTUB1\x00"
        assert int.from_bytes(raw[6:14], "little") == 3
        assert int.from_bytes(raw[14:22], "little") == 2
        assert len(raw) == 6 + 8 + 3 * 8 + 24 * 8

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ntb"
        path.write_bytes(b"GARBAGE" + b"\x00" * 32)
        with pytest.raises(tensor_io.TensorFormatError):
            tensor_io.read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.ntb"
        tensor_io.write_tensor(path, np.ones((3, 3, 3)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(tensor_io.TensorFormatError):
            tensor_io.read_tensor(path)

    def test_zero_extent_rejected(self, tmp_path):
        import struct

        path = tmp_path / "z.ntb"
        path.write_bytes(tensor_io.MAGIC + struct.pack("<QQQQ", 3, 2, 0, 2))
        with pytest.raises(tensor_io.TensorFormatError):
            tensor_io.read_tensor(path)

    def test_write_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            tensor_io.write_tensor(tmp_path / "e.ntb", np.zeros((2, 0, 3)))


class TestPsnr:
    def test_exact_match_is_inf(self):
        x = np.ones((3, 3, 3))
        assert tensor_io.psnr(x, x) == float("inf")

    def test_peak_error_everywhere_is_zero_db(self):
        # error of magnitude peak at every entry: 10*log10(1) = 0 dB
        x = np.ones((4, 4, 4))
        assert tensor_io.psnr(np.zeros_like(x), x) == pytest.approx(0.0)

    def test_halving_error_adds_6db(self):
        x = np.ones((4, 4, 4))
        a = tensor_io.psnr(x + 0.2, x)
        b = tensor_io.psnr(x + 0.1, x)
        assert b - a == pytest.approx(20 * np.log10(2), rel=1e-12)

    def test_explicit_peak(self):
        x = np.full((2, 2, 2), 0.5)
        assert tensor_io.psnr(x + 1.0, x, peak=1.0) == pytest.approx(0.0)

    def test_nonpositive_peak_rejected(self):
        x = np.zeros((2, 2, 2))
        with pytest.raises(ValueError):
            tensor_io.psnr(x, x, peak=0.0)


class TestCli:
    def test_rank_prints_n_tubal(self, tmp_path, capsys):
        x = gen_cp_tensor(CpSpec((12, 12, 12), 5, seed=0))
        path = tmp_path / "x.ntb"
        tensor_io.write_tensor(path, x)
        assert cli.main(["rank", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "N-tubal rank: 5 5 5" in out

    def test_complete_full_observation(self, tmp_path, capsys):
        x = gen_cp_tensor(CpSpec((10, 10, 10), 2, seed=1))
        inp, outp = tmp_path / "in.ntb", tmp_path / "out.ntb"
        tensor_io.write_tensor(inp, x)
        rc = cli.main([
            "complete", "--input", str(inp), "--sr", "1.0",
            "--tau", "10", "--out", str(outp),
        ])
        assert rc == 0
        np.testing.assert_array_equal(tensor_io.read_tensor(outp), x)

    def test_complete_recovers(self, tmp_path):
        x = gen_cp_tensor(CpSpec((15, 15, 15), 2, seed=2))
        inp, outp = tmp_path / "in.ntb", tmp_path / "out.ntb"
        rep = tmp_path / "trace.csv"
        tensor_io.write_tensor(inp, x)
        rc = cli.main([
            "complete", "--input", str(inp), "--sr", "0.6", "--seed", "3",
            "--tau", "10", "--out", str(outp), "--report", str(rep),
        ])
        assert rc == 0
        from wstnn.synth import rse

        assert rse(tensor_io.read_tensor(outp), x) < 1e-3
        with open(rep) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "rel_change"]
        assert len(rows) > 2

    def test_rpca_splits(self, tmp_path):
        from wstnn.synth import add_salt_pepper, rse

        truth = gen_cp_tensor(CpSpec((20, 20, 20), 2, seed=4))
        noisy = add_salt_pepper(truth, 0.1, seed=5)
        inp = tmp_path / "in.ntb"
        low_p, sp_p = tmp_path / "low.ntb", tmp_path / "sp.ntb"
        tensor_io.write_tensor(inp, noisy)
        rc = cli.main([
            "rpca", "--input", str(inp), "--tau", "10", "--rel-tol", "1e-6",
            "--out-low", str(low_p), "--out-sparse", str(sp_p),
        ])
        assert rc == 0
        assert rse(tensor_io.read_tensor(low_p), truth) < 1e-3

    def test_sweep_deterministic_csv(self, tmp_path):
        args = [
            "sweep", "--task", "complete", "--shape", "10,10,10",
            "--ranks", "1", "--levels", "0.6", "--trials", "2", "--seed", "7",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        with open(out1) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["rank", "level", "trials", "successes", "errors", "rate"]

    def test_sweep_prints_rate_table(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        assert cli.main([
            "sweep", "--task", "complete", "--shape", "8,8,8", "--ranks", "1,2,1",
            "--levels", "0.5,1.0", "--trials", "1", "--out", str(out),
        ]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        table = capsys.readouterr().out.split("rank \\ level")[1].splitlines()
        assert table[0].split() == ["0.5", "1.0"]
        # one line per grid rank, repeated ranks included, in grid order
        assert [line.split() for line in table[1:]] == [
            [r["rank"]] + [f"{float(c['rate']):.2f}" for c in rows[2 * i:2 * i + 2]]
            for i, r in enumerate(rows[::2])
        ]
        assert table[1].split()[2] == "1.00"

    @pytest.mark.parametrize("command, config", [
        ("complete", solvers.LrtcConfig), ("rpca", solvers.TrpcaConfig),
    ])
    def test_solver_defaults_come_from_config(self, command, config):
        required = {"complete": ["--out", "o"], "rpca": ["--out-low", "l", "--out-sparse", "s"]}
        args = cli.build_parser().parse_args([command, "--input", "x"] + required[command])
        defaults = {f.name: f.default for f in dataclasses.fields(config)}
        assert (args.gamma, args.max_iter, args.rel_tol) == (
            defaults["gamma"], defaults["p_max"], defaults["rel_tol"]
        )

    def test_rank_and_sweep_defaults_come_from_library(self):
        def default(fn, param):
            return inspect.signature(fn).parameters[param].default

        threshold = default(ntubal.estimate_n_tubal_rank, "rel_threshold")
        parser = cli.build_parser()
        for argv in (
            ["complete", "--input", "x", "--out", "o"],
            ["rpca", "--input", "x", "--out-low", "l", "--out-sparse", "s"],
        ):
            args = parser.parse_args(argv)
            assert args.threshold == threshold
            assert args.eta == default(ntubal.weights_rank_aware, "eta")
        assert parser.parse_args(["rank", "--input", "x"]).threshold == threshold
        args = parser.parse_args(["sweep", "--task", "complete", "--out", "o"])
        grid = synth.PhaseGrid()
        assert [int(r) for r in args.ranks.split(",")] == grid.ranks
        assert [float(v) for v in args.levels.split(",")] == grid.levels
        assert (args.trials, args.success_threshold) == (grid.trials, grid.success_threshold)

    def test_sweep_rejects_rank_above_shape_before_any_trial(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        start = time.perf_counter()
        assert cli.main([
            "sweep", "--task", "complete", "--shape", "15,15,15", "--trials", "2",
            "--out", str(out),
        ]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "cp_rank 20" in err and "(15, 15, 15)" in err
        assert not out.exists()

    def test_tsvd_factors_reconstruct(self, tmp_path):
        from wstnn.tsvd import conj_transpose, t_product

        x = np.random.default_rng(8).standard_normal((6, 5, 4))
        inp = tmp_path / "x.ntb"
        tensor_io.write_tensor(inp, x)
        paths = {k: tmp_path / f"{k}.ntb" for k in "usv"}
        rc = cli.main([
            "tsvd", "--input", str(inp), "--out-u", str(paths["u"]),
            "--out-s", str(paths["s"]), "--out-v", str(paths["v"]),
        ])
        assert rc == 0
        u = tensor_io.read_tensor(paths["u"])
        s = tensor_io.read_tensor(paths["s"])
        v = tensor_io.read_tensor(paths["v"])
        np.testing.assert_allclose(
            t_product(t_product(u, s), conj_transpose(v)), x, atol=1e-10
        )

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        rc = cli.main([
            "rank", "--input", str(tmp_path / "nope.ntb"),
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_tau_length_checked_by_config(self, tmp_path, capsys):
        inp = tmp_path / "x.ntb"
        tensor_io.write_tensor(inp, np.ones((4, 4, 4)))
        rc = cli.main([
            "complete", "--input", str(inp), "--sr", "0.5", "--tau", "1,2",
            "--out", str(tmp_path / "o.ntb"),
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_summary_says_when_max_iter_ran_out(self, tmp_path, capsys):
        x = gen_cp_tensor(CpSpec((10, 10, 10), 1, seed=0))
        inp = tmp_path / "x.ntb"
        tensor_io.write_tensor(inp, x)
        base = ["complete", "--input", str(inp), "--tau", "10",
                "--out", str(tmp_path / "o.ntb")]
        assert cli.main(base + ["--sr", "0.6", "--seed", "1", "--max-iter", "2"]) == 0
        assert "stopped at --max-iter" in capsys.readouterr().out
        assert cli.main(base + ["--sr", "1.0"]) == 0
        assert "stopped at --max-iter" not in capsys.readouterr().out

    def test_complete_requires_mask_xor_sr(self, tmp_path, capsys):
        x = np.ones((5, 5, 5))
        inp = tmp_path / "x.ntb"
        tensor_io.write_tensor(inp, x)
        rc = cli.main(["complete", "--input", str(inp), "--out", str(tmp_path / "o.ntb")])
        assert rc == 1
