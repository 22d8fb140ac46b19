import csv
import dataclasses
import inspect
import io
import itertools
import re
import time

import numpy as np
import pytest

from wstnn import cli, ntubal, solvers, synth, tensor_io
from wstnn.synth import CpSpec, gen_cp_tensor


def _config_block(out: str) -> dict:
    """The ``key = value`` lines of a run's resolved-configuration block."""
    lines = out.split(" resolved configuration:\n", 1)[1].splitlines()
    return dict(line[2:].split(" = ", 1)
                for line in itertools.takewhile(lambda line: line.startswith("  "), lines))


def _printed(*objects, **items) -> dict:
    """What the block should read: ``items``, then every field of each
    dataclass in ``objects``, a solver config's ``gamma`` and ``rho`` after
    its fields, every value printed as a list where it is an array."""
    for obj in objects:
        items |= {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        if hasattr(obj, "rho"):
            items |= {"gamma": obj.gamma, "rho": obj.rho}
    return {k: str(v.tolist() if isinstance(v, np.ndarray) else v) for k, v in items.items()}


class TestTensorFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        x = np.random.default_rng(0).standard_normal((4, 5, 3, 2))
        path = tmp_path / "x.ntb"
        tensor_io.write_tensor(path, x)
        back = tensor_io.read_tensor(path)
        assert back.shape == x.shape
        np.testing.assert_array_equal(back, x)

    # the payload is the column-major ravel in little-endian float64
    # whatever the input's memory order, strides or byte order
    @pytest.mark.parametrize("layout", ["C", "F", "strided", "big-endian"])
    def test_payload_bytes_any_layout(self, tmp_path, layout):
        x = np.random.default_rng(1).standard_normal((6, 5, 8, 3))
        arr = {"C": x, "F": np.asfortranarray(x), "strided": x[::2, :, 1::3],
               "big-endian": x.astype(">f8")}[layout]
        path = tmp_path / "x.ntb"
        tensor_io.write_tensor(path, arr)
        header = (tensor_io.MAGIC + arr.ndim.to_bytes(8, "little")
                  + b"".join(n.to_bytes(8, "little") for n in arr.shape))
        assert path.read_bytes() == header + arr.ravel(order="F").astype("<f8").tobytes()
        back = tensor_io.read_tensor(path)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, arr)

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

    # a payload longer than the extents say is malformed too: extents
    # edited down must not read back a prefix, nor extra bytes be dropped
    def test_payload_past_extents(self, tmp_path):
        path = tmp_path / "p.ntb"
        tensor_io.write_tensor(path, np.ones((2, 2, 2)))
        raw = path.read_bytes()
        halved = raw[:30] + (1).to_bytes(8, "little") + raw[38:]
        for data, extra in ((halved, 32), (raw + b"\x00" * 4, 4)):
            path.write_bytes(data)
            with pytest.raises(tensor_io.TensorFormatError, match=f"{extra} bytes after"):
                tensor_io.read_tensor(path)

    def test_zero_extent_rejected(self, tmp_path):
        import struct

        path = tmp_path / "z.ntb"
        path.write_bytes(tensor_io.MAGIC + struct.pack("<QQQQ", 3, 2, 0, 2))
        with pytest.raises(tensor_io.TensorFormatError):
            tensor_io.read_tensor(path)

    def test_forged_element_count(self, tmp_path, capsys):
        import struct

        # an 80-byte file whose one-way header claims 2^34 elements
        path = tmp_path / "forged.ntb"
        path.write_bytes(tensor_io.MAGIC + struct.pack("<QQ", 1, 1 << 34) + b"\x00" * 58)
        assert path.stat().st_size == 80
        with pytest.raises(tensor_io.TensorFormatError, match="truncated payload"):
            tensor_io.read_tensor(path)
        assert cli.main(["rank", "--input", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_write_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            tensor_io.write_tensor(tmp_path / "e.ntb", np.zeros((2, 0, 3)))


class TestCli:
    # on 12^3 every mode-pair unfolding is a pure permutation; on the
    # 4-way draw each also merges the two remaining modes. float32 rounding
    # is signal to tubal_rank's float64 default, which reads the 20^3 cast
    # as rank 20; the CLI's 0.01 threshold still reads rank 2
    def test_rank_prints_n_tubal(self, tmp_path, capsys):
        for shape, rank, dtype, n_tubal, tucker in [
            ((12, 12, 12), 5, np.float64, "5 5 5", "5 5 5"),
            ((6, 7, 5, 4), 2, np.float64, "2 2 2 2 2 2", "2 2 2 2"),
            ((20, 20, 20), 2, np.float32, "2 2 2", "2 2 2"),
        ]:
            path = tmp_path / f"x{len(shape)}-{np.dtype(dtype)}.ntb"
            x = gen_cp_tensor(CpSpec(shape, rank, seed=0)).astype(dtype)
            tensor_io.write_tensor(path, x)
            assert cli.main(["rank", "--input", str(path)]) == 0
            out = capsys.readouterr().out
            assert f"N-tubal rank: {n_tubal}\n" in out
            assert f"Tucker rank:  {tucker}\n" in out

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

    # with and without --tau: the default must not stall the solve
    @pytest.mark.parametrize("tau", [["--tau", "10"], []], ids=["tau10", "default"])
    def test_complete_recovers(self, tmp_path, tau):
        x = gen_cp_tensor(CpSpec((15, 15, 15), 2, seed=2))
        inp, outp = tmp_path / "in.ntb", tmp_path / "out.ntb"
        rep = tmp_path / "trace.csv"
        tensor_io.write_tensor(inp, x)
        rc = cli.main([
            "complete", "--input", str(inp), "--sr", "0.6", "--seed", "3",
            "--out", str(outp), "--report", str(rep),
        ] + tau)
        assert rc == 0
        from wstnn.synth import rse

        assert rse(tensor_io.read_tensor(outp), x) < 1e-3
        with open(rep) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "rel_change"]
        assert len(rows) > 2

    def test_complete_mask_ignores_entries_off_the_mask(self, tmp_path, capsys):
        # rank-aware weights must come from the observed entries only, so
        # the full truth, a zero fill and NaN off the mask all solve alike
        truth = gen_cp_tensor(CpSpec((10, 20, 30), 2, seed=0))
        mask = synth.sample_mask(truth.shape, 0.3, seed=1)
        mask_path = tmp_path / "mask.ntb"
        tensor_io.write_tensor(mask_path, mask.astype(np.float64))
        alphas, outputs = [], []
        for name, fill in (("truth", truth), ("zero", 0.0), ("nan", np.nan)):
            inp, outp = tmp_path / f"{name}.ntb", tmp_path / f"{name}-out.ntb"
            tensor_io.write_tensor(inp, np.where(mask, truth, fill))
            rc = cli.main([
                "complete", "--input", str(inp), "--mask", str(mask_path),
                "--weights", "rank-aware", "--max-iter", "3", "--out", str(outp),
            ])
            assert rc == 0, capsys.readouterr().err
            out = capsys.readouterr().out
            alphas.append(next(line for line in out.splitlines()
                               if line.startswith("  alpha = ")))
            outputs.append(tensor_io.read_tensor(outp))
        assert alphas[0] == alphas[1] == alphas[2]
        for out in outputs[1:]:
            np.testing.assert_array_equal(out, outputs[0])

    @pytest.mark.parametrize("tau", [["--tau", "10"], []], ids=["tau10", "default"])
    def test_rpca_splits(self, tmp_path, capsys, tau):
        from wstnn.synth import add_salt_pepper, rse

        truth = gen_cp_tensor(CpSpec((20, 20, 20), 2, seed=4))
        noisy = add_salt_pepper(truth, 0.1, seed=5)
        inp = tmp_path / "in.ntb"
        low_p, sp_p = tmp_path / "low.ntb", tmp_path / "sp.ntb"
        tensor_io.write_tensor(inp, noisy)
        rc = cli.main([
            "rpca", "--input", str(inp), "--rel-tol", "1e-6",
            "--out-low", str(low_p), "--out-sparse", str(sp_p),
        ] + tau)
        assert rc == 0
        assert rse(tensor_io.read_tensor(low_p), truth) < 1e-3
        residual = re.search(r"relative constraint residual (\S+),", capsys.readouterr().out)
        assert float(residual.group(1)) < 1e-5

    # 'auto', the default, prints default_lambda of the resolved weights
    @pytest.mark.parametrize("argv, alpha", [
        ([], ntubal.weights_uniform(3)),
        (["--lambda", "auto"], ntubal.weights_uniform(3)),
        (["--lambda", "auto", "--weights", "spectral"], ntubal.weights_spectral()),
    ], ids=["default", "auto", "auto-spectral"])
    def test_lambda_auto_prints_default_lambda(self, tmp_path, capsys, argv, alpha):
        x = gen_cp_tensor(CpSpec((6, 8, 10), 1, seed=0))
        inp = tmp_path / "x.ntb"
        tensor_io.write_tensor(inp, x)
        assert cli.main(["rpca", "--input", str(inp), "--max-iter", "2",
                         "--out-low", str(tmp_path / "l.ntb"),
                         "--out-sparse", str(tmp_path / "s.ntb")] + argv) == 0
        lam = solvers.default_lambda(x.shape, alpha)
        assert f"\n  lam = {lam}\n" in capsys.readouterr().out

    # the block lists the run's own settings, then every field of the
    # resolved config that the solve runs, with its gamma and rho
    @pytest.mark.parametrize("command, argv, settings", [
        ("complete", ["--sr", "0.5", "--seed", "4", "--out", "o.ntb"],
         {"sr": 0.5, "mask": None, "seed": 4}),
        ("rpca", ["--out-low", "l.ntb", "--out-sparse", "s.ntb"], {}),
    ])
    def test_solve_prints_every_config_field(self, tmp_path, monkeypatch, capsys,
                                             command, argv, settings):
        monkeypatch.chdir(tmp_path)
        x = gen_cp_tensor(CpSpec((6, 7, 8), 1, seed=0))
        tensor_io.write_tensor("x.ntb", x)
        assert cli.main([command, "--input", "x.ntb", "--tau", "3", "--max-iter", "2",
                         "--weights", "spectral"] + argv) == 0
        config = {"complete": solvers.LrtcConfig, "rpca": solvers.TrpcaConfig}[command]
        cfg = config(alpha=ntubal.weights_spectral(), tau=3.0, p_max=2).validated(x.shape)
        block = _config_block(capsys.readouterr().out)
        want = _printed(cfg, input="x.ntb", shape=x.shape, weights="spectral", **settings)
        assert list(block.items()) == list(want.items())
        assert {"alpha", "tau", "p_max", "rel_tol", "gamma", "rho"} <= block.keys()

    # a sweep prints its grid and the solver config its trials run, the
    # task config's defaults resolved for the sweep's shape
    @pytest.mark.parametrize("task, config, level", [
        ("complete", solvers.LrtcConfig, 0.5), ("rpca", solvers.TrpcaConfig, 0.1),
    ])
    def test_sweep_prints_grid_and_solver_config(self, tmp_path, capsys, task, config, level):
        out = tmp_path / "rates.csv"
        assert cli.main(["sweep", "--task", task, "--shape", "6,6,6", "--ranks", "1",
                         "--levels", str(level), "--trials", "1", "--seed", "2",
                         "--out", str(out)]) == 0
        grid = synth.PhaseGrid(ranks=[1], levels=[level], trials=1)
        cfg = config().validated((6, 6, 6))
        block = _config_block(capsys.readouterr().out)
        want = _printed(grid, cfg, task=task, shape=(6, 6, 6), seed=2, out=out)
        assert list(block.items()) == list(want.items())
        assert (block["tau"], block["p_max"]) == ("10.0", "500")
        assert ("lam" in block) == (task == "rpca")

    # the CLI's resolved default config is the library's default: its CSV
    # is that of phase_sweep with no template, byte for byte
    @pytest.mark.parametrize("task, levels", [("complete", [0.3, 0.7]), ("rpca", [0.05, 0.3])])
    def test_sweep_csv_is_library_default_sweep(self, tmp_path, task, levels):
        out = tmp_path / "rates.csv"
        assert cli.main(["sweep", "--task", task, "--shape", "10,10,10", "--ranks", "1,2",
                         "--levels", ",".join(map(str, levels)), "--trials", "2",
                         "--seed", "3", "--out", str(out)]) == 0
        grid = synth.PhaseGrid(ranks=[1, 2], levels=levels, trials=2)
        rows = synth.phase_sweep(grid, task, (10, 10, 10), 3)
        buf = io.StringIO(newline="")
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        assert out.read_bytes() == buf.getvalue().encode()

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
        required = {"complete": ["--sr", "0.5", "--out", "o"],
                    "rpca": ["--out-low", "l", "--out-sparse", "s"]}
        args = cli.build_parser().parse_args([command, "--input", "x"] + required[command])
        defaults = {f.name: f.default for f in dataclasses.fields(config)}
        assert (args.tau, args.max_iter, args.rel_tol) == (
            defaults["tau"], defaults["p_max"], defaults["rel_tol"]
        )

    def test_rank_and_sweep_defaults_come_from_library(self):
        def default(fn, param):
            return inspect.signature(fn).parameters[param].default

        threshold = default(ntubal.estimate_n_tubal_rank, "rel_threshold")
        parser = cli.build_parser()
        for argv in (
            ["complete", "--input", "x", "--sr", "0.5", "--out", "o"],
            ["rpca", "--input", "x", "--out-low", "l", "--out-sparse", "s"],
        ):
            args = parser.parse_args(argv)
            assert args.threshold == threshold
            assert args.eta == default(ntubal.weights_rank_aware, "eta")
        assert parser.parse_args(["rank", "--input", "x"]).threshold == threshold
        args = parser.parse_args(["sweep", "--task", "complete", "--out", "o"])
        grid = synth.PhaseGrid()
        assert (args.ranks, args.levels) == (grid.ranks, grid.levels)
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

    def test_sweep_rejects_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert cli.main([
            "sweep", "--task", "complete", "--shape", "5,5,5", "--ranks", "1",
            "--levels", "0.5", "--trials", "1", "--seed", "-1", "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: base_seed must be") and err.count("\n") == 1
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

    # the config's weight check rejects the length-3 spectral weights on a
    # four-way input before the solve writes anything
    @pytest.mark.parametrize("argv", [
        ["complete", "--sr", "0.5", "--out", "o.ntb"],
        ["rpca", "--out-low", "l.ntb", "--out-sparse", "s.ntb"],
    ], ids=["complete", "rpca"])
    def test_spectral_weights_need_three_way_input(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        tensor_io.write_tensor("x.ntb", np.ones((3, 3, 3, 3)))
        assert cli.main(argv + ["--input", "x.ntb", "--weights", "spectral"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: weight vector of length 3 does not match order 4 (expected 6)"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.ntb"]

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

    # a non-finite entry or setting ends in one error line, not a traceback
    @pytest.mark.parametrize("argv", [
        ["tsvd", "--input", "nan.ntb", "--out-u", "u", "--out-s", "s", "--out-v", "v"],
        ["tsvd", "--input", "inf.ntb", "--out-u", "u", "--out-s", "s", "--out-v", "v"],
        ["rank", "--input", "inf.ntb"],
        ["complete", "--input", "x.ntb", "--sr", "0.6", "--out", "o", "--tau", "nan"],
        ["rpca", "--input", "x.ntb", "--out-low", "l", "--out-sparse", "s", "--lambda", "nan"],
    ], ids=["tsvd-nan-entry", "tsvd-inf-entry", "rank-inf-entry", "complete-tau-nan",
            "rpca-lambda-nan"])
    def test_nonfinite_fails_with_error_line(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        x = np.random.default_rng(8).standard_normal((6, 5, 4))
        tensor_io.write_tensor("x.ntb", x)
        for name, value in (("nan.ntb", np.nan), ("inf.ntb", np.inf)):
            x[2, 1, 3] = value
            tensor_io.write_tensor(name, x)
        with np.errstate(invalid="ignore"):
            assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_complete_requires_mask_xor_sr(self, tmp_path, capsys):
        x = np.ones((5, 5, 5))
        inp = tmp_path / "x.ntb"
        tensor_io.write_tensor(inp, x)
        with pytest.raises(SystemExit) as exc:
            cli.main(["complete", "--input", str(inp), "--out", str(tmp_path / "o.ntb")])
        assert exc.value.code == 2

    # a malformed command line is argparse's usage error: exit 2, and the
    # message names the option
    @pytest.mark.parametrize("argv, option", [
        (["sweep", "--task", "complete", "--ranks", "1,x", "--out", "o"], "--ranks"),
        (["sweep", "--task", "complete", "--levels", "0.5,abc", "--out", "o"], "--levels"),
        (["sweep", "--task", "complete", "--shape", "30,x", "--out", "o"], "--shape"),
        (["complete", "--input", "x", "--sr", "0.5", "--tau", "1,x", "--out", "o"], "--tau"),
        (["complete", "--input", "x", "--sr", "0.5", "--tau", "1,2", "--out", "o"], "--tau"),
        (["rpca", "--input", "x", "--out-low", "l", "--out-sparse", "s", "--lambda", "abc"],
         "--lambda"),
        (["complete", "--input", "x", "--mask", "m", "--sr", "0.5", "--out", "o"], "--mask"),
        (["complete", "--input", "x", "--out", "o"], "--mask"),
    ], ids=["ranks", "levels", "shape", "tau", "tau-vector", "lambda", "mask-and-sr",
            "neither-mask-nor-sr"])
    def test_malformed_command_line_is_usage_error(self, capsys, argv, option):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: wstnn ") and "Traceback" not in err
        assert option in err.splitlines()[-1]
