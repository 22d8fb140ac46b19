"""Smoke tests of the experiment scripts in ``scripts/`` on tiny instances."""

import re
import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, argv, capsys):
    main = runpy.run_path(str(SCRIPTS / f"{name}.py"))["main"]
    assert main(argv) == 0
    return capsys.readouterr().out


class TestConvergenceTrace:
    BASE = ["--shape", "10,10,10", "--rank", "1", "--seed", "0"]

    def trace_lines(self, out):
        lines = re.findall(r"^ +(\d+) (\S+) (#+)$", out, re.MULTILINE)
        iterations = int(re.search(r"stopped after (\d+) iterations", out).group(1))
        assert [int(i) for i, _, _ in lines] == list(range(1, iterations + 1))
        assert "RSE = " in out
        return lines

    def test_stalled_one_sweep_trace(self, capsys):
        # the first t-SVT zeroes every singular value: trace == [0.0]
        out = run_script("convergence_trace", self.BASE + ["--sr", "0.5", "--tau", "10"], capsys)
        assert self.trace_lines(out) == [("1", "0.000e+00", "#")]

    def test_multi_sweep_trace_scale(self, capsys):
        out = run_script("convergence_trace", self.BASE + ["--sr", "0.6", "--tau", "3"], capsys)
        lines = self.trace_lines(out)
        assert len(lines) > 2
        # the first change gets 50 marks and the smallest one mark
        assert len(lines[0][2]) == 50
        smallest = min(lines, key=lambda line: float(line[1]))
        assert smallest[2] == "#"


@pytest.mark.parametrize("shape", ["8,8,8", "6,6,6,6"])
def test_weight_comparison_any_order(shape, capsys):
    out = run_script("weight_comparison", ["--shape", shape, "--trials", "1"], capsys)
    assert re.search(r"^ +0( +\S+){3}$", out, re.MULTILINE)
    assert "successes (RSE < 1e-3) out of 1" in out
    for name in ("uniform", "rank-aware", "one-pair"):
        assert re.search(rf"^  {name} +[01]$", out, re.MULTILINE)
