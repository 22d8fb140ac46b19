import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "[2 2 2]"
    iterations = lines[1].split()[0]
    assert iterations.isdigit() and int(iterations) >= 1
