"""The public API is declared once: each library module's ``__all__``, which
the package's top level re-exports whole."""

import importlib
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import wstnn

# every submodule that declares its public names; the console-script module
# ``cli`` declares none and is not re-exported
MODULES = [
    module
    for info in pkgutil.iter_modules(wstnn.__path__)
    if hasattr(module := importlib.import_module(f"wstnn.{info.name}"), "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_names_exported(module):
    missing = [name for name in module.__all__
               if name not in wstnn.__all__ or getattr(wstnn, name, None) is not getattr(module, name)]
    assert missing == []


def test_no_name_in_two_modules():
    # a star import would let the later module's name shadow the earlier one
    counts = Counter(name for module in MODULES for name in module.__all__)
    assert [name for name, n in counts.items() if n > 1] == []


def test_top_level_names_declared():
    declared = {name for module in MODULES for name in module.__all__}
    submodules = {info.name for info in pkgutil.iter_modules(wstnn.__path__)}
    public = [name for name in vars(wstnn) if not name.startswith("_")]
    assert [name for name in public if name not in declared | submodules] == []


def test_import_loads_only_numpy_beyond_stdlib():
    # numpy is the one declared runtime dependency; an undeclared import
    # (scipy, say) that happens to be installed here would fail only where
    # numpy alone is installed
    code = (
        "import sys; before = set(sys.modules); import wstnn; "
        "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))"
    )
    src = Path(wstnn.__file__).parents[1]
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout.split()
    assert "wstnn" in out and "numpy" in out
    assert [m for m in out if m not in sys.stdlib_module_names | {"numpy", "wstnn"}] == []


def test_dft_pair_is_internal():
    # t_svt's full-spectrum transforms are no public API, but stay module
    # attributes under their names: perfbench/run.py's tracer wraps them
    names = {"dft_tubes", "idft_tubes"}
    assert names.isdisjoint(wstnn.tsvd.__all__)
    assert names.isdisjoint(vars(wstnn))
    assert all(callable(getattr(wstnn.tsvd, name, None)) for name in names)
