"""The public API is declared once: each library module's ``__all__``, which
the package's top level re-exports whole."""

import importlib
import pkgutil
from collections import Counter

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
