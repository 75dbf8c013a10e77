import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import unimix_lt

MODULES = sorted(m.name for m in pkgutil.iter_modules(unimix_lt.__path__)
                 if not m.name.startswith("_"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"unimix_lt.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_readme_library_imports_resolve():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"from unimix_lt import \(([^)]*)\)", readme).group(1)
    names = [n.strip() for n in block.split(",") if n.strip()]
    assert [n for n in names if not hasattr(unimix_lt, n)] == []
