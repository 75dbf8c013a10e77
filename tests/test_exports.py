import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import unimix_lt

MODULES = sorted(m.name for m in pkgutil.iter_modules(unimix_lt.__path__)
                 if not m.name.startswith("_"))

PACKAGE_DIR = Path(unimix_lt.__file__).resolve().parent


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


def test_readme_library_block_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert "'accuracy'" in capsys.readouterr().out


def _defines(node, name: str) -> bool:
    """Whether a top-level statement is the def, class or assignment of `name`."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name == name
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return any(isinstance(t, ast.Name) and t.id == name for t in targets)
    return False


def _imported_module(node: ast.ImportFrom) -> str | None:
    """The unimix_lt module name a `from ... import` statement reads from."""
    if node.level == 1:
        return node.module
    if node.module and node.module.startswith("unimix_lt."):
        return node.module.split(".", 1)[1]
    return None


def _module_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> unimix_lt module, for each module bound by an import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                (node.level == 1 and node.module is None) or node.module == "unimix_lt"):
            out.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.Import):
            out.update({a.asname: a.name.split(".", 1)[1] for a in node.names
                        if a.asname and a.name.startswith("unimix_lt.")})
    return out


def _uses(module: str, name: str, trees: dict[str, ast.Module]) -> bool:
    """Whether package code outside `name`'s own definition reads module.name.

    A use is a `Name` load in the defining module, a `from .module import
    name`, or an attribute load `alias.name` on a name bound to the module.
    Strings (docstrings, `__all__` entries) and attributes of other objects
    (`self.name`) are not uses.
    """
    for stmt in trees[module].body:
        if _defines(stmt, name):
            continue
        if any(isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
               for n in ast.walk(stmt)):
            return True
    for other, tree in trees.items():
        aliases = _module_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and _imported_module(node) == module \
                    and any(a.name == name for a in node.names):
                return True
            if isinstance(node, ast.Attribute) and node.attr == name \
                    and isinstance(node.ctx, ast.Load) and isinstance(node.value, ast.Name) \
                    and aliases.get(node.value.id) == module and other != module:
                return True
    return False


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def _script_targets() -> set[tuple[str, str]]:
    """(module, name) of each console-script entry point in pyproject.toml."""
    text = (PACKAGE_DIR.parents[1] / "pyproject.toml").read_text()
    return set(re.findall(r'=\s*"unimix_lt\.(\w+):(\w+)"', text))


def test_every_exported_name_is_used_by_package_code():
    """Nothing in `__all__` exists only for the tests: each name is read by
    the package itself, re-exported by its `__init__`, or an installed
    console-script entry point."""
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE_DIR.glob("*.py")}
    scripts = _script_targets()
    dead = [f"{module}.{name}"
            for module in sorted(trees) for name in _exports(trees[module])
            if (module, name) not in scripts and not _uses(module, name, trees)]
    assert dead == []
