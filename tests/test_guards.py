"""Package-wide rules: stdlib-only imports and one error base."""

import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import cubicalg
from cubicalg.errors import CubicalgError

PACKAGE = Path(cubicalg.__file__).resolve().parent


def test_imports_are_relative_or_stdlib():
    outside = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    outside.append("%s:%d %s" % (path.name, node.lineno, name))
    assert outside == []


def test_every_exception_class_derives_from_the_base():
    found = []
    for info in pkgutil.walk_packages(cubicalg.__path__, "cubicalg."):
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == info.name and issubclass(cls, BaseException):
                found.append(cls)
    assert len(found) >= 10
    assert [c.__name__ for c in found if not issubclass(c, CubicalgError)] == []
