"""The object-path oracles stay off the production path.

``repro.bench.view_oracle`` and ``repro.bench.pprof_oracle`` exist to be
compared with, by the benchmark gates in ``repro.bench`` and by the
tests.  A production module that imported one would run the slow object
path in place of the arrays, and the differential checks would compare
the fast path with itself.
"""

import ast
import pathlib

import repro

ORACLES = {"view_oracle", "pprof_oracle"}
SRC = pathlib.Path(repro.__file__).resolve().parent


def _imported(tree):
    """Every dotted name an ``import`` or ``from ... import`` names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            for alias in node.names:
                yield "%s.%s" % (base, alias.name) if base else alias.name


def test_only_the_bench_package_imports_the_oracles():
    offenders = []
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 100
    for path in modules:
        relative = path.relative_to(SRC)
        if relative.parts[0] == "bench":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for name in _imported(tree):
            if ORACLES & set(name.split(".")):
                offenders.append("%s imports %s" % (relative, name))
    assert offenders == []


def test_the_check_sees_an_oracle_import():
    tree = ast.parse("from ..bench import view_oracle\n"
                     "import repro.bench.pprof_oracle as oracle\n")
    names = [name for name in _imported(tree)
             if ORACLES & set(name.split("."))]
    assert names == ["bench.view_oracle", "repro.bench.pprof_oracle"]
