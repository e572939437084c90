"""The object-path oracles stay off the production path.

``repro.bench.view_oracle``, ``repro.bench.pprof_oracle`` and
``repro.bench.ezvw_oracle`` exist to be compared with, by the benchmark
gates in ``repro.bench`` and by the tests.  A production module that
imported one would run the slow object path in place of the arrays, and
the differential checks would compare the fast path with itself.  The
per-node ``.ezvw`` messages (``ContextNode``, ``ProfileMessage``) are
likewise only for the oracle, the reference codec and the schema module
that defines them.
"""

import ast
import pathlib

import repro

ORACLES = {"view_oracle", "pprof_oracle", "ezvw_oracle"}
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


#: The per-node ``.ezvw`` message classes, and the modules allowed to
#: use them besides the bench package.
PER_NODE_MESSAGES = {"ContextNode", "ProfileMessage"}
MESSAGE_MODULES = {("proto", "easyview_pb.py"), ("proto", "reference.py")}


def test_only_the_oracles_use_the_per_node_messages():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative.parts[0] == "bench" or relative.parts in MESSAGE_MODULES:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            if name in PER_NODE_MESSAGES:
                offenders.append("%s:%d uses %s"
                                 % (relative, node.lineno, name))
    assert offenders == []
