"""No macx module reaches into another macx module's private names.

Scans the package sources (not the tests) for ``module._name`` on a name
bound by ``from . import module``, and for ``from .module import _name``.
Dunder names are not private.
"""

import ast
from pathlib import Path

import macx

PACKAGE = Path(macx.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def reach_ins(path):
    """The private names of other macx modules that the source file touches."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}  # local name -> macx module it is bound to
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module if node.level == 1 else None
        if node.level == 0 and (node.module or "").startswith("macx."):
            source = node.module.split(".", 1)[1]
        for alias in node.names:
            if source is None and (node.level == 1 or node.module == "macx"):
                if alias.name in MODULES:
                    modules[alias.asname or alias.name] = alias.name
            elif source not in (None, path.stem) and _private(alias.name):
                found.append(f"from {source} import {alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and modules.get(node.value.id, path.stem) != path.stem
                and _private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_scanner_flags_both_forms(tmp_path):
    path = tmp_path / "cli.py"
    path.write_text(
        "from . import homology\n"
        "from macx import simplicial as s\n"
        "from .simplicial import _bits, bits\n"
        "from macx.homology import __doc__\n"
        "from .cli import _Parser\n"
        "homology._per_subset_groups(K)\n"
        "homology.homology_R(K)\n"
        "s._chordal(adj)\n"
        "K._positions\n"
    )
    assert reach_ins(path) == [
        "from simplicial import _bits", "homology._per_subset_groups", "s._chordal"
    ]


def test_no_cross_module_private_access():
    found = {path.name: reach_ins(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}
