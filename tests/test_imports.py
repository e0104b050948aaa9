"""Import hygiene of the package modules, checked on their syntax trees.

Every name a module imports must be used in it (``__init__.py`` imports
only to re-export), and the layers import downward only: ``polyhedra``
knows nothing of cones, fans, lattice scans or gradings, ``fans`` knows
nothing of polyhedra, lattice scans or gradings, ``latpoints`` nothing of
cones or gradings, and the scan kernels import no other module of the
package.  Only ``gitfan`` imports private names of ``latpoints``: the
location engine, the multiple sweep and the scan set type, so the scaled
scan systems are built and read in one module.  A process-lifetime cache
(a module-level function under ``lru_cache`` or ``cache``) is one of the
allow-listed ones, each with the reason it stays.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "normloc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

FORBIDDEN = {
    "polyhedra": {"fans", "latpoints", "gitfan"},
    "fans": {"polyhedra", "latpoints", "gitfan"},
    "latpoints": {"fans", "gitfan"},
    "kernels": {p.stem for p in MODULES} - {"kernels"},
}


# module.function -> why its lru_cache stays; a cache not listed here is
# held for the life of the process with no measured reason
CACHES = {
    "exact.identity_matrix": "the DD and every frame start from it; its "
                             "memo was part of a measured gitfan speed-up",
    "gitfan.weight_cone": "perfbench's self-test reads its cache_info",
}


def _tree(name):
    return ast.parse((SRC / f"{name}.py").read_text())


def _imported_names(tree):
    """Local names bound by the module's import statements."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                names[local] = node.lineno
    return names


def _package_imports(tree):
    """Sibling modules of the package that the module imports from."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            parts = node.module.split(".")
            if parts[0] == "normloc" and len(parts) > 1:
                out.add(parts[1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "normloc" and len(parts) > 1:
                    out.add(parts[1])
    return out


def _cached_functions(tree):
    """Module-level functions of the tree under ``lru_cache`` or ``cache``,
    bare, called or reached as ``functools.<name>``."""
    out = set()
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = (target.attr if isinstance(target, ast.Attribute)
                    else getattr(target, "id", None))
            if name in ("lru_cache", "cache"):
                out.add(node.name)
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name} imports unused names: {unused}"


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_layers_import_downward(module):
    bad = _package_imports(_tree(module)) & FORBIDDEN[module]
    assert not bad, f"{module} imports {sorted(bad)}"


def test_only_allow_listed_caches():
    found = {f"{path.stem}.{name}" for path in MODULES
             for name in _cached_functions(ast.parse(path.read_text()))}
    assert found == set(CACHES), (sorted(found - set(CACHES)),
                                  sorted(set(CACHES) - found))


def _private_imports(tree, source):
    """Private names the tree imports from the sibling module ``source``."""
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            and node.module == source
            for alias in node.names if alias.name.startswith("_")}


def test_scan_layer_exports_three_private_names():
    # latpoints alone builds and reads scaled scan systems: other modules
    # reach its private side only through the location engine, the
    # multiple sweep and the scan set type, all used by gitfan
    planted = ast.parse("from .latpoints import (LocationReport, _prepared,\n"
                        "                        _ScanSet)\n"
                        "from .fans import _tiles\n")
    assert _private_imports(planted, "latpoints") == {"_prepared",
                                                      "_ScanSet"}
    found = {path.stem: names for path in MODULES
             if (names := _private_imports(ast.parse(path.read_text()),
                                           "latpoints"))}
    assert found == {"gitfan": {"_located_over", "_multiple_sweep",
                                "_ScanSet"}}, found


def test_checks_see_the_violations_they_guard():
    planted = ast.parse("from .exact import IVec, dot\n"
                        "from . import fans\n"
                        "from normloc.gitfan import fiber\n"
                        "x = dot\n")
    names = _imported_names(planted)
    assert set(names) == {"IVec", "dot", "fans", "fiber"}
    assert _package_imports(planted) == {"exact", "fans", "gitfan"}
    planted = ast.parse("import functools\n"
                        "@lru_cache(maxsize=8)\ndef a(): pass\n"
                        "@functools.cache\ndef b(): pass\n"
                        "@cache\ndef c():\n"
                        "    @lru_cache\n    def inner(): pass\n"
                        "class K:\n"
                        "    @lru_cache\n    def method(self): pass\n"
                        "@cached_property\ndef d(): pass\n")
    assert _cached_functions(planted) == {"a", "b", "c"}
