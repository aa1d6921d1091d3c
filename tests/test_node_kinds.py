"""Census of plan-node kinds: each node class answers for itself.

What a plan node *is* (its label, children, fingerprint, relations,
descriptor and row estimate) lives on its class in ``query/plan.py``.
An ``isinstance`` test against a node class anywhere else is a second
description of the node kinds that drifts from the first.  Two modules
may still ask: the executor, whose ``_dispatch`` picks the operator that
runs a node (the batch and parallel engines override the operators), and
the SQL template lowering, which recognises the one plan shape it can
compile.

The predicate classes the foreign-key rewrite produces live in
``query/predicates.py`` as well, so nothing under ``cache/``, ``query/``,
``sql/`` or ``obs/`` needs to import the engine facade.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: Modules allowed to test a value against a plan node class.
ISINSTANCE_ALLOWED = {
    "query/plan.py",
    "query/executor.py",
    "sql/template.py",
}

#: Packages that must not import ``repro.engine``.
ENGINE_FREE = ("cache", "query", "sql", "obs")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def plan_node_classes() -> set:
    """``PlanNode`` and every class in ``plan.py`` derived from it."""
    tree = _parse(PACKAGE / "query" / "plan.py")
    names = {"PlanNode"}
    grew = True
    while grew:
        grew = False
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or node.name in names:
                continue
            bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
            if bases & names:
                names.add(node.name)
                grew = True
    return names


def _names_in(expr: ast.expr) -> set:
    if isinstance(expr, ast.Name):
        return {expr.id}
    if isinstance(expr, ast.Attribute):
        return {expr.attr}
    if isinstance(expr, ast.Tuple):
        return set().union(*(_names_in(e) for e in expr.elts))
    return set()


def node_isinstance_sites() -> list:
    """``(module, line)`` of every isinstance against a node class."""
    classes = plan_node_classes()
    sites = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for node in ast.walk(_parse(path)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
                and _names_in(node.args[1]) & classes
            ):
                sites.append((module, node.lineno))
    return sorted(sites)


def engine_imports() -> list:
    """``(module, line)`` of every import of ``repro.engine`` from an
    engine-free package, top-level or inside a function."""
    sites = []
    for package in ENGINE_FREE:
        for path in sorted((PACKAGE / package).rglob("*.py")):
            module = path.relative_to(PACKAGE).as_posix()
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Import):
                    targets = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    targets = [node.module] + [
                        f"{node.module}.{alias.name}" for alias in node.names
                    ]
                else:
                    continue
                if any(
                    t == "repro.engine" or t.startswith("repro.engine.")
                    for t in targets
                ):
                    sites.append((module, node.lineno))
    return sorted(sites)


def test_census_finds_the_node_classes():
    classes = plan_node_classes()
    assert {"PlanNode", "ScanNode", "JoinNode", "ProjectNode"} <= classes
    # The executor's dispatch ladder is the census's own witness.
    assert any(m == "query/executor.py" for m, __ in node_isinstance_sites())


def test_node_kind_tests_stay_in_their_modules():
    stray = [
        f"{module}:{line}"
        for module, line in node_isinstance_sites()
        if module not in ISINSTANCE_ALLOWED
    ]
    assert not stray, (
        f"isinstance against a plan node class outside "
        f"{sorted(ISINSTANCE_ALLOWED)}: {stray}; give the node class a "
        "method instead"
    )


def test_no_engine_imports_below_the_facade():
    found = [f"{module}:{line}" for module, line in engine_imports()]
    assert not found, (
        f"{found} import repro.engine; the facade sits above "
        f"{', '.join(ENGINE_FREE)}"
    )
