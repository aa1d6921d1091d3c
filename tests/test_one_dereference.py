"""Census of physical dereferences: one path from a pointer to a field.

A tuple pointer is followed to a field value by
:meth:`Relation.reader <repro.storage.relation.Relation.reader>` — the
fused slot read, with ``Relation._locate`` and ``Partition.read_field``
as its checked slow path.  A module that calls those two itself has a
second, slower dereference of its own, which drifts from the first in
speed and, sooner or later, in what it charges and raises.  Only the
relation and partition modules, which own the slot layout, may name
them.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: The modules that own the physical layout of a tuple.
OWNERS = {"storage/relation.py", "storage/partition.py"}

#: Calls whose result is (or unpacks to) a partition.
PARTITION_SOURCES = {"_locate", "partition", "Partition", "from_bytes"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _called(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def partition_names(tree: ast.Module) -> set:
    """Names a module binds to a partition: the target of a call to
    ``_locate`` (the first of its unpacked pair), ``partition(...)`` or
    ``Partition(...)``, directly or through a local alias such as
    ``locate = relation._locate``, and loop variables over
    ``.partitions``."""
    sources = set(PARTITION_SOURCES)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr in PARTITION_SOURCES
        ):
            sources.update(
                t.id for t in node.targets if isinstance(t, ast.Name)
            )
    names = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and _called(node.value) in sources
        ):
            for target in node.targets:
                if isinstance(target, ast.Tuple) and target.elts:
                    target = target.elts[0]
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif (
            isinstance(node, ast.For)
            and isinstance(node.target, ast.Name)
            and isinstance(node.iter, ast.Attribute)
            and node.iter.attr in ("partitions", "_partitions")
        ):
            names.add(node.target.id)
    return names


def dereference_sites() -> list:
    """``(module, line, what)`` of every ``_locate`` reference and every
    ``Partition.read_field`` call in ``src/``."""
    sites = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        tree = _parse(path)
        partitions = partition_names(tree) | {"Partition"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_locate":
                sites.append((module, node.lineno, "_locate"))
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "read_field"
                and isinstance(node.value, ast.Name)
                and node.value.id in partitions
            ):
                sites.append((module, node.lineno, "Partition.read_field"))
    return sorted(sites)


def test_census_sees_the_slow_path_where_it_lives():
    # The reader's own fallback is the census's witness: if this finds
    # nothing, the census has gone blind, not the code clean.
    found = {(m, what) for m, __, what in dereference_sites()}
    assert ("storage/relation.py", "_locate") in found
    assert ("storage/relation.py", "Partition.read_field") in found


def test_one_physical_dereference():
    stray = [
        f"{module}:{line} {what}"
        for module, line, what in dereference_sites()
        if module not in OWNERS
    ]
    assert not stray, (
        f"{stray} follow a tuple pointer around Relation.reader; read "
        "fields through relation.reader(field) (or its .column) instead"
    )
