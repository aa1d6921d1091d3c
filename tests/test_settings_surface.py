"""Every setting has a caller outside the tests.

The database is configured through six ``configure_*`` methods.  Their
settable values are the keyword-only parameters of a method, or the
fields of the one config object it takes (``CacheConfig``,
``ObservabilityConfig``).  A value that only tests set is a constant in
disguise: it multiplies the configurations the engine must get right
and none of the benchmarks or examples ever asks for it.  So this
census pins the surface, and requires for each value a setter in
``benchmarks/`` or ``examples/`` (outside their test files): a call
keyword or a string dict key of that name, found by an ``ast`` scan.

Adding a value means adding it to :data:`SURFACE` and giving it a
non-test caller; retiring one means removing it here.  Fault injection
is test infrastructure by design, so ``configure_faults``' two values
are exempt from the caller rule, though not from the pin.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

from repro import MainMemoryDatabase
from repro.cache import CacheConfig
from repro.obs import ObservabilityConfig
from repro.query.vectorized import ExecutionConfig
from repro.recovery.restart import RecoveryManager

ROOT = Path(__file__).resolve().parents[1]

#: Each ``configure_*`` method and the values it sets.
SURFACE = {
    "configure_cache": ("enable_plans", "enable_results"),
    "configure_execution": ("engine", "workers", "morsel_size", "pool"),
    "configure_faults": ("seed", "policies"),
    "configure_observability": (
        "tracing", "metrics", "slow_query_ops", "flight_recorder",
    ),
    "configure_optimizer": ("join_ordering",),
    "configure_replication": (),
}

#: The methods that take one config object, and its class.
CONFIG_OBJECTS = {
    "configure_cache": CacheConfig,
    "configure_observability": ObservabilityConfig,
}

#: Methods whose values need no non-test caller.
TEST_INFRASTRUCTURE = ("configure_faults",)


def parameters(method_name):
    """A ``configure_*`` method's parameters after ``self``."""
    method = getattr(MainMemoryDatabase, method_name)
    return list(inspect.signature(method).parameters.values())[1:]


def settable_values():
    """``{method: values}`` as the code defines them today."""
    surface = {}
    for name in dir(MainMemoryDatabase):
        if not name.startswith("configure_"):
            continue
        values = [p.name for p in parameters(name) if p.name != "config"]
        if name in CONFIG_OBJECTS:
            values += [
                f.name for f in dataclasses.fields(CONFIG_OBJECTS[name])
            ]
        surface[name] = tuple(values)
    return surface


def setters_in(tree):
    """Call keywords and string dict keys (in a literal or a subscript
    assignment) of one module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            names.update(k.arg for k in node.keywords if k.arg)
            continue
        if isinstance(node, ast.Dict):
            keys = node.keys
        elif isinstance(node, ast.Subscript) and isinstance(
            node.ctx, ast.Store
        ):
            keys = [node.slice]
        else:
            continue
        names.update(
            key.value
            for key in keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        )
    return names


def non_test_setters():
    """Setters in benchmarks/ and examples/, outside test files."""
    names = set()
    for folder in ("benchmarks", "examples"):
        for path in (ROOT / folder).rglob("*.py"):
            relative = path.relative_to(ROOT)
            if "tests" in relative.parts or path.name.startswith("test_"):
                continue
            names |= setters_in(ast.parse(path.read_text(encoding="utf-8")))
    return names


def test_surface_is_pinned():
    assert settable_values() == SURFACE


def test_census_counts_thirteen_values_in_one_form_each():
    assert sum(len(values) for values in SURFACE.values()) == 13
    for name in SURFACE:
        if name in CONFIG_OBJECTS:
            # One config object, nothing beside it.
            assert [p.name for p in parameters(name)] == ["config"], name
        else:
            assert all(
                p.kind is inspect.Parameter.KEYWORD_ONLY
                for p in parameters(name)
            ), name
    # db.execution_config carries exactly the keywords.
    assert [f.name for f in dataclasses.fields(ExecutionConfig)] == list(
        SURFACE["configure_execution"]
    )


def test_every_setting_has_a_non_test_setter():
    setters = non_test_setters()
    missing = [
        f"{method}: {value}"
        for method, values in sorted(settable_values().items())
        if method not in TEST_INFRASTRUCTURE
        for value in values
        if value not in setters
    ]
    assert not missing, (
        f"settings only tests set: {missing}; make each a module "
        "constant, or give it a caller in benchmarks/ or examples/"
    )


#: Values that only tests set, now module constants: where each was
#: set, and the constant that replaced it.
RETIRED = {
    "ast_capacity": (CacheConfig, "cache.plan_cache.AST_CAPACITY"),
    "plan_capacity": (CacheConfig, "cache.plan_cache.PLAN_CAPACITY"),
    "result_capacity": (CacheConfig, "cache.result_cache.RESULT_CAPACITY"),
    "max_recent_spans": (ObservabilityConfig, "obs.span.MAX_RECENT_SPANS"),
    "retry_attempts": (
        lambda **kw: MainMemoryDatabase().configure_execution(**kw),
        "query.parallel.scheduler.RETRY_ATTEMPTS",
    ),
    "max_lag_records": (
        lambda **kw: MainMemoryDatabase(durable=True).configure_replication(
            **kw
        ),
        "replication.shipper.MAX_LAG_RECORDS",
    ),
    "batch_records": (
        lambda **kw: MainMemoryDatabase(durable=True).configure_replication(
            **kw
        ),
        "replication.shipper.BATCH_RECORDS",
    ),
    "read_attempts": (
        lambda **kw: RecoveryManager(None, **kw),
        "recovery.restart.READ_ATTEMPTS",
    ),
}


@pytest.mark.parametrize("name", sorted(RETIRED))
def test_retired_values_are_refused(name):
    setter, constant = RETIRED[name]
    with pytest.raises(TypeError, match=name):
        setter(**{name: 2})
    module, attribute = constant.rsplit(".", 1)
    module = importlib.import_module(f"repro.{module}")
    assert isinstance(getattr(module, attribute), int)


def test_scanner_reads_keywords_and_dict_keys():
    tree = ast.parse("f(a=1, **kw)\nd = {'b': 2}\nd['c'] = 3\nx = d['e']")
    assert setters_in(tree) == {"a", "b", "c"}
