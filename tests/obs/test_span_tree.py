"""Span-tree tests: hierarchy, counter roll-up, and the zero-overhead
contract at the unit level.

The marquee scenario is a two-join chain (Proj -> Emp -> Dept, hash
joins forced with USING so the precomputed-pointer path cannot swallow
them) with an index-backed point restriction: the resulting span tree
must show the root query span, the parse/plan phases, nested join
operator spans with their build/probe join phases, and an index-probe
child span — and every parent's counters must be the inclusive sum of
its own work plus its children's.
"""

from __future__ import annotations

import pytest

from repro import MainMemoryDatabase
from repro.errors import ConfigError
from repro.instrument import counters_scope
from repro.obs import Observability, ObservabilityConfig
from repro.obs import runtime as obs_runtime
from repro.obs import span as span_module

TWO_JOIN_SQL = (
    "SELECT Proj.Title, Emp.Name, Dept.Name FROM Proj "
    "JOIN Emp ON Owner = Emp.Id USING hash "
    "JOIN Dept ON Dept = Dept.Id USING hash"
)
POINT_SQL = "SELECT * FROM Emp WHERE Id = 23"


def _traced(db, sql):
    """Run ``sql`` under tracing; return (result, root span)."""
    obs = db.configure_observability(ObservabilityConfig(metrics=False))
    result = db.sql(sql)
    return result, obs.last_query_span()


class TestSpanHierarchy:
    def test_root_span_shape(self, chain_db):
        rows, root = _traced(chain_db, POINT_SQL)
        assert root is not None and root.kind == "query"
        assert root.attrs["sql"] == POINT_SQL
        assert root.rows_out == len(rows) == 1
        phases = [child.name for child in root.children]
        assert "parse" in phases and "plan" in phases

    def test_point_lookup_has_index_probe_child(self, chain_db):
        _, root = _traced(chain_db, POINT_SQL)
        operators = root.find_all("operator")
        assert operators, root
        probes = root.find_all("index")
        assert probes, "expected an IndexProbe span under the lookup"
        probe = probes[0]
        assert probe.name.startswith("IndexProbe[")
        assert probe.rows_out == 1

    def test_two_join_query_span_hierarchy(self, chain_db):
        rows, root = _traced(chain_db, TWO_JOIN_SQL)
        assert len(rows) == 4  # every project resolves through the chain

        joins = [
            span
            for span in root.find_all("operator")
            if span.name.startswith("Join[")
        ]
        assert len(joins) == 2
        # Left-deep chain: the inner join is a child of the outer one.
        outer = next(j for j in joins if any(c in joins for c in j.children))
        inner = next(j for j in joins if j is not outer)
        assert inner in outer.children

        # Each hash join contributes a build and a probe phase.
        builds = [s for s in root.walk() if s.name == "hash_join.build"]
        probes = [s for s in root.walk() if s.name == "hash_join.probe"]
        assert len(builds) == 2 and len(probes) == 2
        for phase in builds + probes:
            assert phase.kind == "join_phase"
        # Building hash tables hashes keys; the root sees those ops too.
        assert builds[0].counters.hashes > 0
        assert root.counters.hashes >= sum(
            b.counters.hashes for b in builds
        )

    def test_join_operator_rows(self, chain_db):
        _, root = _traced(chain_db, TWO_JOIN_SQL)
        for join in root.find_all("operator"):
            if join.name.startswith("Join["):
                assert join.rows_out == 4


class TestCounterRollup:
    def test_children_sum_into_every_parent(self, chain_db):
        _, root = _traced(chain_db, TWO_JOIN_SQL)
        for span in root.walk():
            exclusive = span.self_counters()
            # diff() never goes negative only if the parent really holds
            # at least the children's counts — the roll-up invariant.
            for field, value in exclusive.as_dict().items():
                assert value >= 0, (span.name, field, value)
            child_total = sum(c.counters.total() for c in span.children)
            assert span.counters.total() == (
                exclusive.total() + child_total
            )

    def test_root_includes_deep_descendant_ops(self, chain_db):
        _, root = _traced(chain_db, TWO_JOIN_SQL)
        deep = root.find("hash_join.probe")
        # Probing charges hashes under every engine (the tuple engine
        # additionally charges chain comparisons; the batch kernels do
        # not, see DESIGN.md section 3.8), so the roll-up invariant is
        # checked on the engine-neutral counter.
        assert deep is not None and deep.counters.hashes > 0
        assert root.counters.hashes >= deep.counters.hashes

    def test_tracing_is_transparent_to_enclosing_scopes(self, chain_db):
        """Zero-overhead contract: ops recorded under spans still land in
        the caller's own counter scope, in full."""
        chain_db.sql(TWO_JOIN_SQL)  # warm caches so both runs match
        chain_db.configure_observability(ObservabilityConfig(metrics=False))
        with counters_scope() as outer:
            chain_db.sql(TWO_JOIN_SQL)
        obs = obs_runtime.active()
        root = obs.last_query_span()
        assert outer.total() == root.counters.total() > 0


class TestSpanHelpers:
    def test_to_dict_drops_private_attrs(self, chain_db):
        _, root = _traced(chain_db, TWO_JOIN_SQL)
        for payload in [root.to_dict()] + [
            s.to_dict() for s in root.walk()
        ]:
            assert "_node" not in payload["attrs"]
        doc = root.to_dict()
        assert doc["kind"] == "query"
        assert doc["counters"]["comparisons"] == root.counters.comparisons
        assert len(doc["children"]) == len(root.children)

    def test_find_and_walk(self, chain_db):
        _, root = _traced(chain_db, POINT_SQL)
        assert root.find("parse").name == "parse"
        assert root.find("no-such-span") is None
        assert sum(1 for _ in root.walk()) >= 4  # query/parse/plan/op...

    def test_recent_spans_bounded(self, chain_db, monkeypatch):
        monkeypatch.setattr(span_module, "MAX_RECENT_SPANS", 2)
        obs = chain_db.configure_observability(
            ObservabilityConfig(metrics=False)
        )
        for __ in range(5):
            chain_db.sql(POINT_SQL)
        assert len(obs.recent_spans()) == 2


class TestLifecycle:
    def test_off_by_default(self, chain_db):
        assert obs_runtime.active() is None
        chain_db.sql(POINT_SQL)
        assert obs_runtime.active() is None

    def test_disable_deactivates(self, chain_db):
        obs = chain_db.configure_observability(ObservabilityConfig())
        assert obs_runtime.active() is obs
        assert chain_db.configure_observability(
            ObservabilityConfig(tracing=False, metrics=False)
        ) is None
        assert obs_runtime.active() is None

    @pytest.mark.parametrize("value", ["1", "0", "false", "off", ""])
    def test_env_switch(self, monkeypatch, value):
        # REPRO_OBS shares REPRO_REPLICATION's grammar: 1 is on; 0,
        # false, off and empty are off.
        monkeypatch.setenv("REPRO_OBS", value)
        db = MainMemoryDatabase()
        assert (db.observability is not None) == (value == "1")
        assert obs_runtime.active() is db.observability

    def test_env_switch_refuses_other_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "yes")
        with pytest.raises(ConfigError, match="REPRO_OBS"):
            MainMemoryDatabase()

    def test_activate_returns_previous(self):
        first = Observability(ObservabilityConfig(metrics=False))
        second = Observability(ObservabilityConfig(metrics=False))
        assert obs_runtime.activate(first) is None
        assert obs_runtime.activate(second) is first
        assert obs_runtime.active() is second
