"""``MainMemoryDatabase`` — the public face of the MM-DBMS.

Ties together the storage engine, index structures, query processor,
optimizer, partition-level locking, and the recovery components of
Figure 2.  A minimal session::

    db = MainMemoryDatabase()
    db.create_relation(
        "Department",
        [Field("Name", FieldType.STR), Field("Id", FieldType.INT)],
        primary_key="Id",
    )
    db.create_relation(
        "Employee",
        [
            Field("Name", FieldType.STR),
            Field("Id", FieldType.INT),
            Field("Age", FieldType.INT),
            Field("Dept_Id", FieldType.INT,
                  references=ForeignKey("Department", "Id")),
        ],
        primary_key="Id",
    )
    db.insert("Department", ["Toy", 459])
    db.insert("Employee", ["Dave", 23, 24, 459])   # Dept_Id becomes a pointer
    result = db.select("Employee", gt("Age", 21))
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import (
    QueryError,
    SchemaError,
    TransactionError,
)
from repro.query.executor import Executor
from repro.query.optimizer import Optimizer
from repro.query.plan import (
    REF_COLUMN,
    JoinNode,
    PlanNode,
    ScanNode,
)
from repro.query.predicates import (
    Comparison,
    Conjunction,
    Disjunction,
    Op,
    Predicate,
    _FKValueComparison,
    _NeverMatches,
)
from repro.recovery.restart import RecoveryManager, RestartStats
from repro.storage.catalog import Catalog
from repro.storage.partition import Partition, PartitionConfig
from repro.storage.relation import Relation
from repro.storage.schema import Field, FieldType, Schema
from repro.storage.temporary import TemporaryList
from repro.storage.tuples import TupleRef
from repro.txn.locks import LockMode
from repro.txn.transaction import Transaction, TransactionManager


class MainMemoryDatabase:
    """A memory-resident relational database (the paper's MM-DBMS).

    Parameters
    ----------
    durable:
        When true, every update writes a log record to the stable log
        buffer and the Figure 2 recovery machinery (simulated disk, log
        device, change-accumulation log) is active.  When false the
        database is volatile — the configuration the paper's query
        processing experiments ran in.

    Query reuse caching is off until :meth:`configure_cache` installs it.
    """

    def __init__(self, durable: bool = False) -> None:
        self.catalog = Catalog()
        self.optimizer = Optimizer(self.catalog)
        self.executor = Executor(self.catalog)
        self.transactions = TransactionManager()
        self.durable = durable
        self.recovery: Optional[RecoveryManager] = (
            RecoveryManager(self.catalog) if durable else None
        )
        self.plan_cache = None
        self.result_cache = None
        # Deferred imports: the SQL layer lowers onto this module.
        from repro.cache.lru import LRUCache
        from repro.sql.interpreter import SQLInterpreter
        from repro.sql.template import TEMPLATE_CAPACITY

        #: Statement templates of ``sql()``, by template key: always on,
        #: validated by the catalog's schema epoch (see repro.sql.template).
        self.templates = LRUCache(TEMPLATE_CAPACITY, "template")
        self._sql_interpreter = SQLInterpreter(self)
        self.observability = None
        self.fault_injector = None
        self.execution_config = None
        self.replication = None
        # CI hook: REPRO_EXEC_ENGINE/_WORKERS/_POOL select a default
        # execution config for every database constructed in the
        # process (the 2-worker pytest lane runs the whole suite on the
        # parallel path this way).  Explicit configure_execution calls
        # still override per instance.
        env_engine = os.environ.get("REPRO_EXEC_ENGINE")
        if env_engine:
            self.configure_execution(
                engine=env_engine,
                workers=int(os.environ.get("REPRO_EXEC_WORKERS") or 1),
                pool=os.environ.get("REPRO_EXEC_POOL") or None,
            )
        # Optimizer hook: REPRO_JOIN_ORDERING selects the multi-join
        # ordering mode for every database in the process (CI lanes run
        # the suite under "cost" this way).  configure_optimizer still
        # overrides per instance.
        env_ordering = os.environ.get("REPRO_JOIN_ORDERING")
        if env_ordering:
            self.configure_optimizer(join_ordering=env_ordering)
        # Observability hook: REPRO_OBS=1 enables the default tracing +
        # metrics + flight-recorder stack for every database in the
        # process (the obs-enabled CI smoke lane uses this).  Explicit
        # configure_observability calls still override.
        env_obs = os.environ.get("REPRO_OBS")
        if env_obs and env_obs not in ("0", "false", "off"):
            self.configure_observability()
        # Replication hook: REPRO_REPLICATION=1 attaches a warm replica
        # to every *durable* database in the process — the replication
        # CI lane runs the suite replicated this way.  Any other value
        # but off (unset, 0, false, off) is refused, so a lane still
        # naming a retired mode fails loudly.  Explicit
        # configure_replication calls still override.
        env_repl = os.environ.get("REPRO_REPLICATION")
        if env_repl and env_repl not in ("0", "false", "off"):
            if env_repl != "1":
                from repro.errors import ConfigError

                raise ConfigError(
                    f"REPRO_REPLICATION={env_repl!r}: use 1 (on) or "
                    "0 (off)"
                )
            if durable:
                self.configure_replication()
        # The transaction id used for log records when no transaction is
        # active (each autocommit op commits immediately).
        self._autocommit_lock = threading.Lock()
        self._txn_local = threading.local()

    # ------------------------------------------------------------------ #
    # query reuse subsystem
    # ------------------------------------------------------------------ #

    def configure_cache(self, config=None) -> None:
        """Install (or reconfigure) the reuse caches.

        ``config`` is a :class:`~repro.cache.CacheConfig`; ``None``
        installs the defaults.  Passing a config with both layers
        disabled removes caching entirely.
        """
        from repro.cache import CacheConfig, PlanCache, ResultCache

        if config is None:
            config = CacheConfig()
        self.plan_cache = (
            PlanCache(config.ast_capacity, config.plan_capacity)
            if config.enable_plans
            else None
        )
        self.result_cache = (
            ResultCache(self.catalog, config.result_capacity)
            if config.enable_results
            else None
        )
        self.executor.result_cache = self.result_cache

    # ------------------------------------------------------------------ #
    # optimizer
    # ------------------------------------------------------------------ #

    def configure_optimizer(self, *, join_ordering: str = None) -> None:
        """Select how multi-join chains are ordered.

        ``join_ordering="cost"`` re-orders 3+-relation equijoin chains
        by forecast Section-3.1 op counts (see
        :meth:`~repro.query.optimizer.Optimizer.plan_join_chain`);
        ``"written"`` — the default, restored by passing ``None`` —
        folds the FROM clause exactly as written.  Same opt-in contract
        as caching and batch execution: results are identical in either
        mode, only the plan changes.
        """
        from repro.errors import ConfigError
        from repro.query.optimizer import JOIN_ORDERINGS

        if join_ordering is None:
            join_ordering = "written"
        if join_ordering not in JOIN_ORDERINGS:
            raise ConfigError(
                f"unknown join_ordering {join_ordering!r}; choose from "
                f"{JOIN_ORDERINGS}"
            )
        self.optimizer.join_ordering = join_ordering

    # ------------------------------------------------------------------ #
    # execution engine
    # ------------------------------------------------------------------ #

    def configure_execution(
        self,
        config=None,
        *,
        engine: str = None,
        workers: int = None,
        morsel_size: int = None,
        pool: str = None,
        retry_attempts: int = None,
    ):
        """Select the execution engine (tuple-at-a-time vs. batch).

        ``config`` is an
        :class:`~repro.query.vectorized.ExecutionConfig`; alternatively
        pass its fields as keywords.  Passing fields without ``engine``
        implies the batch engine.  Called with nothing, it restores the
        default tuple-at-a-time engine.  ``workers=N`` with the batch
        engine adds morsel-driven parallelism for ``N > 1``;
        ``workers=1`` (the default) takes the scalar batch path exactly
        — no worker pool is ever created.  Every plan evaluated through
        this database — ``select``/``join``/``project``, ``sql()``,
        prepared statements — runs on the selected engine; attached
        result caches and observability carry over.  Invalid settings
        raise :class:`repro.errors.ConfigError` here, before any plan
        runs.  Returns the new executor.
        """
        from repro.errors import ConfigError
        from repro.query.vectorized import BatchExecutor, ExecutionConfig

        keyword_fields = {
            "engine": engine,
            "workers": workers,
            "morsel_size": morsel_size,
            "pool": pool,
            "retry_attempts": retry_attempts,
        }
        given = {
            name: value
            for name, value in keyword_fields.items()
            if value is not None
        }
        if config is None:
            if engine is None:
                wants_batch = bool(given)
                given["engine"] = "batch" if wants_batch else "tuple"
            config = ExecutionConfig(**given)
        elif given:
            raise ConfigError(
                "pass either an ExecutionConfig or keyword fields, not both"
            )
        previous = self.executor
        if config.engine == "batch":
            if config.workers > 1:
                from repro.query.parallel import ParallelBatchExecutor

                self.executor = ParallelBatchExecutor(
                    self.catalog,
                    self.result_cache,
                    workers=config.workers,
                    morsel_size=config.morsel_size,
                    pool=config.pool,
                    retry_attempts=config.retry_attempts,
                )
            else:
                self.executor = BatchExecutor(self.catalog, self.result_cache)
        else:
            self.executor = Executor(self.catalog, self.result_cache)
        self._retire_executor(previous)
        self.execution_config = config
        self._sync_observability_context()
        return self.executor

    def _sync_observability_context(self) -> None:
        """Keep the flight recorder's engine/worker stamp current."""
        if self.observability is None:
            return
        config = self.execution_config
        self.observability.context["engine"] = (
            config.engine if config is not None else "tuple"
        )
        self.observability.context["workers"] = (
            config.workers if config is not None else 1
        )

    def _retire_executor(self, executor) -> None:
        """Release a replaced executor's worker pool."""
        if executor is None or executor is self.executor:
            return
        close = getattr(executor, "close", None)
        if close is not None:
            close()

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    def configure_observability(self, config=None):
        """Install (or reconfigure) query tracing and metrics.

        ``config`` is an :class:`~repro.obs.ObservabilityConfig`; ``None``
        enables the defaults (span tracing + metrics + slow-query log).
        The instance is activated *process-wide* — the engine's
        instrumentation hooks consult a module-level slot, exactly like
        the operation-counter stack — so the most recently configured
        database wins.  Passing a config with both tracing and metrics
        disabled deactivates observability entirely and restores the
        zero-overhead hooks.

        Returns the installed :class:`~repro.obs.Observability` (or None
        when disabling).
        """
        from repro.obs import Observability, ObservabilityConfig
        from repro.obs import runtime as obs_runtime

        if config is None:
            config = ObservabilityConfig()
        if not config.enabled:
            if self.observability is not None and (
                obs_runtime.active() is self.observability
            ):
                obs_runtime.deactivate()
            self.observability = None
            return None
        self.observability = Observability(config)
        self._sync_observability_context()
        obs_runtime.activate(self.observability)
        return self.observability

    def flight_records(self):
        """The flight recorder's retained per-statement records, oldest
        first ([] when the recorder — or observability — is off)."""
        obs = self.observability
        if obs is None or obs.recorder is None:
            return []
        return obs.recorder.recent()

    def scheduler_stats(self) -> Optional[Dict[str, Any]]:
        """The parallel scheduler's run counters plus per-worker
        telemetry, or None when the scalar engine is configured."""
        scheduler = getattr(self.executor, "scheduler", None)
        if scheduler is None:
            return None
        from repro.query.parallel import tasks

        stats: Dict[str, Any] = dict(scheduler.stats)
        stats["workers"] = {
            pid: dict(per) for pid, per in scheduler.worker_stats.items()
        }
        stats["blob_cache"] = tasks.blob_cache_stats()
        return stats

    def observability_report(self, top: int = 10) -> str:
        """The plain-text hotspot report (see :mod:`repro.obs.report`)."""
        if self.observability is None:
            return "Observability is not configured.\n"
        from repro.obs.report import render_report

        return render_report(
            self.observability,
            self.scheduler_stats(),
            top=top,
            quarantine=self.quarantine_report(),
            replication=self.replication_state(),
        )

    # ------------------------------------------------------------------ #
    # fault injection
    # ------------------------------------------------------------------ #

    def configure_faults(
        self,
        config=None,
        *,
        seed: int = None,
        policies: Sequence[Any] = None,
    ):
        """Install (or remove) the deterministic fault injector.

        ``config`` is a :class:`~repro.fault.FaultConfig`; alternatively
        pass ``seed`` plus a ``policies`` sequence of
        :class:`~repro.fault.FaultPolicy`.  The injector is activated
        *process-wide* — fault hooks consult a module-level slot, the
        same contract as the observability hooks, so when disabled every
        hook is a single global load.  Called with nothing (or with a
        config carrying no policies), it deactivates fault injection
        entirely and restores the zero-overhead no-op hooks.

        Returns the installed
        :class:`~repro.fault.FaultInjector` (or None when disabling).
        """
        from repro.errors import ConfigError
        from repro.fault import FaultConfig, FaultInjector
        from repro.fault import runtime as fault_runtime

        if config is not None and (seed is not None or policies is not None):
            raise ConfigError(
                "pass either a FaultConfig or keyword fields, not both"
            )
        if config is None:
            config = FaultConfig(
                seed=seed if seed is not None else 0,
                policies=tuple(policies) if policies else (),
            )
        if not config.enabled:
            if self.fault_injector is not None and (
                fault_runtime.active() is self.fault_injector
            ):
                fault_runtime.deactivate()
            self.fault_injector = None
            return None
        self.fault_injector = FaultInjector(config.seed, config.policies)
        fault_runtime.activate(self.fault_injector)
        return self.fault_injector

    # ------------------------------------------------------------------ #
    # replication (durable mode)
    # ------------------------------------------------------------------ #

    def configure_replication(
        self,
        config=None,
        *,
        max_lag_records: int = None,
        batch_records: int = None,
        retry_attempts: int = None,
    ):
        """Establish a log-shipped warm replica (durable mode only).

        ``config`` is a
        :class:`~repro.replication.ReplicationConfig`; alternatively
        pass its fields as keywords.  The replica bootstraps from the
        disk copy plus the accumulation log's unpropagated suffix, then
        stays current: every record the log device absorbs also ships,
        in checksummed batches, with retries on every hop.  On
        primary failure, :meth:`demote` promotes the replica.  A
        partition quarantined by ``recover(partial=True)`` heals online
        from the replica via :meth:`heal_partitions`.

        Reconfiguring replaces the existing replica.  Returns the
        :class:`~repro.replication.FailoverCoordinator`.
        """
        from repro.errors import ConfigError
        from repro.replication import FailoverCoordinator, ReplicationConfig

        self._require_durable()
        keyword_fields = {
            "max_lag_records": max_lag_records,
            "batch_records": batch_records,
            "retry_attempts": retry_attempts,
        }
        given = {
            name: value
            for name, value in keyword_fields.items()
            if value is not None
        }
        if config is None:
            config = ReplicationConfig(**given)
        elif given:
            raise ConfigError(
                "pass either a ReplicationConfig or keyword fields, not both"
            )
        if self.replication is not None:
            self.replication.close()
        self.replication = FailoverCoordinator(self, config).establish()
        return self.replication

    def stop_replication(self) -> None:
        """Detach and stop the warm replica (no-op when none exists)."""
        if self.replication is not None:
            self.replication.close()
            self.replication = None

    def _require_replication(self):
        from repro.errors import ReplicationError

        if self.replication is None:
            raise ReplicationError(
                "replication is not configured; call "
                "configure_replication() first"
            )
        return self.replication

    def demote(self, reason: str = "demoted"):
        """Explicit failover: this primary steps down, the replica's
        images become the database.  Returns
        :class:`~repro.replication.PromotionStats`."""
        return self._require_replication().promote(reason=reason)

    def heal_partitions(self):
        """Online partition repair: every quarantined partition is
        re-fetched from the replica and swapped in.  Returns
        :class:`~repro.replication.HealStats`."""
        return self._require_replication().heal_quarantined()

    def replication_state(self) -> Optional[Dict[str, Any]]:
        """Shipper/replica/coordinator state, or None when off."""
        if self.replication is None:
            return None
        return self.replication.replication_state()

    def quarantine_report(self) -> Dict[str, List[Tuple[int, str]]]:
        """Quarantined partitions per relation from the last partial
        restart ({} when none, or when never restarted)."""
        if self.recovery is None or self.recovery.last_restart_stats is None:
            return {}
        return self.recovery.last_restart_stats.quarantine_report()

    def cache_stats(self) -> Dict[str, Any]:
        """Hit/miss/eviction statistics for every installed cache layer."""
        stats: Dict[str, Any] = {}
        if self.plan_cache is not None:
            stats.update(self.plan_cache.stats())
        if self.result_cache is not None:
            stats["result"] = self.result_cache.stats()
        return stats

    # ------------------------------------------------------------------ #
    # schema operations
    # ------------------------------------------------------------------ #

    def create_relation(
        self,
        name: str,
        fields: Sequence[Field],
        primary_key: Optional[str] = None,
        primary_index_kind: str = "ttree",
        partition_config: PartitionConfig = None,
    ) -> Relation:
        """Create a relation with its mandatory primary index.

        ``primary_key`` names the uniquely indexed field (defaults to the
        first field).  The primary index is a unique T-Tree unless
        ``primary_index_kind`` overrides it — T-Trees are the design's
        general-purpose index (Section 2.2).
        """
        schema = Schema(fields)
        relation = self.catalog.create_relation(name, schema, partition_config)
        key_field = primary_key if primary_key is not None else fields[0].name
        schema.position(key_field)  # validates
        relation.create_index(
            f"{name}_pk", key_field, kind=primary_index_kind, unique=True
        )
        if self.durable:
            relation.change_listener = self._make_change_listener(relation)
        relation.fk_resolver = self._resolve_fk_pointer
        return relation

    def _resolve_fk_pointer(self, references, pointer: TupleRef) -> Any:
        """Follow a foreign-key pointer to the referenced key value."""
        target = self.catalog.relation(references.relation)
        return target.read_field(pointer, references.field)

    def create_index(
        self,
        relation_name: str,
        index_name: str,
        field_name: str,
        kind: str = "ttree",
        unique: bool = False,
        **options: Any,
    ):
        """Add a secondary index (see :data:`repro.indexes.INDEX_KINDS`)."""
        relation = self.catalog.relation(relation_name)
        return relation.create_index(
            index_name, field_name, kind, unique, **options
        )

    def relation(self, name: str) -> Relation:
        """Catalog lookup."""
        return self.catalog.relation(name)

    # ------------------------------------------------------------------ #
    # logging plumbing
    # ------------------------------------------------------------------ #

    def _make_change_listener(self, relation: Relation):
        def listener(event: Dict[str, Any]) -> None:
            txn_id = getattr(self._txn_local, "txn_id", None)
            manager = self.recovery
            partition_id = event["partition"]
            if not manager.disk.has_partition(relation.name, partition_id):
                # First touch of a brand-new partition: write its empty
                # base image so log replay has a starting point.
                base = Partition(partition_id, relation.partition_config)
                manager.disk.write_partition(
                    relation.name, partition_id, base.to_bytes()
                )
            payload = {
                key: value
                for key, value in event.items()
                if key not in ("kind", "relation", "partition")
            }
            effective_txn = txn_id if txn_id is not None else 0
            manager.stable_log.append(
                effective_txn,
                relation.name,
                partition_id,
                event["kind"],
                payload,
            )
            if txn_id is None:
                # Autocommit: the single record commits immediately.
                manager.stable_log.commit(effective_txn)

        return listener

    # ------------------------------------------------------------------ #
    # transactions
    # ------------------------------------------------------------------ #

    def begin(self) -> Transaction:
        """Start a transaction (strict 2PL, deferred updates)."""
        txn = self.transactions.begin()
        if self.durable:
            txn.on_commit = self._seal_txn_log
            txn.on_abort = self._drop_txn_log
        original_commit = txn.commit

        def commit_with_context() -> None:
            self._txn_local.txn_id = txn.id
            try:
                original_commit()
            finally:
                self._txn_local.txn_id = None

        txn.commit = commit_with_context
        return txn

    def _seal_txn_log(self, txn: Transaction) -> None:
        self.recovery.stable_log.commit(txn.id)

    def _drop_txn_log(self, txn: Transaction) -> None:
        self.recovery.stable_log.abort(txn.id)

    # ------------------------------------------------------------------ #
    # data modification
    # ------------------------------------------------------------------ #

    def _resolve_row(
        self, relation: Relation, values: Union[Sequence[Any], Dict[str, Any]]
    ) -> List[Any]:
        """Validate a logical row and materialise its foreign keys.

        Each declared foreign-key value is looked up in the referenced
        relation's index and replaced by the target's tuple pointer —
        the Section 2.1 substitution that enables precomputed joins.
        ``None`` foreign keys stay ``None`` (a null pointer).
        """
        schema = relation.schema
        if isinstance(values, dict):
            try:
                row = [values[f.name] for f in schema.fields]
            except KeyError as exc:
                raise SchemaError(f"missing field {exc.args[0]!r}") from None
        else:
            row = list(values)
        schema.validate_row(row)
        for position, field in enumerate(schema.fields):
            fk = field.references
            if fk is None or row[position] is None:
                continue
            target = self.catalog.relation(fk.relation)
            index = target.index_on(fk.field)
            if index is None:
                raise SchemaError(
                    f"foreign key {relation.name}.{field.name} needs an "
                    f"index on {fk.relation}.{fk.field}"
                )
            ref = index.search(row[position])
            if ref is None:
                raise QueryError(
                    f"foreign key violation: {fk.relation}.{fk.field} has "
                    f"no value {row[position]!r}"
                )
            row[position] = target.resolve(ref)
        return row

    def insert(
        self,
        relation_name: str,
        values: Union[Sequence[Any], Dict[str, Any]],
        txn: Optional[Transaction] = None,
    ) -> Optional[TupleRef]:
        """Insert one tuple.

        Without ``txn`` the insert applies (and, in durable mode, logs
        and commits) immediately and returns the new tuple pointer.
        With ``txn`` it is deferred to commit and returns None; the
        relation-level resource is locked exclusively first (the new
        tuple's partition is unknown until the insert applies).
        """
        relation = self.catalog.relation(relation_name)
        row = self._resolve_row(relation, values)
        if txn is None:
            return relation.insert(row)
        txn.lock_exclusive(relation_name, None)

        def apply_insert() -> Any:
            ref = relation.insert(row)
            return lambda: relation.delete(ref)

        txn.add_intention(apply_insert)
        return None

    def delete(
        self,
        relation_name: str,
        ref: TupleRef,
        txn: Optional[Transaction] = None,
    ) -> None:
        """Delete the tuple behind ``ref`` (deferred when in a txn)."""
        relation = self.catalog.relation(relation_name)
        if txn is None:
            relation.delete(ref)
            return
        canonical = relation.resolve(ref)
        txn.lock_exclusive(relation_name, canonical >> 32)

        def apply_delete() -> Any:
            old_row = relation.fetch(canonical)
            relation.delete(canonical)
            return lambda: relation.insert(old_row)

        txn.add_intention(apply_delete)

    def update(
        self,
        relation_name: str,
        ref: TupleRef,
        field_name: str,
        value: Any,
        txn: Optional[Transaction] = None,
    ) -> None:
        """Update one field (deferred when in a txn).

        Updating a foreign-key field re-resolves the pointer.
        """
        relation = self.catalog.relation(relation_name)
        field = relation.schema.field(field_name)
        physical_value = value
        if field.references is not None and value is not None:
            target = self.catalog.relation(field.references.relation)
            index = target.index_on(field.references.field)
            if index is None:
                raise SchemaError(
                    f"foreign key {relation_name}.{field_name} needs an "
                    f"index on {field.references.relation}."
                    f"{field.references.field}"
                )
            found = index.search(value)
            if found is None:
                raise QueryError(
                    f"foreign key violation: {field.references.relation}."
                    f"{field.references.field} has no value {value!r}"
                )
            physical_value = target.resolve(found)
        if txn is None:
            relation.update(ref, field_name, physical_value)
            return
        canonical = relation.resolve(ref)
        txn.lock_exclusive(relation_name, canonical >> 32)

        def apply_update() -> Any:
            old_value = relation.read_field(canonical, field_name)
            relation.update(canonical, field_name, physical_value)
            return lambda: relation.update(canonical, field_name, old_value)

        txn.add_intention(apply_update)

    def fetch(
        self,
        relation_name: str,
        ref: TupleRef,
        txn: Optional[Transaction] = None,
    ) -> Dict[str, Any]:
        """Materialise a tuple as a dict of logical values.

        REF fields are presented as the referenced key value (following
        the pointer), matching the paper's "simply follow the pointer to
        the foreign relation tuple to obtain the desired value".

        With ``txn``, the tuple's partition is share-locked first —
        required for read-modify-write transactions (the S lock upgrades
        to X at the subsequent update, and conflicting upgrades resolve
        by deadlock detection).
        """
        relation = self.catalog.relation(relation_name)
        if txn is not None:
            canonical = relation.resolve(ref)
            txn.lock_shared(relation_name, canonical >> 32)
        row = relation.fetch(ref)
        result: Dict[str, Any] = {}
        for field, value in zip(relation.schema.fields, row):
            if field.references is not None and isinstance(value, TupleRef):
                target = self.catalog.relation(field.references.relation)
                value = target.read_field(value, field.references.field)
            result[field.name] = value
        return result

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def execute(self, plan: PlanNode) -> TemporaryList:
        """Run an explicit plan."""
        return self.executor.execute(plan)

    # ------------------------------------------------------------------ #
    # foreign-key-aware predicates
    # ------------------------------------------------------------------ #

    def _rewrite_fk_predicate(
        self, relation_name: str, predicate: Optional[Predicate]
    ) -> Optional[Predicate]:
        """Make predicates on foreign-key columns behave logically.

        A FK column physically stores a tuple pointer, so a literal
        comparison against it would never match.  Equality predicates are
        rewritten to compare against the *resolved pointer* (preserving
        index lookups); ordered predicates are rewritten to follow the
        pointer and compare the referenced key value.
        """
        if predicate is None:
            return None
        relation = self.catalog.relation(relation_name)
        if isinstance(predicate, Conjunction):
            return Conjunction(
                tuple(
                    self._rewrite_fk_predicate(relation_name, part)
                    for part in predicate.parts
                )
            )
        if isinstance(predicate, Disjunction):
            return Disjunction(
                tuple(
                    self._rewrite_fk_predicate(relation_name, part)
                    for part in predicate.parts
                )
            )
        if not isinstance(predicate, Comparison):
            return predicate
        if predicate.field not in relation.schema.names:
            return predicate
        logical = relation.schema.field(predicate.field)
        if logical.references is None:
            return predicate
        if isinstance(predicate.value, TupleRef):
            return predicate  # caller already speaks pointers
        target = self.catalog.relation(logical.references.relation)
        index = target.index_on(logical.references.field)
        if predicate.op is Op.EQ and predicate.value is not None:
            found = index.search(predicate.value) if index else None
            if found is None:
                return _NeverMatches(predicate.field)
            return Comparison(
                predicate.field, Op.EQ, target.resolve(found)
            )
        return _FKValueComparison(
            predicate, target, logical.references.field
        )

    def selection_plan(
        self, relation_name: str, predicate: Optional[Predicate] = None
    ) -> PlanNode:
        """Build (without running) the plan :meth:`select` would run."""
        predicate = self._rewrite_fk_predicate(relation_name, predicate)
        return self.optimizer.plan_selection(relation_name, predicate)

    def select(
        self,
        relation_name: str,
        predicate: Optional[Predicate] = None,
        txn: Optional[Transaction] = None,
    ) -> TemporaryList:
        """Optimized single-relation selection.

        Under a transaction the relation-level resource is share-locked
        (coarse, as the paper argues short transactions allow).
        Predicates on foreign-key columns compare logically (see
        :meth:`_rewrite_fk_predicate`).
        """
        if txn is not None:
            txn.lock((relation_name, None), LockMode.SHARED)
        plan = self.selection_plan(relation_name, predicate)
        return self.executor.execute(plan)

    def join_plan(
        self,
        outer_name: str,
        inner_name: str,
        on: Tuple[str, str],
        method: str = "auto",
        outer_predicate: Optional[Predicate] = None,
        inner_predicate: Optional[Predicate] = None,
        op: str = "=",
    ) -> PlanNode:
        """Build (without running) the plan :meth:`join` would run."""
        outer_col, inner_col = on
        # Accept "Table.field" qualifiers when they name the respective
        # relation (the SQL layer passes them through verbatim).
        if "." in outer_col:
            qualifier, bare = outer_col.rsplit(".", 1)
            if qualifier == outer_name:
                outer_col = bare
        if "." in inner_col:
            qualifier, bare = inner_col.rsplit(".", 1)
            if qualifier == inner_name:
                inner_col = bare
        outer_predicate = self._rewrite_fk_predicate(outer_name, outer_predicate)
        inner_predicate = self._rewrite_fk_predicate(inner_name, inner_predicate)
        if op != "=":
            left = self.optimizer.plan_selection(outer_name, outer_predicate)
            inner_rel = self.catalog.relation(inner_name)
            usable_tree = (
                op != "!="
                and inner_predicate is None
                and inner_rel.index_on(inner_col, ordered=True) is not None
            )
            if usable_tree:
                plan = JoinNode(
                    left, ScanNode(inner_name), outer_col, inner_col,
                    "tree", op,
                )
            else:
                right = self.optimizer.plan_selection(
                    inner_name, inner_predicate
                )
                plan = JoinNode(
                    left, right, outer_col, inner_col, "nested_loops", op
                )
        elif method == "auto":
            plan = self.optimizer.plan_join(
                outer_name, inner_name, outer_col, inner_col,
                outer_predicate, inner_predicate,
            )
        else:
            left = self.optimizer.plan_selection(outer_name, outer_predicate)
            if method in ("tree", "tree_merge", "precomputed"):
                left = (
                    ScanNode(outer_name)
                    if method == "tree_merge"
                    else left
                )
                right: PlanNode = ScanNode(inner_name)
            else:
                right = self.optimizer.plan_selection(
                    inner_name, inner_predicate
                )
            join_col = inner_col
            if method == "precomputed":
                join_col = REF_COLUMN
            elif self._fk_matches(outer_name, outer_col, inner_name, inner_col):
                # The outer column physically stores a tuple pointer; a
                # value comparison against the inner key would never
                # match.  Compare pointers instead — the paper's Query 2.
                join_col = REF_COLUMN
            plan = JoinNode(left, right, outer_col, join_col, method)
        return plan

    def join(
        self,
        outer_name: str,
        inner_name: str,
        on: Tuple[str, str],
        method: str = "auto",
        outer_predicate: Optional[Predicate] = None,
        inner_predicate: Optional[Predicate] = None,
        op: str = "=",
    ) -> TemporaryList:
        """Two-relation join; ``method='auto'`` applies Section 4's
        preference order, or force one of the JOIN_METHODS.

        ``op`` other than "=" runs a non-equijoin (Section 3.3.5): the
        ordered ops ("<", "<=", ">", ">=") use a T-Tree on the inner
        column when one exists, else nested loops; "!=" always nested
        loops.
        """
        plan = self.join_plan(
            outer_name, inner_name, on, method,
            outer_predicate, inner_predicate, op,
        )
        return self.executor.execute(plan)

    def _fk_matches(
        self, outer_name: str, outer_col: str, inner_name: str, inner_col: str
    ) -> bool:
        """Whether outer_col is a FK pointer into inner_name.inner_col."""
        outer = self.catalog.relation(outer_name)
        if outer_col not in outer.schema.names:
            return False
        logical = outer.schema.field(outer_col)
        return (
            logical.references is not None
            and logical.references.relation == inner_name
            and logical.references.field == inner_col
        )

    def project(
        self,
        result: TemporaryList,
        columns: Sequence[str],
        deduplicate: bool = False,
        method: str = "hash",
    ) -> TemporaryList:
        """Descriptor projection with optional duplicate elimination, run
        by the active engine's
        :meth:`~repro.query.executor.Executor.dedup_rows`."""
        projected = result.project(list(columns))
        if not deduplicate:
            return projected
        rows = self.executor.dedup_rows(
            projected.descriptor, projected.rows(), columns, method
        )
        return TemporaryList(projected.descriptor, rows)

    def explain(self, plan: PlanNode) -> str:
        """Render a plan tree."""
        return plan.explain()

    def sql(self, text: str):
        """Run one SQL statement (see :mod:`repro.sql` for the dialect).

        Returns a :class:`TemporaryList` for SELECT, a plan string for
        EXPLAIN, a list of tuple pointers for INSERT, an affected-row
        count for UPDATE/DELETE, and None for DDL.

        Statements that differ only in their literals share one parsed
        template (``db.templates``), so a repeated statement shape skips
        the lexer and parser, and a single-key lookup or an INSERT also
        skips planning.
        """
        return self._sql_interpreter.execute(text)

    def prepare(self, text: str):
        """Compile a SQL statement with ``?`` placeholders once.

        The returned :class:`~repro.sql.prepared.PreparedStatement`
        re-binds per execution::

            stmt = db.prepare("SELECT Name FROM Employee WHERE Id = ?")
            stmt.execute(104)
            stmt.execute(105)

        Parameter values are type-checked against the schema at bind
        time; executions skip the lexer and parser, a single-key lookup
        or an INSERT also skips planning, and with the plan cache
        enabled repeated executions skip the optimizer.
        """
        from repro.sql.prepared import PreparedStatement

        return PreparedStatement(self, text)

    # ------------------------------------------------------------------ #
    # recovery controls (durable mode)
    # ------------------------------------------------------------------ #

    def _require_durable(self) -> RecoveryManager:
        if self.recovery is None:
            raise TransactionError(
                "this database is volatile; construct with durable=True "
                "for recovery support"
            )
        return self.recovery

    def checkpoint(self) -> int:
        """Full checkpoint of every partition to the disk copy."""
        return self._require_durable().checkpoint_all()

    def propagate_log(self, max_partitions: Optional[int] = None) -> int:
        """Let the log device push accumulated changes to the disk copy."""
        manager = self._require_durable()
        manager.log_device.absorb()
        return manager.log_device.propagate(max_partitions)

    def crash(self) -> None:
        """Simulate loss of main memory (Figure 2 drill)."""
        self._require_durable().crash()

    def recover(
        self,
        working_set: Optional[Sequence[Tuple[str, int]]] = None,
        partial: bool = False,
    ) -> RestartStats:
        """Restart after a crash; see :class:`RecoveryManager.restart`.

        ``partial=True`` quarantines partitions whose stored image is
        damaged (see :attr:`RestartStats.quarantined`) instead of
        failing the whole restart.
        """
        return self._require_durable().restart(working_set, partial=partial)

    def finish_recovery(self) -> int:
        """Drain the background reload queue."""
        return self._require_durable().finish_background_reload()
