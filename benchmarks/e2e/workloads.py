"""The four workloads: schema, data, configuration and statement stream.

Each workload builds its database from ``DATA_SEED`` (a fixture: the same
rows on every run) and draws its statement stream from ``--seed``.  The
split is deliberate.  Result sizes under Zipf-skewed join columns differ
by 5x from one data seed to the next, so a seed-dependent database would
turn the seed into the largest term of every metric; a seed-dependent
*stream* over fixed data varies literals, keys and arrival order, which
is what the engine's caches and access paths actually react to.

Streams are stratified: every round holds exactly the stated number of
statements of each class, and the seed decides literals and order.  A
benchmark whose class shares wander from run to run measures the wander.

Configuration goes through the public ``configure_*`` calls only, and
``check_config`` asserts that what the database reports equals what the
workload declares, so an environment hook or a changed default cannot
silently turn the run into a different experiment.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import MainMemoryDatabase, eq
from repro.cache import CacheConfig
from repro.workloads.distributions import ZipfDistribution
from repro.workloads.generator import RelationSpec, build_fk_chain

#: Seed of the database contents (see the module docstring).
DATA_SEED = 19860528

READ, WRITE, MAINT = "read", "write", "maint"


def scaled(n: int, scale: int) -> int:
    """Paper-scale ``n`` divided by the smoke divisor (at least 1)."""
    return max(1, n // scale)


# --------------------------------------------------------------------------- #
# operations
# --------------------------------------------------------------------------- #


class Op:
    """One statement of the stream: SQL text handed to ``db.sql``.

    ``cls`` is the statement class the per-layer percentiles group by,
    ``rw`` the latency class (read / write / maintenance), ``expect`` the
    row count the driver's model predicts (None when only the oracle
    knows), ``check`` an optional value the result must carry.
    """

    __slots__ = ("cls", "rw", "sql", "expect", "check")

    def __init__(
        self,
        cls: str,
        rw: str,
        sql: str,
        expect: Optional[int] = None,
        check: Any = None,
    ) -> None:
        self.cls = cls
        self.rw = rw
        self.sql = sql
        self.expect = expect
        self.check = check

    def run(self, db):
        return db.sql(self.sql)

    def text(self) -> str:
        return self.sql


class Transfer(Op):
    """Move an amount between two accounts under one transaction.

    The dialect has no BEGIN/COMMIT, so this is the one operation that
    uses the call API: two locked selections, two deferred updates, one
    commit.  The new balances come from the driver's model.
    """

    __slots__ = ("a", "b", "bal_a", "bal_b")

    def __init__(self, a: int, b: int, bal_a: int, bal_b: int) -> None:
        super().__init__("transfer", WRITE, "", expect=2)
        self.a, self.b, self.bal_a, self.bal_b = a, b, bal_a, bal_b

    def run(self, db):
        txn = db.begin()
        row_a = db.select("Acct", eq("Id", self.a), txn=txn)
        row_b = db.select("Acct", eq("Id", self.b), txn=txn)
        db.update("Acct", row_a[0][0], "Bal", self.bal_a, txn=txn)
        db.update("Acct", row_b[0][0], "Bal", self.bal_b, txn=txn)
        txn.commit()
        return len(row_a) + len(row_b)

    def text(self) -> str:
        return f"TRANSFER {self.a} {self.b} {self.bal_a} {self.bal_b}"


class Maintenance(Op):
    """``propagate_log`` / ``checkpoint``: counted in throughput, kept
    out of read and write latency."""

    __slots__ = ()

    def __init__(self, call: str) -> None:
        super().__init__(call, MAINT, call)

    def run(self, db):
        return getattr(db, self.sql)()


def stream_hash(ops: Sequence[Op]) -> str:
    digest = hashlib.sha256()
    for op in ops:
        digest.update(op.text().encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]


# --------------------------------------------------------------------------- #
# base class
# --------------------------------------------------------------------------- #


class Workload:
    """One workload.  ``setup()`` builds a fresh database and restarts
    the stream; it can be called again after ``close()``."""

    name = ""
    why = ""
    #: Seeds the stream; two workloads with one stream name replay the
    #: same statements.
    stream_name = ""
    #: Whether index/storage/txn/log entry points run once per statement
    #: here (and so may be wrapped by the tracer).
    per_row_layers = False
    #: Rounds the traced run replays (fixed, so counts repeat exactly).
    traced_rounds = 1
    #: Untimed rounds the traced run sends first (also fixed), for a
    #: workload whose state is still settling after the warm-up round.
    settle_rounds = 0
    #: Whether one extra round runs with observability on.
    obs_round = False
    #: Declared configuration, asserted by ``check_config``.
    engine = "tuple"
    workers = 1
    join_ordering = "written"
    caches = False
    durable = False

    def __init__(self, seed: int, scale: int = 1, workers: int = 2) -> None:
        self.seed = seed
        #: Divisor of the table sizes (1 = paper scale, 50 = smoke).
        self.scale = scale
        #: Divisor of the round lengths: smoke rounds stay long enough
        #: to hold every statement class.
        self.round_scale = 1 if scale == 1 else max(1, scale // 5)
        self.db: Optional[MainMemoryDatabase] = None
        self.rng = random.Random()
        self.rows_loaded = 0

    # -- lifecycle ---------------------------------------------------------

    def setup(self) -> MainMemoryDatabase:
        self.rng = random.Random(
            f"{self.stream_name or self.name}:{self.seed}"
        )
        self.db = self.build()
        self.configure()
        self.check_config()
        return self.db

    def build(self) -> MainMemoryDatabase:
        raise NotImplementedError

    def execution_options(self) -> Dict[str, Any]:
        """Keyword fields for ``configure_execution``; empty keeps the
        out-of-the-box tuple engine."""
        return {}

    def configure(self) -> None:
        """Apply the declared configuration through ``configure_*``."""
        options = self.execution_options()
        if options:
            self.db.configure_execution(**options)

    def close(self) -> None:
        """Release the database (worker pool, caches)."""
        if self.db is not None:
            # Back to the default executor: retires a worker pool.
            self.db.configure_execution()
            self.db = None

    # -- the stream --------------------------------------------------------

    def warmup_round(self) -> List[Op]:
        raise NotImplementedError

    def next_round(self) -> List[Op]:
        raise NotImplementedError

    # -- configuration -----------------------------------------------------

    def declared(self) -> Dict[str, Any]:
        return {
            "durable": self.durable,
            "engine": self.engine,
            "workers": self.workers,
            "join_ordering": self.join_ordering,
            "plan_cache": self.caches,
            "result_cache": self.caches,
            "observability": False,
            "faults": False,
            "replication": False,
        }

    def effective(self) -> Dict[str, Any]:
        db = self.db
        config = db.execution_config
        return {
            "durable": db.durable,
            "engine": config.engine if config is not None else "tuple",
            "workers": config.workers if config is not None else 1,
            "join_ordering": getattr(
                db.optimizer, "join_ordering", "written"
            ),
            "plan_cache": db.plan_cache is not None,
            "result_cache": db.result_cache is not None,
            "observability": db.observability is not None,
            "faults": db.fault_injector is not None,
            "replication": db.replication is not None,
        }

    def check_config(self) -> None:
        declared, effective = self.declared(), self.effective()
        if declared != effective:
            raise RuntimeError(
                f"{self.name}: effective configuration {effective} is not "
                f"the declared {declared}"
            )
        config = self.db.execution_config
        if config is not None:
            # Every field the workload does not set must be at its default.
            wanted = type(config)(**self.execution_options())
            if config != wanted:
                raise RuntimeError(
                    f"{self.name}: execution config {config} is not the "
                    f"declared {wanted}"
                )

    # -- correctness -------------------------------------------------------

    def oracle(self) -> None:
        """Switch the database to the reference configuration: tuple
        engine, caches off, written join order."""
        db = self.db
        db.configure_execution()
        db.configure_cache(
            CacheConfig(enable_plans=False, enable_results=False)
        )
        db.configure_optimizer()

    def verify(self, verifier, seconds: float) -> None:
        """End-of-run verification through a
        :class:`~benchmarks.e2e.driver.Verifier`; every check counts into
        ``attempted`` / ``failed``.  ``seconds`` is the run's measuring
        time, which the oracle replay's budget is a share of."""
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# oltp_point
# --------------------------------------------------------------------------- #


class OltpPoint(Workload):
    name = "oltp_point"
    why = (
        "0.1 ms point statements on a durable tuple-engine database: "
        "lex/parse, interpreter, plan_selection, one T-Tree op, storage "
        "and log append are the whole cost; the one workload that updates"
    )
    per_row_layers = True
    obs_round = True
    durable = True

    ROWS = 30_000
    ROUND_OPS = 5_000
    WARMUP_OPS = 1_000
    #: A checkpoint follows round 2 (so the traced prefix holds one) and
    #: every tenth round after it.
    CHECKPOINT_EVERY = 10
    FIRST_CHECKPOINT = 2
    #: Untimed operations between the last propagate and the crash, so
    #: restart has accumulated log records to merge.
    TAIL_OPS = 2_500
    #: Per 100 operations: selects, inserts, deletes, updates, transfers.
    MIX = (("select", 60), ("insert", 15), ("delete", 15), ("update", 5),
           ("transfer", 5))
    traced_rounds = 2

    def build(self) -> MainMemoryDatabase:
        rows = scaled(self.ROWS, self.scale)
        data = random.Random(DATA_SEED)
        db = MainMemoryDatabase(durable=True)
        db.sql("CREATE TABLE Acct (Id INT, Bal INT, Grp INT, PRIMARY KEY (Id))")
        self.key_space = rows * 10
        keys = data.sample(range(self.key_space), rows)
        self.model: Dict[int, Tuple[int, int]] = {}
        for key in keys:
            bal, grp = data.randrange(10_000), key % 100
            db.insert("Acct", [key, bal, grp])
            self.model[key] = (bal, grp)
        self.live: List[int] = list(keys)
        self.rows_loaded = rows
        self.rounds_done = 0
        return db

    def _block(self) -> List[str]:
        kinds = [kind for kind, share in self.MIX for _ in range(share)]
        self.rng.shuffle(kinds)
        return kinds

    def _pick(self) -> int:
        return self.live[self.rng.randrange(len(self.live))]

    def _op(self, kind: str) -> Op:
        rng, model, live = self.rng, self.model, self.live
        if kind == "select":
            key = self._pick()
            return Op(
                "select", READ, f"SELECT * FROM Acct WHERE Id = {key}",
                expect=1, check=(key,) + model[key],
            )
        if kind == "insert":
            key = rng.randrange(self.key_space)
            while key in model:
                key = rng.randrange(self.key_space)
            bal, grp = rng.randrange(10_000), key % 100
            model[key] = (bal, grp)
            live.append(key)
            return Op(
                "insert", WRITE,
                f"INSERT INTO Acct VALUES ({key}, {bal}, {grp})", expect=1,
            )
        if kind == "delete":
            position = rng.randrange(len(live))
            key = live[position]
            live[position] = live[-1]
            live.pop()
            del model[key]
            return Op(
                "delete", WRITE, f"DELETE FROM Acct WHERE Id = {key}",
                expect=1,
            )
        if kind == "update":
            key = self._pick()
            bal = rng.randrange(10_000)
            model[key] = (bal, model[key][1])
            return Op(
                "update", WRITE,
                f"UPDATE Acct SET Bal = {bal} WHERE Id = {key}", expect=1,
            )
        a = self._pick()
        b = self._pick()
        while b == a:
            b = self._pick()
        amount = rng.randrange(1, 100)
        bal_a, bal_b = model[a][0] - amount, model[b][0] + amount
        model[a] = (bal_a, model[a][1])
        model[b] = (bal_b, model[b][1])
        return Transfer(a, b, bal_a, bal_b)

    def _ops(self, count: int) -> List[Op]:
        kinds: List[str] = []
        while len(kinds) < count:
            kinds.extend(self._block())
        # Cut the kinds, not the operations: generating an operation
        # already moves the model.
        return [self._op(kind) for kind in kinds[:count]]

    def warmup_round(self) -> List[Op]:
        ops = self._ops(scaled(self.WARMUP_OPS, self.round_scale))
        ops.append(Maintenance("propagate_log"))
        return ops

    def next_round(self) -> List[Op]:
        ops = self._ops(scaled(self.ROUND_OPS, self.round_scale))
        self.rounds_done += 1
        ops.append(Maintenance("propagate_log"))
        if self.rounds_done % self.CHECKPOINT_EVERY == self.FIRST_CHECKPOINT:
            ops.append(Maintenance("checkpoint"))
        return ops

    def verify(self, verifier, seconds: float) -> None:
        """Crash in the middle of a round, restart, and compare the whole
        recovered table with the driver's model."""
        verifier.run_ops(self._ops(scaled(self.TAIL_OPS, self.round_scale)))
        db = self.db
        started = time.perf_counter()
        db.crash()
        stats = db.recover()
        db.finish_recovery()
        result = db.sql("SELECT * FROM Acct")
        table = {row[0]: (row[1], row[2]) for row in result.materialize()}
        verifier.extras["recover_s"] = time.perf_counter() - started
        verifier.extras["restart_partitions"] = stats.total_partitions
        verifier.extras["records_merged"] = stats.log_records_merged
        verifier.check(
            table == self.model,
            f"recovered table ({len(table)} rows) differs from the model "
            f"({len(self.model)} rows)",
        )


# --------------------------------------------------------------------------- #
# query_mix / query_mix_par
# --------------------------------------------------------------------------- #


class QueryMix(Workload):
    name = "query_mix"
    why = (
        "40-500 ms analytic statements on the serial batch engine: compiled "
        "predicates, deref cache and hash kernels dominate, sql/optimizer "
        "under 1%; the serial baseline query_mix_par is read against"
    )
    obs_round = True
    engine = "batch"

    ORDERS, PARTS, WIDE_R, WIDE_S = 30_000, 3_000, 30_000, 2_000
    QTY_SPACE, PRICE_SPACE, WIDE_KEYS = 500, 10_000, 200
    #: Statements per round, by class.
    MIX = (("range", 6), ("disjunct", 6), ("filter", 6), ("join", 5),
           ("wide", 1), ("distinct", 6))

    def build(self) -> MainMemoryDatabase:
        data = random.Random(DATA_SEED)
        scale = self.scale
        db = MainMemoryDatabase()
        db.sql("CREATE TABLE Orders (Id INT, Qty INT, Price INT, "
               "PRIMARY KEY (Id))")
        db.sql("CREATE TABLE Parts (Id INT, Qty INT, PRIMARY KEY (Id))")
        db.sql("CREATE TABLE WideR (Id INT, K INT, PRIMARY KEY (Id))")
        db.sql("CREATE TABLE WideS (Id INT, K INT, PRIMARY KEY (Id))")
        orders, parts = scaled(self.ORDERS, scale), scaled(self.PARTS, scale)
        wide_r, wide_s = scaled(self.WIDE_R, scale), scaled(self.WIDE_S, scale)
        for i in range(orders):
            db.insert("Orders", [i, data.randrange(self.QTY_SPACE),
                                 data.randrange(self.PRICE_SPACE)])
        for i in range(parts):
            db.insert("Parts", [i, data.randrange(self.QTY_SPACE)])
        for i in range(wide_r):
            db.insert("WideR", [i, data.randrange(self.WIDE_KEYS)])
        for i in range(wide_s):
            db.insert("WideS", [i, data.randrange(self.WIDE_KEYS)])
        self.rows_loaded = orders + parts + wide_r + wide_s
        return db

    def execution_options(self) -> Dict[str, Any]:
        return {"engine": "batch"}

    def _statement(self, cls: str) -> Op:
        # Every range has a fixed width, so the rows a statement touches
        # and returns do not depend on where the seed put the range.
        rng = self.rng
        if cls == "range":
            low = rng.randrange(350)
            sql = (f"SELECT * FROM Orders WHERE Qty > {low} "
                   f"AND Qty < {low + 150}")
        elif cls == "disjunct":
            low = rng.randrange(350)
            sql = (f"SELECT * FROM Orders WHERE Qty BETWEEN {low} AND "
                   f"{low + 150} OR Price >= 9000 OR Price <= 500")
        elif cls == "filter":
            sql = ("SELECT * FROM Orders WHERE Price > 1000 AND Price < 9000 "
                   f"AND Qty = {rng.randrange(self.QTY_SPACE)}")
        elif cls == "join":
            low = rng.randrange(250)
            sql = ("SELECT * FROM Orders JOIN Parts ON Orders.Qty = Parts.Qty "
                   f"USING hash WHERE Orders.Qty > {low} "
                   f"AND Orders.Qty < {low + 250}")
        elif cls == "wide":
            sql = ("SELECT * FROM WideR JOIN WideS ON WideR.K = WideS.K "
                   "USING hash")
        else:
            sql = ("SELECT DISTINCT Qty FROM Orders "
                   f"WHERE Price >= {rng.randrange(500)}")
        return Op(cls, READ, sql)

    def warmup_round(self) -> List[Op]:
        return [self._statement(cls) for cls, _ in self.MIX]

    def next_round(self) -> List[Op]:
        classes = [cls for cls, count in self.MIX for _ in range(count)]
        self.rng.shuffle(classes)
        return [self._statement(cls) for cls in classes]

    def verify(self, verifier, seconds: float) -> None:
        """The stream is read-only, so the tenth of the executed
        statements the recorder kept is replayed: on the measured
        configuration (the digest's row count must equal what the timed
        run saw) and on the oracle."""
        sample = verifier.rec.executed
        ops = [op for op, _rows in sample]
        reference = []
        for op, rows in sample:
            digest = verifier.digest(op)
            verifier.check(
                digest[0] == rows,
                f"{op.sql!r} returned {rows} rows timed, {digest[0]} replayed",
            )
            reference.append(digest)
        verifier.oracle_compare(ops, reference, seconds / 6.0)


class QueryMixPar(QueryMix):
    name = "query_mix_par"
    stream_name = QueryMix.name
    why = (
        "the same database and statements as query_mix through morsel "
        "dispatch, the pool pipe, worker decode caches and merge "
        "(workers=2, everything else default); query_mix is its bypass"
    )
    obs_round = False

    def __init__(self, seed: int, scale: int = 1, workers: int = 2) -> None:
        super().__init__(seed, scale, workers)
        self.workers = workers

    def execution_options(self) -> Dict[str, Any]:
        options = {"engine": "batch", "workers": self.workers}
        if self.scale > 1:
            # A smoke table is smaller than one default morsel, which
            # would leave the pool idle: the morsel shrinks with the data.
            options["morsel_size"] = scaled(4096, self.scale)
        return options


# --------------------------------------------------------------------------- #
# chain_cached
# --------------------------------------------------------------------------- #


class ChainCached(Workload):
    name = "chain_cached"
    why = (
        "Zipf-repeated 3/4/5-way join chains and selections from a text "
        "pool larger than every cache, 3% inserts invalidating dependents: "
        "cache lookup/invalidation and join-order DP, which the others bypass"
    )
    engine = "batch"
    join_ordering = "cost"
    caches = True
    #: The hit share climbs for two more rounds after the warm-up; the
    #: traced prefix should see the caches the untraced stretch sees.
    settle_rounds = 2

    SIZES = (15_000, 10_000, 7_000, 4_000, 2_500)
    DUP_PERCENT = 30.0
    DATA_ZIPF = 1.1
    VAL_MODULUS = 50
    #: (first table, tables joined); written largest-first, filter last.
    CHAINS = ((0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (0, 5))
    CONSTANTS = 25
    ROUND_SELECTS = 291
    ROUND_INSERTS = 9
    #: Skew of the draw over the text pool; tuned so the statement-level
    #: result-hit share settles near 0.72: away from 0.5, where the
    #: median latency flips between a hit and a miss, and far enough
    #: above it that the median sits among the small, similar hits and
    #: not in the tail of hits that copy a large result.
    POOL_ZIPF = 1.5

    def build(self) -> MainMemoryDatabase:
        data = random.Random(DATA_SEED)
        sizes = [scaled(size, self.scale) for size in self.SIZES]
        specs = [
            RelationSpec(size, self.DUP_PERCENT,
                         ZipfDistribution(self.DATA_ZIPF))
            for size in sizes
        ]
        chain = build_fk_chain(specs, 100.0, data)
        db = MainMemoryDatabase()
        for i, size in enumerate(sizes):
            prev = chain.columns[i].get("prev")
            nxt = chain.columns[i].get("next")
            columns = [f"k{i} INT", f"v{i} INT"]
            if prev is not None:
                columns.append(f"p{i} INT")
            if nxt is not None:
                columns.append(f"n{i} INT")
            db.sql(f"CREATE TABLE T{i} ({', '.join(columns)}, "
                   f"PRIMARY KEY (k{i}))")
            for r in range(size):
                row = [r, r % self.VAL_MODULUS]
                if prev is not None:
                    row.append(prev[r])
                if nxt is not None:
                    row.append(nxt[r])
                db.insert(f"T{i}", row)
        last = len(sizes) - 1
        #: Values an inserted T4 row may carry in p4 and still join.
        self.link_values = sorted(set(chain.columns[last - 1]["next"]))
        self.next_key = sizes[last]
        self.rows_loaded = sum(sizes)
        self.pool = self._pool()
        weights = [
            1.0 / (rank + 1) ** self.POOL_ZIPF
            for rank in range(len(self.pool))
        ]
        total = sum(weights)
        self.cumulative: List[float] = []
        running = 0.0
        for weight in weights:
            running += weight / total
            self.cumulative.append(running)
        return db

    def execution_options(self) -> Dict[str, Any]:
        return {"engine": "batch"}

    def configure(self) -> None:
        super().configure()
        self.db.configure_optimizer(join_ordering="cost")
        self.db.configure_cache(CacheConfig())

    def _pool(self) -> List[Op]:
        """275 texts.  Rank order interleaves the shapes, so the hot head
        of the Zipf draw holds every shape rather than one."""
        pool: List[Op] = []
        tables = len(self.SIZES)
        for constant in range(self.CONSTANTS):
            for start, length in self.CHAINS:
                joins = " ".join(
                    f"JOIN T{i} ON n{i - 1} = T{i}.p{i}"
                    for i in range(start + 1, start + length)
                )
                last = start + length - 1
                pool.append(Op(
                    f"chain{length}", READ,
                    f"SELECT * FROM T{start} {joins} "
                    f"WHERE v{last} = {constant}",
                ))
            for i in range(tables):
                pool.append(Op(
                    "select", READ,
                    f"SELECT * FROM T{i} WHERE v{i} = {constant}",
                ))
        return pool

    def _draw(self, u: float) -> Op:
        rank = bisect.bisect_left(self.cumulative, u)
        return self.pool[min(rank, len(self.pool) - 1)]

    def _insert(self) -> Op:
        key = self.next_key
        self.next_key += 1
        last = len(self.SIZES) - 1
        link = self.link_values[self.rng.randrange(len(self.link_values))]
        return Op(
            "insert", WRITE,
            f"INSERT INTO T{last} VALUES ({key}, "
            f"{key % self.VAL_MODULUS}, {link})",
            expect=1,
        )

    def next_round(self) -> List[Op]:
        rng = self.rng
        selects = scaled(self.ROUND_SELECTS, self.round_scale)
        inserts = scaled(self.ROUND_INSERTS, self.round_scale)
        # One uniform variate per stratum: every text appears within one
        # of its expected count in every round.
        ops = [
            self._draw((k + rng.random()) / selects) for k in range(selects)
        ]
        rng.shuffle(ops)
        # One insert per equal stretch of the round, at a seeded place in
        # it.  Each insert invalidates every cached answer that depends on
        # T4, so bunched inserts and spread inserts are different
        # workloads; the seed should not choose between them.
        stretch = len(ops) / inserts
        for k in reversed(range(inserts)):
            ops.insert(int((k + rng.random()) * stretch), self._insert())
        return ops

    def warmup_round(self) -> List[Op]:
        return self.next_round()

    def verify(self, verifier, seconds: float) -> None:
        """Stale-result check: a pool text answered with the caches as
        the run left them must equal its answer with caches off; some of
        those answers are then checked against the oracle.

        Each run checks a seeded third of the pool (every shape, a third
        of the constants): the whole pool costs as much as the timed
        region itself, and the runs of one benchmark session cover it
        between them.
        """
        db = self.db
        stride = 3
        sample = self.pool[self.rng.randrange(stride)::stride]
        cached = [verifier.digest(op) for op in sample]
        db.configure_cache(
            CacheConfig(enable_plans=False, enable_results=False)
        )
        fresh = [verifier.digest(op) for op in sample]
        for op, with_cache, without in zip(sample, cached, fresh):
            verifier.check(
                with_cache == without,
                f"{op.sql!r}: cached answer {with_cache} is stale, "
                f"caches off give {without}",
            )
        picks = list(range(len(sample)))
        self.rng.shuffle(picks)
        verifier.oracle_compare(
            [sample[i] for i in picks],
            [fresh[i] for i in picks],
            seconds / 6.0,
        )


WORKLOADS = {
    cls.name: cls for cls in (OltpPoint, QueryMix, QueryMixPar, ChainCached)
}
