"""repro — a reproduction of Lehman & Carey's main-memory DBMS.

"Query Processing in Main Memory Database Management Systems",
SIGMOD 1986.

The package implements the paper's MM-DBMS architecture end to end:

* :mod:`repro.storage` — partitions, tuple pointers, relations accessed
  only through indexes, temporary lists with result descriptors;
* :mod:`repro.indexes` — all eight index structures from the study,
  including the T-Tree;
* :mod:`repro.query` — selection access paths, the five join algorithms
  (plus nested loops and precomputed pointer joins), duplicate
  elimination, plans, executor, and the Section 4 optimizer;
* :mod:`repro.txn` — partition-granularity 2PL with deadlock detection;
* :mod:`repro.recovery` — stable log buffer, change-accumulating log
  device, CRC32-framed simulated disk copy, working-set-first restart
  with transient-read retry and partial (quarantining) mode;
* :mod:`repro.fault` — deterministic seeded fault injection
  (:meth:`~repro.engine.database.MainMemoryDatabase.configure_faults`);
* :mod:`repro.workloads` — the Section 3.3.1 relation generator;
* :mod:`repro.engine` — the :class:`~repro.engine.database.MainMemoryDatabase`
  facade.

Quickstart::

    from repro import MainMemoryDatabase, Field, FieldType, ForeignKey, gt

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
    db.insert("Employee", ["Dave", 23, 66, 459])
    over_65 = db.join("Employee", "Department", on=("Dept_Id", "Id"),
                      outer_predicate=gt("Age", 65))
"""

from repro.engine.database import MainMemoryDatabase
from repro.errors import (
    CorruptImageError,
    CorruptLogRecordError,
    DeadlockError,
    DuplicateKeyError,
    InjectedFaultError,
    KeyNotFoundError,
    PoisonedMorselError,
    QueryError,
    RecoveryError,
    ReproError,
    SchemaError,
    StorageError,
    TornWriteError,
    TransactionError,
)
from repro.fault import FaultInjector, FaultPolicy
from repro.indexes import (
    ArrayIndex,
    AVLTreeIndex,
    BTreeIndex,
    ChainedBucketHashIndex,
    ExtendibleHashIndex,
    LinearHashIndex,
    ModifiedLinearHashIndex,
    TTreeIndex,
)
from repro.query.predicates import between, eq, ge, gt, le, lt, ne
from repro.storage.schema import Field, FieldType, ForeignKey, Schema
from repro.storage.tuples import TupleRef

__version__ = "1.0.0"

__all__ = [
    "AVLTreeIndex",
    "ArrayIndex",
    "BTreeIndex",
    "ChainedBucketHashIndex",
    "CorruptImageError",
    "CorruptLogRecordError",
    "DeadlockError",
    "DuplicateKeyError",
    "ExtendibleHashIndex",
    "FaultInjector",
    "FaultPolicy",
    "Field",
    "FieldType",
    "ForeignKey",
    "InjectedFaultError",
    "KeyNotFoundError",
    "LinearHashIndex",
    "MainMemoryDatabase",
    "ModifiedLinearHashIndex",
    "PoisonedMorselError",
    "QueryError",
    "RecoveryError",
    "ReproError",
    "Schema",
    "SchemaError",
    "StorageError",
    "TTreeIndex",
    "TornWriteError",
    "TransactionError",
    "TupleRef",
    "between",
    "eq",
    "ge",
    "gt",
    "le",
    "lt",
    "ne",
]
