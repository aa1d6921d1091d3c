"""Common interface for all main-memory index structures.

Design decisions shared by every index (paper Section 2.2):

* Indexes store *items* — in the MM-DBMS these are tuple pointers
  (:class:`repro.storage.tuples.TupleRef`) — and never the key values
  themselves.  The key is extracted on demand through ``key_of``, the
  function handed to the constructor.  A single pointer therefore gives the
  index access both to the key and to the tuple.
* Key comparisons, data movement, hash calls, and pointer traversals are
  reported through :mod:`repro.instrument` so that benchmarks can use the
  paper's own machine-independent cost metrics.
* Every index can report its storage consumption in bytes
  (:meth:`Index.storage_bytes`) using era-appropriate 4-byte pointers, for
  the Section 3.2.2 storage-cost comparison.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.errors import DuplicateKeyError, KeyNotFoundError
from repro.instrument import count_compare
from repro.obs import runtime as obs_runtime

#: Size of one pointer (to a tuple or an index node) in bytes.  The VAX of
#: the paper, like the paper's own accounting ("4 bytes of pointer overhead
#: for each data item"), used 4-byte pointers.
POINTER_BYTES = 4

#: Size of per-node control information (counts, balance factors, depths).
CONTROL_BYTES = 4


def identity_key(item: Any) -> Any:
    """Key extractor for benchmarks that index plain keys directly."""
    return item


def compare_keys(a: Any, b: Any) -> int:
    """Three-way comparison, counted as one data comparison."""
    count_compare()
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


class Index(ABC):
    """Abstract base class for every index structure.

    Parameters
    ----------
    key_of:
        Function mapping a stored item to its key.  Defaults to identity,
        which is how the standalone index benchmarks run (30,000 unique
        keys inserted directly, Section 3.2.2).
    unique:
        When true (the configuration used in the paper's index tests —
        "the indices were configured to run as unique indices"), inserting
        a second item with an existing key raises
        :class:`~repro.errors.DuplicateKeyError`.
    """

    #: Human-readable structure name, set by each subclass.
    kind: str = "abstract"
    #: Whether the structure supports ordered scans and range queries.
    ordered: bool = False

    def __init__(
        self,
        key_of: Callable[[Any], Any] = None,
        unique: bool = True,
    ) -> None:
        self.key_of = key_of if key_of is not None else identity_key
        self.unique = unique
        self._count = 0

    def uncounted_key(self) -> Tuple[Callable[[Any], Any], int]:
        """``(extract, owed)`` for a structure that counts in bulk.

        ``extract`` maps an item to its key without charging anything
        itself; ``owed`` is the number of pointer traversals the caller
        must charge per extraction to end up with the totals
        ``key_of`` would have produced.  A ``key_of`` that carries an
        ``uncounted`` attribute (``Relation.key_extractor``) is that
        function minus its one ``count_traverse()``; any other
        ``key_of`` is returned as it is, owing nothing.  Looked up per
        operation: ``key_of`` may be swapped on a live index.
        """
        key_of = self.key_of
        uncounted = getattr(key_of, "uncounted", None)
        if uncounted is None:
            return key_of, 0
        return uncounted, 1

    # ------------------------------------------------------------------ #
    # core operations
    # ------------------------------------------------------------------ #

    @abstractmethod
    def insert(self, item: Any) -> None:
        """Add ``item`` under key ``key_of(item)``.

        Raises :class:`DuplicateKeyError` for an existing key when the
        index is unique.
        """

    @abstractmethod
    def delete(self, item: Any) -> None:
        """Remove ``item``; raises :class:`KeyNotFoundError` if absent.

        For non-unique indexes the specific item (pointer) is removed, not
        merely any item with a matching key.
        """

    @abstractmethod
    def search(self, key: Any) -> Optional[Any]:
        """Return one item whose key equals ``key``, or None."""

    @abstractmethod
    def search_all(self, key: Any) -> List[Any]:
        """Return every item whose key equals ``key`` (possibly empty)."""

    @abstractmethod
    def scan(self) -> Iterator[Any]:
        """Yield every item.

        Order-preserving indexes yield in ascending key order; hash
        indexes yield in arbitrary order.
        """

    @abstractmethod
    def storage_bytes(self) -> int:
        """Bytes of memory the structure occupies (pointers + control)."""

    # ------------------------------------------------------------------ #
    # conveniences shared by all structures
    # ------------------------------------------------------------------ #

    def probe_all(self, key: Any) -> List[Any]:
        """:meth:`search_all`, attributed to the active observability.

        The executor's index-access paths call this instead of
        ``search_all`` directly so that, when observability is active, the
        probe shows up as a child span of the operator that issued it (with
        its own counter roll-up and result cardinality) and bumps the
        ``index_probes_total{kind}`` metric.  With observability off this
        is a single global load plus the plain ``search_all`` call — no
        extra operation counts either way.
        """
        obs = obs_runtime.active()
        if obs is None:
            return self.search_all(key)
        with obs.span(
            f"IndexProbe[{self.kind}]", "index", index_kind=self.kind
        ) as probe:
            items = self.search_all(key)
            if probe is not None:
                probe.rows_out = len(items)
        obs.metric_inc("index_probes_total", kind=self.kind)
        return items

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key: Any) -> bool:
        return self.search(key) is not None

    def __iter__(self) -> Iterator[Any]:
        return self.scan()

    def storage_factor(self) -> float:
        """Storage cost relative to the data alone (pointer per item).

        The paper expresses storage results "as a ratio of their storage
        cost to the array storage cost"; an array of n pointers is exactly
        ``n * POINTER_BYTES`` bytes, so this factor is directly comparable
        to the paper's numbers (AVL = 3, Chained Bucket Hash = 2.3, ...).
        """
        if self._count == 0:
            return 0.0
        return self.storage_bytes() / (self._count * POINTER_BYTES)

    def _missing(self, key: Any) -> KeyNotFoundError:
        return KeyNotFoundError(f"{self.kind}: key {key!r} not found")


class OrderedIndex(Index):
    """Base class for order-preserving structures (solid-line family).

    Adds range queries and directional scans, the operations that
    distinguish the order-preserving structures from the hash family in
    the paper's study (hash structures were "excluded" from range-query
    tests).
    """

    ordered = True

    @abstractmethod
    def scan_from(self, key: Any) -> Iterator[Any]:
        """Yield items with key >= ``key`` in ascending order."""

    def range_scan(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[Any]:
        """Yield items whose keys fall in [low, high] (None = unbounded)."""
        source = self.scan() if low is None else self.scan_from(low)
        for item in source:
            key = self.key_of(item)
            if low is not None and not include_low:
                count_compare()
                if key == low:
                    continue
            if high is not None:
                cmp = compare_keys(key, high)
                if cmp > 0 or (cmp == 0 and not include_high):
                    return
            yield item

    def min_item(self) -> Optional[Any]:
        """The item with the smallest key, or None when empty."""
        for item in self.scan():
            return item
        return None

    def max_item(self) -> Optional[Any]:
        """The item with the largest key, or None when empty."""
        last = None
        for item in self.scan():
            last = item
        return last

    def items_with_keys(self) -> Iterator[Tuple[Any, Any]]:
        """Yield ``(key, item)`` pairs in ascending key order."""
        for item in self.scan():
            yield self.key_of(item), item
