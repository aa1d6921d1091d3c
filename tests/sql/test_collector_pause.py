"""An uncached SELECT runs with the cyclic garbage collector paused.

The pause begins once the result-cache lookup has missed and ends in a
``finally``; it nests across threads, and the collector comes back on
only if it was on when the first overlapping SELECT began.  A worker
pool forked inside a SELECT runs with the collector on.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time

import pytest

from repro import MainMemoryDatabase
from repro.cache import CacheConfig
from repro.sql import interpreter

QUERY = "SELECT id FROM t WHERE v > 3"


def _database(rows: int = 200) -> MainMemoryDatabase:
    database = MainMemoryDatabase()
    database.sql("CREATE TABLE t (id INT, v INT)")
    for start in range(0, rows, 500):
        values = ", ".join(
            f"({i}, {i % 17})" for i in range(start, min(rows, start + 500))
        )
        database.sql(f"INSERT INTO t VALUES {values}")
    return database


@pytest.fixture(autouse=True)
def collector_on():
    assert gc.isenabled()
    yield
    gc.enable()


def _spy_project(monkeypatch, database, seen, action=None):
    """Record the collector's state inside the SELECT (at its projection)."""
    project = database.project

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        if action is not None:
            action()
        return project(*args, **kwargs)

    monkeypatch.setattr(database, "project", spy)


def test_paused_inside_and_restored_after_return(monkeypatch):
    database = _database()
    seen = []
    _spy_project(monkeypatch, database, seen)
    assert len(database.sql(QUERY)) > 0
    assert seen == [False]
    assert gc.isenabled()


def test_restored_after_a_select_that_raises(monkeypatch):
    database = _database()
    seen = []

    def fail():
        raise RuntimeError("projection failed")

    _spy_project(monkeypatch, database, seen, fail)
    with pytest.raises(RuntimeError):
        database.sql(QUERY)
    assert seen == [False]
    assert gc.isenabled()


def test_a_disabled_collector_stays_disabled(monkeypatch):
    database = _database()
    seen = []
    _spy_project(monkeypatch, database, seen)
    gc.disable()
    database.sql(QUERY)
    assert seen == [False]
    assert not gc.isenabled()


def test_overlapping_threads_restore_it_once(monkeypatch):
    """A enters, B enters, A leaves (still paused), B leaves (resumed)."""
    first, second = _database(), _database()
    a_inside, b_inside = threading.Event(), threading.Event()
    a_release, b_release = threading.Event(), threading.Event()
    _spy_project(
        monkeypatch, first, [], lambda: (a_inside.set(), a_release.wait(10))
    )
    _spy_project(
        monkeypatch, second, [], lambda: (b_inside.set(), b_release.wait(10))
    )
    errors = []

    def run(database):
        try:
            database.sql(QUERY)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    a = threading.Thread(target=run, args=(first,))
    b = threading.Thread(target=run, args=(second,))
    a.start()
    assert a_inside.wait(10)
    b.start()
    assert b_inside.wait(10)
    a_release.set()
    a.join(10)
    assert not gc.isenabled()
    b_release.set()
    b.join(10)
    assert not errors
    assert gc.isenabled()


def test_the_depth_counter_loses_no_update():
    """More threads than cores pausing and resuming at a short switch
    interval: a lost update would leave the depth off zero, or the
    collector off."""
    def churn():
        for __ in range(2000):
            interpreter._pause_collector()
            interpreter._resume_collector()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for __ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert interpreter._collector_depth == 0
    assert gc.isenabled()


def test_a_result_cache_hit_never_touches_it(monkeypatch):
    database = _database()
    database.configure_cache(CacheConfig())
    calls = []
    pause = interpreter._pause_collector
    monkeypatch.setattr(
        interpreter,
        "_pause_collector",
        lambda: (calls.append("pause"), pause()),
    )
    first = database.sql(QUERY)
    assert calls == ["pause"]
    hits = database.result_cache.stats()["hits"]
    again = database.sql(QUERY)
    assert database.result_cache.stats()["hits"] == hits + 1
    assert calls == ["pause"]
    assert again.rows() == first.rows()


def _worker_state():
    time.sleep(0.2)
    return os.getpid(), gc.isenabled()


def test_pool_forked_inside_a_select_runs_the_collector():
    from repro.query.parallel.scheduler import fork_available

    if not fork_available():
        pytest.skip("no fork start method on this platform")
    database = _database(3000)
    database.configure_execution(
        engine="batch", workers=2, pool="process", morsel_size=1024
    )
    try:
        database.sql(QUERY)
        scheduler = database.executor.scheduler
        if scheduler.stats["process_runs"] == 0:
            pytest.skip("pool degraded to inline in this sandbox")
        assert scheduler.stats["pool_forks"] == 1
        pool = scheduler._pool
        workers = set(pool._processes)
        answers = {}
        for __ in range(10):
            futures = [pool.submit(_worker_state) for __ in workers]
            answers.update(future.result(30) for future in futures)
            if workers <= set(answers):
                break
        assert set(answers) == workers
        assert all(answers.values())
    finally:
        database.configure_execution()
