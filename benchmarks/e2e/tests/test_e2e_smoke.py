"""Smoke test of the end-to-end benchmark at 1/50 scale.

Not part of the tier-1 suite (``pyproject.toml`` collects ``tests/``
only); run it with::

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
RUN = str(E2E / "run.py")

for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from benchmarks.e2e import metrics as m  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *args], capture_output=True, text=True,
        timeout=300,
    )


def one_run(workload: str, trace: int, seed: int = 7) -> dict:
    done = run("--workload", workload, "--smoke", "--trace", str(trace),
               "--seed", str(seed))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2].split(" ", 1)[1])
    return result


def shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def benchmark_processes() -> list:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                if RUN.encode() in handle.read():
                    found.append(int(entry))
        except OSError:
            continue
    return found


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """The whole suite once, through the one command."""
    segments_before = shm_segments()
    target = tmp_path_factory.mktemp("e2e") / "suite.json"
    done = run("--smoke", "--json", str(target))
    assert done.returncode == 0, done.stdout + done.stderr
    document = json.loads(target.read_text(encoding="utf-8"))
    document["stdout"] = done.stdout
    document["segments_before"] = segments_before
    return document


def test_benchmark_json_names_what_the_code_measures():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    end_to_end = {
        e["name"]: (e["unit"], e["better"], e["bound"])
        for e in contract["end_to_end"]
    }
    assert end_to_end == m.END_TO_END
    per_layer = {
        e["name"]: (e["unit"], e["better"]) for e in contract["per_layer"]
    }
    assert per_layer == m.PER_LAYER
    assert contract["paths"] == ["benchmarks/e2e"]


def test_every_metric_is_printed_with_its_unit(suite):
    for name, runs in suite["workloads"].items():
        untraced = runs["untraced"][0]["metrics"]
        assert set(untraced) == set(m.END_TO_END), name
        for metric, (unit, _, _) in m.END_TO_END.items():
            assert untraced[metric]["unit"] == unit
            assert untraced[metric]["value"] > 0, (name, metric)
        traced = runs["traced"]["metrics"]
        assert set(traced) == set(m.PER_LAYER), name
        for metric, (unit, _) in m.PER_LAYER.items():
            assert traced[metric]["unit"] == unit
            assert metric in suite["stdout"]
    # The layers a workload is there to exercise do show up on it.
    traced = {
        name: runs["traced"]["metrics"]
        for name, runs in suite["workloads"].items()
    }
    assert traced["oltp_point"]["indexes.search_us"]["value"] > 0
    assert traced["oltp_point"]["recover_s"]["value"] > 0
    assert traced["oltp_point"]["write_p50_ms"]["value"] > 0
    assert traced["chain_cached"]["cache.lookup_us_per_stmt"]["value"] > 0
    assert traced["chain_cached"]["optimizer.chain_dp_ms_per_call"]["value"] > 0
    assert traced["query_mix"]["executor.join_ms_p50"]["value"] > 0
    assert traced["query_mix"]["cache.lookup_us_per_stmt"]["value"] == 0
    if runs["traced"]["detail"]["stamp"]["nproc"] >= 2:
        assert traced["query_mix_par"]["parallel.morsels_per_stmt"]["value"] > 0


def test_nothing_failed_and_layers_account_for_the_time(suite):
    for name, runs in suite["workloads"].items():
        for result in runs["untraced"] + [runs["traced"]]:
            assert result["correct"] and result["failed"] == 0, name
            assert result["attempted"] >= 1
        accounted = runs["traced"]["metrics"]["trace.accounted_share"]
        assert accounted["value"] >= 0.9, name
        detail = runs["traced"]["detail"]
        assert detail["wrappers_restored"]
        # trace.overhead_ratio compares the same statements where it can.
        assert detail["untraced_is_replay"] == name.startswith("query_mix")


def test_serial_and_parallel_mix_count_the_same_operations(suite):
    serial = suite["workloads"]["query_mix"]["traced"]["metrics"]
    parallel = suite["workloads"]["query_mix_par"]["traced"]["metrics"]
    for metric in serial:
        if metric.startswith("instrument."):
            assert serial[metric]["value"] == parallel[metric]["value"], metric
    hashes = {
        name: runs["traced"]["detail"]["stream_hash"]
        for name, runs in suite["workloads"].items()
    }
    assert hashes["query_mix"] == hashes["query_mix_par"]


def test_stream_follows_the_seed(suite):
    first = suite["workloads"]["chain_cached"]["untraced"][0]["detail"]
    again = one_run("chain_cached", 0, seed=suite["seed"])["detail"]
    other = one_run("chain_cached", 0, seed=suite["seed"] + 1)["detail"]
    assert again["stream_hash"] == first["stream_hash"]
    assert other["stream_hash"] != first["stream_hash"]


def test_two_traced_runs_count_identically(suite):
    for name in ("oltp_point", "chain_cached"):
        first = suite["workloads"][name]["traced"]["metrics"]
        second = one_run(name, 1, seed=suite["seed"])["metrics"]
        for metric in first:
            if m.is_exact(metric):
                assert first[metric]["value"] == second[metric]["value"], (
                    name, metric)


def test_span_self_times_sum_to_the_roots(suite):
    for name in suite["workloads"]:
        path = E2E / "out" / f"trace_{name}.json"
        document = json.loads(path.read_text(encoding="utf-8"))
        columns = {c: i for i, c in enumerate(document["columns"])}
        root_layer = document["layers"].index("root")
        spans = document["spans"]
        covered = [0] * len(spans)
        roots = 0
        for span in spans:
            duration = span[columns["end_ns"]] - span[columns["start_ns"]]
            if span[columns["layer"]] == root_layer:
                roots += duration
                assert span[columns["parent"]] == -1
            else:
                parent = span[columns["parent"]]
                assert parent >= 0, "a span outside any statement"
                covered[parent] += duration
        selfs = sum(
            span[columns["end_ns"]] - span[columns["start_ns"]] - covered[i]
            for i, span in enumerate(spans)
        )
        assert roots > 0
        assert abs(selfs - roots) <= 0.01 * roots, name


def test_wrapped_functions_are_the_originals_again():
    from benchmarks.e2e.driver import traced_run
    from benchmarks.e2e.trace import layer_sites

    sites = layer_sites(per_row_layers=True)
    originals = [vars(site.owner)[site.attr] for site in sites]
    workload = WORKLOADS["oltp_point"](seed=3, scale=50)
    try:
        rec, values, detail = traced_run(workload, 0.2, None, None, {})
    finally:
        gc.unfreeze()
    assert rec.failed == 0
    assert detail["spans"] > 0
    for site, original in zip(sites, originals):
        assert vars(site.owner)[site.attr] is original, site


def test_nothing_outlives_the_suite(suite):
    assert shm_segments() <= suite["segments_before"]
    assert benchmark_processes() == []


def test_exits_nonzero_without_the_repository(tmp_path):
    """In a directory holding only the benchmark there is nothing to
    measure: no result line, a non-zero exit."""
    import shutil

    target = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(E2E, target, ignore=shutil.ignore_patterns(
        "out", "__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, str(target / "run.py"), "--workload", "oltp_point",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def slower_throughput(document):
    for run_ in document["workloads"]["oltp_point"]["untraced"]:
        run_["metrics"]["stmts_per_s"]["value"] *= 0.5


def one_more_hash(document):
    document["workloads"]["query_mix"]["traced"]["metrics"][
        "instrument.hashes_per_stmt"]["value"] += 1


def slower_writes(document):
    for run_ in document["workloads"]["chain_cached"]["untraced"]:
        run_["detail"]["extras"]["write_p50_ms"] *= 2


def no_restart_time(document):
    for run_ in document["workloads"]["oltp_point"]["untraced"]:
        del run_["detail"]["extras"]["recover_s"]


def one_failed_check(document):
    document["workloads"]["query_mix_par"]["untraced"][0]["failed"] = 1


def no_parallel_workload(document):
    del document["workloads"]["query_mix_par"]


@pytest.mark.parametrize("worsen, workload, metric", [
    (slower_throughput, "oltp_point", "stmts_per_s"),
    (one_more_hash, "query_mix", "instrument.hashes_per_stmt"),
    (slower_writes, "chain_cached", "write_p50_ms"),
    (no_restart_time, "oltp_point", "recover_s"),
    (one_failed_check, "query_mix_par", "failed_frac"),
    (no_parallel_workload, "query_mix_par", "(workload)"),
])
def test_compare_flags_a_regression(suite, tmp_path, capsys, worsen,
                                    workload, metric):
    from benchmarks.e2e import compare

    baseline = {k: suite[k] for k in ("seed", "workloads")}
    same = tmp_path / "a.json"
    same.write_text(json.dumps(baseline), encoding="utf-8")
    assert compare.main([str(same), str(same)]) == 0
    capsys.readouterr()
    candidate = json.loads(json.dumps(baseline))
    worsen(candidate)
    worse = tmp_path / "b.json"
    worse.write_text(json.dumps(candidate), encoding="utf-8")
    assert compare.main([str(same), str(worse)]) == 1
    regressed = [
        line.split()[:2] for line in capsys.readouterr().out.splitlines()
        if line.endswith("regressed")
    ]
    assert regressed == [[workload, metric]]
