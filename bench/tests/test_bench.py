"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest bench/tests -q
"""

import inspect
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads
import worker
from oracles import gamma_dims, h0_dims, lyndon_count
from tracer import LAYERS, Tracer

import adamsbar.cli  # noqa: F401  (imports every layer)

# a few cheap jobs of set 0 per workload, by position in the set
SUBSETS = {"hopf": [6, 7, 8, 9], "models": [5, 6, 7, 8], "cells": [0, 1, 3]}


@pytest.fixture
def inputs():
    """Writes input sets under .bench_build/ and removes them after."""
    root = worker.BUILD / f"selftest-{os.getpid()}"

    def write(workload, index):
        jobs, files = workloads.build(workload, index)
        path = root / f"{workload}-{index}"
        path.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (path / name).write_text(text, encoding="utf-8")
        return jobs, path

    yield write
    shutil.rmtree(root, ignore_errors=True)


def recorded(workload, index):
    with open(run.BENCH / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)[workload][str(index)]


def subset(workload, jobs):
    picks = SUBSETS[workload]
    return ([jobs[k] for k in picks],
            [recorded(workload, 0)[k] for k in picks])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert workloads.build(workload, 3) == workloads.build(workload, 3)
    assert workloads.build(workload, 3) != workloads.build(workload, 4)
    jobs, files = workloads.build(workload, 3)
    assert len(jobs) >= 100
    assert len({j["id"] for j in jobs}) == len(jobs)
    assert len(set(files.values())) == len(files)  # no input repeats


def test_every_set_has_recorded_digests():
    for workload in workloads.WORKLOADS:
        for index in range(workloads.SETS):
            jobs, _ = workloads.build(workload, index)
            assert len(recorded(workload, index)) == len(jobs)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_digest_raises_failed_share(workload, inputs):
    jobs, path = inputs(workload, 0)
    jobs, expected = subset(workload, jobs)
    good = worker.run_jobs(jobs, path, expected)["jobs"]
    assert [j["problem"] for j in good] == [None] * len(jobs)
    corrupted = list(expected)
    corrupted[1] = "0" * 64
    bad = worker.run_jobs(jobs, path, corrupted)["jobs"]
    failed = [j for j in bad if j["problem"]]
    assert len(failed) / len(bad) > 0
    assert [j["id"] for j in failed] == [jobs[1]["id"]]


def _snapshot():
    """Every attribute of every adamsbar module and of its classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if not name.startswith("adamsbar"):
            continue
        for attr, obj in vars(mod).items():
            out[(name, attr)] = obj
            if inspect.isclass(obj) and obj.__module__ == name:
                for cattr, cobj in vars(obj).items():
                    out[(name, attr, cattr)] = cobj
    return out


def test_tracer_wraps_every_resolved_name_and_restores_them():
    from adamsbar import bar, cdga, cli, linalg

    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.h0_hopf is bar.h0_hopf is not before[("adamsbar.bar",
                                                          "h0_hopf")]
        assert cdga.el_add is not before[("adamsbar.cdga", "el_add")]
        assert linalg.solve is not before[("adamsbar.linalg", "solve")]
        assert cdga.CdgaPresentation.apply_d is not before[
            ("adamsbar.cdga", "CdgaPresentation", "apply_d")]
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric_and_same_digests(
        workload, inputs):
    jobs, path = inputs(workload, 0)
    jobs, expected = subset(workload, jobs)
    plain = worker.run_jobs(jobs, path, expected)
    tracer = Tracer()
    tracer.install()
    try:
        traced = worker.run_jobs(jobs, path, expected, tracer)
    finally:
        tracer.uninstall()
    traced["layers"] = tracer.layer_metrics()
    assert [j["digest"] for j in traced["jobs"]] == \
        [j["digest"] for j in plain["jobs"]] == expected
    metrics = run._layer_metrics([plain], [traced])
    assert set(metrics) == set(run.per_layer_units())
    for layer in LAYERS:
        assert f"{layer}.self_s" in metrics


def test_benchmark_json_matches_the_harness():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()


def test_generated_algebras_and_cell_modules_are_valid():
    from adamsbar import cdga, parser

    _, files = workloads.build("models", 0)
    for name, text in files.items():
        _, A = parser.parse_text(text)
        assert cdga.validate(A)[0], name
    _, files = workloads.build("cells", 0)
    _, E3 = parser.parse_text(files["e3.cdga"])
    for name, text in files.items():
        if name.endswith(".cell"):
            M = parser.bind_cell(parser.parse_text(text)[1], E3)
            assert M.check()[0], name


def test_oracles():
    assert [lyndon_count(2, w) for w in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    for k in (2, 3, 4):
        assert h0_dims([1] * k, 5) == [k ** w for w in range(6)]
        assert gamma_dims([1] * k, 5)[1:] == [lyndon_count(k, w)
                                              for w in range(1, 6)]
    # one letter of weight 1 and one of weight 2: Fibonacci numbers
    assert h0_dims([1, 2], 6) == [1, 1, 2, 3, 5, 8, 13]


def test_run_fails_without_the_program():
    bare = worker.BUILD / f"bare-{os.getpid()}"
    try:
        shutil.copytree(run.BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__",
                                                      "tests"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cells",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
