"""Tests of the benchmark itself, on small versions of its workloads."""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import oracle
import passes
import run
from spans import Spans

REPO = os.path.dirname(run.HERE)

#: One trace and one block size, or one capacity, per workload.
TINY = {
    "fig6-warm": lambda seed: passes.Fig6Warm(seed, blocks=(64,)),
    "fig5-cold": lambda seed: passes.Fig5Cold(seed, traces=("LU32",),
                                              blocks=(64,)),
    "finite-j2": lambda seed: passes.FiniteJ2(seed, capacities=(1024,)),
}
#: Not a recorded seed, so the oracle of the tiny configuration is
#: computed instead of read from digests.json.
SEED = 5


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Each tiny workload with its trace cache filled, and its oracle."""
    built = {}
    for name, factory in TINY.items():
        wl = factory(SEED)
        wl.cache_dir = passes.fill_cache(
            wl, str(tmp_path_factory.mktemp(name)))
        built[name] = (wl, oracle.digests(wl.oracle()))
    return built


def test_benchmark_json_lists_what_the_benchmark_prints():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER


@pytest.mark.parametrize("name", sorted(passes.SEEDED_CONFIGS))
def test_seeded_configs_match_the_registry(name):
    from repro.workloads.registry import make_workload

    assert passes.seeded_workload(name, 0).describe_config() == \
        make_workload(name).describe_config()


@pytest.mark.parametrize("name", list(TINY))
def test_pass_matches_the_oracle(tiny, name):
    wl, expected = tiny[name]
    attempted, failed, problems = oracle.check(wl.run_pass(), expected)
    assert (failed, problems) == (0, [])
    assert attempted == len(expected["cells"]) + 1


@pytest.mark.parametrize("name", list(TINY))
def test_traced_pass_renders_the_untraced_text(tiny, name):
    wl, expected = tiny[name]
    untraced = wl.run_pass()
    spans = Spans()
    with spans.traced_pass(0):
        traced = wl.run_traced_pass(spans)
    assert traced.text == untraced.text
    assert oracle.check(traced, expected)[1] == 0
    table = spans.layer_table(0)
    assert set(table) <= set(run.LAYERS) | {"unattributed"}
    assert math.isclose(sum(table.values()), spans.passes[0],
                        rel_tol=1e-9, abs_tol=1e-9)
    assert table["unattributed"] >= 0


def test_cache_hits_are_what_the_cache_reports(tiny, tmp_path):
    wl, _ = tiny["fig6-warm"]
    spans = Spans()
    with spans.traced_pass(0):
        wl.run_traced_pass(spans)
    assert [r["hit"] for r in spans.matching("trace.cache_get", (0,))] == \
        [True]
    # A corrupt entry is quarantined and regenerated: a miss.
    fresh = passes.Fig6Warm(SEED, blocks=(64,))
    fresh.cache_dir = passes.fill_cache(fresh, str(tmp_path))
    cache = passes.WorkloadTraceCache(fresh.cache_dir, memory=False)
    (workload,) = fresh.cache_workloads()
    with open(cache.path_for(workload), "r+b") as fh:
        fh.truncate(64)
    with pytest.warns(UserWarning, match="quarantined"):
        with spans.traced_pass(1):
            fresh.run_traced_pass(spans)
    assert [r["hit"] for r in spans.matching("trace.cache_get", (1,))] == \
        [False]


def test_kernel_modes_are_observed(tiny):
    tables = (passes.kernels.CLASSIFIER_KERNELS,
              passes.kernels.PROTOCOL_KERNELS)
    before = [dict(table) for table in tables]
    fig6, _ = tiny["fig6-warm"]
    with passes.kernel_calls() as calls:
        fig6.run_pass()
    assert set(fig6.kernel_modes(calls).values()) == {"interpreted"}
    fig5, _ = tiny["fig5-cold"]
    with passes.kernel_calls() as calls:
        fig5.run_pass()
    assert fig5.kernel_modes(calls) == {"classify.dubois": "vectorized"}
    assert [dict(table) for table in tables] == before


def test_perturbed_digest_trips_the_check(tiny):
    wl, expected = tiny["fig5-cold"]
    output = wl.run_pass()
    cell = sorted(expected["cells"])[0]
    wrong = {"cells": dict(expected["cells"], **{cell: "0" * 16}),
             "text": expected["text"]}
    attempted, failed, problems = oracle.check(output, wrong)
    assert failed == 1 and cell in problems[0]
    wrong = {"cells": expected["cells"], "text": "0" * 16}
    assert oracle.check(output, wrong)[1] == 1


def test_perturbed_digest_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(passes, "make", lambda name, seed: TINY[name](seed))
    real = oracle.expected_digests

    def perturbed(wl):
        expected, source = real(wl)
        cell = sorted(expected["cells"])[0]
        cells = dict(expected["cells"], **{cell: "0" * 16})
        return {"cells": cells, "text": expected["text"]}, source

    monkeypatch.setattr(oracle, "expected_digests", perturbed)
    code = run.main(["--workload", "fig5-cold", "--seed", str(SEED),
                     "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    # The warm-up and each of the three timed passes fail that cell.
    assert result["failed"] == 1 + run.MIN_PASSES


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_run_prints_every_metric_with_its_unit(monkeypatch, capsys, name,
                                               trace):
    monkeypatch.setattr(passes, "make", lambda name, seed: TINY[name](seed))
    code = run.main(["--workload", name, "--seed", str(SEED),
                     "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric, unit in expected.items():
        assert any(line.split()[:1] == [metric] and f" {unit}" in line
                   for line in lines[:-1]), metric
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        layers = sum(values[f"self_s.{layer}"] for layer in run.LAYERS)
        assert math.isclose(layers + values["bench.unattributed_s"],
                            values["bench.traced_pass_s"], rel_tol=1e-9)
        assert values["failed_frac"] == 0
    else:
        assert all(v > 0 for v in values.values())
        assert any(line.split()[:1] == ["failed_frac"] for line in lines)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig5-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
