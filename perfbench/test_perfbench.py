"""Tests of the benchmark itself, on the small corpus of each workload.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAMES = sorted(WORKLOADS)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def small_run(name: str, trace: bool = False, **kwargs) -> dict:
    return run.run(name, 7, 0, trace=trace, small=True, probes=0, **kwargs)


@pytest.mark.parametrize("name", NAMES)
def test_small_run_is_correct_and_reports_end_to_end_metrics(name):
    result = small_run(name)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS[name].corpus(7, True)) * run.MIN_PASSES
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_per_layer_metric(name):
    result = small_run(name, trace=True)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    # the traced passes restore every binding they patched
    assert not hasattr(sys.modules["inframono"].sandwich, "__wrapped__")


def test_traced_counts_repeat_exactly():
    first, second = (small_run("fischer", trace=True)["metrics"] for _ in range(2))
    for name in ("fischer.fischer_inner.calls", "operators.sandwich.calls", "linalg.mat_vec.calls"):
        assert first[name] == second[name] and first[name]["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_corpus_depends_only_on_seed(name):
    def corpus(seed):
        return json.dumps(WORKLOADS[name].corpus(seed, False), sort_keys=True).encode()

    assert corpus(11) == corpus(11)
    assert corpus(11) != corpus(12)


def test_fischer_corpus_mix():
    corpus = WORKLOADS["fischer"].corpus(0, False)
    assert sum(item["density"] == "sparse" for item in corpus) * 2 == len(corpus)
    assert sum(item["op"] == "tower" for item in corpus) * 4 == len(corpus)
    assert {(item["m"], item["k"]) for item in corpus} == set(workloads.Fischer.GRID)


def test_corrupted_decomposition_is_counted_as_failed(monkeypatch):
    api = sys.modules.get("inframono") or __import__("inframono")
    honest = api.fischer_decompose

    def corrupted(p):
        result = honest(p)
        return dataclasses.replace(result, infra_part=result.infra_part + 1)

    monkeypatch.setattr(api, "fischer_decompose", corrupted)
    result = small_run("fischer")
    assert not result["correct"] and result["failed"] > 0


def test_corrupted_predicate_verdicts_are_counted_as_failed(monkeypatch):
    small_run("check")  # imports the library
    api = sys.modules["inframono"]
    honest = api.predicate_report
    monkeypatch.setattr(api, "predicate_report", lambda p: {**honest(p), "biharmonic": False})
    result = small_run("check")
    assert not result["correct"] and result["failed"] > 0


def test_corrupted_sample_is_counted_as_failed(monkeypatch):
    small_run("sample")
    sampler = sys.modules["inframono"].KernelSampler
    honest = sampler.harmonic
    monkeypatch.setattr(sampler, "harmonic", lambda self, grade=None: honest(self, grade) * 0)
    result = small_run("sample")
    assert not result["correct"] and result["failed"] > 0


def test_changed_rendering_is_a_digest_mismatch(monkeypatch):
    recorded = small_run("check")["record"]["digest"]
    assert small_run("check", expected_digest=recorded)["correct"]
    monkeypatch.setattr(workloads, "render", lambda doc: json.dumps(doc, indent=1))
    result = small_run("check", expected_digest=recorded)
    assert result["failed"] == 0 and not result["correct"]
    assert not result["record"]["digest_ok"]


def test_every_workload_has_recorded_digests():
    recorded = json.loads(run.DIGESTS.read_text())
    assert sorted(recorded) == NAMES
    assert all(len(recorded[name]) >= 10 for name in NAMES)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(300) == 95.0 and run.tail_percentile(100) == 90.0
    assert run.tail_percentile(1010) == 99.0 and run.tail_percentile(12) == 50.0
    assert run.percentile([float(i) for i in range(1, 301)], 95.0) == 285.0
    # every full corpus reports p95 from its minimum number of passes
    for workload in WORKLOADS.values():
        assert run.tail_percentile(len(workload.corpus(0, False)) * run.MIN_PASSES) == 95.0


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
