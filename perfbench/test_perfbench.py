"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench -q``.

They drive ``perfbench/run.py`` the way a caller does, on short runs, so
they take a minute or two.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import streams  # noqa: E402

RESULTS = os.path.join(ROOT, ".bench_build", "perfbench")


def run(workload, seed, seconds=3, trace=0, extra=(), cwd=ROOT):
    completed = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return completed


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_same_seed_same_stream_other_seed_other_stream(workload):
    first = streams.stream_hash(streams.build(workload, 1, 20))
    assert streams.stream_hash(streams.build(workload, 1, 20)) == first
    assert streams.stream_hash(streams.build(workload, 2, 20)) != first


@pytest.mark.parametrize("seed", [streams.PRIMARY_SEED, streams.HELDOUT_SEED])
@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_layer_targeting_selfcheck(workload, seed):
    completed = run(workload, seed, seconds=4, trace=1)
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
    last = json.loads(completed.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    with open(os.path.join(RESULTS, f"result-{workload}-seed{seed}-trace1.json")) as handle:
        result = json.load(handle)
    assert result["selfcheck"] and all(result["selfcheck"].values()), result["selfcheck"]


def test_injected_wrong_cost_fails_the_run():
    completed = run("engine-cold", 1, seconds=1, extra=["--inject", "wrong-cost"])
    assert completed.returncode != 0
    last = json.loads(completed.stdout.strip().splitlines()[-1])
    assert last["failed"] >= 1 and not last["correct"]


def test_injected_stale_serve_fails_the_run():
    completed = run("http-mixed", 1, seconds=4, extra=["--inject", "stale"])
    assert completed.returncode != 0
    last = json.loads(completed.stdout.strip().splitlines()[-1])
    assert last["failed"] >= 1 and not last["correct"]


def test_compare_refuses_different_streams(tmp_path):
    base = {"provenance": {"workload": "engine-cold", "stream_sha256": "a",
                           "backend_resolution": "c", "trace": 0},
            "end_to_end": {}, "per_layer": {}}
    other = json.loads(json.dumps(base))
    other["provenance"]["stream_sha256"] = "b"
    paths = []
    for name, doc in (("a.json", base), ("b.json", other)):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    assert compare.main(paths) == 2
    other["provenance"]["stream_sha256"] = "a"
    other["provenance"]["backend_resolution"] = "numpy"
    (tmp_path / "b.json").write_text(json.dumps(other))
    assert compare.main(paths) == 2
    assert compare.main([paths[0], paths[0]]) == 0


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    completed = run("engine-cold", 1, seconds=1, cwd=str(tmp_path))
    assert completed.returncode != 0
    assert not completed.stdout.strip()
