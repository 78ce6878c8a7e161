"""Self-tests of the benchmark: corpus determinism, oracles, smoke runs.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

CLI = run._import_perdec()

# one cheap job of every kind, per workload
MINI = {
    "decompose": [("factors-periodic", (2, 12, True)),
                  ("factors-fibers", (2, 28, True)), ("annihilator", (12,)),
                  ("k2", (3, 10)), ("tiling-2d", (4, 10)),
                  ("tiling-3d", (4,))],
    "convolve": [("act-window", (20, 5)), ("act-periodic", ((4, 6), 5)),
                 ("act-periodic", ((4, 4, 2), 3)), ("act-fibers", (6, 5)),
                 ("tiling-verify", (20, 3))],
    "sparse": [("sparse-full", (2, (2, 3))), ("sparseness-fibers", (3,)),
               ("sparseness-periodic", (6, 8)), ("sparseness-window", (12,)),
               ("sparse-fibers", (12,)), ("sparse-exhaust", (4,))],
}


def _files(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _mini_records(tmp_path, workload, label="a"):
    cb = corpus.build(workload, 7, str(tmp_path / "in"), MINI[workload])
    records, _ = run.run_pass(CLI, cb.jobs, str(tmp_path / "out"), label)
    return cb, records


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_byte_identical_corpus(tmp_path, workload):
    a = corpus.build(workload, 3, str(tmp_path / "a"))
    b = corpus.build(workload, 3, str(tmp_path / "b"))
    assert _files(a.root) == _files(b.root)
    assert a.digest() == b.digest()
    assert 3 * len(a.jobs) >= run.MIN_JOBS  # three passes make a run
    c = corpus.build(workload, 4, str(tmp_path / "c"))
    assert c.digest() != a.digest()


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_smoke_run_passes_every_oracle(tmp_path, workload):
    cb, records = _mini_records(tmp_path, workload)
    failures, digests, _ = run.verify(records, None)
    assert failures == []
    assert len(digests) == len(cb.jobs)


def _tamper(path):
    """Change one value of a result document."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if "values" in doc:
        first = doc["values"][0]
        if isinstance(first, dict):
            first["val"] += 1
        else:
            doc["values"][0] += 1
    elif "fibers" in doc:
        doc["fibers"][0]["vals"][0] += 1
    elif "checked" in doc:
        doc["checked"][0][1] += 1
    else:
        doc["tile_00"]["holds"] = not doc["tile_00"]["holds"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_flipped_value_counts_as_failed(tmp_path, workload):
    cb, records = _mini_records(tmp_path, workload)
    tampered = 0
    for rec in records:
        names = sorted(n for n in os.listdir(rec["out"])
                       if n != "manifest.json")
        if names:
            _tamper(os.path.join(rec["out"], names[0]))
            tampered += 1
    failures, _, _ = run.verify(records, None)
    assert tampered and len(failures) == tampered


def test_wrong_exit_code_counts_as_failed(tmp_path):
    cb, records = _mini_records(tmp_path, "sparse")
    records[0]["exit"] = 1
    records[-1]["exit"] = 0  # the planned exit-2 job
    assert records[-1]["job"]["expect_exit"] == 2
    failures, _, _ = run.verify(records, None)
    assert [f["job"] for f in failures] == [0, len(records) - 1]


def test_repeat_and_stored_digests_are_compared(tmp_path):
    cb, first = _mini_records(tmp_path, "convolve", "a")
    records, _ = run.run_pass(CLI, cb.jobs, str(tmp_path / "out"), "b")
    _, digests, _ = run.verify(first, None)
    _tamper(os.path.join(records[1]["out"], "result.json"))
    failures, _, _ = run.verify(records, digests)
    assert [f["job"] for f in failures] == [1]
    assert "result digest differs from the stored one" in \
        failures[0]["problems"]


def _benchmark_json():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_trace_reports_every_listed_metric_and_restores(tmp_path):
    bench = _benchmark_json()
    units = tracer.metric_units()
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == units
    before = CLI.main
    t = tracer.Tracer()
    t.install()
    try:
        cb, records = _mini_records(tmp_path, "decompose")
    finally:
        t.uninstall()
    assert CLI.main is before
    metrics = t.metrics(2.0, 1.0)
    assert set(metrics) == set(units)
    assert metrics["cli.job.calls"]["value"] == len(cb.jobs)
    assert metrics["lattice.hnf_reduce.calls"]["value"] > 0
    assert metrics["config.rasterize.points"]["value"] > 0
    assert all(span is not None for span in t.spans)
    failures, _, _ = run.verify(records, None)
    assert failures == []


def test_cli_prints_result_and_fails_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "sparse",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= run.MIN_JOBS
    bench = _benchmark_json()
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}

    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
