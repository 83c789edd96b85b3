"""Self-tests of the benchmark, at a tiny size of each workload.

    python3 -m pytest -q bench

Every repetition runs in a fresh interpreter, exactly as in the benchmark,
so the package's process-wide memo caches never carry over between runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import BENCH_DIR, ROOT, count_signature, layer_metrics, run_child  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 11


def _child(workload, trace):
    result = run_child(workload, SEED, trace, size="tiny", timeout=120)
    assert "error" not in result, result["error"]
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["messages"]
    return result


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request):
    workload = request.param
    return workload, _child(workload, 0), _child(workload, 1), _child(workload, 1)


def test_traced_output_is_bit_identical_to_untraced(runs):
    _, plain, traced, _ = runs
    assert traced["digest"] == plain["digest"]


def test_counts_repeat_exactly_across_traced_runs(runs):
    _, _, first, second = runs
    assert count_signature(first["trace"]) == count_signature(second["trace"])
    a, b = layer_metrics(first["trace"]), layer_metrics(second["trace"])
    counts = [k for k in a if not k.endswith(("_s", ".s", "_us_per_eval"))]
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}


def test_self_times_partition_the_traced_time(runs):
    _, _, traced, _ = runs
    spans = traced["trace"]["spans"]
    assert all(self_ns >= 0 for _, _, _, _, self_ns in spans)
    top = sum(total for _, parent, _, total, _ in spans if parent == "")
    assert sum(self_ns for *_, self_ns in spans) <= top


def test_layers_are_reached(runs):
    workload, _, traced, _ = runs
    m = layer_metrics(traced["trace"])
    for name in ("partitions.calls", "jack.weights_built", "conearith.falling_row.calls",
                 "conearith.gen_pochhammer.calls", "dpolys.evals", "verify.checks"):
        assert m[name] > 0, name
    assert m["verify.failed"] == 0
    if workload == "cli":
        assert m["cli.invocations"] == len(WORKLOADS["cli"].sizes["tiny"][1])
        assert m["cli.nonzero_exits"] == 0
        assert m["cli.cache_loads"] > 0
        # the cold build, a new (r, d), and one shallow hit rewrite the cache
        assert m["cli.cache_writes"] == 3
        assert m["cli.cache_bytes_written"] > 0


def test_aliased_names_are_wrapped(runs):
    """dpolys, verify and cli import names directly; calls through those
    aliases must still be seen, with the importing layer as parent."""
    workload, _, traced, _ = runs
    edges = {(name, parent) for name, parent, n, _, _ in traced["trace"]["spans"] if n}
    assert ("conearith.falling_row", "dpolys.meixner") in edges
    assert ("dpolys.FamilyParams.evaluate", "verify.difference_residual") in edges
    if workload == "cli":
        assert ("cli.load_or_build_table", "cli.cmd_eval") in edges
        assert ("verify.orthogonality_krawtchouk", "cli.cmd_verify") in edges


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_last_line_reports_exactly_the_declared_metrics(trace, key):
    proc = _run_bench(ROOT, "--workload", "cli", "--seed", str(SEED), "--seconds", "1",
                      "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in spec[key]]
    for m in spec[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "eqgrid", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
