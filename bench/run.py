"""mvdop benchmark: one workload, repeated in fresh interpreters.

    python3 bench/run.py --workload eqgrid|conjecture|cli --seed N \
        --seconds S --trace 0|1

Run from anywhere inside a checkout that has ``src/mvdop``; nothing is
installed.  Each repetition is a child process (``child.py``), started
only after the previous one ended, with a private MVDOP_CACHE_DIR under
``.bench_build/``: the package keeps memo caches for the life of a process,
so repetitions sharing one would measure cache hits.  Repetitions continue
while the next one is expected to end within S seconds; the first always
runs.

``--trace 0`` reports the end-to-end metrics (medians over repetitions).
``--trace 1`` alternates an untraced and a traced repetition and reports
the per-layer metrics of the traced ones plus the tracer's overhead on
``run_s``.  Either way every output is checked; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A fuller record (meta block, quartiles, every per-layer metric, the spans
of the last traced repetition) goes to ``.bench_build/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
DEADLINE_S = 170  # the whole command must end within 180 s

sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS  # noqa: E402


# ---------------------------------------------------------------------------
# children


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(BUILD / "pycache"),
        PYTHONHASHSEED="0",
        MVDOP_CACHE_DIR=str(tmp / "cache"),
        BENCH_OUT_DIR=str(tmp / "out"),
    )
    return env


def precompile():
    """Byte-compile once, so that no repetition's set-up pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "mvdop"), str(BENCH_DIR)],
        env=child_env(BUILD), check=True, stdout=subprocess.DEVNULL,
    )


def run_child(workload: str, seed: int, trace: int, size: str = "full", timeout: float = 160) -> dict:
    """One repetition in a fresh interpreter; returns its result dict, or
    one with an ``error`` when it crashed or ran out of time."""
    BUILD.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="child-", dir=BUILD))
    try:
        (tmp / "cache").mkdir()
        (tmp / "out").mkdir()
        result_path = tmp / "result.json"
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload,
               "--seed", str(seed), "--size", size, "--trace", str(trace),
               "--result", str(result_path)]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=child_env(tmp), cwd=tmp, capture_output=True,
                                  text=True, timeout=max(timeout, 1))
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {timeout:.0f} s", "wall_s": time.perf_counter() - t0}
        wall = time.perf_counter() - t0
        if proc.returncode != 0 or not result_path.exists():
            return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}", "wall_s": wall}
        result = json.loads(result_path.read_text())
        result["wall_s"] = wall
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# per-layer metrics from one traced repetition


def layer_metrics(snapshot: dict) -> dict:
    calls, self_ns, total_ns = defaultdict(int), defaultdict(int), defaultdict(int)
    under = defaultdict(int)  # (name, parent) -> calls
    for name, parent, n, total, self_t in snapshot["spans"]:
        calls[name] += n
        self_ns[name] += self_t
        under[(name, parent)] += n
        if parent != name:
            total_ns[name] += total
    counters = defaultdict(int, snapshot["counters"])

    def layer(prefix, table):
        return sum(v for k, v in table.items() if k.split(".")[0] == prefix)

    def s(ns):
        return ns / 1e9

    mul = ("symfun.SymPoly.__mul__", "symfun.TruncatedSeries.__mul__")
    evals = sum(calls[f"dpolys.{f}"] for f in ("meixner", "charlier", "krawtchouk", "laguerre"))
    rows = ("conearith.binomial_row", "conearith.falling_row")
    row_calls = sum(calls[r] for r in rows)
    row_misses = sum(counters[f"{r}.misses"] for r in rows)
    out = {
        "partitions.calls": layer("partitions", calls),
        "partitions.self_s": s(layer("partitions", self_ns)),
        "symfun.shift_by_one.calls": calls["symfun.shift_by_one_map"],
        "symfun.shift_by_one.self_s": s(self_ns["symfun.shift_by_one_map"]),
        "symfun.mul.calls": sum(calls[m] for m in mul),
        "symfun.mul.self_s": s(sum(self_ns[m] for m in mul)),
        "jack.build.self_s": s(self_ns["jack.JackTable.extend"] + self_ns["jack.jack_table"]),
        "jack.weights_built": counters["jack.weights_built"],
        "jack.dump.self_s": s(self_ns["jack.JackTable.to_json_dict"]),
        "jack.load.self_s": s(self_ns["jack.JackTable.from_json_dict"]),
        "jack.to_phi_basis.calls": calls["jack.JackTable.to_phi_basis"],
        "jack.to_phi_basis.self_s": s(self_ns["jack.JackTable.to_phi_basis"]),
        "jack.cache_entries": counters["jack.cache_entries"],
        "conearith.binomial_row.calls": calls["conearith.binomial_row"],
        "conearith.binomial_row.misses": counters["conearith.binomial_row.misses"],
        "conearith.binomial_row.self_s": s(self_ns["conearith.binomial_row"]),
        "conearith.falling_row.calls": calls["conearith.falling_row"],
        "conearith.falling_row.self_s": s(self_ns["conearith.falling_row"]),
        "conearith.row_hit_ratio": 1 - row_misses / row_calls if row_calls else 0.0,
        "conearith.gen_pochhammer.calls": calls["conearith.gen_pochhammer"],
        "conearith.gen_pochhammer.self_s": s(self_ns["conearith.gen_pochhammer"]),
        "conearith.dim_partition.calls": calls["conearith.dim_partition"],
        "dpolys.evals": evals,
        "dpolys.self_s": s(layer("dpolys", self_ns)),
        "dpolys.self_us_per_eval": layer("dpolys", self_ns) / 1e3 / evals if evals else 0.0,
        "verify.checks": counters["verify.checks"],
        "verify.failed": counters["verify.failed"],
        "verify.self_s": s(layer("verify", self_ns)),
        "cli.invocations": counters["cli.invocations"],
        "cli.nonzero_exits": counters["cli.nonzero_exits"],
        "cli.cache_loads": under[("jack.JackTable.from_json_dict", "cli.load_or_build_table")],
        "cli.cache_writes": counters["cli.cache_writes"],
        "cli.cache_bytes_written": counters["cli.cache_bytes_written"],
        "cli.self_s": s(layer("cli", self_ns)),
    }
    for name in sorted(total_ns):
        if counters[f"{name}.checks"]:  # a public check of the verify layer
            out[f"{name}.s"] = s(total_ns[name])
    return out


def count_signature(snapshot: dict) -> list:
    """Everything in a trace that must repeat exactly from run to run."""
    return [[name, parent, n] for name, parent, n, _, _ in snapshot["spans"]] + sorted(
        snapshot["counters"].items()
    )


# ---------------------------------------------------------------------------
# provenance


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mvdop").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------


def stats(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default=0, type=int, choices=[0, 1])
    ap.add_argument("--size", default="full", choices=["full", "tiny"],
                    help="tiny: the self-tests' quick version of each workload")
    args = ap.parse_args()

    if not (ROOT / "src" / "mvdop" / "__init__.py").is_file():
        print(f"error: no mvdop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    BUILD.mkdir(exist_ok=True)
    precompile()

    start = time.perf_counter()
    plan = (0, 1) if args.trace else (0,)
    children = {0: [], 1: []}
    while True:
        t0 = time.perf_counter()
        for trace in plan:
            remaining = start + DEADLINE_S - time.perf_counter()
            children[trace].append(run_child(args.workload, args.seed, trace, args.size, remaining))
        if any("error" in c for c in children[0] + children[1]):
            break
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - t0) > args.seconds:
            break

    ran = children[0] + children[1]
    ok = [c for c in ran if "error" not in c]
    attempted = sum(c["attempted"] for c in ok) + len(ran) - len(ok)
    failed = sum(c["failed"] for c in ok) + len(ran) - len(ok)
    messages = [c["error"] for c in ran if "error" in c]
    messages += [m for c in ok for m in c["messages"]]
    plain = [c for c in children[0] if "error" not in c]
    traced = [c for c in children[1] if "error" not in c]
    if not plain or (args.trace and not traced):
        print("\n".join(messages), file=sys.stderr)
        return 1
    # every repetition saw the same inputs, traced or not
    attempted += 1
    if len({c["digest"] for c in ok}) != 1:
        failed += 1
        messages.append("outputs differ between repetitions (or traced vs untraced)")

    report = {
        "meta": {
            "git_sha": git_sha(),
            "src_sha256": src_sha256(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "mvdop_version": ok[0]["mvdop_version"],
            "workload": args.workload,
            "seed": args.seed,
            "tables": ok[0]["tables"],
            "repetitions": {"untraced": len(children[0]), "traced": len(children[1])},
        },
        "metrics": {},
    }
    if args.trace:
        attempted += 1
        if len({json.dumps(count_signature(c["trace"])) for c in traced}) > 1:
            failed += 1
            messages.append("per-layer counts differ between traced repetitions")
        per_child = [layer_metrics(c["trace"]) for c in traced]
        values = {k: stats([m.get(k, 0.0) for m in per_child]) for k in per_child[0]}
        values["run_s.traced"] = stats([c["run_s"] for c in traced])
        values["run_s.untraced"] = stats([c["run_s"] for c in plain])
        values["trace.overhead_frac"] = {
            "median": values["run_s.traced"]["median"] / values["run_s.untraced"]["median"] - 1}
        report["spans"] = traced[-1]["trace"]["spans"]
        names = spec["per_layer"]
    else:
        values = {k: stats([c[k] for c in plain]) for k in ("setup_s", "run_s", "peak_rss_mb")}
        names = spec["end_to_end"]
    values["failed_frac"] = {"median": failed / attempted}
    report["metrics"] = values

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(children[0])} untraced + {len(children[1])} traced repetitions, one at a time, "
          f"{time.perf_counter() - start:.1f} s")
    print("# meta " + json.dumps(report["meta"]))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_frac"] = f"({failed} of {attempted} operations failed)"
    for name, v in values.items():
        spread = f"  q1 {v['q1']:.6g}  q3 {v['q3']:.6g}" if "q1" in v else ""
        unit = units.get(name, "s" if name.endswith(("_s", ".s")) else "")
        print(f"{name:36s} {v['median']:14.6g} {unit}{spread}")
    for m in messages[:20]:
        print(f"# FAILED: {m}")

    out_dir = BUILD / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]]["median"], "unit": m["unit"]}
                    for m in names},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
