"""Regenerate ``expected.json``, the digests the benchmark's gates compare
against: every table the workloads build, serialized as a fresh build, and
the stdout (and report file) of every variant of every CLI session call.

    python3 bench/record.py

Run it only when an output is meant to change, and say so in the change;
a speedup must leave every recorded digest as it is.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import (  # noqa: E402
    CLI_CALLS,
    EXPECTED_PATH,
    REPORT_NAME,
    WORKLOADS,
    sha256,
    table_key,
    table_text,
)


def table_specs() -> set:
    specs = set()
    for size in ("full", "tiny"):
        specs.update(WORKLOADS["eqgrid"].inputs(0, size)["tables"])
        d, r, _, degree = WORKLOADS["conjecture"].sizes[size]
        specs.add((r, d, degree))
        specs.add(WORKLOADS["cli"].sizes[size][0])
    return specs


def record_cli(scratch: Path) -> dict:
    from mvdop.cli import main

    out = {}
    for label, variants in CLI_CALLS.items():
        out[label] = {}
        for i, argv in enumerate(variants):
            run_dir = Path(tempfile.mkdtemp(dir=scratch))
            os.environ["MVDOP_CACHE_DIR"] = str(run_dir / "cache")
            argv = [a.replace("{out}", str(run_dir)) for a in argv]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(argv)
            if code != 0:
                raise SystemExit(f"{label}[{i}] exited {code}")
            entry = {"stdout": sha256(stdout.getvalue())}
            report = run_dir / REPORT_NAME
            if report.exists():
                entry["report"] = sha256(report.read_bytes())
            out[label][str(i)] = entry
    return out


def main() -> int:
    from mvdop import JackTable

    tables = {
        table_key(r, d, degree): sha256(table_text(JackTable(r, d).extend(degree)))
        for r, d, degree in sorted(table_specs())
    }
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=build))
    try:
        cli = record_cli(scratch)
    finally:
        shutil.rmtree(scratch)
    EXPECTED_PATH.write_text(json.dumps({"tables": tables, "cli": cli}, indent=1) + "\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
