"""The benchmark's workloads: inputs drawn from a seed, a set-up phase, a
timed run phase, and the correctness gates applied to what the run made.

Each workload is driven by ``child.py`` in a fresh interpreter.  Nothing
here imports ``mvdop`` at module level, so that set-up time includes the
package import.  Inputs are plain data (Fractions, tuples, argv lists);
the library sees only those.

``size`` is "full" for the benchmark and "tiny" for the self-tests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction as F
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")
# the report file one CLI session call writes with --out
REPORT_NAME = "orthogonality-meixner.json"

FAMILIES = ("meixner", "charlier", "krawtchouk")


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def table_text(table) -> str:
    """A table serialized exactly as ``mvdop.cli`` writes its cache files."""
    return json.dumps(table.to_json_dict(), indent=None, sort_keys=False)


def table_key(r, d, degree) -> str:
    return f"{r},{F(d)},{degree}"


def table_meta(tables) -> list:
    return [(t.r, str(t.d), t.built_degree) for t in tables]


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


class Gate:
    """Counts attempted and failed operations and keeps the first few
    failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(what)


def check_tables(gate, tables, expected):
    """Every table the workload built must serialize to the recorded bytes:
    speedups keep cache files bit-identical."""
    for table in tables:
        key = table_key(table.r, table.d, table.built_degree)
        want = expected["tables"].get(key)
        gate.check(want is not None and sha256(table_text(table)) == want,
                   f"table {key} digest differs from the recorded one")


# ---------------------------------------------------------------------------
# eqgrid: seeded difference/recurrence grid, shaped like acceptance criterion 05


class Eqgrid:
    name = "eqgrid"
    sizes = {
        # ranks, multiplicities, parameter draws per (r, d, family), max weight
        "full": ((1, 2, 3), (F(1), F(2), F(5, 2), F(4)), 4, 3),
        "tiny": ((1, 2), (F(2),), 1, 2),
    }

    @staticmethod
    def _draw(rng, family, rank_ratio, max_m1):
        # the parameter distribution of acceptance criterion 05
        if family == "meixner":
            alpha = rank_ratio - 1 + F(rng.randint(1, 30), rng.randint(1, 6))
            while True:
                c = F(rng.randint(1, 24), rng.randint(2, 12))
                if c not in (0, 1):
                    return {"alpha": alpha, "c": c}
        if family == "charlier":
            return {"a": F(rng.randint(1, 24), rng.randint(1, 8))}
        den = rng.randint(2, 9)
        return {"p": F(rng.randint(1, den - 1), den), "N": rng.randint(max_m1, max_m1 + 3)}

    def inputs(self, seed, size):
        ranks, ds, draws, max_weight = self.sizes[size]
        rng = random.Random(seed)
        cells = []
        for r in ranks:
            for d in ds:
                rank_ratio = 1 + d / 2 * (r - 1)
                for family in FAMILIES:
                    for _ in range(draws):
                        cells.append((r, d, family, self._draw(rng, family, rank_ratio, max_weight)))
        return {"cells": cells, "max_weight": max_weight,
                "tables": sorted({(r, d, max_weight + 1) for r, d, _, _ in cells})}

    def setup(self, inp):
        import mvdop
        import mvdop.verify

        tables = {(r, d): mvdop.jack_table(r, d, degree) for r, d, degree in inp["tables"]}
        return {"inputs": inp, "tables": tables}

    def run(self, state):
        from mvdop import FamilyParams, enumerate_up_to
        from mvdop.verify import difference_residual, recurrence_residual

        inp = state["inputs"]
        residuals = []
        for r, d, family, params in inp["cells"]:
            table = state["tables"][(r, d)]
            fp = FamilyParams(family, **params)
            grid = enumerate_up_to(r, inp["max_weight"])
            for m in grid:
                for x in grid:
                    residuals.append(difference_residual(fp, m, x, table))
                    residuals.append(recurrence_residual(fp, m, x, table))
        return residuals

    def check(self, state, residuals, expected, gate):
        for res in residuals:
            gate.check(res == 0, f"nonzero residual {res}")
        tables = state["tables"].values()
        check_tables(gate, tables, expected)
        return sha256(",".join(str(res) for res in residuals)), table_meta(tables)


# ---------------------------------------------------------------------------
# conjecture: the aggregated suite of acceptance criterion 09


class Conjecture:
    name = "conjecture"
    sizes = {
        # d, r, degree budget, table degree (the deepest truncation weight)
        "full": (F(3), 3, 3, 26),
        "tiny": (F(5, 2), 1, 2, 26),
    }
    # the cases that must come out as the literal rational zero
    EXACT = ("orthogonality-krawtchouk", "difference-", "recurrence-")

    def inputs(self, seed, size):
        d, r, budget, degree = self.sizes[size]
        # conjecture_suite fixes every parameter itself and ignores seed
        return {"d": d, "r": r, "budget": budget, "degree": degree, "seed": seed}

    def setup(self, inp):
        import mvdop
        import mvdop.verify

        return {"inputs": inp, "table": mvdop.jack_table(inp["r"], inp["d"], inp["degree"])}

    def run(self, state):
        from mvdop.verify import conjecture_suite

        inp = state["inputs"]
        return conjecture_suite(inp["d"], inp["r"], inp["budget"], jack=state["table"],
                                seed=inp["seed"])

    def check(self, state, report, expected, gate):
        for case in report.cases:
            gate.check(case["pass"], f"{case['identity']} did not pass")
            if case["identity"].startswith(self.EXACT):
                gate.check(case["max_residual"] == 0.0,
                           f"{case['identity']} residual {case['max_residual']} is not 0")
        gate.check(report.passed and len(report.cases) > 0, "conjecture report did not pass")
        check_tables(gate, [state["table"]], expected)
        return sha256(report.to_json()), table_meta([state["table"]])


# ---------------------------------------------------------------------------
# cli: a README-style session of mvdop.cli.main calls in one process


def _argv(*parts):
    return [str(p) for p in parts]


# Each call offers a few argument variants; the seed picks one per call.
# Every variant's stdout digest is recorded in expected.json.
CLI_CALLS = {
    "eval-meixner": [
        _argv("eval", "--family", "meixner", "--d", 2, "--r", 2, "--alpha", a, "--c", c,
              "--m", m, "--x", x)
        for a, c, m, x in (("7/2", "1/3", "2,1", "3,0"), ("5/2", "1/4", "2,2", "3,1"),
                           ("9/2", "2/5", "3,1", "2,1"))
    ],
    "table-charlier": [
        _argv("table", "--family", "charlier", "--d", 2, "--r", 2, "--a", a,
              "--max-degree", 3, "--format", "csv")
        for a in ("2", "3/2", "5/3")
    ],
    "verify-difference-meixner": [
        _argv("verify", "difference", "--family", "meixner", "--d", 2, "--r", 1,
              "--alpha", a, "--c", c, "--max-weight", 3)
        for a, c in (("2", "1/2"), ("3", "1/3"), ("5/2", "2/3"))
    ],
    "verify-genfunc-krawtchouk": [
        _argv("verify", "genfunc", "--family", "krawtchouk", "--d", 2, "--r", 2, "--p", p,
              "--N", 2, "--degree", 3, "--max-weight", 2)
        for p in ("1/3", "1/4", "2/5")
    ],
    "verify-orthogonality-meixner-deep": [
        _argv("verify", "orthogonality", "--family", "meixner", "--d", 2, "--r", 2,
              "--alpha", "7/2", "--c", "1/3", "--max-weight", 2,
              "--truncation-weights", "38,42,46", "--out", "{out}/" + REPORT_NAME)
    ],
    "verify-recurrence-charlier": [
        _argv("verify", "recurrence", "--family", "charlier", "--d", 2, "--r", 2,
              "--a", a, "--max-weight", 3)
        for a in ("1", "5/4", "3")
    ],
    "verify-orthogonality-krawtchouk": [
        _argv("verify", "orthogonality", "--family", "krawtchouk", "--d", 2, "--r", 2,
              "--N", 2, "--p", p)
        for p in ("1/3", "1/5", "3/7")
    ],
    "eval-krawtchouk": [
        _argv("eval", "--family", "krawtchouk", "--d", 2, "--r", 2, "--p", p, "--N", 3,
              "--m", m, "--x", x)
        for p, m, x in (("1/3", "2,1", "1,1"), ("2/7", "3,0", "2,2"), ("3/4", "1,1", "3,2"))
    ],
}


class Cli:
    name = "cli"
    sizes = {
        # (r, d, degree) of the cold cache build in set-up, and the session;
        # in each size one call needs a deeper (2, 2) table than set-up wrote
        "full": ((2, F(2), 42), tuple(CLI_CALLS)),
        "tiny": ((2, F(2), 3), ("eval-meixner", "verify-difference-meixner",
                                "verify-recurrence-charlier", "verify-orthogonality-krawtchouk")),
    }

    def inputs(self, seed, size):
        cold, labels = self.sizes[size]
        rng = random.Random(seed)
        session = []
        for label in labels:
            variant = rng.randrange(len(CLI_CALLS[label]))
            session.append((label, variant))
        return {"cold": cold, "session": session, "out_dir": os.environ["BENCH_OUT_DIR"]}

    def setup(self, inp):
        import mvdop.cli

        r, d, degree = inp["cold"]
        mvdop.cli.load_or_build_table(r, d, degree)
        return {"inputs": inp}

    def after_setup(self, state):
        """Untimed: keep the bytes set-up wrote before the session rewrites
        the file.  Set-up wrote the only file in the private cache dir."""
        (path,) = Path(os.environ["MVDOP_CACHE_DIR"]).iterdir()
        state["cold_bytes"] = path.read_bytes()

    def run(self, state):
        from mvdop.cli import main

        inp = state["inputs"]
        outputs = []
        for label, variant in inp["session"]:
            argv = [a.replace("{out}", inp["out_dir"]) for a in CLI_CALLS[label][variant]]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            outputs.append((label, variant, code, stdout.getvalue(), stderr.getvalue()))
        return outputs

    def check(self, state, outputs, expected, gate):
        from mvdop import JackTable

        inp = state["inputs"]
        digests = []
        for label, variant, code, stdout, stderr in outputs:
            gate.check(code == 0, f"{label}[{variant}] exited {code}: {stderr.strip()[:200]}")
            want = expected["cli"].get(label, {}).get(str(variant), {})
            got = {"stdout": sha256(stdout)}
            report = Path(inp["out_dir"]) / REPORT_NAME
            if "report" in want:
                got["report"] = sha256(report.read_bytes()) if report.exists() else None
            gate.check(got == want, f"{label}[{variant}] output digests differ from the recorded ones")
            digests.append(f"{label}:{variant}:{code}:{sorted(got.items())}")
        r, d, degree = inp["cold"]
        fresh = table_text(JackTable(r, d).extend(degree)).encode()
        gate.check(state["cold_bytes"] == fresh,
                   "cache file written in set-up differs from a fresh build")
        gate.check(sha256(state["cold_bytes"]) == expected["tables"].get(table_key(r, d, degree)),
                   "cache file written in set-up differs from the recorded digest")
        digests.append(sha256(state["cold_bytes"]))
        tables = [json.loads(path.read_text())
                  for path in sorted(Path(os.environ["MVDOP_CACHE_DIR"]).iterdir())]
        meta = [(t["r"], t["d"], t["built_degree"]) for t in tables]
        return sha256("\n".join(digests)), meta


WORKLOADS = {w.name: w for w in (Eqgrid(), Conjecture(), Cli())}
