"""Command-line front end.

Subcommands: ``eval`` (single polynomial value), ``table`` (value tables in
CSV or JSON), ``verify`` (identity checks emitting JSON reports), and
``conjecture`` (the aggregated suite at one (r, d)).

Exit codes: 0 success, 1 verification failure, 2 usage/domain error,
3 pole or singular-argument error.  Rationals cross the boundary as
strings ("7/2"); floats appear only inside reports where a closed form is
irrational.  Basis tables are cached on disk per (r, d); override the
location with the MVDOP_CACHE_DIR environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import verify
from .dpolys import FAMILY_PARAMS, PARAM_NAMES, FamilyParams, laguerre
from .errors import (
    DomainError,
    MvdopError,
    ParameterError,
    PoleError,
    SingularArgumentError,
)
from .jack import JackTable, jack_table
from .partitions import enumerate_up_to, format_partition, parse_partition

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_POLE = 3


def _rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"bad rational {text!r}: {exc}") from None


def cache_dir() -> Path:
    env = os.environ.get("MVDOP_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "mvdop"


def load_or_build_table(r: int, d: Fraction, degree: int) -> JackTable:
    """Disk-backed table: load when the cached degree suffices; extend a
    shallow cached table, or build one when there is none, and rewrite the
    file.  Cache hits are bit-identical to a fresh build because entries
    never change once computed."""
    path = cache_dir() / f"jack-r{r}-d{d.numerator}_{d.denominator}.json"
    table = None
    if path.exists():
        try:
            table = JackTable.from_json_dict(json.loads(path.read_text()))
        except (ValueError, KeyError):
            table = None
    if table is None:
        table = jack_table(r, d, degree)
    elif table.built_degree >= degree:
        return table
    else:
        table.extend(degree)
    path.parent.mkdir(parents=True, exist_ok=True)
    # a killed or concurrent writer must never leave a truncated cache file
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        tmp.write_text(json.dumps(table.to_json_dict(), indent=None, sort_keys=False))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return table


def _family_params(args) -> FamilyParams:
    kw = {}
    for name in PARAM_NAMES:
        v = getattr(args, name)
        if v is not None:
            kw[name] = v if name == "N" else _rat(v)
    return FamilyParams(args.family, **kw)


def _write_report(rep: verify.VerificationReport, out: Optional[str]) -> None:
    text = rep.to_json()
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def cmd_eval(args) -> int:
    d = _rat(args.d)
    r = int(args.r)
    fp = _family_params(args)
    m = parse_partition(args.m, r)
    if args.family == "laguerre":
        if args.u is None:
            raise ParameterError("laguerre needs --u (diagonal point)")
        u = tuple(_rat(t) for t in args.u.split(","))
        table = load_or_build_table(r, d, sum(m))
        value = laguerre(m, u, fp.alpha, table)
        payload = {
            "family": "laguerre",
            "params": fp.label(),
            "d": str(d),
            "r": r,
            "m": format_partition(m),
            "u": [str(v) for v in u],
            "value": str(value),
        }
    else:
        if args.x is None:
            raise ParameterError(f"{args.family} needs --x")
        x = parse_partition(args.x, r)
        table = load_or_build_table(r, d, max(sum(m), sum(x)))
        value = fp.evaluate(m, x, table)
        payload = {
            "family": args.family,
            "params": fp.label(),
            "d": str(d),
            "r": r,
            "m": format_partition(m),
            "x": format_partition(x),
            "value": str(value),
        }
    print(json.dumps(payload))
    return EXIT_OK


def cmd_table(args) -> int:
    d = _rat(args.d)
    r = int(args.r)
    fp = _family_params(args)
    max_degree = int(args.max_degree)
    table = load_or_build_table(r, d, max_degree)
    grid = [m for m in enumerate_up_to(r, max_degree) if fp.fits(m)]
    rows = []
    for m in grid:
        for x in grid:
            rows.append((format_partition(m), format_partition(x), str(fp.evaluate(m, x, table))))
    if args.format == "csv":
        lines = ["m,x,value"] + [f"{m} | {x} | {v}" for m, x, v in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = (
            json.dumps(
                {
                    "family": fp.family,
                    "params": fp.label(),
                    "d": str(d),
                    "r": r,
                    "rows": [{"m": m, "x": x, "value": v} for m, x, v in rows],
                },
                indent=2,
            )
            + "\n"
        )
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _parse_weights(text: str) -> list:
    return verify._truncation_weights(int(t) for t in text.split(",") if t.strip())


# the truncation flags of verify; Krawtchouk orthogonality takes neither
_TRUNCATION_DEFAULTS = {"--max-weight": 2, "--truncation-weights": "10,12,14"}


def cmd_verify(args) -> int:
    d = _rat(args.d)
    r = int(args.r)
    identity = args.identity
    for flag, default in _TRUNCATION_DEFAULTS.items():
        name = flag[2:].replace("-", "_")
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif identity == "orthogonality" and args.family == "krawtchouk":
            # exact over the (N, ..., N) box, to the single weight rN
            raise ParameterError(f"krawtchouk orthogonality is exact over the box; it takes no {flag}")
    if identity == "orthogonality":
        fp = _family_params(args)
        if fp.family == "krawtchouk":
            table = load_or_build_table(r, d, r * fp.N)
            rep = verify.orthogonality_krawtchouk(fp.p, fp.N, table)
        else:
            ts = _parse_weights(args.truncation_weights)
            table = load_or_build_table(r, d, max(ts))
            rep = verify.orthogonality(fp, int(args.max_weight), ts, table)
    elif identity in ("difference", "recurrence"):
        fp = _family_params(args)
        table = load_or_build_table(r, d, int(args.max_weight) + 1)
        fn = verify.difference_equation if identity == "difference" else verify.recurrence
        rep = fn(fp, int(args.max_weight), table)
    elif identity == "genfunc":
        fp = _family_params(args)
        degree = int(args.degree)
        table = load_or_build_table(r, d, max(degree, int(args.max_weight)))
        reps = [
            verify.genfunc_family(fp, x, degree, table)
            for x in enumerate_up_to(r, int(args.max_weight))
            if fp.fits(x)
        ]
        rep = _merge_reports(f"genfunc-{fp.family}", reps)
    elif identity == "master-genfunc":
        fp = _family_params(args)
        degree = int(args.degree)
        table = load_or_build_table(r, d, degree)
        rep = verify.master_genfunc(fp, degree, degree, table)
    elif identity == "orthogonality-generator":
        ts = _parse_weights(args.truncation_weights)
        table = load_or_build_table(r, d, max(max(ts), int(args.degree)))
        rep = verify.orthogonality_generator_check(
            _rat(args.alpha), _rat(args.c), int(args.degree), ts, table
        )
    elif identity == "limits":
        table = load_or_build_table(r, d, int(args.max_weight))
        scales = [int(t) for t in args.scales.split(",")]
        rep = verify.limits_check(_rat(args.a), scales, int(args.max_weight), table)
    else:
        raise ParameterError(f"unknown identity {identity!r}")
    _write_report(rep, args.out)
    return EXIT_OK if rep.passed else EXIT_VERIFY_FAILED


def _merge_reports(identity: str, reps: list) -> verify.VerificationReport:
    params = dict(reps[0].params) if reps else {}
    params.pop("x", None)
    merged = verify.VerificationReport(identity=identity, params=params)
    for rp in reps:
        x = rp.params.get("x")
        for case in rp.cases:
            merged.cases.append({"x": x, **case})
        if "sign_convention" in rp.params:
            merged.params.setdefault("sign_convention", rp.params["sign_convention"])
    merged.truncation = reps[0].truncation if reps else {}
    return merged.finalize()


def cmd_conjecture(args) -> int:
    d = _rat(args.d)
    r = int(args.r)
    if d <= 0:
        raise ParameterError(f"need d > 0, got {d}")
    budget = int(args.max_degree)
    table = load_or_build_table(r, d, budget)
    rep = verify.conjecture_suite(d, r, budget, jack=table, seed=int(args.seed))
    _write_report(rep, args.out)
    return EXIT_OK if rep.passed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mvdop",
        description="Exact evaluation and identity verification for "
        "partition-indexed discrete orthogonal polynomial families.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def family_flags(p, families=tuple(FAMILY_PARAMS), **family_kw):
        p.add_argument("--family", choices=list(families), **family_kw)
        for name in PARAM_NAMES:
            p.add_argument(f"--{name}", type=int if name == "N" else None)

    pe = sub.add_parser("eval", help="evaluate one polynomial value")
    family_flags(pe, required=True)
    pe.add_argument("--d", required=True)
    pe.add_argument("--r", required=True, type=int)
    pe.add_argument("--m", required=True)
    pe.add_argument("--x")
    pe.add_argument("--u", help="diagonal point for laguerre, e.g. 1/2,1/3")
    pe.set_defaults(fn=cmd_eval)

    pt = sub.add_parser("table", help="tabulate values over the index grid")
    family_flags(pt, required=True)
    pt.add_argument("--d", required=True)
    pt.add_argument("--r", required=True, type=int)
    pt.add_argument("--max-degree", dest="max_degree", required=True, type=int)
    pt.add_argument("--format", choices=["json", "csv"], default="json")
    pt.add_argument("--out")
    pt.set_defaults(fn=cmd_table)

    pv = sub.add_parser("verify", help="run one identity check, write a JSON report")
    pv.add_argument(
        "identity",
        choices=[
            "orthogonality",
            "difference",
            "recurrence",
            "genfunc",
            "master-genfunc",
            "orthogonality-generator",
            "limits",
        ],
    )
    family_flags(pv, ("meixner", "charlier", "krawtchouk"), default="meixner")
    pv.add_argument("--d", required=True)
    pv.add_argument("--r", required=True, type=int)
    pv.add_argument("--max-weight", dest="max_weight", type=int)
    pv.add_argument("--degree", type=int, default=3)
    pv.add_argument("--truncation-weights", dest="truncation_weights")
    pv.add_argument("--scales", default="100,10000,1000000")
    pv.add_argument("--out")
    pv.set_defaults(fn=cmd_verify)

    pc = sub.add_parser("conjecture", help="run the aggregated suite at one (r, d)")
    pc.add_argument("--d", required=True)
    pc.add_argument("--r", required=True, type=int)
    pc.add_argument("--max-degree", dest="max_degree", type=int, default=3)
    pc.add_argument("--seed", type=int, default=20250808)
    pc.add_argument("--out")
    pc.set_defaults(fn=cmd_conjecture)
    return ap


def main(argv: Optional[list] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (PoleError, SingularArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_POLE
    except (ParameterError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MvdopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
