"""Command-line front end.

Subcommands: ``eval`` (single polynomial value), ``table`` (value tables in
CSV or JSON), ``verify IDENTITY`` (identity checks emitting JSON reports),
and ``conjecture`` (the aggregated suite at one (r, d)).

Each command, and each verify identity, parses exactly the flags it reads;
any other flag, and any abbreviated one, is a usage error.  argparse
parses every flag value, so a malformed one is refused under its flag's
name before any table is loaded.  ``_VERIFY_READS`` holds one row per
verify identity: its flags, its table-free preconditions, the degree of
its table and its check, so ``cmd_verify`` refuses a bad call before it
loads one table, and makes one call.

Exit codes: 0 success, 1 verification failure, 2 usage/domain error or a
file that cannot be written, 3 pole or singular-argument error.
Rationals cross the boundary as strings ("7/2"); floats appear only
inside reports where a closed form is irrational.  Basis tables are
cached on disk per (r, d); override the location with the MVDOP_CACHE_DIR
environment variable.  A process parses and validates each version of a
cache file once: the table read becomes, or fills in, the process-wide
table of its (r, d), so later calls in the process reuse that one table
and its row memos.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import threading
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import verify
from .dpolys import FAMILY_PARAMS, PARAM_NAMES, TWO_INDEX, FamilyParams, _check_box, laguerre
from .errors import MvdopError, ParameterError, PoleError, SingularArgumentError
from .jack import JackTable, _adopt, jack_table
from .partitions import enumerate_up_to, format_partition, parse_partition

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_POLE = 3


def _count(text: str) -> int:
    """The type of the weight and degree flags: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _rat(text: str) -> Fraction:
    """The type of --d, the family parameters and every other rational."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}") from None


def _ints(text: str) -> list:
    """The type of the integer-list flags: comma-separated integers, blank
    entries skipped."""
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


# how each flag of a verify identity parses; argparse refuses a malformed
# value under the flag's name, before any table is loaded or built
_VERIFY_FLAGS = {
    "--alpha": {"type": _rat, "required": True},
    "--c": {"type": _rat, "required": True},
    "--a": {"type": _rat, "required": True},
    "--max-weight": {"type": _count, "default": 2},
    "--degree": {"type": _count, "default": 3},
    "--truncation-weights": {"type": _ints},
    "--scales": {"type": _ints, "default": "100,10000,1000000"},
}

# one row per verify identity: the flags it reads besides --d, --r and
# --out ("family" is --family with the family parameters, which
# FamilyParams checks), its table-free preconditions from (args, fp) or
# None, the degree of its table from (args, fp), and its check from
# (args, fp, table); fp is None without "family".  The preconditions are
# the ones the check runs first, run again before the table is loaded, so
# a refused call writes no cache file.  A check looks verify.<check> up
# when it runs, so a rebound name is the one called
_VERIFY_READS = {
    # the Krawtchouk sum is exact over the (N, ..., N) box, to weight rN;
    # the others, exact or cut at weights, read moments and family values,
    # not the basis, so they load at --max-weight
    "orthogonality": (
        ("family", "--max-weight", "--truncation-weights"),
        lambda a, fp: verify._orthogonality_domain(fp, a.r, a.d),
        lambda a, fp: a.max_weight if fp.N is None else a.r * fp.N,
        lambda a, fp, t: verify.orthogonality(fp, a.max_weight, a.truncation_weights, t)
        if fp.N is None else verify.orthogonality_krawtchouk(fp.p, fp.N, t)),
    "difference": (("family", "--max-weight"), None, lambda a, fp: a.max_weight + 1,
                   lambda a, fp, t: verify.difference_equation(fp, a.max_weight, t)),
    "recurrence": (("family", "--max-weight"), None, lambda a, fp: a.max_weight + 1,
                   lambda a, fp, t: verify.recurrence(fp, a.max_weight, t)),
    "genfunc": (("family", "--degree", "--max-weight"), None,
                lambda a, fp: max(a.degree, a.max_weight),
                lambda a, fp, t: verify.genfunc(fp, a.max_weight, a.degree, t)),
    "master-genfunc": (("family", "--degree"), lambda a, fp: verify._master_domain(fp),
                       lambda a, fp: a.degree,
                       lambda a, fp, t: verify.master_genfunc(fp, a.degree, t)),
    "orthogonality-generator": (
        ("--alpha", "--c", "--degree"), lambda a, fp: verify._generator_params(a.alpha, a.c),
        lambda a, fp: 2 * a.degree,
        lambda a, fp, t: verify.orthogonality_generator_check(a.alpha, a.c, a.degree, t)),
    "limits": (("--a", "--max-weight", "--scales"),
               lambda a, fp: verify._limit_scales(a.a, a.scales, a.max_weight, a.r, a.d),
               lambda a, fp: a.max_weight,
               lambda a, fp, t: verify.limits_check(a.a, a.scales, a.max_weight, t)),
}


def cache_dir() -> Path:
    env = os.environ.get("MVDOP_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "mvdop"


# cache path -> (stat signature, built degree) of the file this process last
# parsed and validated there; a file it wrote is not recorded, so it is
# parsed once on its next read
_READS: dict = {}


def _signature(st: os.stat_result) -> tuple:
    return st.st_mtime_ns, st.st_size, st.st_ino


def load_or_build_table(r: int, d: Fraction, degree: int) -> JackTable:
    """The process-wide table of (r, d), at least to ``degree``, backed by
    the disk cache.  Each version of a cache file (its stat signature) is
    parsed and validated once per process: a valid file becomes the process
    table, or fills in the weights the process table lacks, and while the
    signature is unchanged later calls read no file.  A file deep enough is
    left as it is; a shallow one is extended through the process table, and
    a missing one, one that fails validation or one that holds another
    (r, d) than its name is built, and the file is rewritten.  The file
    written holds exactly ``degree``, also when the process-wide table was
    built deeper, so its bytes are those of ``JackTable(r, d).extend(degree)``;
    cache hits are bit-identical to a fresh build because entries never
    change once computed."""
    path = cache_dir() / f"jack-r{r}-d{d.numerator}_{d.denominator}.json"
    table = None
    read = _READS.get(path)
    try:
        unchanged = read is not None and _signature(os.stat(path)) == read[0]
    except FileNotFoundError:
        unchanged = False
    if unchanged:
        cached = read[1]
        table = jack_table(r, d, cached)
    else:
        try:
            with path.open("rb") as f:
                signature = _signature(os.fstat(f.fileno()))
                parsed = JackTable.from_json_dict(json.loads(f.read()))
        except (FileNotFoundError, ValueError):
            parsed = None
        if parsed is not None and (parsed.r, parsed.d) == (r, d):
            table, cached = _adopt(parsed), parsed.built_degree
            _READS[path] = signature, cached
    if table is None:
        table = jack_table(r, d, degree)
    elif cached >= degree:
        return table
    else:
        table.extend(degree)
    path.parent.mkdir(parents=True, exist_ok=True)
    # a killed or concurrent writer must never leave a truncated cache file
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        tmp.write_text(json.dumps(table.to_json_dict(degree), indent=None, sort_keys=False))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return table


def _family_params(args) -> FamilyParams:
    given = {name: getattr(args, name) for name in PARAM_NAMES}
    return FamilyParams(args.family, **{k: v for k, v in given.items() if v is not None})


def _write_report(rep: verify.VerificationReport, out: Optional[str]) -> None:
    text = rep.to_json()
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def cmd_eval(args) -> int:
    d, r = args.d, args.r
    fp = _family_params(args)
    m = parse_partition(args.m, r)
    # the two-index families are evaluated at --x, Laguerre at a diagonal
    # point --u; a point of the wrong length and a first index outside the
    # box need no table, so they are refused before one is loaded
    point, unread = ("x", "u") if fp.family in TWO_INDEX else ("u", "x")
    if getattr(args, unread) is not None:
        raise ParameterError(f"{fp.family} takes no --{unread}")
    if getattr(args, point) is None:
        hint = " (diagonal point)" if point == "u" else ""
        raise ParameterError(f"{fp.family} needs --{point}{hint}")
    if point == "u":
        if len(args.u) != r:
            raise ParameterError(f"point length {len(args.u)} != r = {r}")
        table = load_or_build_table(r, d, sum(m))
        value = laguerre(m, args.u, fp.alpha, table)
        shown = [str(v) for v in args.u]
    else:
        x = parse_partition(args.x, r)
        if fp.N is not None:
            _check_box(m, fp.N)
        table = load_or_build_table(r, d, max(sum(m), sum(x)))
        value = fp.evaluate(m, x, table)
        shown = format_partition(x)
    payload = {"family": fp.family, "params": fp.label(), "d": str(d), "r": r,
               "m": format_partition(m), point: shown, "value": str(value)}
    print(json.dumps(payload))
    return EXIT_OK


def cmd_table(args) -> int:
    d, r = args.d, args.r
    fp = _family_params(args)
    table = load_or_build_table(r, d, args.max_degree)
    grid = [m for m in enumerate_up_to(r, args.max_degree) if fp.fits(m)]
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


def cmd_verify(args) -> int:
    if args.identity == "orthogonality":
        # parsed without defaults: the Krawtchouk sum is exact over the
        # (N, ..., N) box, to the single weight rN, and takes neither flag
        for flag in ("--max-weight", "--truncation-weights"):
            name = flag[2:].replace("-", "_")
            if getattr(args, name) is None:
                setattr(args, name, _VERIFY_FLAGS[flag].get("default"))
            elif "N" in FAMILY_PARAMS[args.family]:
                raise ParameterError(
                    f"{args.family} orthogonality is exact over the box; it takes no {flag}"
                )
        if args.truncation_weights is not None:  # refused before any table is loaded
            verify._truncation_weights(args.truncation_weights)
    reads, refuse, degree, check = _VERIFY_READS[args.identity]
    fp = _family_params(args) if "family" in reads else None
    if refuse is not None:
        refuse(args, fp)
    table = load_or_build_table(args.r, args.d, degree(args, fp))
    rep = check(args, fp, table)
    _write_report(rep, args.out)
    return EXIT_OK if rep.passed else EXIT_VERIFY_FAILED


def cmd_conjecture(args) -> int:
    table = load_or_build_table(args.r, args.d, args.max_degree)
    rep = verify.conjecture_suite(args.d, args.r, args.max_degree, jack=table, seed=args.seed)
    _write_report(rep, args.out)
    return EXIT_OK if rep.passed else EXIT_VERIFY_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing keeps no state in the parser.  No
    # parser expands an abbreviated flag: one that names no flag of its
    # own command would otherwise silently become another flag
    ap = argparse.ArgumentParser(
        prog="mvdop",
        description="Exact evaluation and identity verification for "
        "partition-indexed discrete orthogonal polynomial families.",
        allow_abbrev=False,
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(sub, name, fn, help, families, flags, out=True, **family_kw):
        # --family and its parameters if any, --d, --r, the own flags, --out
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        if families:
            p.add_argument("--family", choices=list(families), **family_kw)
            for pname in PARAM_NAMES:
                p.add_argument(f"--{pname}", type=int if pname == "N" else _rat)
        p.add_argument("--d", required=True, type=_rat)
        p.add_argument("--r", required=True, type=int)
        for flag, kw in flags.items():
            p.add_argument(flag, **kw)
        if out:
            p.add_argument("--out")
        p.set_defaults(fn=fn)

    command(sub, "eval", cmd_eval, "evaluate one polynomial value", FAMILY_PARAMS,
            {"--m": {"required": True}, "--x": {},
             "--u": {"type": lambda text: tuple(map(_rat, text.split(","))),
                     "help": "diagonal point for laguerre, e.g. 1/2,1/3"}},
            out=False, required=True)
    command(sub, "table", cmd_table, "tabulate values over the index grid", TWO_INDEX,
            {"--max-degree": {"required": True, "type": _count},
             "--format": {"choices": ["json", "csv"], "default": "json"}},
            required=True)
    pv = sub.add_parser("verify", help="run one identity check, write a JSON report",
                        allow_abbrev=False)
    identities = pv.add_subparsers(dest="identity", required=True)
    for identity, (reads, *_) in _VERIFY_READS.items():
        flags = {flag: _VERIFY_FLAGS[flag] for flag in reads if flag != "family"}
        if identity == "orthogonality":
            flags = {flag: {**kw, "default": None} for flag, kw in flags.items()}
        families = TWO_INDEX if "family" in reads else ()
        command(identities, identity, cmd_verify, None, families, flags, default="meixner")
    command(sub, "conjecture", cmd_conjecture, "run the aggregated suite at one (r, d)", (),
            {"--max-degree": {"type": _count, "default": 3},
             "--seed": {"type": int, "default": 20250808}})
    return ap


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads only -<int> and -<decimal> as values, but no flag
    # starts with -<digit>, so "--flag -1/2" is "--flag=-1/2"
    for i in range(len(argv) - 1, 0, -1):
        flag, value = argv[i - 1 : i + 1]
        if value[:1] == "-" and value[1:2].isdigit() and flag[:2] == "--" and "=" not in flag:
            argv[i - 1 : i + 1] = [f"{flag}={value}"]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (PoleError, SingularArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_POLE
    except (MvdopError, ValueError, OSError) as exc:
        # OSError: an --out path or the cache directory that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
