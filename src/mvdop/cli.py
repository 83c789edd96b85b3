"""Command-line front end.

Subcommands: ``eval`` (single polynomial value), ``table`` (value tables in
CSV or JSON), ``verify IDENTITY`` (identity checks emitting JSON reports),
and ``conjecture`` (the aggregated suite at one (r, d)).

Each command, and each verify identity, parses exactly the flags it reads
(``_VERIFY_READS`` declares them for the identities); any other flag, and
any abbreviated one, is a usage error.

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
from .dpolys import FAMILY_PARAMS, PARAM_NAMES, FamilyParams, laguerre
from .errors import MvdopError, ParameterError, PoleError, SingularArgumentError
from .jack import JackTable, _adopt, jack_table
from .partitions import enumerate_up_to, format_partition, parse_partition

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_POLE = 3

# the families indexed by two partitions; table and verify take no other
_TWO_INDEX = ("meixner", "charlier", "krawtchouk")

# the flags each verify identity reads besides --d, --r and --out; "family"
# is --family with the family parameters, which FamilyParams checks
_VERIFY_READS = {
    "orthogonality": ("family", "--max-weight", "--truncation-weights"),
    "difference": ("family", "--max-weight"),
    "recurrence": ("family", "--max-weight"),
    "genfunc": ("family", "--degree", "--max-weight"),
    "master-genfunc": ("family", "--degree"),
    "orthogonality-generator": ("--alpha", "--c", "--degree"),
    "limits": ("--a", "--max-weight", "--scales"),
}


def _count(text: str) -> int:
    """The type of the weight and degree flags: an integer >= 0.  argparse
    refuses any other value under the flag's name, before any table is
    loaded or built."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


# how each of those flags parses
_VERIFY_FLAGS = {
    "--alpha": {"required": True},
    "--c": {"required": True},
    "--a": {"required": True},
    "--max-weight": {"type": _count, "default": 2},
    "--degree": {"type": _count, "default": 3},
    "--truncation-weights": {},
    "--scales": {"default": "100,10000,1000000"},
}


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
    r = args.r
    fp = _family_params(args)
    m = parse_partition(args.m, r)
    # Laguerre is evaluated at a diagonal point --u, the others at --x
    point, unread = ("u", "x") if fp.family == "laguerre" else ("x", "u")
    if getattr(args, unread) is not None:
        raise ParameterError(f"{fp.family} takes no --{unread}")
    if getattr(args, point) is None:
        hint = " (diagonal point)" if point == "u" else ""
        raise ParameterError(f"{fp.family} needs --{point}{hint}")
    if point == "u":
        u = tuple(_rat(t) for t in args.u.split(","))
        table = load_or_build_table(r, d, sum(m))
        value = laguerre(m, u, fp.alpha, table)
        shown = [str(v) for v in u]
    else:
        x = parse_partition(args.x, r)
        table = load_or_build_table(r, d, max(sum(m), sum(x)))
        value = fp.evaluate(m, x, table)
        shown = format_partition(x)
    payload = {"family": fp.family, "params": fp.label(), "d": str(d), "r": r,
               "m": format_partition(m), point: shown, "value": str(value)}
    print(json.dumps(payload))
    return EXIT_OK


def cmd_table(args) -> int:
    d = _rat(args.d)
    r = args.r
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


def _parse_weights(text: str) -> list:
    return verify._truncation_weights(int(t) for t in text.split(",") if t.strip())


def cmd_verify(args) -> int:
    d = _rat(args.d)
    r = args.r
    identity = args.identity
    if identity == "orthogonality":
        # parsed without defaults: the Krawtchouk sum is exact over the
        # (N, ..., N) box, to the single weight rN, and takes neither flag
        for flag in ("--max-weight", "--truncation-weights"):
            name = flag[2:].replace("-", "_")
            if getattr(args, name) is None:
                setattr(args, name, _VERIFY_FLAGS[flag].get("default"))
            elif args.family == "krawtchouk":
                raise ParameterError(
                    f"krawtchouk orthogonality is exact over the box; it takes no {flag}"
                )
        fp = _family_params(args)
        if fp.family == "krawtchouk":
            table = load_or_build_table(r, d, r * fp.N)
            rep = verify.orthogonality_krawtchouk(fp.p, fp.N, table)
        else:
            # exact or cut at weights, the sums come from binomial moments
            # and family values, which read falling rows, not the basis: the
            # table is loaded at --max-weight, as for the limits
            ts = args.truncation_weights
            ts = None if ts is None else _parse_weights(ts)
            table = load_or_build_table(r, d, args.max_weight)
            rep = verify.orthogonality(fp, args.max_weight, ts, table)
    elif identity in ("difference", "recurrence"):
        fp = _family_params(args)
        table = load_or_build_table(r, d, args.max_weight + 1)
        fn = verify.difference_equation if identity == "difference" else verify.recurrence
        rep = fn(fp, args.max_weight, table)
    elif identity == "genfunc":
        fp = _family_params(args)
        table = load_or_build_table(r, d, max(args.degree, args.max_weight))
        rep = verify.genfunc(fp, args.max_weight, args.degree, table)
    elif identity == "master-genfunc":
        fp = _family_params(args)
        table = load_or_build_table(r, d, args.degree)
        rep = verify.master_genfunc(fp, args.degree, table)
    elif identity == "orthogonality-generator":
        table = load_or_build_table(r, d, 2 * args.degree)
        rep = verify.orthogonality_generator_check(
            _rat(args.alpha), _rat(args.c), args.degree, table
        )
    else:  # limits
        table = load_or_build_table(r, d, args.max_weight)
        scales = [int(t) for t in args.scales.split(",")]
        rep = verify.limits_check(_rat(args.a), scales, args.max_weight, table)
    _write_report(rep, args.out)
    return EXIT_OK if rep.passed else EXIT_VERIFY_FAILED


def cmd_conjecture(args) -> int:
    d = _rat(args.d)
    r = args.r
    table = load_or_build_table(r, d, args.max_degree)
    rep = verify.conjecture_suite(d, r, args.max_degree, jack=table, seed=args.seed)
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
                p.add_argument(f"--{pname}", type=int if pname == "N" else None)
        p.add_argument("--d", required=True)
        p.add_argument("--r", required=True, type=int)
        for flag, kw in flags.items():
            p.add_argument(flag, **kw)
        if out:
            p.add_argument("--out")
        p.set_defaults(fn=fn)

    command(sub, "eval", cmd_eval, "evaluate one polynomial value", FAMILY_PARAMS,
            {"--m": {"required": True}, "--x": {},
             "--u": {"help": "diagonal point for laguerre, e.g. 1/2,1/3"}},
            out=False, required=True)
    command(sub, "table", cmd_table, "tabulate values over the index grid", _TWO_INDEX,
            {"--max-degree": {"required": True, "type": _count},
             "--format": {"choices": ["json", "csv"], "default": "json"}},
            required=True)
    pv = sub.add_parser("verify", help="run one identity check, write a JSON report",
                        allow_abbrev=False)
    identities = pv.add_subparsers(dest="identity", required=True)
    for identity, reads in _VERIFY_READS.items():
        flags = {flag: _VERIFY_FLAGS[flag] for flag in reads if flag != "family"}
        if identity == "orthogonality":
            flags = {flag: {**kw, "default": None} for flag, kw in flags.items()}
        families = _TWO_INDEX if "family" in reads else ()
        command(identities, identity, cmd_verify, None, families, flags, default="meixner")
    command(sub, "conjecture", cmd_conjecture, "run the aggregated suite at one (r, d)", (),
            {"--max-degree": {"type": _count, "default": 3},
             "--seed": {"type": int, "default": 20250808}})
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
    except (MvdopError, ValueError, OSError) as exc:
        # OSError: an --out path or the cache directory that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
