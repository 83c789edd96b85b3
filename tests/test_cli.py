import json
import os
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from mvdop import cli, jack, verify
from mvdop.dpolys import FamilyParams
from mvdop.jack import JackTable


@pytest.fixture(autouse=True)
def cache_in_tmp(tmp_path, monkeypatch):
    # each test runs as a fresh process would: an empty cache directory,
    # no process-wide tables and no record of cache files read
    monkeypatch.setenv("MVDOP_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(jack, "_TABLES", {})
    monkeypatch.setattr(cli, "_READS", {})
    yield tmp_path


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_meixner_r1(capsys):
    code, out, _ = run(
        ["eval", "--family", "meixner", "--d", "1", "--r", "1",
         "--alpha", "2", "--c", "1/2", "--m", "1", "--x", "1"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["value"] == "1/2"


def test_eval_charlier_normalization(capsys):
    code, out, _ = run(
        ["eval", "--family", "charlier", "--d", "2", "--r", "2",
         "--a", "1", "--m", "0,0", "--x", "2,1"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["value"] == "1"


def test_eval_laguerre(capsys):
    code, out, _ = run(
        ["eval", "--family", "laguerre", "--d", "2", "--r", "1",
         "--alpha", "3", "--m", "1", "--u", "1/2"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["value"] == "5/2"  # alpha - u


def test_missing_parameter_exits_2(capsys):
    code, _, err = run(
        ["eval", "--family", "meixner", "--d", "1", "--r", "1",
         "--alpha", "2", "--m", "1", "--x", "1"],
        capsys,
    )
    assert code == 2
    assert "needs --c" in err


_MEIXNER_EVAL = ["eval", "--family", "meixner", "--d", "2", "--r", "2",
                 "--alpha", "7/2", "--c", "1/3", "--m", "1", "--x", "1"]


@pytest.mark.parametrize(
    "args, family, extra",
    [
        (_MEIXNER_EVAL + ["--a", "0"], "meixner", "--a"),
        (_MEIXNER_EVAL + ["--N", "5"], "meixner", "--N"),
        (["eval", "--family", "charlier", "--d", "2", "--r", "2", "--a", "2",
          "--N", "-1", "--m", "1", "--x", "1"], "charlier", "--N"),
        (["verify", "orthogonality", "--family", "charlier", "--d", "2", "--r", "2",
          "--a", "2", "--p", "1/3"], "charlier", "--p"),
    ],
)
def test_parameter_the_family_does_not_take_exits_2(args, family, extra, capsys):
    # neither checked against its meaning in another family nor carried
    # into the output: the flag is refused by name
    code, out, err = run(args, capsys)
    assert code == 2 and out == ""
    assert f"error: {family} takes no {extra}" in err


def test_pole_exits_3(capsys):
    code, _, err = run(
        ["eval", "--family", "meixner", "--d", "1", "--r", "1",
         "--alpha", "-1", "--c", "1/2", "--m", "2", "--x", "2"],
        capsys,
    )
    assert code == 3
    assert "vanishes" in err


@pytest.mark.parametrize(
    "args",
    [
        ["eval", "--family", "meixner", "--alpha", "2", "--c", "1/2", "--m", "1", "--x", "1"],
        ["table", "--family", "charlier", "--a", "1", "--max-degree", "1"],
        ["verify", "difference", "--family", "meixner", "--alpha", "2", "--c", "1/2",
         "--max-weight", "1"],
        ["conjecture"],
    ],
    ids=lambda args: args[0],
)
def test_bad_d_exits_2(args, capsys, tmp_path):
    # the table refuses d <= 0 before any cache file is written
    code, out, err = run(args + ["--d", "0", "--r", "2"], capsys)
    assert code == 2 and out == ""
    assert "error: need d > 0, got 0" in err
    assert not (tmp_path / "cache").exists()


def test_verify_krawtchouk_orthogonality_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        ["verify", "orthogonality", "--family", "krawtchouk", "--d", "2",
         "--r", "2", "--N", "2", "--p", "1/3", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    rep = json.loads(out_path.read_text())
    assert rep["summary"]["passed"] == rep["summary"]["total"]
    assert all(c["residual"] == "0" for c in rep["cases"])


def test_verify_difference_classical(capsys):
    code, out, _ = run(
        ["verify", "difference", "--family", "meixner", "--d", "2", "--r", "1",
         "--alpha", "2", "--c", "1/2", "--max-weight", "3"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["summary"]["passed"] == rep["summary"]["total"] == 16


def test_verify_failing_case_exits_1_report_still_written(tmp_path, capsys):
    # truncation far too shallow for the tolerance: the report must be
    # written and the exit code must signal verification failure
    out_path = tmp_path / "fail.json"
    code, _, _ = run(
        ["verify", "orthogonality", "--family", "meixner", "--d", "2", "--r", "2",
         "--alpha", "7/2", "--c", "1/3", "--max-weight", "2",
         "--truncation-weights", "4,6", "--out", str(out_path)],
        capsys,
    )
    assert code == 1
    rep = json.loads(out_path.read_text())
    assert rep["summary"]["passed"] < rep["summary"]["total"]


def test_verify_genfunc_records_sign(capsys):
    code, out, _ = run(
        ["verify", "genfunc", "--family", "krawtchouk", "--d", "2", "--r", "2",
         "--p", "1/3", "--N", "2", "--degree", "3", "--max-weight", "2"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["params"]["sign_convention"] in ("plus", "minus")


def test_verify_master_genfunc(capsys):
    code, out, _ = run(
        ["verify", "master-genfunc", "--family", "charlier", "--d", "5/2", "--r", "2",
         "--a", "2", "--degree", "2"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["summary"]["max_residual"] == 0.0


def test_verify_orthogonality_generator(capsys):
    code, out, _ = run(
        ["verify", "orthogonality-generator", "--d", "2", "--r", "1",
         "--alpha", "2", "--c", "1/6", "--degree", "1"],
        capsys,
    )
    assert code == 0
    assert all(case["residual"] == "0" for case in json.loads(out)["cases"])


@pytest.mark.parametrize("args", [
    ["orthogonality", "--family", "meixner", "--alpha", "7/2", "--c", "1/3", "--max-weight", "2"],
    ["orthogonality", "--family", "charlier", "--a", "2", "--max-weight", "2"],
    ["orthogonality-generator", "--alpha", "7/2", "--c", "1/3"],
])
def test_verify_orthogonality_defaults_are_exact(args, capsys):
    # without --truncation-weights the sums are exact: every residual is
    # the literal zero and the call exits 0
    code, out, _ = run(["verify", args[0], "--d", "2", "--r", "2", *args[1:]], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["summary"]["passed"] == rep["summary"]["total"] > 0
    assert all(case["residual"] == "0" for case in rep["cases"])


def test_truncated_orthogonality_loads_its_table_at_max_weight(tmp_path, monkeypatch, capsys):
    # the partial sums come from shell moments and family values, which
    # read no basis: the table is loaded at --max-weight, not at the
    # deepest truncation weight.  No (r, d) is memoized yet, as in a fresh
    # process
    monkeypatch.setattr(jack, "_TABLES", {})
    out_path = tmp_path / "orth.json"
    code, _, _ = run(
        ["verify", "orthogonality", "--family", "meixner", "--d", "2", "--r", "2",
         "--alpha", "7/2", "--c", "1/3", "--max-weight", "2",
         "--truncation-weights", "10,12,14", "--out", str(out_path)],
        capsys,
    )
    assert code == 1  # criterion 04's tolerances are out of reach at T = 14
    (cache_file,) = (tmp_path / "cache").iterdir()
    assert json.loads(cache_file.read_text())["built_degree"] == 2
    fp = FamilyParams("meixner", alpha=Fraction(7, 2), c=Fraction(1, 3))
    rep = verify.orthogonality(fp, 2, [10, 12, 14], JackTable(2, 2))
    assert out_path.read_text() == rep.to_json() + "\n"


@pytest.mark.parametrize("args", [
    ["orthogonality", "--alpha", "2", "--c", "1/2", "--truncation-weights", "4,-2"],
    ["orthogonality", "--alpha", "2", "--c", "1/8", "--max-weight", "1",
     "--truncation-weights", "30,30"],
    ["orthogonality", "--alpha", "2", "--c", "1/8", "--truncation-weights", ","],
])
def test_verify_bad_truncation_weights_exit_2(args, capsys):
    # a negative weight is never reached, a repeated one makes the
    # decrease test vacuous, and an empty list has nothing to truncate at
    code, out, err = run(["verify", args[0], "--d", "2", "--r", "1", *args[1:]], capsys)
    assert code == 2
    assert out == ""
    assert "truncation weights" in err


def test_verify_limits(capsys):
    code, out, _ = run(
        ["verify", "limits", "--d", "2", "--r", "2", "--a", "1",
         "--max-weight", "1", "--scales", "100,10000,1000000"],
        capsys,
    )
    assert code == 0


@pytest.mark.parametrize("a, scales, bad", [
    ("1", "0,1", "0"),  # alpha = N = 0 and p = a/0
    ("-1", "1,2", "1"),  # c = a/(a + scale) with a + scale = 0
    ("1", "-2,5", "-2"),
])
@pytest.mark.parametrize("max_weight", ["0", "1"])
def test_verify_limits_bad_scale_exits_2(a, scales, bad, max_weight, tmp_path, capsys):
    code, out, err = run(
        ["verify", "limits", "--d", "2", "--r", "2", "--a", a,
         "--max-weight", max_weight, f"--scales={scales}"],
        capsys,
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"scale {bad}" in err
    assert not (tmp_path / "cache").exists()


_D2R2 = ["--d", "2", "--r", "2"]


@pytest.mark.parametrize("args, message", [
    (["orthogonality-generator", *_D2R2, "--alpha", "7/2", "--c", "2"], "need 0 < c < 1, got 2"),
    (["orthogonality", *_D2R2, "--family", "meixner", "--alpha", "1/2", "--c", "1/3"],
     "need alpha > n/r - 1 = 1, got 1/2"),
    (["orthogonality", *_D2R2, "--family", "meixner", "--alpha", "7/2", "--c", "3"],
     "need 0 < c < 1, got 3"),
    (["orthogonality", *_D2R2, "--family", "krawtchouk", "--p", "3", "--N", "2"],
     "need 0 < p < 1, got 3"),
    (["master-genfunc", *_D2R2, "--family", "krawtchouk", "--p", "1/3", "--N", "2"],
     "master generating function covers meixner/charlier, got 'krawtchouk'"),
    (["limits", "--d", "2", "--r", "1", "--a", "1", "--max-weight", "4", "--scales", "3,7"],
     "need every scale >= max weight 4, got scale 3"),
    (["limits", "--d", "4", "--r", "3", "--a", "1", "--max-weight", "2", "--scales", "2,5"],
     "need (scale)_k != 0 on the grid, got scale 2: meixner (2)_k vanishes at k=1,1,0"),
    (["limits", *_D2R2, "--a", "0"], "charlier: zero parameter not allowed"),
    (["orthogonality", *_D2R2, "--family", "charlier", "--a", "-1"], "need a > 0, got -1"),
], ids=lambda v: v if isinstance(v, str) else " ".join(v[:1] + v[-2:]))
def test_refused_verify_call_writes_no_cache_file(args, message, tmp_path, capsys):
    # each check's table-free preconditions run before its table is loaded
    # or built, so a refused call leaves the cache directory empty
    code, out, err = run(["verify", *args], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert list((tmp_path / "cache").glob("*")) == []


@pytest.mark.parametrize("args, message", [
    (["--family", "krawtchouk", *_D2R2, "--p", "1/3", "--N", "2", "--m", "3,0", "--x", "0,0"],
     "krawtchouk: index 3,0 not contained in the box N=2"),
    (["--family", "laguerre", *_D2R2, "--alpha", "7/2", "--m", "1,0", "--u", "1/2"],
     "point length 1 != r = 2"),
], ids=["box", "point-length"])
def test_refused_eval_call_writes_no_cache_file(args, message, tmp_path, capsys):
    # the index box and the length of the diagonal point need no table, so
    # they are checked before one is loaded or built
    code, out, err = run(["eval", *args], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert list((tmp_path / "cache").glob("*")) == []


@pytest.mark.parametrize("args, code, expected", [
    (["eval", "--family", "meixner", "--d", "2", "--r", "1", "--alpha", "-1/2", "--c", "1/3",
      "--m", "1", "--x", "1"], 0, '"value": "5"'),
    (["eval", "--family", "krawtchouk", "--d", "2", "--r", "1", "--p", "-1/2", "--N", "2",
      "--m", "1", "--x", "1"], 0, '"value": "2"'),
    (["eval", "--family", "meixner", "--d", "2", "--r", "1", "--alpha", "2", "--c", "-3/2",
      "--m", "1", "--x", "1"], 0, '"value": "11/6"'),
    (["eval", "--family", "charlier", "--d", "2", "--r", "1", "--a", "-1/2",
      "--m", "1", "--x", "1"], 0, '"value": "3"'),
    (["eval", "--family", "charlier", "--d", "-1/2", "--r", "1", "--a", "1",
      "--m", "1", "--x", "1"], 2, "error: need d > 0, got -1/2"),
    (["eval", "--family", "laguerre", "--d", "2", "--r", "2", "--alpha", "3",
      "--m", "1", "--u", "-1/2,1/3"], 0, '"value": "37/6"'),
    (["verify", "limits", "--d", "2", "--r", "2", "--a", "1", "--scales", "-2,5"], 2,
     "error: need every scale > 0 and a + scale != 0, got scale -2"),
])
def test_negative_value_reaches_its_own_check(args, code, expected, capsys):
    # argparse takes only -<int> and -<decimal> tokens for values; a
    # negative fraction or list after its flag is a value too, not an
    # unknown flag ("expected one argument")
    got, out, err = run(args, capsys)
    assert got == code
    assert expected in (out if code == 0 else err)


@pytest.mark.parametrize("scales", ["100", "100,100", "10000,100"])
def test_verify_limits_needs_two_increasing_scales(scales, capsys):
    code, out, err = run(
        ["verify", "limits", "--d", "2", "--r", "1", "--a", "1", "--scales", scales],
        capsys,
    )
    assert code == 2 and out == ""
    assert "need two or more strictly increasing scales" in err


_MEIXNER = ["--family", "meixner", "--alpha", "2", "--c", "1/2"]


@pytest.mark.parametrize("args, flag", [
    (["verify", "difference", *_MEIXNER, "--max-weight", "-1"], "--max-weight"),
    (["verify", "recurrence", *_MEIXNER, "--max-weight", "-1"], "--max-weight"),
    (["verify", "orthogonality", *_MEIXNER, "--max-weight", "-1"], "--max-weight"),
    (["verify", "genfunc", *_MEIXNER, "--degree", "-1"], "--degree"),
    (["verify", "genfunc", *_MEIXNER, "--max-weight", "-2"], "--max-weight"),
    (["verify", "master-genfunc", *_MEIXNER, "--degree", "-1"], "--degree"),
    (["verify", "orthogonality-generator", "--alpha", "2", "--c", "1/6", "--degree", "-1"],
     "--degree"),
    (["verify", "limits", "--a", "1", "--max-weight", "-1"], "--max-weight"),
    (["table", "--family", "charlier", "--a", "2", "--max-degree", "-1"], "--max-degree"),
    (["conjecture", "--max-degree", "-1"], "--max-degree"),
])
def test_negative_weight_or_degree_exits_2_before_any_table(args, flag, tmp_path, capsys):
    # refused under its own flag's name, and no cache file is left behind
    code, out, err = run(args + ["--d", "2", "--r", "1"], capsys)
    assert code == 2 and out == ""
    assert f"argument {flag}: must be >= 0" in err
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "difference", "--family", "meixner", "--d", "2", "--r", "1",
     "--alpha", "2", "--c", "1/2", "--max-weight", "1"],
    ["table", "--family", "charlier", "--d", "2", "--r", "1", "--a", "2",
     "--max-degree", "1"],
])
def test_unwritable_out_exits_2(argv, tmp_path, capsys):
    out_path = tmp_path / "missing" / "r.json"
    code, out, err = run(argv + ["--out", str(out_path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(out_path) in err
    assert not out_path.exists()


def test_table_csv_golden(capsys):
    argv = ["table", "--family", "charlier", "--d", "2", "--r", "2",
            "--a", "2", "--max-degree", "1", "--format", "csv"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,x,value"
    assert lines[1] == "0,0 | 0,0 | 1"
    code2, out2, _ = run(argv, capsys)
    assert out2 == out  # byte-identical rerun


def test_table_symmetric_under_index_swap(capsys):
    code, out, _ = run(
        ["table", "--family", "meixner", "--d", "2", "--r", "2", "--alpha", "7/2",
         "--c", "1/3", "--max-degree", "2", "--format", "json"],
        capsys,
    )
    assert code == 0
    rows = {(row["m"], row["x"]): row["value"] for row in json.loads(out)["rows"]}
    for (m, x), v in rows.items():
        assert rows[(x, m)] == v


def test_conjecture_cli(tmp_path, capsys):
    out_path = tmp_path / "conj.json"
    code, _, _ = run(
        ["conjecture", "--d", "2", "--r", "2", "--max-degree", "2",
         "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    rep = json.loads(out_path.read_text())
    assert rep["params"]["classical"] is True


def test_cache_round_trip_bit_identical(tmp_path, capsys):
    run(["eval", "--family", "charlier", "--d", "5/2", "--r", "2",
         "--a", "1", "--m", "2,1", "--x", "1,0"], capsys)
    cache_file = next((tmp_path / "cache").glob("jack-r2-d5_2.json"))
    first = cache_file.read_text()
    cached = JackTable.from_json_dict(json.loads(first))
    fresh = JackTable(2, Fraction(5, 2))
    fresh.extend(cached.built_degree)
    assert json.dumps(fresh.to_json_dict(), indent=None, sort_keys=False) == first
    # a second run must reuse the cache unchanged
    run(["eval", "--family", "charlier", "--d", "5/2", "--r", "2",
         "--a", "1", "--m", "2,1", "--x", "1,0"], capsys)
    assert cache_file.read_text() == first


def test_written_cache_holds_the_requested_degree(tmp_path, monkeypatch, capsys):
    # the process-wide table of (2, 2) is built deeper than the call needs;
    # the file must not depend on what the process ran before
    monkeypatch.setattr(jack, "_TABLES", {})
    jack.jack_table(2, 2, 6)
    code, _, _ = run(
        ["verify", "difference", "--family", "meixner", "--d", "2", "--r", "2",
         "--alpha", "7/2", "--c", "1/3", "--max-weight", "1"],
        capsys,
    )
    assert code == 0
    (cache_file,) = (tmp_path / "cache").iterdir()
    fresh = JackTable(2, 2).extend(2)  # difference loads --max-weight + 1
    assert cache_file.read_text() == json.dumps(fresh.to_json_dict(), indent=None, sort_keys=False)


def _write_shallow_cache(tmp_path, r, d, degree):
    path = tmp_path / "cache" / f"jack-r{r}-d{d.numerator}_{d.denominator}.json"
    path.parent.mkdir(parents=True)
    text = json.dumps(JackTable(r, d).extend(degree).to_json_dict(), indent=None, sort_keys=False)
    path.write_text(text)
    return path, text


def test_shallow_cache_hit_extends_loaded_table(tmp_path, monkeypatch):
    d = Fraction(13, 4)
    path, _ = _write_shallow_cache(tmp_path, 2, d, 2)
    monkeypatch.setattr(cli, "jack_table", lambda *a: pytest.fail("shallow hit rebuilt the table"))
    assert cli.load_or_build_table(2, d, 5).built_degree == 5
    fresh = JackTable(2, d).extend(5)
    assert path.read_text() == json.dumps(fresh.to_json_dict(), indent=None, sort_keys=False)
    assert [f.name for f in path.parent.iterdir()] == [path.name]


def test_malformed_cache_key_rebuilds_the_table(tmp_path):
    d = Fraction(13, 4)
    path, text = _write_shallow_cache(tmp_path, 2, d, 3)
    path.write_text(text.replace('"2,1"', '"1,2"', 1))
    assert cli.load_or_build_table(2, d, 3).built_degree == 3
    assert path.read_text() == text


def test_failed_cache_write_keeps_old_file(tmp_path, monkeypatch):
    d = Fraction(13, 4)
    path, old = _write_shallow_cache(tmp_path, 2, d, 1)

    def no_replace(src, dst):
        raise OSError("disk went away")

    monkeypatch.setattr(cli.os, "replace", no_replace)
    with pytest.raises(OSError):
        cli.load_or_build_table(2, d, 3)
    assert path.read_text() == old
    assert [f.name for f in path.parent.iterdir()] == [path.name]


def test_conjecture_cli_non_classical_no_pole(tmp_path, capsys):
    # the Meixner alpha of every sub-check sits above the pole line, so
    # d = 14/3 (where 7/3 would make (alpha)_k vanish) runs clean
    out_path = tmp_path / "conj.json"
    code, _, err = run(
        ["conjecture", "--d", "14/3", "--r", "2", "--out", str(out_path)], capsys
    )
    assert code == 0, err
    rep = json.loads(out_path.read_text())
    assert rep["params"]["classical"] is False
    assert all(case["pass"] for case in rep["cases"])


def test_conjecture_cli_reads_and_writes_disk_cache(tmp_path, capsys):
    # the table is built to the degree budget (--max-degree, default 3)
    args = ["conjecture", "--d", "14/3", "--r", "2"]
    code, first, err = run(args, capsys)
    assert code == 0, err
    cache_file = tmp_path / "cache" / "jack-r2-d14_3.json"
    fresh = JackTable(2, Fraction(14, 3)).extend(3)
    written = cache_file.read_text()
    assert written == json.dumps(fresh.to_json_dict(), indent=None, sort_keys=False)
    code, second, err = run(args, capsys)
    assert code == 0, err
    assert second == first
    assert cache_file.read_text() == written


def test_verify_krawtchouk_recurrence_stays_in_box(capsys):
    code, out, _ = run(
        ["verify", "recurrence", "--family", "krawtchouk", "--d", "2", "--r", "2",
         "--p", "1/3", "--N", "1", "--max-weight", "2"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["summary"]["passed"] == rep["summary"]["total"] == 9


def test_verify_has_no_seed_option(capsys):
    code, _, err = run(
        ["verify", "difference", "--family", "charlier", "--d", "2", "--r", "1",
         "--a", "2", "--max-weight", "1", "--seed", "1"],
        capsys,
    )
    assert code == 2
    assert "--seed" in err


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--max-weight", "1"], "--max-weight"),
        (["--truncation-weights", "1,2"], "--truncation-weights"),
        (["--max-weight", "1", "--truncation-weights", "1,2"], "--max-weight"),
    ],
)
def test_krawtchouk_orthogonality_refuses_truncation_flags(capsys, flags, named):
    # the sum is exact over the (N, ..., N) box; a truncation flag would be
    # silently ignored, so it is refused by name
    base = ["verify", "orthogonality", "--family", "krawtchouk", "--N", "2", "--p", "1/3",
            "--d", "2", "--r", "2"]
    code, out, err = run(base + flags, capsys)
    assert code == 2
    assert out == ""
    assert named in err
    code, out, _ = run(base, capsys)
    assert code == 0
    assert json.loads(out)["summary"]["total"] == 21


def test_cache_file_of_another_table_is_rebuilt(tmp_path, monkeypatch, capsys):
    # a file that holds another (r, d) than its name is malformed: its
    # basis would silently stand in for the requested one
    argv = ["eval", "--family", "meixner", "--d", "2", "--r", "2", "--alpha", "7/2",
            "--c", "1/3", "--m", "2,1", "--x", "1,1"]
    monkeypatch.setenv("MVDOP_CACHE_DIR", str(tmp_path / "clean"))
    code, clean, _ = run(argv, capsys)
    assert code == 0 and json.loads(clean)["value"] == "23/35"
    monkeypatch.setenv("MVDOP_CACHE_DIR", str(tmp_path / "cache"))
    path = tmp_path / "cache" / "jack-r2-d2_1.json"
    path.parent.mkdir()
    path.write_text(json.dumps(JackTable(3, 2).extend(4).to_json_dict(), indent=None, sort_keys=False))
    code, out, _ = run(argv, capsys)
    assert code == 0 and out == clean
    written = path.read_text()
    cached = JackTable.from_json_dict(json.loads(written))
    assert (cached.r, cached.d) == (2, 2) and cached.built_degree >= 3
    fresh = JackTable(2, 2).extend(cached.built_degree)
    assert written == json.dumps(fresh.to_json_dict(), indent=None, sort_keys=False)


_LAGUERRE_EVAL = ["eval", "--family", "laguerre", "--d", "2", "--r", "2", "--alpha", "7/2",
                  "--m", "2,1", "--u", "1/2,1/3"]
_MEIXNER_EVAL_21 = ["eval", "--family", "meixner", "--d", "2", "--r", "2", "--alpha", "7/2",
                    "--c", "1/3", "--m", "2,1", "--x", "1,1"]


def _fresh_text(r, d, degree):
    return json.dumps(JackTable(r, d).extend(degree).to_json_dict(), indent=None, sort_keys=False)


def test_poisoned_cache_is_refused_and_rewritten(tmp_path, monkeypatch, capsys):
    # ROADMAP item 5: the one coefficient of Phi_(2,1) hand-edited to 5/7
    # made this call print 1136/63 and exit 0
    code, clean, _ = run(_LAGUERRE_EVAL, capsys)
    assert code == 0 and json.loads(clean)["value"] == "973/54"
    path = tmp_path / "cache" / "jack-r2-d2_1.json"
    data = json.loads(path.read_text())
    assert data["polys"]["2,1"] == [["2,1", "1"]]
    data["polys"]["2,1"][0][1] = "5/7"
    path.write_text(json.dumps(data, indent=None, sort_keys=False))
    # a new process: nothing in memory stands in for the file
    monkeypatch.setattr(jack, "_TABLES", {})
    monkeypatch.setattr(cli, "_READS", {})
    code, out, err = run(_LAGUERRE_EVAL, capsys)
    assert code == 0, err
    assert out == clean
    assert path.read_text() == _fresh_text(2, 2, 3)


@pytest.mark.parametrize(
    "content",
    ["[]", "null", '{"r": 2, "d": "2", "built_degree": 3, "polys": [], "principal": {}}'],
)
def test_cache_of_the_wrong_shape_is_rebuilt(content, tmp_path, capsys):
    path = tmp_path / "cache" / "jack-r2-d2_1.json"
    path.parent.mkdir()
    path.write_text(content)
    code, out, err = run(_LAGUERRE_EVAL, capsys)
    assert code == 0, err
    assert json.loads(out)["value"] == "973/54"
    assert path.read_text() == _fresh_text(2, 2, 3)


def test_cache_missing_weights_below_its_degree_is_rebuilt(tmp_path, capsys):
    path = tmp_path / "cache" / "jack-r2-d2_1.json"
    path.parent.mkdir()
    path.write_text('{"r": 2, "d": "2", "built_degree": 9, "polys": {}, "principal": {}}')
    code, out, err = run(
        ["verify", "genfunc", "--family", "meixner", "--d", "2", "--r", "2",
         "--alpha", "7/2", "--c", "1/3"],
        capsys,
    )
    assert code == 0, err
    assert json.loads(out)["summary"]["passed"] == json.loads(out)["summary"]["total"] > 0
    assert path.read_text() == _fresh_text(2, 2, 3)  # --degree 3 >= --max-weight 2


def test_each_cache_file_version_is_parsed_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "cache" / "jack-r2-d2_1.json"
    path.parent.mkdir()
    path.write_text(_fresh_text(2, 2, 4))
    parse = JackTable.from_json_dict.__func__
    parsed = []

    def spy(cls, data):
        parsed.append(data["built_degree"])
        return parse(cls, data)

    monkeypatch.setattr(JackTable, "from_json_dict", classmethod(spy))

    def call(argv=_MEIXNER_EVAL_21):
        code, out, err = run(argv, capsys)
        assert code == 0, err
        return out

    assert call() == call()
    assert parsed == [4]
    # another writer's os.replace is a new file, with a new signature
    other = path.with_name("other.tmp")
    other.write_text(_fresh_text(2, 2, 5))
    os.replace(other, path)
    call()
    call()
    assert parsed == [4, 5]
    # a shallow hit rewrites the file; a file this process wrote is read
    # again once, on its next read
    call(["verify", "difference", "--family", "meixner", "--d", "2", "--r", "2",
          "--alpha", "7/2", "--c", "1/3", "--max-weight", "5"])
    assert parsed == [4, 5]
    assert path.read_text() == _fresh_text(2, 2, 6)
    call()
    call()
    assert parsed == [4, 5, 6]


def test_loaded_table_is_the_process_table(tmp_path):
    d = Fraction(13, 4)
    path, _ = _write_shallow_cache(tmp_path, 2, d, 3)
    table = cli.load_or_build_table(2, d, 3)  # parsed, and adopted
    assert table is jack.jack_table(2, d, 0)
    assert cli.load_or_build_table(2, d, 2) is table  # the file is unchanged
    path.unlink()
    assert cli.load_or_build_table(2, d, 3) is table  # built into the process table
    assert path.read_text() == _fresh_text(2, d, 3)
    assert cli.load_or_build_table(2, 2, 2) is jack.jack_table(2, 2, 0)


def test_valid_cache_file_fills_in_the_process_table(tmp_path, monkeypatch):
    # the weights the process table lacks are copied from the file: the
    # table keeps its identity and its memo, and nothing is built
    d = Fraction(13, 4)
    _write_shallow_cache(tmp_path, 2, d, 6)
    want = JackTable(2, d).extend(6).to_json_dict()
    table = jack.jack_table(2, d, 2)
    table.cache["kept"] = True
    build = JackTable._build_weight

    def no_build(self, w):
        if w:  # weight 0 comes with every new table, the parsed one too
            pytest.fail(f"built weight {w}")
        build(self, w)

    monkeypatch.setattr(JackTable, "_build_weight", no_build)
    assert cli.load_or_build_table(2, d, 4) is table
    assert table.built_degree == 6 and table.cache["kept"]
    assert table.to_json_dict() == want


def test_repeated_eval_adds_no_cache_entries(monkeypatch, capsys):
    tables = []
    load = cli.load_or_build_table
    monkeypatch.setattr(cli, "load_or_build_table", lambda *a: tables.append(load(*a)) or tables[-1])
    run(_MEIXNER_EVAL_21, capsys)  # builds the table and writes the file
    entries = len(tables[0].cache)
    assert entries > 0
    for _ in range(2):  # the written file is parsed, then not read at all
        code, _, _ = run(_MEIXNER_EVAL_21, capsys)
        assert code == 0
        assert tables[-1] is tables[0]
        assert len(tables[0].cache) == entries


def test_verify_genfunc_failing_x_records_no_sign_convention(monkeypatch, capsys):
    # the report over every x takes the convention from its own pass/fail,
    # not from the cases at x = 0
    evaluate = FamilyParams.evaluate

    def wrong_at_one_x(self, m, x, jack):
        value = evaluate(self, m, x, jack)
        return value + 1 if tuple(x) == (1, 0) else value

    monkeypatch.setattr(FamilyParams, "evaluate", wrong_at_one_x)
    code, out, _ = run(
        ["verify", "genfunc", "--family", "krawtchouk", "--d", "2", "--r", "2",
         "--p", "1/3", "--N", "2", "--degree", "3", "--max-weight", "2"],
        capsys,
    )
    assert code == 1
    rep = json.loads(out)
    assert rep["summary"]["passed"] < rep["summary"]["total"]
    assert rep["params"]["sign_convention"] == "none"


def test_table_refuses_laguerre_before_any_work(tmp_path, capsys):
    code, out, err = run(
        ["table", "--family", "laguerre", "--d", "2", "--r", "2", "--alpha", "3",
         "--max-degree", "6"],
        capsys,
    )
    assert code == 2 and out == ""
    assert "--family" in err and "'laguerre'" in err
    assert not (tmp_path / "cache").exists()


# what each verify identity reads besides --d, --r and --out; "family" is
# --family with its five parameters
_READS = {
    "orthogonality": ("family", "--max-weight", "--truncation-weights"),
    "difference": ("family", "--max-weight"),
    "recurrence": ("family", "--max-weight"),
    "genfunc": ("family", "--degree", "--max-weight"),
    "master-genfunc": ("family", "--degree"),
    "orthogonality-generator": ("--alpha", "--c", "--degree"),
    "limits": ("--a", "--max-weight", "--scales"),
}
_FAMILY = ("--family", "--alpha", "--c", "--a", "--p", "--N")
_VALUES = {"--family": "charlier", "--alpha": "3", "--c": "1/8", "--a": "5", "--p": "1/3",
           "--N": "2", "--max-weight": "7", "--degree": "9", "--truncation-weights": "1,2",
           "--scales": "4"}
_BASE = {
    "orthogonality-generator": ["--alpha", "2", "--c", "1/6", "--degree", "1"],
    "limits": ["--a", "1", "--max-weight", "1"],
}
_UNREAD = [
    pytest.param(
        ["verify", identity, "--d", "2", "--r", "1",
         *_BASE.get(identity, ["--family", "meixner", "--alpha", "2", "--c", "1/2"]),
         flag, _VALUES[flag]],
        f"unrecognized arguments: {flag} {_VALUES[flag]}",
        id=f"{identity} {flag}",
    )
    for identity, reads in _READS.items()
    for flag in _VALUES
    if flag not in reads and not ("family" in reads and flag in _FAMILY)
] + [
    pytest.param(_MEIXNER_EVAL + ["--u", "1/2"], "error: meixner takes no --u",
                 id="eval meixner --u"),
    pytest.param(["eval", "--family", "laguerre", "--d", "2", "--r", "1", "--alpha", "3",
                  "--m", "1", "--u", "1/2", "--x", "1"], "error: laguerre takes no --x",
                 id="eval laguerre --x"),
]


@pytest.mark.parametrize("args, message", _UNREAD)
def test_flag_the_call_does_not_read_exits_2(args, message, capsys):
    # a flag that would be silently ignored is refused by name, before any work
    code, out, err = run(args, capsys)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize(
    "args, abbrev",
    [
        (["verify", "orthogonality-generator", "--d", "2", "--r", "1", "--alpha", "2",
          "--c", "1/6", "--degree", "1", "--a", "5"], "--a"),
        (["verify", "difference", "--family", "meixner", "--d", "2", "--r", "1",
          "--alpha", "2", "--c", "1/2", "--max", "1"], "--max"),
        (["conjecture", "--d", "2", "--r", "2", "--max-deg", "1"], "--max-deg"),
    ],
)
def test_abbreviated_flag_exits_2(args, abbrev, capsys):
    # an abbreviation is never expanded to the flag it is a prefix of
    code, out, err = run(args, capsys)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {abbrev} " in err


@pytest.mark.parametrize(
    "args, missing",
    [
        (["orthogonality-generator", "--c", "1/6"], "--alpha"),
        (["orthogonality-generator", "--alpha", "2"], "--c"),
        (["limits", "--max-weight", "1"], "--a"),
    ],
)
def test_verify_parameter_without_default_is_required(args, missing, capsys):
    code, out, err = run(["verify", args[0], "--d", "2", "--r", "1", *args[1:]], capsys)
    assert code == 2 and out == ""
    assert f"required: {missing}" in err


@pytest.mark.parametrize(
    "args, flag",
    [
        (["verify", "orthogonality-generator", "--alpha", "x", "--c", "1/3"], "--alpha"),
        (["verify", "limits", "--a", "x"], "--a"),
        (["verify", "limits", "--a", "1", "--scales", "100,x"], "--scales"),
        (["verify", "orthogonality", *_MEIXNER, "--truncation-weights", "4,x"],
         "--truncation-weights"),
        (["verify", "difference", "--family", "meixner", "--alpha", "2", "--c", "1/0"], "--c"),
        (["eval", "--family", "laguerre", "--alpha", "3", "--m", "1", "--u", "1/2,x"], "--u"),
        (["table", "--family", "charlier", "--a", "1/0", "--max-degree", "1"], "--a"),
        (["verify", "difference", "--family", "meixner", "--d", "x", "--alpha", "2",
          "--c", "1/2"], "--d"),
        (["conjecture", "--d", "2/0"], "--d"),
    ],
    ids=lambda v: v if isinstance(v, str) else " ".join(v[:2] if v[0] == "verify" else v[:1]),
)
def test_malformed_flag_value_exits_2_before_any_table(args, flag, tmp_path, capsys):
    # argparse parses every flag value: a malformed one is refused under
    # its flag's name, before any table is loaded, built or written
    d = [] if "--d" in args else ["--d", "2"]
    code, out, err = run(args + [*d, "--r", "2"], capsys)
    assert code == 2 and out == ""
    assert f"argument {flag}: " in err
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize(
    "args, degree",
    [
        (["orthogonality", *_MEIXNER, "--max-weight", "3"], 3),
        (["orthogonality", *_MEIXNER, "--max-weight", "2", "--truncation-weights", "6,8"], 2),
        (["orthogonality", "--family", "krawtchouk", "--p", "1/3", "--N", "2"], 4),
        (["difference", *_MEIXNER, "--max-weight", "2"], 3),
        (["recurrence", "--family", "charlier", "--a", "3/2", "--max-weight", "1"], 2),
        (["genfunc", "--family", "krawtchouk", "--p", "1/3", "--N", "2", "--degree", "2",
          "--max-weight", "3"], 3),
        (["genfunc", "--family", "charlier", "--a", "2", "--degree", "3", "--max-weight", "1"], 3),
        (["master-genfunc", "--family", "charlier", "--a", "2", "--degree", "2"], 2),
        (["orthogonality-generator", "--alpha", "2", "--c", "1/6", "--degree", "2"], 4),
        (["limits", "--a", "1", "--max-weight", "1"], 1),
    ],
    ids=lambda v: v if isinstance(v, int) else " ".join(v[:3]),
)
def test_each_identity_writes_its_declared_table_degree(args, degree, tmp_path, capsys):
    # an empty cache and no process table, as in a fresh process: the one
    # file written holds exactly the degree the identity's row declares
    code, _, _ = run(["verify", *args, "--d", "2", "--r", "2"], capsys)
    assert code in (0, 1)
    (cache_file,) = (tmp_path / "cache").iterdir()
    assert json.loads(cache_file.read_text())["built_degree"] == degree


def test_verify_row_calls_its_check_through_the_module(monkeypatch, capsys):
    # a check rebound on the verify module after import, as a tracer
    # rebinds it, is the one the identity's row calls
    calls = []
    check = verify.orthogonality_krawtchouk
    monkeypatch.setattr(verify, "orthogonality_krawtchouk",
                        lambda *a: calls.append(a) or check(*a))
    code, _, _ = run(["verify", "orthogonality", "--family", "krawtchouk", "--d", "2",
                      "--r", "2", "--N", "2", "--p", "1/3"], capsys)
    assert code == 0 and len(calls) == 1


def test_readme_commands_exit_0(tmp_path, monkeypatch, capsys):
    # every mvdop line of the README's CLI block, "\" continuations joined,
    # in an empty cache directory (the autouse fixture) and working directory
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("mvdop ")]
    assert ["verify", "limits"] in [c[1:3] for c in commands]
    monkeypatch.chdir(tmp_path)
    codes = {shlex.join(c): cli.main(c[1:]) for c in commands}
    capsys.readouterr()
    assert set(codes.values()) == {0}, codes
