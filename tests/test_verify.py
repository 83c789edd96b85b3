import json
import sys
import threading
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mvdop.conearith import cone_params, gen_pochhammer
from mvdop.dpolys import FamilyParams
from mvdop.errors import DomainError, MvdopError, ParameterError
from mvdop import dpolys, verify
from mvdop.jack import JackTable, jack_table
from mvdop.partitions import contains, enumerate_up_to, format_partition, pad, partitions_of
from mvdop.verify import (
    VerificationReport,
    conjecture_suite,
    difference_equation,
    difference_residual,
    genfunc,
    is_classical,
    limits_check,
    master_genfunc,
    orthogonality,
    orthogonality_generator_check,
    orthogonality_krawtchouk,
    recurrence,
    recurrence_residual,
)

from .oracles import (
    recurrence_residual_mirror,
    shift_equation_direct,
    shift_equation_fraction_route,
    truncated_sums_by_shells,
    univariate_meixner,
)

F = Fraction


def test_genfunc_meixner_r1_classical_display():
    # (1-z)^(-alpha) ((1-z/c)/(1-z))^x  =  sum_m (alpha)_m/m! M_m(x) z^m
    t = jack_table(1, 1, 6)
    alpha, c = F(2), F(1, 2)
    rep = genfunc(FamilyParams("meixner", alpha=alpha, c=c), 3, 6, t)
    assert rep.passed
    params = cone_params(t)
    for case in rep.cases:
        m, x = int(case["n"]), int(case["x"])
        want = (
            gen_pochhammer(alpha, (m,), params)
            / gen_pochhammer(params.rank_ratio, (m,), params)
            * univariate_meixner(m, x, alpha, c)
        )
        assert F(case["lhs"]) == want


@pytest.mark.parametrize("d", [F(2), F(3)])
def test_genfunc_families_exact(d):
    t = jack_table(2, d, 4)
    for fp in (
        FamilyParams("meixner", alpha=F(3), c=F(1, 2)),
        FamilyParams("charlier", a=F(2)),
        FamilyParams("krawtchouk", p=F(1, 3), N=2),
    ):
        rep = genfunc(fp, 3, 4, t)
        assert rep.passed, (d, fp.family)
        assert rep.summary["max_residual"] == 0.0


def test_genfunc_krawtchouk_sign_detected():
    t = jack_table(2, 2, 4)
    rep = genfunc(FamilyParams("krawtchouk", p=F(1, 3), N=2), 2, 4, t)
    assert rep.params["sign_convention"] in ("plus", "minus")
    assert rep.passed


def test_genfunc_krawtchouk_needs_boxed_argument():
    # the generating function holds only at x inside the box, so (3, 0) is
    # left out of the grid rather than reported as a failure
    t = jack_table(2, 2, 4)
    rep = genfunc(FamilyParams("krawtchouk", p=F(1, 3), N=2), 3, 4, t)
    assert rep.passed
    xs = list(dict.fromkeys(case["x"] for case in rep.cases))
    assert xs == ["0,0", "1,0", "2,0", "1,1", "2,1"]


def test_master_genfunc_exact():
    t = jack_table(2, 2, 4)
    rep = master_genfunc(FamilyParams("meixner", alpha=F(3), c=F(1, 2)), 3, t)
    assert rep.passed and rep.summary["total"] == 36
    assert rep.truncation == {"degree_first": 3, "degree_second": 3}
    rep2 = master_genfunc(FamilyParams("charlier", a=F(2)), 3, t)
    assert rep2.passed


def test_master_genfunc_r1():
    t = jack_table(1, 1, 5)
    rep = master_genfunc(FamilyParams("meixner", alpha=F(5, 2), c=F(1, 3)), 4, t)
    assert rep.passed


def test_orthogonality_krawtchouk_exact_and_offdiagonal_zero():
    t = jack_table(2, 2, 6)
    rep = orthogonality_krawtchouk(F(1, 2), 2, t)
    assert rep.passed
    for case in rep.cases:
        assert case["residual"] == "0"
        if case["m"] != case["n"]:
            assert case["lhs"] == "0"


def test_orthogonality_krawtchouk_r1_hand_case():
    t = jack_table(1, 2, 1)
    rep = orthogonality_krawtchouk(F(1, 2), 1, t)
    zero_case = next(c for c in rep.cases if c["m"] == c["n"] == "0")
    assert zero_case["lhs"] == "1" and zero_case["rhs"] == "1"


def test_orthogonality_krawtchouk_nonclassical_rank_two():
    # an integer multiplicity outside {1,2,4} at rank 2 is covered by the
    # rank-two classification, and the finite sum is exact there too
    t = jack_table(2, 3, 4)
    rep = orthogonality_krawtchouk(F(1, 3), 2, t)
    assert rep.passed and rep.summary["max_residual"] == 0.0


def test_orthogonality_krawtchouk_domain():
    t = jack_table(1, 2, 2)
    with pytest.raises(DomainError):
        orthogonality_krawtchouk(F(3, 2), 2, t)


def test_orthogonality_meixner_classical_norm():
    # r = 1, alpha = 2, c = 1/2: empty-index norm is (1-c)^(-alpha) = 4
    t = jack_table(1, 1, 30)
    rep = orthogonality(
        FamilyParams("meixner", alpha=F(2), c=F(1, 2)), 1, (20, 25, 30), t, tol_diag=F(1, 10**5), tol_off=F(1, 10**5)
    )
    assert rep.passed
    empty = next(c for c in rep.cases if c["m"] == c["n"] == "0")
    assert F(empty["rhs"]) == 4
    assert empty["residuals"][0] > empty["residuals"][-1]


def test_orthogonality_meixner_decimal_route():
    # r*alpha not an integer: closed form goes through decimal arithmetic
    t = jack_table(1, 1, 30)
    rep = orthogonality(FamilyParams("meixner", alpha=F(5, 2), c=F(1, 3)), 1, (18, 24, 30), t)
    assert rep.passed


def test_orthogonality_meixner_hypotheses():
    t = jack_table(2, 2, 10)
    with pytest.raises(DomainError):
        orthogonality(FamilyParams("meixner", alpha=F(7, 2), c=F(3, 2)), 1, (4, 6), t)
    with pytest.raises(DomainError):
        orthogonality(FamilyParams("meixner", alpha=F(1, 2), c=F(1, 3)), 1, (4, 6), t)


@pytest.mark.parametrize("ts", [(4, -2), (30, 30), (12, 30, 30), (), (6,)])
def test_truncated_checks_reject_bad_weights(ts):
    t = jack_table(1, 2, 6)
    with pytest.raises(ParameterError, match="truncation weights"):
        orthogonality(FamilyParams("meixner", alpha=2, c=F(1, 8)), 1, ts, t)


def test_orthogonality_charlier_converges():
    t = jack_table(1, 1, 26)
    rep = orthogonality(FamilyParams("charlier", a=F(1)), 1, (18, 22, 26), t)
    assert rep.passed


def test_orthogonality_checks_fail_on_a_wrong_family(monkeypatch):
    # every value taken at the parameter moved by 1/100 is a polynomial
    # family, but not the one the weight belongs to: the exact Krawtchouk
    # check and the Meixner check at an integer r*alpha (an exact norm)
    # must both fail, with the off-diagonal pair (1,0)/(1,1) left nonzero
    t = jack_table(2, 2, 4)
    true_value = FamilyParams.evaluate
    moved = {"krawtchouk": "p", "meixner": "alpha"}

    def wrong_value(fp, m, x, jack):
        name = moved[fp.family]
        return true_value(replace(fp, **{name: getattr(fp, name) + F(1, 100)}), m, x, jack)

    monkeypatch.setattr(FamilyParams, "evaluate", wrong_value)
    meixner = FamilyParams("meixner", alpha=F(7, 2), c=F(1, 3))
    for rep in (
        orthogonality_krawtchouk(F(1, 3), 2, t),
        orthogonality(meixner, 2, (26, 30, 34), t),
    ):
        assert not rep.passed
        case = next(c for c in rep.cases if (c["m"], c["n"]) == ("1,0", "1,1"))
        assert F(case["residual"]) != 0 and not case["pass"]


@pytest.mark.parametrize("r, d, max_index_weight", [(2, F(2), 2), (3, F(7, 3), 3), (4, F(5, 2), 3)])
def test_orthogonality_from_moments_is_exact(r, d, max_index_weight):
    # without truncation weights every sum is exact, the Charlier one (of
    # irrational mass e^(r a)) included
    t = JackTable(r, d)
    alpha = F(7, 2) + d / 2 * (r - 1)
    k = len(enumerate_up_to(r, max_index_weight))
    for fp in (FamilyParams("meixner", alpha=alpha, c=F(1, 3)), FamilyParams("charlier", a=F(2))):
        rep = orthogonality(fp, max_index_weight, None, t)
        assert rep.passed and rep.truncation == {"exact": True}, (r, d, fp.family)
        assert rep.summary["total"] == k * (k + 1) // 2
        assert all(case["residual"] == "0" for case in rep.cases)


@pytest.mark.parametrize("r, alpha, c, degree", [(1, F(2), F(1, 6), 3), (2, F(7, 2), F(1, 3), 2)])
def test_orthogonality_generator_is_exact(r, alpha, c, degree):
    t = JackTable(r, 2)
    rep = orthogonality_generator_check(alpha, c, degree, t)
    assert rep.passed and rep.summary["total"] == len(enumerate_up_to(r, degree)) ** 2
    assert all(case["residual"] == "0" for case in rep.cases)
    # the kernel is read at the nodes of weight <= 2 degree
    assert t.built_degree == 2 * degree


def test_moment_routes_fail_on_a_wrong_family(monkeypatch):
    # values at alpha + 1/100 (a + 1/100 for Charlier) are a polynomial
    # family, but not the one the weight belongs to: both exact routes must
    # leave an off-diagonal and a diagonal pair nonzero
    t = JackTable(2, 2)
    true_value = FamilyParams.evaluate
    moved = {"meixner": "alpha", "charlier": "a"}

    def wrong_value(fp, m, x, jack):
        name = moved[fp.family]
        return true_value(replace(fp, **{name: getattr(fp, name) + F(1, 100)}), m, x, jack)

    monkeypatch.setattr(FamilyParams, "evaluate", wrong_value)
    families = (FamilyParams("meixner", alpha=F(7, 2), c=F(1, 3)), FamilyParams("charlier", a=F(2)))
    reports = [(orthogonality(fp, 2, None, t), (("1,0", "1,1"), ("2,0", "2,0"))) for fp in families]
    reports.append(
        (orthogonality_generator_check(F(7, 2), F(1, 3), 2, t), (("1,0", "0,0"), ("2,0", "2,0")))
    )
    for rep, named in reports:
        assert not rep.passed
        cases = {(c["m"], c["n"]): c for c in rep.cases}
        for pair in named:
            assert F(cases[pair]["residual"]) != 0 and not cases[pair]["pass"], (rep.identity, pair)


def test_exact_norm_bounds_the_truncated_partial_sums():
    # r alpha = 7, so the mass (1 - c)^(-7) is rational: the exact norm
    # over the mass, times the mass, minus a partial sum is the exact tail,
    # which is positive on the diagonal and shrinks as the cut deepens
    t = JackTable(2, 2)
    fp = FamilyParams("meixner", alpha=F(7, 2), c=F(1, 3))
    mass = (1 - fp.c) ** -7
    exact = {(c["m"], c["n"]): mass * F(c["lhs"]) for c in orthogonality(fp, 2, None, t).cases}
    tails = {}
    for cut in (10, 12, 14):
        for case in orthogonality(fp, 2, (cut - 1, cut), t).cases:
            if case["m"] == case["n"]:
                pair = case["m"], case["n"]
                tails.setdefault(pair, []).append(exact[pair] - F(case["lhs"]))
    assert len(tails) == 4
    for pair, tail in tails.items():
        assert 0 < tail[2] < tail[1] < tail[0], pair


def _shell_cases():
    # Meixner at an integer and a non-integer r alpha, and Charlier
    for r in (1, 2, 3):
        for d in (F(2), F(5, 2), F(7, 3)):
            rank_ratio = 1 + d / 2 * (r - 1)
            alpha = F(int(r * rank_ratio) + 1, r)
            for fp in (FamilyParams("meixner", alpha=alpha, c=F(2, 5)),
                       FamilyParams("meixner", alpha=alpha + F(1, 2 * r + 1), c=F(1, 3)),
                       FamilyParams("charlier", a=F(3, 2))):
                yield r, d, fp


@pytest.mark.parametrize("r, d, fp", list(_shell_cases()))
def test_shell_moments_match_shell_oracle(r, d, fp):
    # every partial sum at every cut T, T = 0 and T below |m| + |n|
    # included, equals the sum added up shell by shell over every x
    t = JackTable(r, d)
    max_index_weight = 2 if r < 3 else 1
    cuts = list(range(0, 8 if r < 3 else 6))
    snapshots, tail = truncated_sums_by_shells(fp, max_index_weight, cuts, t)
    idx = enumerate_up_to(r, max_index_weight)

    def values(x):
        return {m: fp.evaluate(m, x, t) for m in idx}

    vals = {x: values(x) for x in enumerate_up_to(r, 2 * max_index_weight)}
    for cut in cuts:
        for (m, n), want in snapshots[cut].items():
            ell = verify._node_weights(fp, sum(m) + sum(n), cut, t)
            got = sum(l * vals[x][m] * vals[x][n] for x, l in ell.items())
            assert got == want, (cut, m, n)
    assert verify._tail_estimate(fp, values, cuts[-1], t) == tail
    # the report's last partial sums are the exact fractions too
    rep = orthogonality(fp, max_index_weight, cuts[-2:], t)
    last = {(format_partition(m), format_partition(n)): v
            for (m, n), v in snapshots[cuts[-1]].items()}
    assert {(c["m"], c["n"]): F(c["lhs"]) for c in rep.cases} == last


@pytest.mark.parametrize("r, d, fp", list(_shell_cases()))
def test_shell_moment_series_resumes_in_any_cut_order(r, d, fp):
    # a deeper cut continues the memoized series of its node weight, a
    # shallower one reads it; either way each moment equals the one a
    # fresh table computes in a single pass
    t = JackTable(r, d)
    for cut in (7, 3, 12, 0, 9, 12, 5):
        for K in range(0, 10):
            want = verify._shell_moment(fp, K, cut, JackTable(r, d))
            assert verify._shell_moment(fp, K, cut, t) == want, (cut, K)


@pytest.mark.parametrize("r, ts", [(1, (6, 9)), (1, (30, 40)), (2, (6, 9)), (2, (30, 40))])
def test_truncated_sums_evaluate_only_nodes_and_the_deepest_shell(monkeypatch, r, ts):
    # the partial sums read the family at the nodes |x| <= 2 max_weight,
    # and the tail estimate at the deepest shell; no other shell is visited
    calls = []
    true_value = FamilyParams.evaluate

    def counted(fp, m, x, jack):
        calls.append(x)
        return true_value(fp, m, x, jack)

    monkeypatch.setattr(FamilyParams, "evaluate", counted)
    max_weight = 2
    t = JackTable(r, 2)
    idx = enumerate_up_to(r, max_weight)
    nodes = enumerate_up_to(r, 2 * max_weight)
    shell = list(partitions_of(max(ts), r))
    for fp in (FamilyParams("meixner", alpha=F(7, 2), c=F(1, 3)), FamilyParams("charlier", a=F(2))):
        calls.clear()
        orthogonality(fp, max_weight, ts, t)
        assert len(calls) == len(idx) * (len(nodes) + len(shell))
        assert {x for x in calls if sum(x) > 2 * max_weight} == set(shell)


@pytest.mark.parametrize("r, d, N", [(1, F(2), 3), (2, F(3), 2), (2, F(5, 2), 1), (3, F(7, 3), 1)])
def test_krawtchouk_orthogonality_reads_only_box_points(monkeypatch, r, d, N):
    # the exact Krawtchouk sum through orthogonality is the finite box sum
    # of orthogonality_krawtchouk: the same cases, from the family at the
    # box points only, not at binomial-moment nodes up to twice the index
    # weight
    p = F(2, 7)
    finite = orthogonality_krawtchouk(p, N, JackTable(r, d))
    calls = []
    true_value = FamilyParams.evaluate

    def counted(fp, m, x, jack):
        calls.append(x)
        return true_value(fp, m, x, jack)

    monkeypatch.setattr(FamilyParams, "evaluate", counted)
    fp = FamilyParams("krawtchouk", p=p, N=N)
    max_weight = r * N
    rep = orthogonality(fp, max_weight, None, JackTable(r, d))
    keys = ("m", "n", "lhs", "rhs", "residual")
    assert rep.passed
    assert [[c[k] for k in keys] for c in rep.cases] == [[c[k] for k in keys] for c in finite.cases]
    # the box points are the points of nonzero weight
    idx = [m for m in enumerate_up_to(r, max_weight) if fp.fits(m)]
    box = [x for x in enumerate_up_to(r, max_weight) if fp.fits(x)]
    assert len(calls) == len(idx) * len(box)
    assert set(calls) == set(box)


@pytest.mark.parametrize("r, d, N", [(1, F(2), 3), (2, F(3), 2), (3, F(7, 3), 1)])
def test_krawtchouk_cut_sums_match_shell_oracle(r, d, N):
    # cut at T, the box rule sums the box points of weight <= T only:
    # every partial sum, below rN and past it, equals the sum added up
    # shell by shell
    fp = FamilyParams("krawtchouk", p=F(2, 7), N=N)
    t = JackTable(r, d)
    cuts = list(range(r * N + 2))
    snapshots, _ = truncated_sums_by_shells(fp, 2, cuts, t)
    for cut in cuts[1:]:
        rep = orthogonality(fp, 2, (cut - 1, cut), t)
        last = {(format_partition(m), format_partition(n)): v
                for (m, n), v in snapshots[cut].items()}
        assert {(c["m"], c["n"]): F(c["lhs"]) for c in rep.cases} == last, cut


def test_krawtchouk_tail_past_the_box_evaluates_no_weight(monkeypatch):
    # every Krawtchouk weight past rN is 0, so a cut past the box has a
    # zero tail estimate without a walk over its shell
    r, N = 3, 1
    past = []
    true_weight = verify.weight_factor

    def counted(x, jack, s=None):
        if sum(x) > r * N:
            past.append(x)
        return true_weight(x, jack, s)

    monkeypatch.setattr(verify, "weight_factor", counted)
    fp = FamilyParams("krawtchouk", p=F(1, 3), N=N)
    rep = orthogonality(fp, 1, (0, 40), JackTable(r, 2))
    assert rep.passed and rep.truncation["tail_estimate"] == 0.0
    assert past == []
    # the last shell of the box still has points of nonzero weight
    rep = orthogonality(fp, 1, (0, r * N), JackTable(r, 2))
    assert rep.truncation["tail_estimate"] > 0


def test_difference_equation_r1_matches_classical_three_term():
    # independent check against the classical display
    t = jack_table(1, 1, 8)
    alpha, c = F(2), F(1, 2)
    fp = FamilyParams("meixner", alpha=alpha, c=c)
    for m in range(4):
        for x in range(5):
            res = difference_residual(fp, (m,), (x,), t)
            M = lambda xx: univariate_meixner(m, xx, alpha, c) if xx >= 0 else F(0)
            classical = (
                (c - 1) * m * M(x)
                - (c * (x + alpha) * M(x + 1) - (x + (x + alpha) * c) * M(x) + x * M(x - 1))
            )
            assert res == classical == 0


@pytest.mark.parametrize("d", [F(1), F(2), F(5, 2), F(4), F(1, 2)])
def test_difference_and_recurrence_exact(d):
    t = jack_table(2, d, 5)
    fps = (
        FamilyParams("meixner", alpha=F(7, 3), c=F(3, 5)),
        FamilyParams("charlier", a=F(5, 4)),
        FamilyParams("krawtchouk", p=F(2, 7), N=3),
    )
    grid = enumerate_up_to(2, 3)
    for fp in fps:
        for m in grid:
            if fp.family == "krawtchouk" and m[0] > 3:
                continue
            for x in grid:
                assert difference_residual(fp, m, x, t) == 0
                assert recurrence_residual(fp, m, x, t) == 0


class _Skewed(FamilyParams):
    """A family whose values are read at a point moved off the one its
    shift triple describes, so its residuals need not vanish.  Every value
    of the residual comes from the point, the centre value through
    ``evaluate`` and the others through the first-index row, so the oracles
    see the same family as the package."""

    @property
    def point(self):
        s, z = super().point
        return s, z + F(1, 7)

    def evaluate(self, m, x, jack):
        return dpolys._kernel(jack, pad(m, jack.r), pad(x, jack.r), *self.point)


def test_recurrence_is_difference_under_duality_swap():
    # the package derives the recurrence from the difference equation by
    # swapping the indices; the oracle writes it out in the first index
    t = jack_table(2, F(5, 2), 6)
    grid = enumerate_up_to(2, 4)
    families = (
        ("meixner", dict(alpha=F(7, 3), c=F(3, 5))),
        ("charlier", dict(a=F(5, 4))),
        # max weight 4 > N = 2: the second index leaves the box
        ("krawtchouk", dict(p=F(2, 7), N=2)),
    )
    for family, kw in families:
        for cls in (FamilyParams, _Skewed):
            fp = cls(family, **kw)
            nonzero = 0
            for m in grid:
                if family == "krawtchouk" and not contains(m, (2, 2)):
                    continue
                for x in grid:
                    got = recurrence_residual(fp, m, x, t)
                    assert got == recurrence_residual_mirror(fp, m, x, t), (fp, m, x)
                    if cls is _Skewed:
                        nonzero += got != 0
                        continue
                    # the difference equation holds for every second index;
                    # the recurrence needs it inside the box as well
                    assert difference_residual(fp, m, x, t) == 0, (fp, m, x)
                    if family != "krawtchouk" or contains(x, (2, 2)):
                        assert got == 0, (fp, m, x)
            if cls is _Skewed:
                assert nonzero > len(grid), family


def test_shift_plans_match_direct_evaluation():
    # the residuals read memoized residual rows; the oracle recomputes
    # every coefficient per call.  Each pair of parameter sets shares one
    # table and differs in a single parameter, and the two are evaluated
    # alternately, so a plan keyed by anything less than the full parameter
    # set is read for the wrong one
    t = JackTable(2, F(5, 2)).extend(5)
    grid = enumerate_up_to(2, 4)
    pairs = (
        (dict(family="meixner", alpha=F(7, 3), c=F(3, 5)), "alpha", F(11, 4)),
        (dict(family="charlier", a=F(5, 4)), "a", F(7, 3)),
        # N = 2 < 4: the second index leaves the box
        (dict(family="krawtchouk", p=F(2, 7), N=2), "p", F(3, 5)),
        # p outside (0, 1); at p = 1 no lowering enters the equation
        (dict(family="krawtchouk", p=F(1), N=2), "p", F(3, 2)),
        (dict(family="krawtchouk", p=F(-1, 2), N=2), "p", F(2, 7)),
    )
    for kw, name, other in pairs:
        for cls in (FamilyParams, _Skewed):
            fps = (cls(**kw), cls(**{**kw, name: other}))
            nonzero = 0
            for m in grid:
                if kw["family"] == "krawtchouk" and not contains(m, (2, 2)):
                    continue
                for x in grid:
                    for fp in fps:
                        got = difference_residual(fp, m, x, t)
                        assert got == shift_equation_direct(fp, m, x, t, False), (fp, m, x)
                        nonzero += got != 0
                        if kw["family"] == "krawtchouk" and not contains(x, (2, 2)):
                            continue
                        got = recurrence_residual(fp, m, x, t)
                        assert got == shift_equation_direct(fp, x, m, t, True), (fp, m, x)
            assert (nonzero > 0) == (cls is _Skewed), kw["family"]


def test_shift_coefficients_computed_once_per_table(monkeypatch):
    # a criterion-05-shaped grid, run twice on one table: the second pass
    # reads every raise/lower coefficient from the plans of the first
    calls = {"lower": 0, "raise": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(verify, "lower_coefficient", counted("lower", verify.lower_coefficient))
    monkeypatch.setattr(verify, "raise_coefficient", counted("raise", verify.raise_coefficient))
    t = JackTable(2, F(5, 2)).extend(4)
    fps = (
        FamilyParams("meixner", alpha=F(7, 3), c=F(3, 5)),
        FamilyParams("charlier", a=F(5, 4)),
        FamilyParams("krawtchouk", p=F(2, 7), N=3),
    )
    grid = enumerate_up_to(2, 3)

    def sweep():
        for fp in fps:
            for m in grid:
                for x in grid:
                    assert difference_residual(fp, m, x, t) == 0
                    assert recurrence_residual(fp, m, x, t) == 0

    sweep()
    first = dict(calls)
    # one coefficient per box move of a grid index, shared by the families
    assert 0 < first["lower"] <= len(grid) * t.r
    assert 0 < first["raise"] <= len(grid) * t.r
    sweep()
    assert calls == first


def test_shift_plans_thread_safe():
    fps = [_Skewed("meixner", alpha=F(7, 3), c=F(3, 5)), _Skewed("charlier", a=F(5, 4))]
    grid = enumerate_up_to(2, 3)
    calls = [(fp, m, x) for fp in fps for m in grid for x in grid]

    def residuals(t):
        return [(difference_residual(*c, t), recurrence_residual(*c, t)) for c in calls]

    want = residuals(JackTable(2, F(5, 2)).extend(4))
    shared = JackTable(2, F(5, 2)).extend(4)
    got = [None] * 4

    def sweep(i):
        # every thread walks the same calls, so they race to build each plan
        got[i] = residuals(shared)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert all(g == want for g in got)


def test_equation_residuals_reject_krawtchouk_index_outside_box():
    t = jack_table(2, 2, 4)
    fp = FamilyParams("krawtchouk", p=F(1, 3), N=1)
    with pytest.raises(DomainError):
        recurrence_residual(fp, (2, 0), (1, 0), t)
    with pytest.raises(DomainError):
        difference_residual(fp, (2, 0), (1, 0), t)


def _outcome(fn, *args):
    """The value of ``fn(*args)``, or the type of the MvdopError it raises."""
    try:
        return fn(*args)
    except MvdopError as exc:
        return type(exc)


def test_residual_rows_raise_where_direct_evaluation_does():
    # the residuals pair one first-index row with a memoized residual row;
    # the oracle evaluates the family at every neighbour.  Poles of
    # (alpha)_k at alpha <= 0 and half-integers, the Krawtchouk box edge,
    # p = 1 (no lowering) and p outside (0, 1): every outcome, a raised
    # error or a value, must be the oracle's
    fps = [FamilyParams("meixner", alpha=alpha, c=F(3, 5))
           for alpha in (0, -1, -2, F(1, 2), F(-1, 2), 1, F(-3, 2), F(7, 3))]
    fps += [FamilyParams("krawtchouk", p=p, N=N) for p in (F(1, 3), 1, F(-1, 2)) for N in (1, 2)]
    fps.append(FamilyParams("charlier", a=F(5, 4)))
    seen = {}
    for r, d in ((1, 2), (2, 1), (2, 2), (2, F(5, 2)), (3, 1)):
        t = JackTable(r, F(d)).extend(5)
        grid = enumerate_up_to(r, 4)
        for fp in fps:
            for m in grid:
                for x in grid:
                    for got, want in (
                        (_outcome(difference_residual, fp, m, x, t),
                         _outcome(shift_equation_direct, fp, m, x, t, False)),
                        (_outcome(recurrence_residual, fp, m, x, t),
                         _outcome(shift_equation_direct, fp, x, m, t, True)),
                    ):
                        assert got == want and type(got) is type(want), (fp, r, d, m, x)
                        kind = want.__name__ if isinstance(want, type) else want != 0
                        seen[kind] = seen.get(kind, 0) + 1
    assert seen == {"PoleError": 1176, "DomainError": 2268, True: 717, False: 7509}


def _result(fn, *args):
    """The value of ``fn(*args)``, or the type and message of the
    MvdopError it raises."""
    try:
        return fn(*args)
    except MvdopError as exc:
        return type(exc), str(exc)


_RATS = st.fractions(min_value=-3, max_value=3, max_denominator=5)
_NONZERO = _RATS.filter(bool)
_FAMILY_KWARGS = st.one_of(
    # integer and half-integer alpha <= 0 reach the poles of (alpha)_k
    st.builds(lambda alpha, c: dict(family="meixner", alpha=alpha, c=c),
              st.one_of(st.integers(-3, 3).map(F), _RATS), _NONZERO),
    st.builds(lambda a: dict(family="charlier", a=a), _NONZERO),
    # p = 1 makes every lowering coefficient zero; N < 3 puts indices
    # of the grid outside the box
    st.builds(lambda p, N: dict(family="krawtchouk", p=p, N=N),
              st.one_of(st.just(F(1)), _NONZERO), st.integers(0, 3)),
)
_INDEX_PAIRS = [(r, m, x) for r in (1, 2, 3)
                for m in enumerate_up_to(r, 3) for x in enumerate_up_to(r, 3)]


@settings(max_examples=120, deadline=None)
@given(kw=_FAMILY_KWARGS, cls=st.sampled_from([FamilyParams, _Skewed]),
       d=st.sampled_from([F(1), F(2), F(5, 2)]), case=st.sampled_from(_INDEX_PAIRS),
       first=st.booleans())
# a nonzero residual
@example(kw=dict(family="meixner", alpha=F(7, 3), c=F(3, 5)), cls=_Skewed, d=F(5, 2),
         case=(2, (2, 1), (1, 1)), first=False)
# the recurrence at a second index outside the box: a nonzero residual
@example(kw=dict(family="krawtchouk", p=F(2, 7), N=1), cls=FamilyParams, d=F(2),
         case=(2, (1, 0), (2, 1)), first=True)
# p = 1: no lowering enters either equation
@example(kw=dict(family="krawtchouk", p=F(1), N=2), cls=FamilyParams, d=F(2),
         case=(2, (1, 1), (2, 0)), first=False)
@example(kw=dict(family="krawtchouk", p=F(1), N=2), cls=_Skewed, d=F(2),
         case=(2, (1, 1), (2, 0)), first=True)
# a Meixner pole: (-1)_k vanishes at k = 2
@example(kw=dict(family="meixner", alpha=F(-1), c=F(1, 3)), cls=FamilyParams, d=F(2),
         case=(1, (2,), (2,)), first=False)
@example(kw=dict(family="charlier", a=F(5, 4)), cls=_Skewed, d=F(1),
         case=(3, (1, 1, 1), (2, 1)), first=True)
def test_integer_residuals_match_the_fraction_route(kw, cls, d, case, first):
    # the package pairs integer plans and ends in one Fraction; the oracle
    # builds the plan per term in Fractions and adds lam |fixed| f to the
    # Fraction pairing.  Equal values, or the same error with the same
    # message, cold and warm
    r, m, x = case
    fp, t = cls(**kw), jack_table(r, d, 4)
    if first:
        want = _result(shift_equation_fraction_route, fp, x, m, t, True)
        fn = recurrence_residual
    else:
        want = _result(shift_equation_fraction_route, fp, m, x, t, False)
        fn = difference_residual
    for _ in range(2):
        got = _result(fn, fp, m, x, t)
        assert got == want and type(got) is type(want), (fp, d, m, x)


def _fractions_made(fn, *args) -> int:
    """The number of Fractions constructed while ``fn(*args)`` runs:
    the calls of Fraction.__new__, and of the constructor that newer
    Pythons use for arithmetic results where it exists, seen by
    sys.setprofile."""
    codes = {F.__new__.__code__}
    if hasattr(F, "_from_coprime_ints"):
        codes.add(F._from_coprime_ints.__func__.__code__)
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code in codes:
            count += 1

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(old)
    return count


@pytest.mark.parametrize("kw", [
    dict(family="meixner", alpha=F(7, 3), c=F(3, 5)),
    dict(family="charlier", a=F(5, 4)),
    dict(family="krawtchouk", p=F(2, 7), N=3),
])
def test_warm_residual_makes_one_fraction_besides_its_family_value(kw):
    # a warm residual is integer arithmetic that ends in one Fraction; the
    # family value adds a coercion per rational parameter and its own one
    # Fraction: at most the rational parameters plus 2 (Meixner 4,
    # Charlier 3, Krawtchouk 3)
    t = jack_table(3, F(5, 2), 4)
    fp = FamilyParams(**kw)
    bound = sum(name != "N" for name in dpolys.FAMILY_PARAMS[fp.family]) + 2
    m, x = (2, 1, 0), (1, 1, 0)
    for fn in (difference_residual, recurrence_residual):
        fn(fp, m, x, t)
        assert _fractions_made(fn, fp, m, x, t) <= bound, fn.__name__


def test_equation_reports():
    t = jack_table(2, 2, 4)
    fp = FamilyParams("charlier", a=F(5, 4))
    rep = difference_equation(fp, 2, t)
    assert rep.passed and rep.summary["total"] == 16
    rep2 = recurrence(fp, 2, t)
    assert rep2.passed


def test_orthogonality_generator_exact_and_decimal():
    # r alpha = 4 gives a rational mass, r alpha = 5/2 an irrational one;
    # the sums are taken over the mass, so both end in the literal zero
    t = jack_table(2, 2, 2)
    for alpha in (F(2), F(5, 4)):
        rep = orthogonality_generator_check(alpha, F(1, 6), 1, t)
        assert rep.passed and rep.summary["total"] == 4
        assert all(case["residual"] == "0" for case in rep.cases)


def test_limits_check_orders():
    t = jack_table(2, 2, 2)
    rep = limits_check(F(1), (100, 10000, 1000000), 2, t)
    assert rep.passed
    orders = [c["order"] for c in rep.cases if c["order"] is not None]
    assert orders and min(orders) >= 0.9


_SCALES = (100, 10000, 1000000)


@pytest.mark.parametrize("a", [F(1), F(-1, 2)])
@pytest.mark.parametrize("r, d, w", [(1, F(2), 4), (2, F(2), 2), (2, F(5, 2), 3), (3, F(7, 3), 2)])
def test_limits_check_ends_in_literal_zeros(r, d, w, a):
    rep = limits_check(a, _SCALES, w, jack_table(r, d, w))
    assert rep.passed and rep.summary["max_residual"] == 0.0
    assert all(c["residual"] == "0" and c["lhs"] == c["rhs"] for c in rep.cases)


def test_limits_check_fails_a_moved_target(monkeypatch):
    # a Charlier value moved by 1e-15 still decays at the first-order rate
    # along the scales (orders 0.999 and 1.001 at (2,0)/(2,0)); the exact
    # limit misses it by exactly that much on both paths
    evaluate = FamilyParams.evaluate

    def moved(self, m, x, jack):
        value = evaluate(self, m, x, jack)
        return value + F(1, 10**15) if self.family == "charlier" else value

    monkeypatch.setattr(FamilyParams, "evaluate", moved)
    rep = limits_check(F(1), _SCALES, 2, jack_table(2, 2, 2))
    cases = {(c["kind"], c["m"], c["x"]): c for c in rep.cases}
    for kind in ("meixner", "krawtchouk"):
        case = cases[kind, "2,0", "2,0"]
        assert not case["pass"] and case["residual"] == "-1/1000000000000000", kind


def test_limits_check_degree_check_fails_a_perturbed_sample(monkeypatch):
    # the last Meixner sample below the scales enters only the third of the
    # three |kappa|-th differences of (2,0)/(2,0), so moving it leaves the
    # limit exact and only the degree check can see it
    table = jack_table(2, 2, 2)
    evaluate = FamilyParams.evaluate
    sampled = set()

    def record(self, m, x, jack):
        if self.family == "meixner":
            sampled.add(self.alpha)
        return evaluate(self, m, x, jack)

    monkeypatch.setattr(FamilyParams, "evaluate", record)
    limits_check(F(1), _SCALES, 2, table)
    last = max(sampled - set(_SCALES))

    def perturbed(self, m, x, jack):
        value = evaluate(self, m, x, jack)
        hit = self.family == "meixner" and self.alpha == last and m == x == (2, 0)
        return value + F(1, 10**15) if hit else value

    monkeypatch.setattr(FamilyParams, "evaluate", perturbed)
    rep = limits_check(F(1), _SCALES, 2, table)
    failed = [c for c in rep.cases if not c["pass"]]
    assert [(c["kind"], c["m"], c["x"]) for c in failed] == [("meixner", "2,0", "2,0")]
    assert failed[0]["residual"] == "0"


def test_is_classical_table():
    assert is_classical(1, F(7, 5))
    assert is_classical(3, 2) and is_classical(5, 4) and is_classical(4, 1)
    assert is_classical(2, 7) and is_classical(3, 8)
    assert not is_classical(2, F(5, 2))
    assert not is_classical(3, 3)
    assert not is_classical(4, 8)


def test_conjecture_suite_one_genfunc_subreport_per_family():
    rep = conjecture_suite(F(2), 1, 2)
    subs = rep.truncation["subreports"]
    names = [s["identity"] for s in subs if s["identity"].startswith("genfunc-")]
    assert names == ["genfunc-meixner", "genfunc-charlier", "genfunc-krawtchouk"]
    for s in subs:
        if s["identity"] in names:
            assert s["cases"] and all("x" in case for case in s["cases"])


def test_conjecture_suite_classical_gate():
    rep = conjecture_suite(F(2), 2, 2)
    assert rep.passed
    assert rep.params["classical"] is True
    assert any(c["identity"] == "orthogonality-krawtchouk" for c in rep.cases)


def test_report_json_schema():
    t = jack_table(2, 2, 4)
    rep = orthogonality_krawtchouk(F(1, 3), 1, t)
    data = json.loads(rep.to_json())
    assert set(data) == {"identity", "params", "truncation", "cases", "summary"}
    assert set(data["summary"]) == {"total", "passed", "max_residual"}
    case = data["cases"][0]
    for field in ("m", "n", "lhs", "rhs", "residual", "pass"):
        assert field in case
    # rationals serialize as strings, never floats, in exact checks
    assert isinstance(case["lhs"], str)


def test_report_finalize_counts():
    rep = VerificationReport(identity="toy", params={})
    rep.cases = [
        {"residual": "0", "pass": True},
        {"residual": "1/2", "pass": False},
    ]
    rep.finalize()
    assert rep.summary == {"total": 2, "passed": 1, "max_residual": 0.5}
    assert not rep.passed
