import pickle
import re
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mvdop.dpolys import (
    FamilyParams,
    charlier,
    determinant_formula,
    krawtchouk,
    laguerre,
    meixner,
    univariate,
    univariate_laguerre,
)
from mvdop.errors import DomainError, ParameterError, PoleError
from mvdop.jack import JackTable, jack_table
from mvdop.partitions import contains, enumerate_up_to, format_partition, pad, partitions_of, weight
from mvdop.conearith import box_binomial, cone_params, dim_partition, gen_pochhammer
from mvdop.verify import _orthogonality_weight, limits_check, orthogonality_krawtchouk

from .oracles import (
    kernel_direct,
    univariate_charlier,
    univariate_krawtchouk,
    univariate_meixner,
)

F = Fraction


def test_univariate_examples():
    assert univariate("meixner", 0, 5, alpha=F(7, 2), c=F(1, 3)) == 1
    assert univariate("meixner", 1, 1, alpha=2, c=F(1, 2)) == F(1, 2)
    assert univariate("charlier", 1, 1, a=1) == 0  # 1 - x/a at x = a = 1
    assert univariate("charlier", 2, 1, a=1) == -1
    assert univariate("krawtchouk", 1, 1, p=F(1, 2), N=2) == 0
    assert univariate("charlier", 0, 3, a=2) == 1
    # Laguerre, the one-index family, at the point u
    for m in range(4):
        for u in (F(1, 2), F(3)):
            want = laguerre((m,), (u,), F(7, 2), jack_table(1, 2, m))
            assert univariate("laguerre", m, u, alpha=F(7, 2)) == want
    # the package's declared points agree with the hand-written series
    alpha, c, p = F(7, 2), F(1, 3), F(1, 3)
    for m in range(4):
        for x in range(4):
            assert univariate("meixner", m, x, alpha=alpha, c=c) == univariate_meixner(m, x, alpha, c)
            assert univariate("charlier", m, x, a=2) == univariate_charlier(m, x, 2)
            assert univariate("krawtchouk", m, x, p=p, N=3) == univariate_krawtchouk(m, x, p, 3)


def test_univariate_reads_the_family_declaration():
    # the parameters go through FamilyParams: one a family does not take is
    # refused by name, and the box size N is checked as krawtchouk checks it
    with pytest.raises(ParameterError, match="meixner takes no --N"):
        univariate("meixner", 1, 1, alpha=2, c=F(1, 2), N=5)
    with pytest.raises(ParameterError, match="N must be an integer"):
        univariate("krawtchouk", 1, 1, p=F(1, 3), N=2.5)
    with pytest.raises(ParameterError, match="N must be >= 0"):
        univariate("krawtchouk", 1, 1, p=F(1, 3), N=-1)
    for m in (-1, 3):
        with pytest.raises(DomainError, match=f"index {m} outside"):
            univariate("krawtchouk", m, 1, p=F(1, 3), N=2)


def test_univariate_meixner_pole():
    with pytest.raises(PoleError):
        univariate("meixner", 2, 2, alpha=-1, c=F(1, 2))
    with pytest.raises(PoleError):
        univariate_meixner(2, 2, F(-1), F(1, 2))


def _forward_differences(values: list) -> list:
    """[values, first differences, second differences, ...]."""
    rows = [values]
    while len(rows[-1]) > 1:
        rows.append([b - a for a, b in zip(rows[-1], rows[-1][1:])])
    return rows


@pytest.mark.parametrize("family, params", [
    ("meixner", {"alpha": 2, "c": F(1, 2)}),
    ("meixner", {"alpha": F(7, 2), "c": F(1, 3)}),
    ("charlier", {"a": F(5, 4)}),
    ("krawtchouk", {"p": F(1, 3), "N": 4}),
])
def test_univariate_is_a_polynomial_of_degree_m_in_x(family, params):
    # the sum used to stop at k <= min(m, x), so a negative x gave the
    # empty sum 0 and a Fraction x raised TypeError; it is a polynomial of
    # degree m in x, and at x >= 0 its values are the terminating series
    oracle = {"meixner": univariate_meixner, "charlier": univariate_charlier,
              "krawtchouk": univariate_krawtchouk}[family]
    xs = range(-3, 7)
    for m in range(5):
        values = [univariate(family, m, x, **params) for x in xs]
        diffs = _forward_differences(values)
        assert all(v == 0 for v in diffs[m + 1]), (m, diffs[m + 1])
        assert diffs[m][0] != 0
        for x, v in zip(xs, values):
            if x >= 0:
                assert v == oracle(m, x, *params.values())
        # Newton's forward formula from x = -3 gives the value at a rational x
        u = F(5, 2)
        newton, binom = F(0), F(1)
        for j, row in enumerate(diffs[: m + 1]):
            newton += row[0] * binom
            binom *= (u + 3 - j) / (j + 1)
        assert univariate(family, m, u, **params) == newton
    assert univariate("meixner", 1, -1, alpha=2, c=F(1, 2)) == F(3, 2)


def test_normalization_at_empty_index():
    t = jack_table(2, F(5, 2), 4)
    for x in enumerate_up_to(2, 4):
        assert meixner((0, 0), x, F(7, 2), F(1, 3), t) == 1
        assert meixner(x, (0, 0), F(7, 2), F(1, 3), t) == 1
        assert charlier((0, 0), x, 2, t) == 1
        if contains(x, (4, 4)):
            assert krawtchouk(x, (0, 0), F(1, 3), 4, t) == 1


def test_r1_reduction_all_families():
    t = jack_table(1, 1, 6)
    for m in range(7):
        for x in range(7):
            assert meixner((m,), (x,), 2, F(1, 2), t) == univariate_meixner(m, x, 2, F(1, 2))
            assert charlier((m,), (x,), 1, t) == univariate_charlier(m, x, 1)
            if m <= 4:
                assert krawtchouk((m,), (x,), F(1, 3), 4, t) == univariate_krawtchouk(m, x, F(1, 3), 4)


def test_charlier_r1_linear():
    t = jack_table(1, 2, 3)
    for x in range(5):
        assert charlier((1,), (x,), F(3, 2), t) == 1 - F(x) / F(3, 2)


def test_duality_structural():
    for r, d in ((2, F(5, 2)), (3, F(2))):
        t = jack_table(r, d, 4)
        grid = enumerate_up_to(r, 4)
        for m in grid:
            for x in grid:
                assert meixner(m, x, F(7, 2), F(1, 3), t) == meixner(x, m, F(7, 2), F(1, 3), t)
                assert charlier(m, x, 2, t) == charlier(x, m, 2, t)
                box = (4,) * r
                if contains(m, box) and contains(x, box):
                    assert krawtchouk(m, x, F(1, 3), 4, t) == krawtchouk(x, m, F(1, 3), 4, t)


def test_meixner_krawtchouk_relation():
    # exact for every p except 0 and 1
    for r, d in ((2, F(5, 2)), (2, F(2))):
        t = jack_table(r, d, 4)
        for p in (F(1, 3), F(2, 7), F(5, 3), F(-1, 2)):
            for m in enumerate_up_to(r, 3):
                if not contains(m, (3,) * r):
                    continue
                for x in enumerate_up_to(r, 3):
                    lhs = meixner(m, x, F(-3), p / (p - 1), t)
                    rhs = krawtchouk(m, x, p, 3, t)
                    assert lhs == rhs, (r, d, p, m, x)


def test_krawtchouk_domain_error():
    t = jack_table(2, 2, 4)
    with pytest.raises(DomainError):
        krawtchouk((3, 0), (1, 0), F(1, 3), 2, t)


def test_meixner_pole_error_names_k():
    # (-1)_k vanishes for every k with k_1 >= 2, but only the k inside both
    # indices give a term, so x = (1) never meets the pole
    t = JackTable(1, 2)
    assert meixner((2,), (1,), F(-1), F(1, 2), t) == 3
    with pytest.raises(PoleError, match="k=2$"):
        meixner((2,), (2,), F(-1), F(1, 2), t)
    t = JackTable(2, 2)
    assert meixner((2, 0), (1, 0), F(-1), F(1, 2), t) == 2
    with pytest.raises(PoleError, match="k=2,0$"):
        meixner((2, 0), (2, 0), F(-1), F(1, 2), t)


@st.composite
def _kernel_cases(draw):
    r = draw(st.integers(1, 4))
    fractional = st.builds(F, st.integers(1, 9), st.integers(2, 4))
    d = draw(fractional.filter(lambda d: d.denominator > 1))
    index = st.integers(0, 5).flatmap(lambda w: st.sampled_from(list(partitions_of(w, r))))
    m, x = draw(index), draw(index)
    rats = st.builds(F, st.integers(-12, 12), st.integers(1, 4))
    nonzero = rats.filter(bool)
    params = {
        "alpha": draw(rats),
        "c": draw(nonzero),
        "a": draw(nonzero),
        "p": draw(nonzero),
        "N": draw(st.integers(m[0], m[0] + 3)),
    }
    return r, d, m, x, params


def _agree(value, direct):
    """value() equals direct(), or both raise the same PoleError; value()
    runs first, so the package's rows start cold."""
    try:
        got = value()
    except PoleError as err:
        with pytest.raises(PoleError, match=re.escape(str(err)) + "$"):
            direct()
    else:
        assert got == direct()


@settings(max_examples=60, deadline=None)
@given(_kernel_cases())
def test_families_match_direct_kernel_property(case):
    r, d, m, x, q = case
    t = JackTable(r, d)
    m, x = pad(m, r), pad(x, r)
    meix = (lambda: meixner(m, x, q["alpha"], q["c"], t), q["alpha"], 1 - 1 / q["c"])
    charl = (lambda: charlier(m, x, q["a"], t), None, -1 / q["a"])
    kraw = (lambda: krawtchouk(m, x, q["p"], q["N"], t), F(-q["N"]), 1 / q["p"])
    for value, s, z in (meix, charl, kraw):
        _agree(value, lambda: kernel_direct(t, m, x, s, z))


def test_family_rows_thread_safe():
    grid = enumerate_up_to(2, 4)
    fps = [
        FamilyParams("meixner", alpha=F(7, 2), c=F(1, 3)),
        FamilyParams("meixner", alpha=F(7, 2), c=F(2, 5)),
        FamilyParams("charlier", a=F(2)),
        FamilyParams("krawtchouk", p=F(1, 3), N=4),
    ]
    calls = [(i, m, x) for i in range(len(fps)) for m in grid for x in grid]

    def value(table, call):
        i, m, x = call
        v = fps[i].evaluate(m, x, table)
        return v.numerator, v.denominator

    single = JackTable(2, F(5, 2))
    want = {call: value(single, call) for call in calls}
    shared = JackTable(2, F(5, 2))
    got = [{} for _ in range(4)]

    def read(i):
        # interleaved first, so the threads race to build the same rows;
        # then every call, so each thread reads them all
        for call in calls[i::4] + calls[::-1]:
            got[i][call] = value(shared, call)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    for values in got:
        assert values == want


def test_krawtchouk_box_size_must_be_an_integer():
    # a non-integral N used to be truncated: 2.5 gave the value at N = 2,
    # FamilyParams labelled N = 5/2 as 2, and N = -0.5 passed as 0
    t = jack_table(2, 2, 3)
    for bad in (2.5, F(5, 2), -0.5, "2"):
        with pytest.raises(ParameterError, match="N must be an integer"):
            krawtchouk((1, 0), (1, 0), F(1, 3), bad, t)
        with pytest.raises(ParameterError, match="N must be an integer"):
            FamilyParams("krawtchouk", p=F(1, 3), N=bad)
        with pytest.raises(ParameterError, match="N must be an integer"):
            orthogonality_krawtchouk(F(1, 3), bad, t)
    with pytest.raises(ParameterError, match="N must be >= 0"):
        FamilyParams("krawtchouk", p=F(1, 3), N=-1)

    class Two:
        def __index__(self):
            return 2

    fp = FamilyParams("krawtchouk", p=F(1, 3), N=Two())
    assert type(fp.N) is int and fp.label()["N"] == 2
    assert krawtchouk((1, 0), (1, 0), F(1, 3), Two(), t) == fp.evaluate((1, 0), (1, 0), t)


def test_family_evaluators_reject_non_integer_index():
    # a fractional entry used to be truncated, giving the value at (1, 0)
    t = jack_table(2, 2, 3)
    with pytest.raises(ValueError, match="not a partition"):
        meixner((1.9, 0), (1, 0), "7/2", "1/3", t)
    with pytest.raises(ValueError, match="not a partition"):
        FamilyParams("charlier", a=F(2)).evaluate((1, 0), (F(3, 2), 0), t)


def test_charlier_zero_parameter():
    t = jack_table(1, 2, 2)
    with pytest.raises(ParameterError):
        charlier((1,), (1,), 0, t)


def test_laguerre_examples():
    t = jack_table(2, F(5, 2), 3)
    params = cone_params(t)
    alpha = F(7, 2)
    assert laguerre((0, 0), (F(1, 2), F(1, 3)), alpha, t) == 1
    for m in enumerate_up_to(2, 3):
        want = (
            dim_partition(m, t)
            * gen_pochhammer(alpha, m, params)
            / gen_pochhammer(params.rank_ratio, m, params)
        )
        assert laguerre(m, (0, 0), alpha, t) == want


def test_laguerre_r1_reduction():
    t = jack_table(1, 2, 5)
    for m in range(5):
        for u in (F(0), F(1, 2), F(3)):
            assert laguerre((m,), (u,), F(7, 2), t) == univariate_laguerre(m, u, F(7, 2))


def test_laguerre_classical_values():
    # L_1^{(alpha-1)}(u) = alpha - u with the leading normalization
    for u in (F(0), F(1), F(5, 2)):
        assert univariate_laguerre(1, u, F(3)) == 3 - u


def _limit_gaps(m, x, scales, table) -> dict:
    """The gap sequence of each limit path at (m, x), from limits_check."""
    rep = limits_check(1, scales, weight(m), table)
    m, x = format_partition(m), format_partition(x)
    return {c["kind"]: c["gaps"] for c in rep.cases if (c["m"], c["x"]) == (m, x)}


@pytest.mark.parametrize("r,d", [(1, F(2)), (2, F(2)), (2, F(5, 2))])
def test_limit_gaps_decay_first_order(r, d):
    t = jack_table(r, d, 3)
    # both indices must share a sub-partition of weight >= 2, otherwise the
    # relation is exact and the gap is identically zero
    m = (2,) + (0,) * (r - 1)
    gaps = _limit_gaps(m, m, (100, 10000), t)
    for kind in ("meixner", "krawtchouk"):
        assert gaps[kind][0] > gaps[kind][1] > 0, kind
        # one extra decade of the scale buys at least ~0.9 orders of accuracy
        assert gaps[kind][1] <= gaps[kind][0] / 50, kind


def test_limit_gap_zero_cases():
    t = jack_table(2, 2, 2)
    gaps = _limit_gaps((0, 0), (0, 0), (100, 10000), t)
    assert gaps == {"meixner": [0, 0], "krawtchouk": [0, 0]}


# ---------------------------------------------------------------------------
# determinant route (d = 2)


def test_determinant_reduces_to_univariate_at_r1():
    t = jack_table(1, 2, 5)
    assert determinant_formula("meixner", (3,), (2,), t, alpha=F(7, 2), c=F(1, 3)) == univariate_meixner(3, 2, F(7, 2), F(1, 3))
    assert determinant_formula("charlier", (4,), (1,), t, a=2) == univariate_charlier(4, 1, 2)
    assert determinant_formula("krawtchouk", (2,), (3,), t, p=F(1, 3), N=4) == univariate_krawtchouk(2, 3, F(1, 3), 4)


@pytest.mark.parametrize("r", [2, 3])
def test_determinant_agrees_with_direct_sum(r):
    t = jack_table(r, 2, 4)
    grid = enumerate_up_to(r, 4)
    box = (4,) * r
    for m in grid:
        for x in grid:
            direct = meixner(m, x, F(7, 2), F(1, 3), t)
            assert determinant_formula("meixner", m, x, t, alpha=F(7, 2), c=F(1, 3)) == direct
            assert determinant_formula("charlier", m, x, t, a=2) == charlier(m, x, 2, t)
            if contains(m, box) and contains(x, box):
                assert determinant_formula("krawtchouk", m, x, t, p=F(1, 3), N=4) == krawtchouk(m, x, F(1, 3), 4, t)


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("alpha", [0, -1, -2])
def test_determinant_matches_meixner_at_integer_alpha_at_most_zero(r, alpha):
    # the prefactor prod_{j<r} (alpha - r + 1)_j / j! vanishes only at alpha
    # in 1..r-1; below, the route gives meixner's exact value, or raises
    # PoleError exactly where meixner does
    t = jack_table(r, 2, 4)
    grid = enumerate_up_to(r, 4)
    for m in grid:
        for x in grid:
            try:
                want = meixner(m, x, alpha, F(1, 3), t)
            except PoleError:
                with pytest.raises(PoleError):
                    determinant_formula("meixner", m, x, t, alpha=alpha, c=F(1, 3))
            else:
                assert determinant_formula("meixner", m, x, t, alpha=alpha, c=F(1, 3)) == want


@pytest.mark.parametrize("r, params, message", [
    (2, dict(alpha=F(1), c=F(1, 3)), "meixner: the prefactor vanishes at s = 1 in 1..1"),
    (3, dict(alpha=F(2), c=F(1, 3)), "meixner: the prefactor vanishes at s = 2 in 1..2"),
    (2, dict(alpha=F(7, 2), c=F(1)), "meixner: z = 0 makes the prefactor singular for r > 1"),
])
def test_determinant_refuses_a_zero_or_singular_prefactor(r, params, message):
    t = jack_table(r, 2, 2)
    with pytest.raises(DomainError, match=re.escape(message)):
        determinant_formula("meixner", (1,) + (0,) * (r - 1), (1,) + (0,) * (r - 1), t, **params)


def test_determinant_needs_d2():
    t = jack_table(2, F(5, 2), 3)
    with pytest.raises(DomainError):
        determinant_formula("meixner", (1, 0), (1, 0), t, alpha=F(7, 2), c=F(1, 3))


def test_determinant_meixner_prefactor_pole():
    t = jack_table(2, 2, 3)
    with pytest.raises(DomainError):
        determinant_formula("meixner", (1, 0), (1, 0), t, alpha=F(1), c=F(1, 3))


def test_determinant_parameter_errors_are_typed():
    # a zero or missing parameter is a ParameterError, not the
    # ZeroDivisionError or TypeError of computing the prefactor
    t = jack_table(2, 2, 3)
    for family, kw in (
        ("meixner", dict(alpha=F(7, 2), c=0)),
        ("meixner", dict(alpha=F(7, 2))),
        ("charlier", dict(a=0)),
        ("charlier", dict()),
        ("krawtchouk", dict(p=0, N=2)),
        ("krawtchouk", dict(p=F(1, 3))),
        ("laguerre", dict(alpha=F(7, 2))),
        ("nosuch", dict()),
    ):
        with pytest.raises(ParameterError):
            determinant_formula(family, (1, 0), (1, 0), t, **kw)


def test_krawtchouk_constants_are_meixner_at_minus_n():
    # the point is Meixner's at alpha = -N, c = p/(p-1), and the shift
    # triple Meixner's scaled by 1 - p; the orthogonality weight derived
    # from the point is the binomial weight of the box, of mass one after
    # division by the derived mass, and the norm the reciprocal binomial
    t = JackTable(2, F(5, 2))
    for p in (F(1, 3), F(5, 7), F(3, 2), F(-1, 2)):
        kr = FamilyParams("krawtchouk", p=p, N=3)
        mx = FamilyParams("meixner", alpha=-3, c=p / (p - 1))
        assert kr.point == mx.point
        assert kr.shift == tuple((1 - p) * v for v in mx.shift)
        w, mass, norm = _orthogonality_weight(kr, t)
        for x in enumerate_up_to(2, 8):  # reaches outside the box
            k = weight(x)
            assert w(x) / mass == box_binomial(3, x, t) * p**k * (1 - p) ** (6 - k)
            if kr.fits(x):
                assert norm(x) / mass == ((1 - p) / p) ** k / box_binomial(3, x, t)
    # at p = 1 the Meixner map is singular; the triple stays finite
    assert FamilyParams("krawtchouk", p=1, N=3).shift == (0, -1, 3)
    assert FamilyParams("charlier", a=F(5, 4)).point == (None, F(-4, 5))
    assert not FamilyParams("krawtchouk", p=1, N=3).fits((4, 0))
    assert FamilyParams("meixner", alpha=1, c=F(1, 2)).fits((4, 0))
    with pytest.raises(ParameterError):
        FamilyParams("laguerre", alpha=1).point


def test_family_params_validation():
    with pytest.raises(ParameterError):
        FamilyParams("meixner", alpha=F(2))  # missing c
    with pytest.raises(ParameterError):
        FamilyParams("charlier", a=0)
    with pytest.raises(ParameterError):
        FamilyParams("nosuch")
    # a parameter the family does not take is refused and named, also
    # when its value would be invalid for the family that takes it
    for family, kw, extra in (
        ("meixner", dict(alpha=F(7, 2), c=F(1, 3), a=0), "--a"),
        ("meixner", dict(alpha=F(7, 2), c=F(1, 3), N=5), "--N"),
        ("charlier", dict(a=F(2), N=-1), "--N"),
        ("krawtchouk", dict(p=F(1, 3), N=2, alpha=F(1)), "--alpha"),
        ("laguerre", dict(alpha=F(1), c=F(1, 2)), "--c"),
    ):
        with pytest.raises(ParameterError, match=f"{family} takes no {extra}$"):
            FamilyParams(family, **kw)
    fp = FamilyParams("krawtchouk", p=F(1, 3), N=2)
    assert fp.label() == {"family": "krawtchouk", "p": "1/3", "N": 2}


class _SameFields(FamilyParams):
    """A subclass with the very same fields, as the test families are."""


def test_family_params_are_values():
    # a hand-written class keeps what the frozen dataclass it replaced had:
    # field-wise == and hash, its repr text, refused assignment, pickling
    fp = FamilyParams("meixner", alpha=2, c=F(1, 3))
    same = FamilyParams("meixner", alpha=F(2), c=F(1, 3))
    assert fp == same and hash(fp) == hash(same) and len({fp, same}) == 1
    assert fp != FamilyParams("meixner", alpha=F(2), c=F(1, 2))
    assert fp != _SameFields("meixner", alpha=2, c=F(1, 3)) and fp != ("meixner", 2)
    assert repr(FamilyParams("meixner", alpha=F(7, 2), c=F(1, 3))) == (
        "FamilyParams(family='meixner', alpha=Fraction(7, 2), c=Fraction(1, 3), "
        "a=None, p=None, N=None)"
    )
    for name in ("alpha", "family", "other"):
        with pytest.raises(AttributeError):
            setattr(fp, name, F(3))
        with pytest.raises(AttributeError):
            delattr(fp, name)
    assert fp.alpha == 2 and fp.point == (F(2), F(-2))  # (alpha, 1 - 1/c)
    back = pickle.loads(pickle.dumps(fp))
    assert back == fp and hash(back) == hash(fp) and back.point == fp.point
