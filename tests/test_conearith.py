import sys
import threading
from fractions import Fraction
from math import comb, isclose, perm

import pytest
from hypothesis import example, given, settings, strategies as st

from mvdop import conearith
from mvdop.conearith import (
    ConeParams,
    _lowered,
    _one_box_binomial,
    binomial,
    binomial_row,
    box_binomial,
    cone_params,
    dim_partition,
    falling_row,
    gen_pochhammer,
    generalized_falling,
    lower_coefficient,
    raise_coefficient,
    weight_factor,
)
from mvdop.dpolys import determinant_formula, meixner
from mvdop.errors import ParameterError, SingularArgumentError
from mvdop.jack import JackTable, jack_table
from mvdop.partitions import contains, enumerate_up_to, partitions_of, sub_partitions, weight
from mvdop.symfun import SymPoly

from .oracles import (
    binomial_row_expansion,
    dim_partition_gamma_check,
    dim_ratio_p1,
    dim_ratio_pieri,
    falling_row_expansion,
    gen_pochhammer_direct,
    pieri_coefficients,
)

F = Fraction


def test_cone_params_invariants():
    for r, d in ((1, F(2)), (2, F(5, 2)), (3, F(1, 3))):
        p = ConeParams(r, d)
        assert p.n == r + d / 2 * r * (r - 1)
        assert p.rank_ratio * r == p.n
        assert sum(p.rho) == 0
    p = ConeParams(2, 2)
    assert repr(p) == "ConeParams(r=2, d=Fraction(2, 1))"
    assert p == ConeParams(2, F(2)) and hash(p) == hash(ConeParams(2, F(2)))
    assert p != ConeParams(2, F(5, 2))
    with pytest.raises(AttributeError):
        p.r = 3


@pytest.mark.parametrize("make", [lambda r: ConeParams(r, F(2)), SymPoly], ids=["ConeParams", "SymPoly"])
@pytest.mark.parametrize("r, message", [
    (2.7, "r must be an integer, got 2.7"),
    (2.5, "r must be an integer, got 2.5"),
    ("2", "r must be an integer, got '2'"),
    (0, "need r >= 1, got 0"),
    (-1, "need r >= 1, got -1"),
])
def test_bad_rank_is_refused(make, r, message):
    # the rank goes through errors.integer, as in JackTable: a non-integral
    # rank is refused, not truncated or kept
    with pytest.raises(ParameterError) as exc:
        make(r)
    assert str(exc.value) == message


@pytest.mark.parametrize("d", [F(0), F(-1, 2)])
def test_bad_multiplicity_is_refused(d):
    with pytest.raises(ParameterError, match=f"need d > 0, got {d}"):
        ConeParams(2, d)


def test_gen_pochhammer_examples():
    p1 = ConeParams(1, F(2))
    assert gen_pochhammer(F(7, 3), (0,), p1) == 1
    # ordinary rising factorial at r = 1
    assert gen_pochhammer(F(3), (4,), p1) == 3 * 4 * 5 * 6
    p2 = ConeParams(2, F(2))
    assert gen_pochhammer(F(3), (2, 1), p2) == 24


def test_dim_examples():
    t1 = jack_table(1, F(7, 2), 5)
    for m in range(6):
        assert dim_partition((m,), t1) == 1
    t2 = jack_table(2, 2, 3)
    assert dim_partition((1, 0), t2) == 4
    for r, d in ((2, F(5, 2)), (3, F(1))):
        t = jack_table(r, d, 1)
        assert dim_partition((1,) + (0,) * (r - 1), t) == cone_params(t).n


def test_dim_far_past_recursion_limit_on_empty_memo():
    # the closed product needs no entry below the partition
    assert dim_partition((1200,), JackTable(1, 2)) == 1


def test_per_point_cost_does_not_grow_with_weight():
    # rho(x), (s)_x and the weight <= 2 entries of a capped row are closed
    # forms: one query on a fresh table publishes a fixed number of memo
    # entries, whatever |x|, and fills nothing below x
    def added(x, query):
        t = JackTable(3, F(5, 2))
        before = len(t.cache)
        query(t, x)
        return len(t.cache) - before

    for query in (lambda t, x: weight_factor(x, t, F(7, 2)), lambda t, x: falling_row(t, x, 2)):
        counts = {weight(x): added(x, query) for x in ((12, 5, 3), (190, 7, 3))}
        assert counts[20] == counts[200] <= 3, counts


@st.composite
def _pochhammer_cases(draw):
    r = draw(st.integers(1, 4))
    d = F(draw(st.integers(1, 7)), draw(st.integers(1, 3)))
    s = F(draw(st.integers(-8, 8)), draw(st.sampled_from([1, 1, 2, 3])))
    w = draw(st.integers(0, 12))
    return r, d, s, draw(st.sampled_from(list(partitions_of(w, r))))


@settings(max_examples=40, deadline=None)
@given(_pochhammer_cases())
def test_weight_factor_shifted_factorial_property(case):
    # (s)_x as one integer product on a fresh memo, against the direct
    # product in Fractions
    r, d, s, x = case
    t = JackTable(r, d)
    want = weight_factor(x, t) * gen_pochhammer_direct(s, x, cone_params(t))
    assert weight_factor(x, t, s) == want


@settings(max_examples=60, deadline=None)
@given(_pochhammer_cases())
@example((4, F(7, 3), F(5, 2), (3, 2, 2, 1)))
@example((2, F(2), F(-3), (4, 0)))
@example((3, F(1, 2), F(-2), (3, 3, 1)))
def test_gen_pochhammer_matches_direct_product_property(case):
    # the one integer product against the Fraction loop, the vanishing
    # values at a negative integer s included
    r, d, s, x = case
    params = ConeParams(r, d)
    assert gen_pochhammer(s, x, params) == gen_pochhammer_direct(s, x, params)


def test_repeated_dim_partition_reads_the_memo(monkeypatch):
    # d_m is weight_factor at s = n/r, so a repeated query is a memo hit
    # and multiplies out no shifted factorial
    calls = []
    real = conearith.gen_pochhammer
    monkeypatch.setattr(conearith, "gen_pochhammer", lambda *a: calls.append(a) or real(*a))
    t = JackTable(2, 2)
    for m in ((30, 16), (3, 1)):
        first = dim_partition(m, t)
        calls.clear()
        assert dim_partition(m, t) == first
        assert calls == [], m


def test_weight_factor_shifted_factorial_vanishing_and_deep():
    t = JackTable(2, 2)
    params = cone_params(t)
    for x in reversed(enumerate_up_to(2, 7)):
        # (-3)_x vanishes once x_1 > 3 (row two starts at -3 - d/2)
        want = weight_factor(x, t) * gen_pochhammer_direct(-3, x, params)
        assert weight_factor(x, t, -3) == want
        assert (want == 0) == (x[0] > 3)
    t1 = JackTable(1, F(7, 2))
    params = cone_params(t1)
    for s in (F(5, 3), -1499, -1500):
        want = weight_factor((1500,), t1) * gen_pochhammer_direct(s, (1500,), params)
        assert weight_factor((1500,), t1, s) == want
    # at r = 1 the factor is (s)_x / x!
    assert weight_factor((1500,), t1, -1499) == 0
    assert weight_factor((1500,), t1, -1500) == 1


def test_dim_positive():
    for r, d in ((2, F(1, 3)), (3, F(5, 2))):
        t = jack_table(r, d, 4)
        for m in enumerate_up_to(r, 4):
            assert dim_partition(m, t) > 0


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_dim_against_gamma_product(d, r):
    t = jack_table(r, d, 5)
    params = cone_params(t)
    for m in enumerate_up_to(r, 5):
        exact = float(dim_partition(m, t))
        viaGamma = dim_partition_gamma_check(m, params)
        assert isclose(exact, viaGamma, rel_tol=1e-9), (d, r, m)


def test_d2_dimension_is_squared_principal():
    t = jack_table(3, 2, 4)
    for m in enumerate_up_to(3, 4):
        assert dim_partition(m, t) == t.principal(m) ** 2


def _dim_p1(jack, m):
    params = cone_params(jack)
    return gen_pochhammer_direct(params.rank_ratio, m, params) * dim_ratio_p1(jack, m)


def test_rows_and_dims_past_built_degree_need_no_table():
    # the structure constants come from closed forms, so a query past the
    # built degree is answered without extending the table
    t = JackTable(2, 2).extend(2)
    deep = JackTable(2, 2).extend(7)
    for x in enumerate_up_to(2, 7):
        if weight(x) <= 2:
            continue
        assert dim_partition(x, t) == _dim_p1(deep, x)
        want = falling_row_expansion(deep, x, weight(x))
        assert list(falling_row(t, x).items()) == list(want.items())
        want = binomial_row_expansion(deep, x, weight(x))
        assert list(binomial_row(t, x).items()) == list(want.items())
    for m, x in (((3, 1), (4, 2)), ((2, 2), (5, 0)), ((4, 3), (1, 0))):
        got = meixner(m, x, F(7, 2), F(1, 3), t)
        assert got == determinant_formula("meixner", m, x, deep, alpha=F(7, 2), c=F(1, 3))
    assert t.built_degree == 2


def test_binomial_normalization_and_support():
    t = jack_table(2, F(5, 2), 4)
    for m in enumerate_up_to(2, 4):
        row = binomial_row(t, m)
        assert row[(0, 0)] == 1
        assert row[m] == 1
        for k in enumerate_up_to(2, weight(m)):
            if contains(k, m):
                assert row.get(k, F(0)) > 0
            else:
                assert binomial(m, k, t) == 0


def test_binomial_r1_is_classical():
    t = jack_table(1, F(9, 4), 6)
    for m in range(7):
        for k in range(m + 1):
            assert binomial((m,), (k,), t) == comb(m, k)


def test_falling_factorial_r1():
    t = jack_table(1, 2, 6)
    for m in range(7):
        for k in range(m + 1):
            want = F(1)
            for i in range(k):
                want *= m - i
            assert generalized_falling((k,), (m,), t) == want
    # capped and full rows far past the table degree and Python's
    # recursion limit
    for cap in (1, 2, 3):
        row = falling_row(t, (1500,), cap)
        assert list(row.items()) == [((k,), perm(1500, k)) for k in range(cap + 1)]
    row = falling_row(t, (1500,))
    assert [row[(k,)] for k in range(4)] == [1, 1500, 1500 * 1499, 1500 * 1499 * 1498]


def test_falling_factorial_nonnegative():
    t = jack_table(2, F(5, 2), 5)
    for m in enumerate_up_to(2, 5):
        for k in sub_partitions(m):
            assert generalized_falling(k, m, t) >= 0


def _assert_rows_match(t, x, cap):
    # equal as dicts and in key order
    assert list(falling_row(t, x, cap).items()) == list(falling_row_expansion(t, x, cap).items())
    assert list(binomial_row(t, x, cap).items()) == list(binomial_row_expansion(t, x, cap).items())


def test_capped_rows_match_expansion_oracle():
    # caps 0-3 from the lowering recursion, and the full row from
    # Lassalle's recursion
    for r, d, top in ((2, F(5, 2), 16), (3, F(3), 12)):
        t = JackTable(r, d).extend(top)
        for x in enumerate_up_to(r, top):
            for cap in [*range(min(4, weight(x))), weight(x)]:
                _assert_rows_match(t, x, cap)


@st.composite
def _capped_cases(draw):
    r = draw(st.integers(1, 4))
    d = F(draw(st.integers(1, 7)), draw(st.integers(1, 3)))
    w = draw(st.integers(1, 10))
    x = draw(st.sampled_from(list(partitions_of(w, r))))
    return r, d, x, draw(st.integers(0, w - 1))


@settings(max_examples=40, deadline=None)
@given(_capped_cases())
def test_capped_rows_match_expansion_oracle_property(case):
    r, d, x, cap = case
    _assert_rows_match(jack_table(r, d, weight(x)), x, cap)


@settings(max_examples=40, deadline=None)
@given(_capped_cases())
def test_capped_rows_cold_fill_match_expansion_oracle_property(case):
    # a fresh table and x first, so every row below x is filled from an
    # empty memo
    r, d, x, cap = case
    _assert_rows_match(JackTable(r, d), x, cap)


def test_one_box_binomial_closed_form():
    # binom(x, x - e_j) = (x_j + (d/2)(r - j)) lower_j(x) on every row j
    # where x - e_j is a partition, against the expansion
    for r, d, top in ((1, F(7, 2), 6), (2, F(5, 3), 7), (3, F(1, 2), 6), (4, F(7, 3), 5)):
        t = JackTable(r, d)
        params = cone_params(t)
        for x in enumerate_up_to(r, top)[1:]:
            want = binomial_row_expansion(t, x, weight(x) - 1)
            lowered = _lowered(x)
            assert {down for _, down in lowered} == {
                k for k in want if weight(k) == weight(x) - 1
            }
            for j, down in lowered:
                closed = (x[j - 1] + d / 2 * (r - j)) * lower_coefficient(j, x, params)
                assert _one_box_binomial(x, j, params) == closed == want[down], (r, d, x, j)


@st.composite
def _full_cases(draw):
    r = draw(st.integers(1, 5))
    d = F(draw(st.integers(1, 7)), draw(st.integers(1, 3)))
    w = draw(st.integers(0, 12 - r))
    return r, d, draw(st.sampled_from(list(partitions_of(w, r))))


@settings(max_examples=40, deadline=None)
@given(_full_cases())
def test_dims_and_full_rows_match_p1_and_expansion_oracles_property(case):
    # a fresh table each time, and x first: the closed product against the
    # Pieri recursion and against p1^|k| in the basis
    r, d, x = case
    t = JackTable(r, d)
    params = cone_params(t)
    for k in reversed(sub_partitions(x)):
        want = gen_pochhammer_direct(params.rank_ratio, k, params) * dim_ratio_pieri(t, k)
        assert dim_partition(k, t) == want == _dim_p1(t, k)
    _assert_rows_match(t, x, weight(x))


def test_capped_row_head_matches_full_row():
    # the closed-form entries of weight <= 2 of a capped row against the
    # same entries of the full row from Lassalle's recursion
    for r, d, top in ((1, F(7, 3), 12), (2, F(5, 2), 12), (3, F(1, 2), 10), (4, F(7, 3), 8)):
        t = JackTable(r, d)
        for x in enumerate_up_to(r, top):
            full = [(k, g) for k, g in falling_row(t, x).items() if weight(k) <= 2]
            for cap in range(2, min(5, weight(x))):
                head = [(k, g) for k, g in falling_row(t, x, cap).items() if weight(k) <= 2]
                assert head == full, (r, d, x, cap)


def test_capped_rows_thread_safe():
    calls = [(x, cap) for x in enumerate_up_to(2, 12) for cap in range(weight(x))]
    single = JackTable(2, F(5, 2)).extend(12)
    want = {call: list(falling_row(single, *call).items()) for call in calls}
    shared = JackTable(2, F(5, 2)).extend(12)
    got = [{} for _ in range(4)]

    def read(i):
        # interleaved first, so the threads race to fill the rows below the
        # same partitions; then every call, so each thread reads them all
        for call in calls[i::4] + calls[::-1]:
            got[i][call] = list(falling_row(shared, *call).items())

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
    for rows in got:
        assert rows == want


def test_box_binomial_matches_expansion_route():
    for r, d, N in ((2, F(3), 3), (3, F(5, 2), 2), (1, F(2), 4)):
        t = jack_table(r, d, r * N)
        box = (N,) * r
        for x in enumerate_up_to(r, r * N):
            assert box_binomial(N, x, t) == binomial(box, x, t), (r, d, N, x)


def test_raise_coefficient_examples():
    p1 = ConeParams(1, F(2))
    assert raise_coefficient(1, (5,), p1) == 1
    p2 = ConeParams(2, F(2))
    assert raise_coefficient(1, (1, 0), p2) == F(3, 2)
    assert raise_coefficient(2, (1, 0), p2) == F(1, 2)


def test_raise_matches_basis_expansion():
    for r, d in ((2, F(2)), (2, F(5, 2)), (3, F(1))):
        t = jack_table(r, d, 6)
        params = cone_params(t)
        for m in enumerate_up_to(r, 5):
            pieri = pieri_coefficients(t, m)
            for j, val in pieri.items():
                assert raise_coefficient(j, m, params) == val, (r, d, m, j)


def test_singular_argument_reported():
    p2 = ConeParams(2, F(2))
    with pytest.raises(SingularArgumentError):
        raise_coefficient(1, (0, 1), p2)
    with pytest.raises(SingularArgumentError):
        # the naive sign-flipped down argument is singular at d = 2
        raise_coefficient(2, (-2, -1), p2)


def test_lower_coefficient_finite_on_partitions():
    for r, d in ((2, F(2)), (3, F(7, 3))):
        params = ConeParams(r, d)
        for y in enumerate_up_to(r, 5):
            for j in range(1, r + 1):
                lower_coefficient(j, y, params)  # must not raise


def test_expansion_identities_degree_five():
    """Both shifted-expansion identities, checked coefficientwise to
    degree 5: the binomial-weighted sum reproduces the shifted series."""
    from mvdop.symfun import SymPoly, series_compose_diagonal
    from .oracles import product, series_exp_trace, series_prod_binomial, truncated, u_ratio

    D = 5
    for r, d in ((2, F(2)), (2, F(5, 2)), (3, F(3))):
        t = jack_table(r, d, D)
        params = cone_params(t)
        alpha = F(7, 3)
        for k in enumerate_up_to(r, 3):
            # exponential form: exp-trace times Phi_k
            lhs = product(series_exp_trace(1, r, D), t.phi(k), D)
            rhs = SymPoly.zero(r)
            for x in enumerate_up_to(r, D):
                g = generalized_falling(k, x, t)
                if not g:
                    continue
                coeff = dim_partition(x, t) * g
                coeff /= gen_pochhammer_direct(params.rank_ratio, x, params)
                rhs = rhs + truncated(t.phi(x).scale(coeff), D)
            assert lhs.coeffs == rhs.coeffs, ("exp", r, d, k)
            # binomial-power form
            poch_k = gen_pochhammer_direct(alpha, k, params)
            entry = u_ratio([0, 1], [1, -1], D)
            lhs2 = product(
                series_prod_binomial(-alpha, 1, r, D),
                series_compose_diagonal(t.phi(k), entry, [1], D),
                D,
            )
            lhs2 = lhs2.scale(poch_k)
            rhs2 = SymPoly.zero(r)
            for x in enumerate_up_to(r, D):
                g = generalized_falling(k, x, t)
                if not g:
                    continue
                coeff = (
                    dim_partition(x, t)
                    * gen_pochhammer_direct(alpha, x, params)
                    / gen_pochhammer_direct(params.rank_ratio, x, params)
                    * g
                )
                rhs2 = rhs2 + truncated(t.phi(x).scale(coeff), D)
            assert lhs2.coeffs == rhs2.coeffs, ("binom", r, d, k)
