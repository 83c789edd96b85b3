from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mvdop.partitions import enumerate_up_to
from mvdop.symfun import SymPoly, series_compose_diagonal, u_binomial, u_mul

from .oracles import (
    product,
    series_exp_trace,
    series_per_variable,
    series_prod_binomial,
    truncated,
    u_inv,
    u_ratio,
)

F = Fraction

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def test_mul_hand_oracle():
    # (z1 + z2)^2 = z1^2 + 2 z1 z2 + z2^2
    p = SymPoly.monomial(2, (1,))
    sq = product(p, p)
    assert sq.coeffs == {(2, 0): F(1), (1, 1): F(2)}


def test_mul_identity_and_zero():
    p = SymPoly(2, {(2, 1): F(3, 4), (1, 0): 2})
    assert product(p, SymPoly.one(2)).coeffs == p.coeffs
    assert not product(p, SymPoly.zero(2)).coeffs


def test_eval_examples():
    assert SymPoly.monomial(2, (1,)).eval_at((1, 1)) == 2
    assert SymPoly.monomial(2, (1, 1)).eval_at((2, 3)) == 6
    assert SymPoly.monomial(2, (2,)).eval_at((F(1, 2), F(1, 3))) == F(13, 36)


@given(st.lists(rationals, min_size=2, max_size=2))
@settings(max_examples=30)
def test_eval_is_ring_homomorphism(point):
    p = SymPoly(2, {(2, 0): F(1, 2), (1, 1): -2})
    q = SymPoly(2, {(1, 0): 3, (2, 1): F(5, 7)})
    assert product(p, q).eval_at(point) == p.eval_at(point) * q.eval_at(point)
    assert (p + q).eval_at(point) == p.eval_at(point) + q.eval_at(point)


def test_series_prod_binomial_examples():
    geo = series_prod_binomial(-1, 1, 1, 2)
    assert geo.coeffs == {(0,): F(1), (1,): F(1), (2,): F(1)}
    assert series_prod_binomial(-F(7, 2), 1, 3, 0).coeffs == {(0, 0, 0): F(1)}
    two = series_prod_binomial(-2, 1, 2, 1)
    assert two.coeffs == {(0, 0): F(1), (1, 0): F(2)}


def test_series_exp_trace_examples():
    e1 = series_exp_trace(1, 1, 2)
    assert e1.coeffs == {(0,): F(1), (1,): F(1), (2,): F(1, 2)}
    assert series_exp_trace(0, 2, 3).coeffs == {(0, 0): F(1)}
    e2 = series_exp_trace(1, 2, 2)
    assert e2.coeffs == {(0, 0): F(1), (1, 0): F(1), (2, 0): F(1, 2), (1, 1): F(1)}


def test_series_inverse_properties():
    for beta in (F(1), F(-2), F(5, 3)):
        a = series_prod_binomial(beta, 1, 2, 5)
        b = series_prod_binomial(-beta, 1, 2, 5)
        assert product(a, b, 5).coeffs == SymPoly.one(2).coeffs
    e = product(series_exp_trace(F(2, 3), 2, 5), series_exp_trace(F(-2, 3), 2, 5), 5)
    assert e.coeffs == SymPoly.one(2).coeffs


def test_series_multiplication_agrees_with_exact_product():
    p = SymPoly(2, {(2, 0): F(1, 2), (1, 1): -2, (0, 0): 1})
    q = SymPoly(2, {(1, 0): 3, (2, 2): F(5, 7)})
    exact = truncated(product(p, q), 3).coeffs
    trunc = product(truncated(p, 3), truncated(q, 3), 3).coeffs
    assert exact == trunc


def test_univariate_kernels():
    geo = u_inv([F(1), F(-1)], 4)
    assert geo == [F(1)] * 5
    prod = u_mul(geo, [F(1), F(-1)], 4)
    assert prod == [F(1), F(0), F(0), F(0), F(0)]
    assert u_binomial(2, 1, 3) == [F(1), F(-2), F(1), F(0)]
    # (1-2z)/(1-z) = 1 - z - z^2 - ...
    assert u_ratio([1, -2], [1, -1], 3) == [F(1), F(-1), F(-1), F(-1)]


def test_compose_diagonal_moebius_example():
    # one variable, entry (1-2z)/(1-z): the degree-1 poly z evaluates to it
    entry = u_ratio([1, -2], [1, -1], 2)
    s = series_compose_diagonal(SymPoly.monomial(1, (1,)), entry, [1], 2)
    assert s.coeffs == {(0,): F(1), (1,): F(-1), (2,): F(-1)}


def test_phi_of_moebius_degenerate_and_empty():
    # the constant polynomial: constant series 1
    s0 = series_compose_diagonal(SymPoly.one(1), u_ratio([1, -2], [1, -1], 3), [1], 3)
    assert s0.coeffs == {(0,): F(1)}
    # numerator equal to the denominator degenerates the entry to 1
    s1 = series_compose_diagonal(SymPoly.monomial(1, (1,)), u_ratio([1, -1], [1, -1], 3), [1], 3)
    assert s1.coeffs == {(0,): F(1)}


def test_compose_diagonal_against_direct_expansion():
    # m_(1,1) at entries u(z_i) = 1 + z_i: (1+z1)(1+z2)
    poly = SymPoly.monomial(2, (1, 1))
    s = series_compose_diagonal(poly, [F(1), F(1)], [1], 2)
    assert s.coeffs == {(0, 0): F(1), (1, 0): F(1), (1, 1): F(1)}


def test_per_variable_matches_binomial_route():
    u = u_binomial(F(-5, 2), F(1, 3), 4)
    a = series_per_variable(u, 2, 4)
    b = series_prod_binomial(F(-5, 2), F(1, 3), 2, 4)
    assert a.coeffs == b.coeffs


def test_r_mismatch_raises():
    with pytest.raises(ValueError):
        SymPoly.one(2) + SymPoly.one(3)


small_series = st.lists(rationals, min_size=1, max_size=3)


@given(
    st.integers(1, 3),
    st.integers(0, 5),
    st.dictionaries(st.integers(0, 9), rationals, max_size=3),
    small_series,
    small_series,
)
@settings(max_examples=40, deadline=None)
def test_compose_with_factor_matches_product_oracle(r, D, picks, entry, factor):
    # the fused pass prod_i f(z_i) poly(u(z)) against the oracle product
    # of the per-variable series and the composition without a factor
    keys = enumerate_up_to(r, 3)
    poly = SymPoly(r, {keys[i % len(keys)]: c for i, c in picks.items()})
    got = series_compose_diagonal(poly, entry, factor, D)
    plain = series_compose_diagonal(poly, entry, [1], D)
    want = product(series_per_variable(factor, r, D), plain, D)
    assert got == want
