import json
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mvdop import jack
from mvdop.errors import TableDegreeError
from mvdop.jack import JackTable, jack_table
from mvdop.partitions import enumerate_up_to, pad, weight
from mvdop.symfun import SymPoly

from .oracles import (
    basis_table_all_solved,
    basis_table_fraction,
    gram_schmidt_basis,
    pieri_coefficients,
    product,
    restrict_to_r,
    schur_eval,
)

F = Fraction


def test_degree_one_is_the_power_sum():
    for r in (1, 2, 3):
        for d in (F(1), F(2), F(7, 3)):
            t = JackTable(r, d)
            t.extend(1)
            key = pad((1,), r)
            assert t.p(key).coeffs == {key: F(1)}


def test_generic_alpha_weight_two():
    # leading-one expansion with subdominant coefficient 2/(1+alpha)
    for d in (F(2), F(1), F(5, 2), F(1, 3)):
        t = JackTable(2, d)
        t.extend(2)
        alpha = F(2) / d
        assert t.p((2, 0)).coeffs == {(2, 0): F(1), (1, 1): 2 / (1 + alpha)}
        assert t.p((1, 1)).coeffs == {(1, 1): F(1)}


@pytest.mark.parametrize("w", [2, 3, 4])
@pytest.mark.parametrize("d", [F(2), F(1), F(4), F(5, 2)])
def test_against_gram_schmidt_oracle(w, d):
    alpha = F(2) / d
    oracle = gram_schmidt_basis(w, alpha)
    for r in (2, 3):
        t = jack_table(r, d, w)
        for lam, coeffs in oracle.items():
            if len(lam) > r:
                continue
            want = restrict_to_r(coeffs, r)
            assert t.p(pad(lam, r)).coeffs == want, (lam, r, d)


@pytest.mark.parametrize(
    "r, d, degree",
    [(1, F(3), 40), (2, F(5, 2), 30), (3, F(7, 3), 16), (4, F(1, 3), 12), (5, F(2, 7), 10)],
)
def test_integer_build_matches_fraction_oracle(r, d, degree):
    # the table runs the eigenoperator recursion on q*E in ints, d = p/q;
    # the oracle runs it on E in Fractions.  With q > 1 an operator only
    # partly scaled by q has other eigenvectors, so entries differ
    polys, principal = basis_table_fraction(r, d, degree)
    t = JackTable(r, d).extend(degree)
    assert t._polys.keys() == polys.keys()
    for m, want in polys.items():
        assert t._polys[m] == want, (r, d, m)
        assert all(type(c) is Fraction for c in t._polys[m].values()), (r, d, m)
        assert t._principal[m] == principal[m], (r, d, m)
    assert t._principal.keys() == principal.keys()


@settings(max_examples=40, deadline=None)
@given(
    r=st.integers(1, 4),
    p=st.integers(1, 12),
    q=st.integers(1, 12),
    data=st.data(),
)
def test_shifted_entries_match_the_all_solved_oracle(r, p, q, data):
    # the table solves only the lam with lam_r = 0 and takes each other one
    # as (x_1 ... x_r)^lam_r times a lower entry; the oracle solves every lam
    degree = data.draw(st.integers(0, 6 if r == 4 else 8), label="degree")
    t = JackTable(r, F(p, q)).extend(degree)
    want = basis_table_all_solved(r, F(p, q), degree)
    assert t._polys == want._polys
    assert t._principal == want._principal
    assert json.dumps(t.to_json_dict()) == json.dumps(want.to_json_dict())


def test_only_the_lam_with_last_part_zero_are_solved(monkeypatch):
    solved = []
    solve = jack._solve_weight

    def spy(keys, rows, lams):
        solved.extend(lams)
        return solve(keys, rows, lams)

    monkeypatch.setattr(jack, "_solve_weight", spy)
    for r, d, degree, count in [(2, 2, 42, 43), (3, 3, 26, 196), (1, 2, 12, 1)]:
        solved.clear()
        JackTable(r, d).extend(degree)
        assert len(solved) == count, (r, d, degree)
        assert all(lam[-1] == 0 for lam in solved)


def test_shifted_entries_share_their_base_objects():
    t = JackTable(2, 2).extend(4)
    assert t._polys[(3, 1)][(2, 2)] is t._polys[(2, 0)][(1, 1)]
    assert t._principal[(3, 1)] is t._principal[(2, 0)]
    # and each key tuple is the one the weight's solved entry holds
    key = {k: k for k in t._polys[(4, 0)]}
    assert all(k is key[k] for m in ((3, 1), (2, 2)) for k in t._polys[m])
    t = JackTable(3, F(7, 3)).extend(9)
    assert t._polys[(4, 3, 2)][(3, 3, 3)] is t._polys[(2, 1, 0)][(1, 1, 1)]
    assert t._principal[(4, 3, 2)] is t._principal[(2, 1, 0)]


def test_schur_case_two_rows():
    # at d = 2, r = 2 the (2,1) element is the bare monomial
    t = jack_table(2, 2, 3)
    assert t.p((2, 1)).coeffs == {(2, 1): F(1)}


def test_schur_specialization_at_points():
    # d = 2 entries evaluate like bialternant ratios
    pts = {2: (F(3), F(1, 2)), 3: (F(2), F(1, 3), F(-1))}
    for r, xs in pts.items():
        t = jack_table(r, 2, 4)
        for m in enumerate_up_to(r, 4):
            assert t.p(m).eval_at(xs) == schur_eval(m, xs)


def test_unitriangular_leading_coefficient():
    t = jack_table(3, F(7, 2), 5)
    for m in enumerate_up_to(3, 5):
        coeffs = t.p(m).coeffs
        assert coeffs[m] == 1
        for mu in coeffs:
            assert weight(mu) == weight(m)


def test_principal_positive_and_normalization():
    for d in (F(1), F(2), F(5, 2)):
        t = jack_table(2, d, 5)
        for m in enumerate_up_to(2, 5):
            assert t.principal(m) > 0
            assert t.phi(m).eval_at((1, 1)) == 1


def test_phi_examples():
    t = jack_table(3, F(3), 2)
    assert t.phi((0, 0, 0)).coeffs == {(0, 0, 0): F(1)}
    assert t.phi((1, 0, 0)).coeffs == {(1, 0, 0): F(1, 3)}
    t2 = jack_table(2, 2, 2)
    assert t2.phi((1, 1)).coeffs == {(1, 1): F(1)}


@given(
    st.tuples(
        st.fractions(min_value=0, max_value=3, max_denominator=5),
        st.fractions(min_value=0, max_value=3, max_denominator=5),
    )
)
@settings(max_examples=25, deadline=None)
def test_bounded_on_ordered_nonnegative_diagonal(point):
    lam = tuple(sorted(point, reverse=True))
    t = jack_table(2, F(5, 2), 3)
    for m in enumerate_up_to(2, 3):
        v = t.phi(m).eval_at(lam)
        assert 0 <= v <= lam[0] ** weight(m)


def test_to_phi_basis_round_trip():
    t = jack_table(2, F(5, 2), 4)
    for m in enumerate_up_to(2, 4):
        conv = t.to_phi_basis(t.phi(m))
        assert conv == {m: F(1)}
    assert t.to_phi_basis(SymPoly.monomial(2, (1,))) == {(1, 0): F(2)}


def _slice_off_partitions():
    # a coefficient dict holding a composition that is not a partition: no
    # SymPoly the package builds has one, so the back-substitution leaves it
    poly = SymPoly(2)
    poly.coeffs = {(0, 1): F(1)}
    return poly


@pytest.mark.parametrize("poly, error, message", [
    ({(1, 0): F(1)}, TypeError, "cannot convert dict"),
    (SymPoly.monomial(3, (1,)), ValueError, "ambient length mismatch: 3 vs 2"),
    (_slice_off_partitions(), ValueError, "non-symmetric input slice at weight 1"),
], ids=["not-a-sympoly", "other-r", "non-symmetric"])
def test_to_phi_basis_refusals(poly, error, message):
    t = jack_table(2, F(5, 2), 2)
    with pytest.raises(error, match=message):
        t.to_phi_basis(poly)


def test_to_phi_basis_p1_squared_schur_oracle():
    # p1^2 = s_(2) + s_(1,1); divide by principal values 3 and 1
    t = jack_table(2, 2, 2)
    p1 = SymPoly.monomial(2, (1,))
    conv = t.to_phi_basis(product(p1, p1))
    assert conv == {(2, 0): F(3), (1, 1): F(1)}


def test_pieri_coefficients():
    t = jack_table(2, 2, 3)
    assert pieri_coefficients(t, (1, 0)) == {1: F(3, 2), 2: F(1, 2)}
    t1 = jack_table(1, F(3), 4)
    assert pieri_coefficients(t1, (2,)) == {1: F(1)}


def test_pieri_sum_is_r():
    for r, d in ((2, F(5, 2)), (3, F(1))):
        t = jack_table(r, d, 4)
        for m in enumerate_up_to(r, 3):
            assert sum(pieri_coefficients(t, m).values()) == r


def test_extension_preserves_entries():
    t = JackTable(2, F(5, 2))
    t.extend(3)
    before = {m: dict(t._polys[m]) for m in list(t._polys)}
    t.extend(6)
    for m, coeffs in before.items():
        assert t._polys[m] == coeffs


def test_constructor_parameter_errors():
    from mvdop.errors import ParameterError

    with pytest.raises(ParameterError):
        JackTable(2, 0)
    with pytest.raises(ParameterError):
        JackTable(2, F(-1, 2))
    with pytest.raises(ParameterError):
        JackTable(0, 2)


@pytest.mark.parametrize("r", [2.7, 2.0, "2"], ids=repr)
def test_non_integral_rank_is_refused(r):
    # the rank goes through operator.index, so it is refused rather than
    # truncated, also when the process already holds the table of int(r)
    from mvdop.errors import ParameterError

    jack_table(2, 2, 1)
    with pytest.raises(ParameterError, match=f"r must be an integer, got {r!r}"):
        JackTable(r, 2)
    with pytest.raises(ParameterError, match=f"r must be an integer, got {r!r}"):
        jack_table(r, 2, 1)


@pytest.mark.parametrize("degree", [2.5, 2.0, "3"], ids=repr)
def test_non_integral_degree_is_refused(degree):
    from mvdop.errors import ParameterError

    with pytest.raises(ParameterError, match=f"degree must be an integer, got {degree!r}"):
        jack_table(2, 2, degree)
    with pytest.raises(ParameterError, match=f"degree must be an integer, got {degree!r}"):
        JackTable(2, 2).extend(degree)


def test_degree_error():
    t = JackTable(2, 2)
    t.extend(2)
    with pytest.raises(TableDegreeError):
        t.p((3, 0))


def test_json_dump_golden():
    t = JackTable(2, 2)
    t.extend(2)
    assert t.to_json_dict() == {
        "r": 2,
        "d": "2",
        "built_degree": 2,
        "polys": {
            "0,0": [["0,0", "1"]],
            "1,0": [["1,0", "1"]],
            "2,0": [["2,0", "1"], ["1,1", "1"]],
            "1,1": [["1,1", "1"]],
        },
        "principal": {"0,0": "1", "1,0": "2", "2,0": "3", "1,1": "1"},
    }


def test_json_round_trip_bit_identical():
    t = JackTable(2, F(5, 2))
    t.extend(4)
    dumped = json.dumps(t.to_json_dict(), sort_keys=False)
    back = JackTable.from_json_dict(json.loads(dumped))
    assert back.built_degree == t.built_degree
    assert back._polys == t._polys
    assert back._principal == t._principal
    assert json.dumps(back.to_json_dict(), sort_keys=False) == dumped


def test_json_round_trip_bit_identical_non_classical():
    dumped = json.dumps(JackTable(3, F(7, 3)).extend(5).to_json_dict(), sort_keys=False)
    back = JackTable.from_json_dict(json.loads(dumped))
    assert json.dumps(back.to_json_dict(), sort_keys=False) == dumped


@pytest.mark.parametrize("where", ["basis", "monomial", "principal"])
def test_json_load_validates_every_distinct_key(where):
    # keys are parsed once per distinct string, and each of them still
    # goes through the partition check
    data = JackTable(2, F(5, 2)).extend(3).to_json_dict()
    if where == "basis":
        data["polys"]["1,2"] = data["polys"].pop("2,1")
    elif where == "monomial":
        data["polys"]["2,1"][-1][0] = "1,2"
    else:
        data["principal"]["1,2"] = data["principal"].pop("2,1")
    with pytest.raises(ValueError, match="not a partition"):
        JackTable.from_json_dict(data)


@settings(max_examples=30, deadline=None)
@given(
    r=st.integers(1, 4),
    p=st.integers(1, 12),
    q=st.integers(1, 12),
    data=st.data(),
)
def test_json_round_trip_validates_property(r, p, q, data):
    # what to_json_dict writes, from_json_dict accepts, and it serializes
    # back to the same bytes
    degree = data.draw(st.integers(0, (12, 9, 6, 5)[r - 1]), label="degree")
    dumped = json.dumps(JackTable(r, F(p, q)).extend(degree).to_json_dict(), indent=None,
                        sort_keys=False)
    back = JackTable.from_json_dict(json.loads(dumped))
    assert back.built_degree == degree
    assert json.dumps(back.to_json_dict(), indent=None, sort_keys=False) == dumped


def _mutations(data):
    """Copies of a serialized table, each with one value changed: every
    coefficient and every principal value, in turn, plus one."""
    for mtxt, items in data["polys"].items():
        for i, (mutxt, ctxt) in enumerate(items):
            bad = json.loads(json.dumps(data))
            bad["polys"][mtxt][i][1] = str(F(ctxt) + 1)
            yield f"coefficient {mutxt} of {mtxt}", bad
    for mtxt, vtxt in data["principal"].items():
        bad = json.loads(json.dumps(data))
        bad["principal"][mtxt] = str(F(vtxt) + 1)
        yield f"principal value of {mtxt}", bad


@pytest.mark.parametrize("r, d, degree", [(2, F(2), 5), (3, F(7, 3), 4)])
def test_json_load_refuses_one_changed_value(r, d, degree):
    data = JackTable(r, d).extend(degree).to_json_dict()
    for what, bad in _mutations(data):
        with pytest.raises(ValueError):
            JackTable.from_json_dict(bad)
            pytest.fail(f"accepted a changed {what}")


_MALFORMED = {
    "a list": lambda t: [t],
    "null": lambda t: None,
    "polys a list": lambda t: {**t, "polys": []},
    "d a number": lambda t: {**t, "d": 2},
    "d with zero denominator": lambda t: {**t, "d": "1/0"},
    "d negative": lambda t: {**t, "d": "-2"},
    "r a string": lambda t: {**t, "r": "2"},
    "built_degree a bool": lambda t: {**t, "built_degree": True},
    "an extra field": lambda t: {**t, "version": 1},
    "built_degree too high": lambda t: {**t, "built_degree": t["built_degree"] + 1},
    "built_degree too low": lambda t: {**t, "built_degree": t["built_degree"] - 1},
    "a number for a coefficient": lambda t: {**t, "polys": {**t["polys"], "2,1": [["2,1", 1]]}},
    "a list for a key": lambda t: {**t, "polys": {**t["polys"], "2,1": [[["2,1"], "1"]]}},
    "a repeated monomial": lambda t: {
        **t, "polys": {**t["polys"], "2,1": [["2,1", "1"], ["2,1", "1"]]}},
    "an object for an expansion": lambda t: {**t, "polys": {**t["polys"], "2,1": {"2,1": "1"}}},
    "a flat expansion": lambda t: {**t, "polys": {**t["polys"], "2,1": ["2,1", "1"]}},
    "a monomial above the key": lambda t: {
        **t, "polys": {**t["polys"], "1,1": [["1,1", "1"], ["2,0", "0"]]}},
    "two texts for one key": lambda t: {**t, "polys": {**t["polys"], "2,1,0": t["polys"]["2,1"]}},
    "a list for a principal value": lambda t: {**t, "principal": {**t["principal"], "2,1": ["3"]}},
    "a principal value over zero": lambda t: {
        **t, "principal": {**t["principal"], "2,1": "1/0"}},
    "leading coefficient 2, principal value to match": lambda t: {
        **t, "polys": {**t["polys"], "1,1": [["1,1", "2"]]},
        "principal": {**t["principal"], "1,1": "2"}},
}


@pytest.mark.parametrize("change", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_json_load_refuses_a_malformed_table(change):
    # every defect is a ValueError, which the CLI takes as a cache miss
    data = JackTable(2, 2).extend(3).to_json_dict()
    with pytest.raises(ValueError):
        JackTable.from_json_dict(change(data))


@pytest.mark.parametrize("change", [
    lambda t: {**t, "polys": {**t["polys"], "2,1": [[["2,1"], "1"]]}},
    lambda t: {**t, "principal": {**t["principal"], "2,1": ["3"]}},
], ids=["key", "value"])
def test_json_load_names_an_unhashable_text(change):
    # a list where a key or a value string belongs cannot even be looked
    # up in the per-load parse memo; it is refused as not a string
    data = JackTable(2, 2).extend(3).to_json_dict()
    with pytest.raises(ValueError, match="a key or a value is not a string"):
        JackTable.from_json_dict(change(data))


def test_concurrent_extend_never_lowers_the_built_degree(monkeypatch):
    # a slow thread extends to 6 and is held inside weight 5; meanwhile
    # another extends the same table to 10.  When the slow thread goes on,
    # its weights 5 and 6 are already there: the table must stay at 10.
    # The hold is timed, so a build that waits for a lock cannot deadlock
    monkeypatch.setattr(jack, "_TABLES", {})
    held, release = threading.Event(), threading.Event()
    build = JackTable._build_weight

    def holding(self, w):
        if w == 5 and threading.current_thread() is slow:
            held.set()
            release.wait(timeout=2)
        return build(self, w)

    monkeypatch.setattr(JackTable, "_build_weight", holding)
    slow = threading.Thread(target=jack_table, args=(2, 2, 6))
    fast = threading.Thread(target=jack_table, args=(2, 2, 10))
    slow.start()
    assert held.wait(timeout=10)
    fast.start()
    fast.join(timeout=10)
    table = jack_table(2, 2, 8)
    release.set()
    slow.join(timeout=10)
    fast.join(timeout=10)
    assert not slow.is_alive() and not fast.is_alive()
    assert table.built_degree >= 10
    assert table.principal((8,)) == JackTable(2, 2).extend(8).principal((8,))
    assert table.principal((10,)) == JackTable(2, 2).extend(10).principal((10,))


def test_concurrent_extends_reach_the_deepest_degree(monkeypatch):
    # more threads than cores extend one table to different degrees with a
    # short switch interval, and each reads at its own degree once
    # jack_table returns; a lowered built_degree fails such a read or
    # leaves the table below the deepest degree, and a lost publish leaves
    # its entries unlike a single-threaded build
    degrees = [6, 10, 8, 6, 10, 8, 6, 10]
    want = JackTable(2, 2).extend(max(degrees)).to_json_dict()
    errors = []

    def extend_and_read(w):
        try:
            jack_table(2, 2, w).principal((w,))
        except TableDegreeError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(30):
            monkeypatch.setattr(jack, "_TABLES", {})
            threads = [threading.Thread(target=extend_and_read, args=(w,)) for w in degrees]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
            assert not any(th.is_alive() for th in threads)
            assert jack_table(2, 2, 0).to_json_dict() == want
    finally:
        sys.setswitchinterval(interval)
    assert not errors


def test_concurrent_extends_at_rank_three(monkeypatch):
    # as above at r = 3, where an entry with lam_3 = k is shifted up from
    # weight |lam| - 3k: every thread must find that base published
    degrees = [9, 13, 11, 9, 13, 11, 9, 13]
    want = JackTable(3, 3).extend(max(degrees)).to_json_dict()
    errors = []

    def extend_and_read(w):
        try:
            jack_table(3, 3, w).principal((w - 6, 3, 3))
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(30):
            monkeypatch.setattr(jack, "_TABLES", {})
            threads = [threading.Thread(target=extend_and_read, args=(w,)) for w in degrees]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
            assert not any(th.is_alive() for th in threads)
            assert jack_table(3, 3, 0).to_json_dict() == want
    finally:
        sys.setswitchinterval(interval)
    assert not errors
