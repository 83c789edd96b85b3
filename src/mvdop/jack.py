"""Triangular tables of the deformed symmetric basis P_m at parameter
alpha = 2/d, their values at the all-ones point, and basis conversion.

Construction is an exact eigenfunction recursion: the operator

    E = sum_i x_i^2 d_i^2  +  d * sum_{i<j} pair-transfer terms

acts triangularly (with respect to dominance) on the monomial basis within
each weight, with distinct eigenvalues for d > 0, so each basis element is
solved by back-substitution in descending lexicographic order.  Only the
elements with lam_r = 0 are solved: in r variables
P_(lam + (k^r)) = (x_1 ... x_r)^k P_lam, with the same value at
(1, ..., 1), so the entry of a lam with lam_r = k > 0 is that of
lam - (k^r), k*r weights down, with every key raised by k, over the same
coefficient objects and the same principal value.  The solve still runs
over the whole weight space, since an element with lam_r = 0 expands
over monomials with mu_r > 0.  The recursion runs in Python ints: with
d = p/q it builds q*E, whose entries and eigenvalue gaps are integers,
and keeps each solved coefficient as a reduced numerator over its own
denominator, so one ``Fraction`` is made per coefficient of a solved
element and one per its principal value, and none for a shifted one.
Entries never change once computed, so tables are extended in place and
may be cached or serialized.

Any number of threads may extend and read one table.  Each weight is
solved outside the table's lock and published under it (``_publish``,
which a table read from disk also goes through), its entries stored
before ``built_degree`` counts it; a weight another thread published
first is dropped, so ``built_degree`` never goes down, though two
threads may build the same weight.  A weight reads only lower weights,
and those are already published when its build starts: ``extend``
builds in weight order, and each publish returns with ``built_degree``
at least at its weight.  The ``cache`` dict is scratch space
for downstream layers: its entries are filled lazily, each computed in full
before one store publishes it, so a concurrent reader finds an entry
whole or not at all, and concurrent readers may repeat work.  Nothing
is ever evicted.  Dimension ratios and falling-factorial rows come from
closed forms, so they are cached for any partition queried, also past
the built degree.  A dimension ratio, a shifted factorial (s)_x (kept
per distinct s) and a row capped at weight <= 2 are one entry each; a
row capped at weight >= 3 also fills the rows at its cap below it.  The
verifier keeps one shift-equation plan per distinct family-parameter
set and index, and one node-weight rule per family-parameter set,
degree and truncation weight (none for the sums over the mass), or, for
a weight of finite support, one box rule per family-parameter set and
truncation weight; a truncated sum also keeps, per family-parameter set and node
weight |k|, the running partial shell moments up to the deepest
truncation weight asked for.
The family kernel keeps two integer rows: the terms of each first index
per parameter set, and the falling-factorial row of each second index
per cap.  So the cache grows with the number of parameter draws times
the first indices evaluated, and with the partitions queried on the
table in one process.  The per-(r, d) memo ``_TABLES`` behind
``jack_table`` is process-wide and never evicted either; a validated
table read from the CLI's disk cache joins it through ``_adopt``, so one
(r, d) has one table, and one ``cache``, per process.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from fractions import Fraction
from math import factorial, gcd
from typing import Optional, Union

from .errors import ParameterError, TableDegreeError, integer
from .partitions import format_partition, pad, parse_partition, partitions_of
from .symfun import SymPoly, _orbit

Rat = Union[int, Fraction]


def _operator_rows(r: int, d: Fraction, keys: list) -> dict:
    """Matrix of q*E on the monomial basis of one weight space, d = p/q in
    lowest terms, so every entry is an int.  rows[nu][mu] is the
    coefficient of m_mu in q*E(m_nu)."""
    p, q = d.numerator, d.denominator
    rows = {}
    for nu in keys:
        acc: dict = defaultdict(int)
        diag = q * sum(a * (a - 1) for a in nu)
        for vec in _orbit(nu):
            if diag:
                acc[vec] += diag
            for i in range(r):
                ai = vec[i]
                if not ai:
                    continue
                pa = p * ai
                for j in range(i + 1, r):
                    aj = vec[j]
                    if ai == aj:
                        acc[vec] += pa
                    elif ai > aj:
                        # paired with the (i, j)-swapped orbit element,
                        # which the loop skips when it reaches it
                        acc[vec] += pa
                        sw = list(vec)
                        sw[i], sw[j] = aj, ai
                        acc[tuple(sw)] += pa
                        gap = ai - aj
                        transfer = p * gap
                        for s in range(1, gap):
                            e = list(vec)
                            e[i] = ai - s
                            e[j] = aj + s
                            acc[tuple(e)] += transfer
        rows[nu] = {mu: acc[mu] for mu in keys if acc.get(mu)}
    return rows


def _solve_weight(keys: list, rows: dict, lams) -> dict:
    """Unitriangular eigenvector solve: for each lam in ``lams``, the
    expansion of the basis element with leading monomial m_lam over all of
    ``keys``, as two dicts ({mu: num}, {mu: den}) with gcd(num, den) = 1
    and den > 0.  ``rows`` is q*E in ints; scaling the operator scales
    every eigenvalue gap by the same q, so each ratio
    sum_nu u_nu A[nu][mu] / (e_lam - e_mu) is that of E."""
    cols: dict = {mu: {} for mu in keys}
    for nu, row in rows.items():
        for mu, a in row.items():
            if mu != nu:
                cols[mu][nu] = a
    lams = set(lams)
    out = {}
    for pos, lam in enumerate(keys):
        if lam not in lams:
            continue
        e_lam = rows[lam].get(lam, 0)
        # numerators and denominators in two dicts, and each lcm folded in
        # the loop: a tuple per coefficient or per lcm(*...) call would
        # leave tuples of every size on the interpreter's free lists
        nums = {lam: 1}
        dens = {lam: 1}
        for mu in keys[pos + 1 :]:
            total = 0
            lcd = 1
            for nu, a in cols[mu].items():
                n = nums.get(nu)
                if n is None:
                    continue
                den = dens[nu]
                if lcd % den:
                    grow = den // gcd(lcd, den)
                    total *= grow
                    lcd *= grow
                total += n * a * (lcd // den)
            if total:
                gap = e_lam - rows[mu].get(mu, 0)
                if gap == 0:
                    raise ArithmeticError(
                        f"eigenvalue collision between {lam} and {mu}"
                    )
                den = lcd * gap
                g = gcd(total, den)
                if den < 0:
                    g = -g
                nums[mu] = total // g
                dens[mu] = den // g
        out[lam] = nums, dens
    return out


def _shifted(poly: dict, k: int, keys: dict) -> dict:
    """The expansion of (x_1 ... x_r)^k times the element expanded by
    ``poly``: each key raised by k in every part, as the tuple ``keys``
    holds for it, over the same coefficient objects."""
    return {keys[tuple([a + k for a in mu])]: c for mu, c in poly.items()}


def _orbit_size(mu) -> int:
    """Number of distinct permutations of the partition ``mu``, r!/prod
    mult!, in ints: equal parts are adjacent in a partition."""
    size = factorial(len(mu))
    run = 1
    for prev, a in zip(mu, mu[1:]):
        run = run + 1 if a == prev else 1
        size //= run
    return size


def _value_at_ones(poly: dict, sizes: dict) -> tuple:
    """sum c * |orbit(mu)| over ``poly`` = {mu: c}, given the orbit sizes
    {mu: |orbit(mu)|}: the value of a symmetric polynomial at (1, ..., 1),
    summed in ints over one common denominator and returned unreduced, as
    (numerator, denominator)."""
    total = 0
    lcd = 1
    for mu, c in poly.items():
        den = c.denominator
        if lcd % den:
            grow = den // gcd(lcd, den)
            total *= grow
            lcd *= grow
        total += c.numerator * (lcd // den) * sizes[mu]
    return total, lcd


def _rational(text) -> Fraction:
    if type(text) is not str:
        raise ValueError(f"expected a rational as a string, got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _partition(text, r: int) -> tuple:
    if type(text) is not str:
        raise ValueError(f"expected a partition as a string, got {text!r}")
    return parse_partition(text, r)


# the fields to_json_dict writes, and from_json_dict requires
_JSON_FIELDS = ("r", "d", "built_degree", "polys", "principal")


class JackTable:
    """Per-(r, d) table of basis expansions, built degree by degree."""

    def __init__(self, r: int, d: Rat):
        r = integer(r, "r")
        d = Fraction(d)
        if r < 1:
            raise ParameterError(f"need r >= 1, got {r}")
        if d <= 0:
            raise ParameterError(f"need d > 0, got {d}")
        self.r = r
        self.d = d
        self.alpha = Fraction(2) / d
        self.built_degree = -1
        self._polys: dict = {}
        self._principal: dict = {}
        self._lock = threading.Lock()
        self.cache: dict = {}
        self.extend(0)

    # -- construction -------------------------------------------------

    def extend(self, degree: int) -> "JackTable":
        """Build all weights up to ``degree``; earlier entries are reused
        bit for bit."""
        degree = integer(degree, "degree")
        for w in range(self.built_degree + 1, degree + 1):
            self._build_weight(w)
        return self

    def _build_weight(self, w: int):
        """Solve the lam of weight ``w`` with lam_r = 0; each other lam is
        P_lam = (x_1 ... x_r)^k P_(lam - (k^r)), k = lam_r, read from a
        lower weight that is already published."""
        keys = list(partitions_of(w, self.r))
        rows = _operator_rows(self.r, self.d, keys)
        solved = _solve_weight(keys, rows, [lam for lam in keys if not lam[-1]])
        sizes = {mu: _orbit_size(mu) for mu in keys}
        # the raised keys are this weight's own tuples, so every entry of
        # the weight shares them, as the solved entries do
        own = {mu: mu for mu in keys}
        polys, principal = {}, {}
        for lam in keys:
            k = lam[-1]
            if k:
                base = tuple([a - k for a in lam])
                polys[lam] = _shifted(self._polys[base], k, own)
                principal[lam] = self._principal[base]
            else:
                nums, dens = solved[lam]
                poly = polys[lam] = {mu: Fraction(n, dens[mu]) for mu, n in nums.items()}
                principal[lam] = Fraction(*_value_at_ones(poly, sizes))
        self._publish(w, polys, principal)

    def _publish(self, w: int, polys: dict, principal: dict):
        """Store the entries of weight ``w``, then count it built, under the
        table's lock.  A weight that another thread published first is
        left as it is, so ``built_degree`` never goes down."""
        with self._lock:
            if w == self.built_degree + 1:
                self._polys.update(polys)
                self._principal.update(principal)
                self.built_degree = w

    def check_degree(self, w: int):
        if w > self.built_degree:
            raise TableDegreeError(
                f"table built to degree {self.built_degree}, need {w}; extend first"
            )

    # -- accessors ----------------------------------------------------

    def p(self, m) -> SymPoly:
        """Monomial expansion of the basis element with leading key ``m``."""
        m = pad(m, self.r)
        self.check_degree(sum(m))
        return SymPoly(self.r, self._polys[m])

    def principal(self, m) -> Fraction:
        """Value of the basis element at the all-ones point."""
        m = pad(m, self.r)
        self.check_degree(sum(m))
        return self._principal[m]

    def phi(self, m) -> SymPoly:
        """The basis element normalized to take value 1 at (1, ..., 1)."""
        m = pad(m, self.r)
        key = ("phi", m)
        got = self.cache.get(key)
        if got is None:
            got = self.p(m).scale(1 / self.principal(m))
            self.cache[key] = got
        return got

    # -- conversions ----------------------------------------------------

    def to_phi_basis(self, poly) -> dict:
        """Coefficients c_m with poly = sum c_m Phi_m, by unitriangular
        back-substitution within each weight.  ``poly`` is a SymPoly; the
        result is exact."""
        if not isinstance(poly, SymPoly):
            raise TypeError(f"cannot convert {type(poly).__name__}")
        if poly.r != self.r:
            raise ValueError(f"ambient length mismatch: {poly.r} vs {self.r}")
        buckets: dict = defaultdict(dict)
        for k, c in poly.coeffs.items():
            buckets[sum(k)][k] = c
        out = {}
        for w in sorted(buckets):
            self.check_degree(w)
            rem = buckets[w]
            for mu in partitions_of(w, self.r):
                c = rem.pop(mu, Fraction(0))
                if not c:
                    continue
                out[mu] = c * self._principal[mu]
                for nu, a in self._polys[mu].items():
                    if nu == mu:
                        continue
                    nv = rem.get(nu, Fraction(0)) - c * a
                    if nv:
                        rem[nu] = nv
                    else:
                        rem.pop(nu, None)
            if rem:
                raise ValueError(f"non-symmetric input slice at weight {w}: {rem}")
        return out

    # -- serialization --------------------------------------------------

    def to_json_dict(self, degree: Optional[int] = None) -> dict:
        """The weights up to ``degree`` (default: the built degree), so the
        result is that of a table built to exactly ``degree``."""
        if degree is None:
            degree = self.built_degree
        self.check_degree(degree)
        keys = sorted(
            (m for m in self._polys if sum(m) <= degree), key=lambda k: (sum(k), tuple(-a for a in k))
        )
        polys = {}
        for m in keys:
            items = sorted(self._polys[m].items(), key=lambda kv: kv[0], reverse=True)
            polys[format_partition(m)] = [
                [format_partition(mu), str(c)] for mu, c in items
            ]
        principal = {format_partition(m): str(self._principal[m]) for m in keys}
        return {
            "r": self.r,
            "d": str(self.d),
            "built_degree": degree,
            "polys": polys,
            "principal": principal,
        }

    @classmethod
    def from_json_dict(cls, data) -> "JackTable":
        """The table ``to_json_dict`` serialized, validated.  Raises
        ``ValueError`` unless ``data`` has that shape, its keys are exactly
        the partitions up to ``built_degree``, each expansion is over
        partitions of its own weight, lexicographically at most its key,
        with leading coefficient 1, and each principal value is
        sum c * |orbit| over its expansion."""
        if not isinstance(data, dict) or set(data) != set(_JSON_FIELDS):
            raise ValueError(f"not a basis table: expected the fields {_JSON_FIELDS}")
        r, d, degree, polys, principal = (data[f] for f in _JSON_FIELDS)
        if type(r) is not int or type(degree) is not int or degree < 0:
            raise ValueError("r and built_degree must be integers, built_degree >= 0")
        if not isinstance(polys, dict) or not isinstance(principal, dict):
            raise ValueError("polys and principal must be objects")
        try:
            table = cls(r, _rational(d))
        except ParameterError as exc:
            raise ValueError(str(exc)) from None
        # each distinct key and coefficient string is parsed (and so
        # validated) once per load; the parsed values are immutable
        key = functools.cache(lambda text: _partition(text, r))
        rat = functools.cache(_rational)
        table._polys = {}
        try:
            for mtxt, items in polys.items():
                if type(items) is not list or not set(map(type, items)) <= {list}:
                    raise ValueError(f"expansion of {mtxt!r} is not a list of [key, value] pairs")
                poly = table._polys[key(mtxt)] = {key(mutxt): rat(ctxt) for mutxt, ctxt in items}
                if len(poly) != len(items):
                    raise ValueError(f"expansion of {mtxt!r} repeats a monomial")
            table._principal = {key(mtxt): rat(vtxt) for mtxt, vtxt in principal.items()}
        except TypeError:
            # a list or an object where a key or a value string belongs
            raise ValueError("a key or a value is not a string") from None
        count = 0
        for w in range(degree + 1):
            parts = list(partitions_of(w, r))
            count += len(parts)
            sizes = {mu: _orbit_size(mu) for mu in parts}
            below = set()
            for m in reversed(parts):
                below.add(m)
                poly = table._polys.get(m)
                value = table._principal.get(m)
                if poly is None or value is None:
                    raise ValueError(f"no entry for {format_partition(m)}")
                if poly.get(m) != 1 or not poly.keys() <= below:
                    raise ValueError(f"expansion of {format_partition(m)} is not unitriangular")
                total, lcd = _value_at_ones(poly, sizes)
                if total * value.denominator != value.numerator * lcd:
                    raise ValueError(
                        f"principal value of {format_partition(m)} is not sum c * |orbit|"
                    )
        # every partition up to the degree is there, so as many texts as
        # partitions means no text of another key, and no two of one key
        if len(polys) != count or len(principal) != count:
            raise ValueError(f"keys are not the partitions up to weight {degree}")
        table.built_degree = degree
        return table


_TABLES: dict = {}


def jack_table(r: int, d: Rat, degree: int) -> JackTable:
    """Memoized table per (r, d), extended at least to ``degree``."""
    key = (integer(r, "r"), Fraction(d))
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES.setdefault(key, JackTable(r, d))
    table.extend(degree)
    return table


def _adopt(parsed: JackTable) -> JackTable:
    """The process table of ``parsed``'s (r, d), given the weights of a
    validated table read from disk: ``parsed`` itself when the process has
    none yet, else the process table with the weights it lacks published
    from ``parsed`` in weight order, as ``extend`` publishes them.  The
    process table keeps its identity and its ``cache``."""
    table = _TABLES.setdefault((parsed.r, parsed.d), parsed)
    for w in range(table.built_degree + 1, parsed.built_degree + 1):
        parts = list(partitions_of(w, table.r))
        table._publish(w, {m: parsed._polys[m] for m in parts},
                       {m: parsed._principal[m] for m in parts})
    return table
