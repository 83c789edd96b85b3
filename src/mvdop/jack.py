"""Triangular tables of the deformed symmetric basis P_m at parameter
alpha = 2/d, their values at the all-ones point, and basis conversion.

Construction is an exact eigenfunction recursion: the operator

    E = sum_i x_i^2 d_i^2  +  d * sum_{i<j} pair-transfer terms

acts triangularly (with respect to dominance) on the monomial basis within
each weight, with distinct eigenvalues for d > 0, so each basis element is
solved by back-substitution in descending lexicographic order.  The
recursion runs in Python ints: with d = p/q it builds q*E, whose entries
and eigenvalue gaps are integers, and keeps each solved coefficient as a
reduced numerator over its own denominator, so one ``Fraction`` is made
per stored coefficient and one per principal value.  Entries never
change once computed, so tables are extended in place and may be cached
or serialized.

Tables are single-writer during ``extend``; a finished table may be read
from any number of threads.  The ``cache`` dict is scratch space for
downstream layers: its entries are filled lazily, each computed in full
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
``jack_table`` is process-wide and never evicted either.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd
from typing import Optional, Union

from .errors import ParameterError, TableDegreeError
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


def _solve_weight(keys: list, rows: dict) -> dict:
    """Unitriangular eigenvector solve: for each lam, the expansion of the
    basis element with leading monomial m_lam, as two dicts ({mu: num},
    {mu: den}) with gcd(num, den) = 1 and den > 0.  ``rows`` is q*E in
    ints; scaling the operator scales every eigenvalue gap by the same q,
    so each ratio sum_nu u_nu A[nu][mu] / (e_lam - e_mu) is that of E."""
    cols: dict = {mu: {} for mu in keys}
    for nu, row in rows.items():
        for mu, a in row.items():
            if mu != nu:
                cols[mu][nu] = a
    out = {}
    for pos, lam in enumerate(keys):
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


class _ParseOnce(dict):
    """text -> parse(text), each distinct text parsed on first lookup."""

    def __init__(self, parse):
        super().__init__()
        self.parse = parse

    def __missing__(self, text):
        got = self[text] = self.parse(text)
        return got


class JackTable:
    """Per-(r, d) table of basis expansions, built degree by degree."""

    def __init__(self, r: int, d: Rat):
        r = int(r)
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
        self.cache: dict = {}
        self.extend(0)

    # -- construction -------------------------------------------------

    def extend(self, degree: int) -> "JackTable":
        """Build all weights up to ``degree``; earlier entries are reused
        bit for bit."""
        for w in range(self.built_degree + 1, degree + 1):
            self._build_weight(w)
            self.built_degree = w
        return self

    def _build_weight(self, w: int):
        keys = list(partitions_of(w, self.r))
        if w == 0:
            self._polys[keys[0]] = {keys[0]: Fraction(1)}
            self._principal[keys[0]] = Fraction(1)
            return
        rows = _operator_rows(self.r, self.d, keys)
        for lam, (nums, dens) in _solve_weight(keys, rows).items():
            self._polys[lam] = {mu: Fraction(n, dens[mu]) for mu, n in nums.items()}
            lcd = 1
            for den in dens.values():
                if lcd % den:
                    lcd *= den // gcd(lcd, den)
            total = sum(n * (lcd // dens[mu]) * len(_orbit(mu)) for mu, n in nums.items())
            self._principal[lam] = Fraction(total, lcd)

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
        back-substitution within each weight.  ``poly`` is a SymPoly, with
        or without a degree cap; the result is exact."""
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
    def from_json_dict(cls, data: dict) -> "JackTable":
        table = cls(int(data["r"]), Fraction(data["d"]))
        r = table.r
        # each distinct key and coefficient string is parsed (and so
        # validated) once per load; the parsed values are immutable
        key = _ParseOnce(lambda text: parse_partition(text, r))
        rat = _ParseOnce(Fraction)
        for mtxt, items in data["polys"].items():
            table._polys[key[mtxt]] = {key[mutxt]: rat[ctxt] for mutxt, ctxt in items}
        for mtxt, vtxt in data["principal"].items():
            table._principal[key[mtxt]] = rat[vtxt]
        table.built_degree = int(data["built_degree"])
        return table


_TABLES: dict = {}


def jack_table(r: int, d: Rat, degree: int) -> JackTable:
    """Memoized table per (r, d), extended at least to ``degree``."""
    key = (int(r), Fraction(d))
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES.setdefault(key, JackTable(r, d))
    table.extend(degree)
    return table
