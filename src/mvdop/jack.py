"""Triangular tables of the deformed symmetric basis P_m at parameter
alpha = 2/d, their values at the all-ones point, basis conversion, and the
multiplication-by-p1 coefficients.

Construction is an exact eigenfunction recursion: the operator

    E = sum_i x_i^2 d_i^2  +  d * sum_{i<j} pair-transfer terms

acts triangularly (with respect to dominance) on the monomial basis within
each weight, with distinct eigenvalues for d > 0, so each basis element is
solved by back-substitution in descending lexicographic order.  Entries
never change once computed, so tables are extended in place and may be
cached or serialized.

Tables are single-writer during ``extend``; a finished table may be read
from any number of threads.  The ``cache`` dict is scratch space for
downstream layers: its entries are filled lazily, each computed in full
before one store publishes it, so a concurrent reader finds an entry
whole or not at all, and concurrent readers may repeat work.  Nothing
is ever evicted.  Dimension ratios and falling-factorial rows come from
closed forms, so they are cached for any partition queried, also past
the built degree, together with the entries below it that a miss fills.
``weight_factor`` keeps the shifted factorial (s)_x per distinct s and
partition.  The verifier keeps one shift-equation plan per distinct
family-parameter set and index.  The family kernel keeps two integer
rows: the terms of each first index per parameter set, and the
falling-factorial row of each second index per cap.  So the cache grows
with the number of parameter draws times the first indices evaluated, and
with the partitions queried on the table in one process.  The per-(r, d)
memo ``_TABLES`` behind ``jack_table`` is process-wide and never evicted
either.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import Union

from .errors import ParameterError, TableDegreeError
from .partitions import box_move, format_partition, pad, parse_partition, partitions_of
from .symfun import SymPoly, _orbit

Rat = Union[int, Fraction]


def _operator_rows(r: int, d: Fraction, keys: list) -> dict:
    """Matrix of the deformation operator on the monomial basis of one
    weight space.  rows[nu][mu] is the coefficient of m_mu in E(m_nu)."""
    rows = {}
    for nu in keys:
        acc: dict = defaultdict(Fraction)
        diag = Fraction(sum(a * (a - 1) for a in nu))
        for vec in _orbit(nu):
            if diag:
                acc[vec] += diag
            for i in range(r):
                ai = vec[i]
                if not ai:
                    continue
                for j in range(i + 1, r):
                    aj = vec[j]
                    if ai == aj:
                        acc[vec] += d * ai
                    elif ai > aj:
                        # paired with the (i, j)-swapped orbit element,
                        # which the loop skips when it reaches it
                        acc[vec] += d * ai
                        sw = list(vec)
                        sw[i], sw[j] = aj, ai
                        acc[tuple(sw)] += d * ai
                        gap = ai - aj
                        transfer = d * gap
                        for s in range(1, gap):
                            e = list(vec)
                            e[i] = ai - s
                            e[j] = aj + s
                            acc[tuple(e)] += transfer
        rows[nu] = {mu: acc[mu] for mu in keys if acc.get(mu)}
    return rows


def _solve_weight(keys: list, rows: dict) -> dict:
    """Unitriangular eigenvector solve: for each lam, the expansion of the
    basis element with leading monomial m_lam."""
    out = {}
    for pos, lam in enumerate(keys):
        e_lam = rows[lam].get(lam, Fraction(0))
        u = {lam: Fraction(1)}
        for mu in keys[pos + 1 :]:
            num = Fraction(0)
            for nu, c in u.items():
                a = rows[nu].get(mu)
                if a:
                    num += c * a
            if num:
                gap = e_lam - rows[mu].get(mu, Fraction(0))
                if gap == 0:
                    raise ArithmeticError(
                        f"eigenvalue collision between {lam} and {mu}"
                    )
                u[mu] = num / gap
        out[lam] = u
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
        solved = _solve_weight(keys, rows)
        for lam, expansion in solved.items():
            self._polys[lam] = expansion
            self._principal[lam] = sum(
                c * len(_orbit(mu)) for mu, c in expansion.items()
            )

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

    def pieri_coefficients(self, m) -> dict:
        """Coefficients b_j with m_(1) * Phi_m = sum_j b_j Phi_{m + e_j},
        obtained by basis expansion (no closed form)."""
        m = pad(m, self.r)
        self.check_degree(sum(m) + 1)
        p1 = SymPoly.monomial(self.r, (1,))
        conv = self.to_phi_basis(p1 * self.phi(m))
        out = {}
        for j in range(1, self.r + 1):
            up = box_move(m, j, +1)
            if up is not None and up in conv:
                out[j] = conv[up]
        return out

    # -- serialization --------------------------------------------------

    def to_json_dict(self) -> dict:
        polys = {}
        for m in sorted(self._polys, key=lambda k: (sum(k), tuple(-a for a in k))):
            items = sorted(self._polys[m].items(), key=lambda kv: kv[0], reverse=True)
            polys[format_partition(m)] = [
                [format_partition(mu), str(c)] for mu, c in items
            ]
        principal = {
            format_partition(m): str(v)
            for m, v in sorted(
                self._principal.items(), key=lambda kv: (sum(kv[0]), tuple(-a for a in kv[0]))
            )
        }
        return {
            "r": self.r,
            "d": str(self.d),
            "built_degree": self.built_degree,
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
