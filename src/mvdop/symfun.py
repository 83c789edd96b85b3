"""Exact symmetric polynomials in the monomial basis, optionally truncated
at a total degree, and their composition with a diagonal power series.

One type, :class:`SymPoly`, holds a sparse map from partition keys (padded
to length ``r``) to ``fractions.Fraction`` coefficients in the monomial
basis m_lambda.  Nothing in this module ever rounds.  With a total-degree
cap ``max_degree`` the same map is a truncated power series: a product of
operands capped at D reproduces the exact product's coefficients up to
degree D, and mixing a polynomial with a series keeps the series' cap.
:class:`TruncatedSeries` is only a cap-first constructor for it.

All values are immutable by convention and safe for concurrent readers.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import permutations
from math import factorial
from typing import Iterable, Optional, Union

from .partitions import enumerate_up_to, pad

Rat = Union[int, Fraction]

_ORBITS: dict[tuple, tuple] = {}


def _orbit(key: tuple) -> tuple:
    """Distinct permutations of an exponent tuple, in a fixed order."""
    orb = _ORBITS.get(key)
    if orb is None:
        orb = tuple(sorted(set(permutations(key)), reverse=True))
        _ORBITS[key] = orb
    return orb


def _canonical(r: int, coeffs) -> dict:
    out = {}
    for key, c in coeffs.items():
        c = Fraction(c)
        if c:
            out[pad(key, r)] = c
    return out


def _add_maps(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for k, v in b.items():
        nv = out.get(k, Fraction(0)) + sign * v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


def _mul_maps(r: int, a: dict, b: dict, cap: Optional[int]) -> dict:
    """Product of two monomial-basis maps, optionally truncated at total
    degree ``cap``.  Works by expanding both orbits and collecting only
    weakly decreasing exponent vectors (the orbit representatives)."""
    out: dict = defaultdict(Fraction)
    bitems = [(bk, sum(bk), bv) for bk, bv in b.items()]
    for ak, av in a.items():
        wa = sum(ak)
        for bk, wb, bv in bitems:
            if cap is not None and wa + wb > cap:
                continue
            coef = av * bv
            for avec in _orbit(ak):
                for bvec in _orbit(bk):
                    e = tuple(x + y for x, y in zip(avec, bvec))
                    if all(e[i] >= e[i + 1] for i in range(r - 1)):
                        out[e] += coef
    return {k: v for k, v in out.items() if v}


def _eval_map(coeffs: dict, point: tuple) -> Fraction:
    total = Fraction(0)
    for key, c in coeffs.items():
        s = Fraction(0)
        for vec in _orbit(key):
            t = Fraction(1)
            for p, a in zip(point, vec):
                if a:
                    t *= p**a
                    if not t:
                        break
            s += t
        total += c * s
    return total


def _min_cap(a: Optional[int], b: Optional[int]) -> Optional[int]:
    return b if a is None else a if b is None else min(a, b)


class SymPoly:
    """Symmetric polynomial in ``r`` variables, monomial basis, exact.

    With a ``max_degree`` it is a power series truncated at that total
    degree; ``None`` means an exact polynomial.  A binary result takes the
    smaller cap of its operands, whatever their order."""

    __slots__ = ("r", "max_degree", "coeffs")

    def __init__(self, r: int, coeffs: Optional[dict] = None, max_degree: Optional[int] = None):
        if max_degree is not None and max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        self.r = int(r)
        self.max_degree = None if max_degree is None else int(max_degree)
        cc = _canonical(self.r, coeffs or {})
        if max_degree is not None:
            for k in cc:
                if sum(k) > max_degree:
                    raise ValueError(f"key {k} beyond truncation degree {max_degree}")
        self.coeffs = cc

    @classmethod
    def zero(cls, r: int) -> "SymPoly":
        return cls(r)

    @classmethod
    def one(cls, r: int) -> "SymPoly":
        return cls(r, {(0,) * r: 1})

    @classmethod
    def monomial(cls, r: int, key, c: Rat = 1) -> "SymPoly":
        return cls(r, {pad(key, r): Fraction(c)})

    def degree(self) -> int:
        return max((sum(k) for k in self.coeffs), default=0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymPoly)
            and self.r == other.r
            and self.max_degree == other.max_degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is not hashable")

    def __add__(self, other: "SymPoly") -> "SymPoly":
        cap = self._check(other)
        return self._with(_add_maps(self.coeffs, other.coeffs), cap)

    def __sub__(self, other: "SymPoly") -> "SymPoly":
        cap = self._check(other)
        return self._with(_add_maps(self.coeffs, other.coeffs, -1), cap)

    def __neg__(self) -> "SymPoly":
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        cap = self._check(other)
        return self._with(_mul_maps(self.r, self.coeffs, other.coeffs, cap), cap)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Rat) -> "SymPoly":
        c = Fraction(c)
        return self._with({k: c * v for k, v in self.coeffs.items()} if c else {}, self.max_degree)

    def eval_at(self, point: Iterable[Rat]) -> Fraction:
        pt = tuple(Fraction(p) for p in point)
        if len(pt) != self.r:
            raise ValueError(f"point length {len(pt)} != r = {self.r}")
        return _eval_map(self.coeffs, pt)

    def coefficient(self, key) -> Fraction:
        return self.coeffs.get(pad(key, self.r), Fraction(0))

    def truncated(self, max_degree: int) -> "SymPoly":
        """The series cut at ``max_degree`` (or at the existing cap, if lower)."""
        return self._with(self.coeffs, _min_cap(self.max_degree, int(max_degree)))

    def __repr__(self):
        terms = sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        cap = "" if self.max_degree is None else f"D={self.max_degree}, "
        return f"{type(self).__name__}(r={self.r}, {cap}{dict(terms)!r})"

    def _check(self, other) -> Optional[int]:
        """Validates a binary operand; returns the cap of the result."""
        if not isinstance(other, SymPoly):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.r != other.r:
            raise ValueError(f"ambient length mismatch: {self.r} vs {other.r}")
        return _min_cap(self.max_degree, other.max_degree)

    def _with(self, coeffs: dict, cap: Optional[int]) -> "SymPoly":
        """A SymPoly on canonical ``coeffs`` with cap ``cap``; keys above
        the cap are dropped."""
        out = SymPoly(self.r, max_degree=cap)
        out.coeffs = coeffs if cap is None else {k: v for k, v in coeffs.items() if sum(k) <= cap}
        return out


class TruncatedSeries(SymPoly):
    """A :class:`SymPoly` with a total-degree cap, built cap first:
    ``TruncatedSeries(r, max_degree, coeffs)``."""

    __slots__ = ()

    def __init__(self, r: int, max_degree: int, coeffs: Optional[dict] = None):
        super().__init__(r, coeffs, max_degree)

    @classmethod
    def one(cls, r: int, max_degree: int) -> "TruncatedSeries":
        return cls(r, max_degree, {(0,) * r: 1})


# ---------------------------------------------------------------------------
# univariate series kernels (coefficient lists of length D + 1)


def u_mul(a: list, b: list, max_degree: int) -> list:
    out = [Fraction(0)] * (max_degree + 1)
    for i, ai in enumerate(a[: max_degree + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[: max_degree + 1 - i]):
            if bj:
                out[i + j] += ai * bj
    return out


def u_binomial(exponent: Rat, scale: Rat, max_degree: int) -> list:
    """Coefficients of (1 - scale*z)**exponent for rational exponent."""
    exponent = Fraction(exponent)
    scale = Fraction(scale)
    out = [Fraction(1)]
    for k in range(1, max_degree + 1):
        out.append(out[-1] * (exponent - k + 1) / k * (-scale))
    return out


def u_exp(scale: Rat, max_degree: int) -> list:
    scale = Fraction(scale)
    return [scale**k / factorial(k) for k in range(max_degree + 1)]


# ---------------------------------------------------------------------------
# diagonal composition


def series_compose_diagonal(poly: SymPoly, entry: list, factor: list, max_degree: int) -> SymPoly:
    """The series prod_i f(z_i) * poly(u(z_1), ..., u(z_r)), where ``entry``
    holds the coefficients of the univariate series u and ``factor`` those
    of f, truncated at total degree ``max_degree``.  One pass over the
    per-variable powers f u^a, so no two multivariate series are multiplied."""
    r = poly.r
    max_part = max((k[0] for k in poly.coeffs), default=0)
    powers = [u_mul(factor, [1], max_degree)]  # f u^a, each of length D + 1
    for _ in range(max_part):
        powers.append(u_mul(powers[-1], entry, max_degree))
    coeffs: dict = {}
    for mu in enumerate_up_to(r, max_degree):
        tot = Fraction(0)
        for lam, c in poly.coeffs.items():
            s = Fraction(0)
            for avec in _orbit(lam):
                t = Fraction(1)
                for a_i, e_i in zip(avec, mu):
                    f = powers[a_i][e_i]
                    if not f:
                        t = Fraction(0)
                        break
                    t *= f
                s += t
            tot += c * s
        if tot:
            coeffs[mu] = tot
    return SymPoly(r, coeffs, max_degree)

