"""Exact symmetric polynomials in the monomial basis, and their composition
with a diagonal power series.

One type, :class:`SymPoly`, holds a sparse map from partition keys (padded
to length ``r``) to ``fractions.Fraction`` coefficients in the monomial
basis m_lambda.  Nothing in this module ever rounds.  A SymPoly is added,
subtracted and scaled, never multiplied by another: the package builds its
series in one pass, ``series_compose_diagonal``, from univariate
coefficient lists cut at a total degree, so no value carries a cap.

All values are immutable by convention and safe for concurrent readers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial
from typing import Iterable, Optional, Union

from .errors import ParameterError, integer
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


class SymPoly:
    """Symmetric polynomial in ``r`` variables, monomial basis, exact."""

    __slots__ = ("r", "coeffs")

    def __init__(self, r: int, coeffs: Optional[dict] = None):
        self.r = integer(r, "r")
        if self.r < 1:
            raise ParameterError(f"need r >= 1, got {self.r}")
        self.coeffs = {}
        for key, c in (coeffs or {}).items():
            c = Fraction(c)
            if c:
                self.coeffs[pad(key, self.r)] = c

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
        return isinstance(other, SymPoly) and self.r == other.r and self.coeffs == other.coeffs

    def __add__(self, other: "SymPoly") -> "SymPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "SymPoly") -> "SymPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "SymPoly":
        return self.scale(-1)

    def scale(self, c: Rat) -> "SymPoly":
        c = Fraction(c)
        return self._with({k: c * v for k, v in self.coeffs.items()} if c else {})

    def eval_at(self, point: Iterable[Rat]) -> Fraction:
        pt = tuple(Fraction(p) for p in point)
        if len(pt) != self.r:
            raise ValueError(f"point length {len(pt)} != r = {self.r}")
        total = Fraction(0)
        for key, c in self.coeffs.items():
            s = Fraction(0)
            for vec in _orbit(key):
                t = Fraction(1)
                for p, a in zip(pt, vec):
                    if a:
                        t *= p**a
                        if not t:
                            break
                s += t
            total += c * s
        return total

    def coefficient(self, key) -> Fraction:
        return self.coeffs.get(pad(key, self.r), Fraction(0))

    def __repr__(self):
        terms = sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        return f"{type(self).__name__}(r={self.r}, {dict(terms)!r})"

    def _combine(self, other, sign: int) -> "SymPoly":
        """self + sign * other, for a SymPoly ``other`` in as many variables."""
        if not isinstance(other, SymPoly):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.r != other.r:
            raise ValueError(f"ambient length mismatch: {self.r} vs {other.r}")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            nv = out.get(k, Fraction(0)) + sign * v
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
        return self._with(out)

    def _with(self, coeffs: dict) -> "SymPoly":
        """A SymPoly on canonical ``coeffs``."""
        out = SymPoly(self.r)
        out.coeffs = coeffs
        return out


# ---------------------------------------------------------------------------
# univariate series kernels (coefficient lists of length D + 1)


def u_mul(a: list, b: list, degree: int) -> list:
    out = [Fraction(0)] * (degree + 1)
    for i, ai in enumerate(a[: degree + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[: degree + 1 - i]):
            if bj:
                out[i + j] += ai * bj
    return out


def u_binomial(exponent: Rat, scale: Rat, degree: int) -> list:
    """Coefficients of (1 - scale*z)**exponent for rational exponent."""
    exponent = Fraction(exponent)
    scale = Fraction(scale)
    out = [Fraction(1)]
    for k in range(1, degree + 1):
        out.append(out[-1] * (exponent - k + 1) / k * (-scale))
    return out


def u_exp(scale: Rat, degree: int) -> list:
    scale = Fraction(scale)
    return [scale**k / factorial(k) for k in range(degree + 1)]


# ---------------------------------------------------------------------------
# diagonal composition


def series_compose_diagonal(poly: SymPoly, entry: list, factor: list, degree: int) -> SymPoly:
    """The series prod_i f(z_i) * poly(u(z_1), ..., u(z_r)), where ``entry``
    holds the coefficients of the univariate series u and ``factor`` those
    of f, cut at total degree ``degree``: the polynomial of its terms of
    total degree <= ``degree``.  One pass over the per-variable powers
    f u^a, so no two multivariate series are multiplied."""
    r = poly.r
    max_part = max((k[0] for k in poly.coeffs), default=0)
    powers = [u_mul(factor, [1], degree)]  # f u^a, each of length D + 1
    for _ in range(max_part):
        powers.append(u_mul(powers[-1], entry, degree))
    coeffs: dict = {}
    for mu in enumerate_up_to(r, degree):
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
    return SymPoly(r, coeffs)

