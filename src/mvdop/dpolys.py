"""Evaluators for the partition-indexed discrete orthogonal families
(Meixner, Charlier, Krawtchouk) at arbitrary rational multiplicity d > 0,
the Laguerre companion family, the classical single-variable versions, and
the rank-reduction determinant evaluation available at d = 2.

Each family value is a finite sum over partitions contained in the first
index, with exact rational arithmetic throughout; the summand is symmetric
in the two indices, so duality holds structurally rather than numerically.
The sum runs in integers: the terms of the first index and the
falling-factorial row of the second are each memoized as integer
numerators over one denominator, so a value is one integer dot product
and one Fraction.  The point (s, z) of a parameter set is memoized as
well, per parameter set under the parameters' integer pairs, so a warm
value makes no Fraction but that one and its parameter coercions.  The
shift equations in ``verify`` pair the same first-index rows, as integer
sums (``_row_sum``), with integer residual rows: the family's shift
triple times family-free vectors memoized per index, so a residual too
ends in one Fraction.

What each family is, is declared once, as functions of its parameters:
the point (s, z) of the shared sum, and the triple (b, c, e) of its
difference equation.  Krawtchouk is Meixner at alpha = -N, c = p/(p - 1),
and Charlier the limit of Meixner; the determinant route, the generating
functions, the shift equations, the orthogonality weight and the CLI read
these constants, and a finite support off N, instead of branching on the
family; here only ``FamilyParams.evaluate`` tells the families apart.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import permutations
from math import comb, factorial, lcm
from typing import Optional, Sequence, Union

from .conearith import _dim_ratio, _pochhammer, binomial_row, falling_row, weight_factor
from .errors import DomainError, ParameterError, PoleError, _Frozen, integer
from .jack import JackTable
from .partitions import contains, format_partition, pad, weight
from .symfun import SymPoly

Rat = Union[int, Fraction]

# the one declaration of which parameters each family takes; N is an
# integer, every other parameter a rational
FAMILY_PARAMS = {
    "meixner": ("alpha", "c"),
    "charlier": ("a",),
    "krawtchouk": ("p", "N"),
    "laguerre": ("alpha",),
}
PARAM_NAMES = tuple(dict.fromkeys(n for names in FAMILY_PARAMS.values() for n in names))

# what each two-index family is, as functions of its parameters in
# FAMILY_PARAMS order: the point (s, z) of the family sum, s None where the
# sum has no (s)_k factor, and the shift triple (b, c, e) of its difference
# equation (see verify._shift_plan).  The Krawtchouk triple is the Meixner
# one at alpha = -N, c = p/(p - 1), scaled by 1 - p so that it stays
# finite at p = 1.
_POINT = {
    "meixner": lambda alpha, c: (alpha, 1 - 1 / c),
    "charlier": lambda a: (None, -1 / a),
    "krawtchouk": lambda p, N: (Fraction(-N), 1 / p),
}
_SHIFT = {
    "meixner": lambda alpha, c: (1, c, alpha * c),
    "charlier": lambda a: (1, 0, a),
    "krawtchouk": lambda p, N: (1 - p, -p, N * p),
}
TWO_INDEX = tuple(_POINT)  # the families indexed by two partitions


def _over_common_denominator(values: tuple) -> tuple:
    """(integer numerators, denominator) of the rationals ``values`` over
    their least common denominator."""
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def _first_row(jack: JackTable, m, s: Optional[Fraction], z: Fraction) -> tuple:
    """The terms C_k G_m[k] of the first index m as (ks, numerators,
    denominator, poles): the k with a nonzero term and its integer
    numerator over one denominator, and the k whose (s)_k vanishes, which
    have no term.  Memoized per (s, z) and m in ``jack.cache``."""
    # keyed by integer pairs, which hash and compare in C where a
    # Fraction does both in Python
    sk = None if s is None else (s.numerator, s.denominator)
    key = ("mrow", sk, (z.numerator, z.denominator))
    rows = jack.cache.get(key)
    if rows is None:
        rows = jack.cache.setdefault(key, {})
    got = rows.get(m)
    if got is not None:
        return got
    terms, poles = {}, []
    for k, g in falling_row(jack, m).items():
        t = _dim_ratio(jack, k) * g * z ** weight(k)
        if s is not None:
            poch = _pochhammer(jack, s, k)
            if not poch:
                poles.append(k)
                continue
            t /= poch
        if t:
            terms[k] = t
    nums, den = _over_common_denominator(tuple(terms.values()))
    return rows.setdefault(m, (tuple(terms), nums, den, tuple(poles)))


def _second_row(jack: JackTable, x, cap: int) -> tuple:
    """The nonzero G_x[k], |k| <= cap, as ({k: integer numerator},
    denominator), memoized per (x, cap) in ``jack.cache``."""
    key = ("xrow", x, cap)
    got = jack.cache.get(key)
    if got is not None:
        return got
    row = {k: g for k, g in falling_row(jack, x, cap).items() if g}
    nums, den = _over_common_denominator(tuple(row.values()))
    return jack.cache.setdefault(key, (dict(zip(row, nums)), den))


def _row_sum(first: tuple, row: dict, s: Optional[Fraction]) -> int:
    """The integer pairing of a first-index row from ``_first_row`` with a
    row {k: integer numerator} in the second index's space: the numerator
    of their pairing over the product of the two denominators.  A pole of
    the first row raises PoleError only where it is a key of ``row``, that
    is, on a term the sum contains."""
    ks, nums, _, poles = first
    for k in poles:
        if k in row:
            raise PoleError(f"shifted factorial ({s})_k vanishes at k={format_partition(k)}")
    return sum([n * row.get(k, 0) for k, n in zip(ks, nums)])


def _row_dot(first: tuple, row: dict, den: int, s: Optional[Fraction]) -> Fraction:
    """``_row_sum`` over the product of the first row's denominator and
    ``den``, the row's: one Fraction."""
    return Fraction(_row_sum(first, row, s), first[2] * den)


def _kernel(jack: JackTable, m, x, s: Optional[Fraction], z: Fraction) -> Fraction:
    """The sum shared by the three families over padded indices m, x:

        sum over k in m and x of  C_k * G_m[k] * G_x[k],
        C_k = d_k z^|k| / ((n/r)_k (s)_k),

    with G the falling-factorial rows and the (s)_k factor left out when
    ``s`` is None: the memoized first-index row (C_k G_m[k]) paired with
    the second-index row (G_x[k]) by ``_row_dot``."""
    first = _first_row(jack, m, s, z)
    gx, xden = _second_row(jack, x, min(weight(m), weight(x)))
    return _row_dot(first, gx, xden, s)


def _point(jack: JackTable, family: str, *params) -> tuple:
    """The declared point (s, z) of ``family`` at its checked parameters
    in FAMILY_PARAMS order, memoized per parameter set in ``jack.cache``
    under their integer pairs, so a warm evaluation makes no Fraction for
    it."""
    key = ("point", family, *[(v.numerator, v.denominator) for v in params])
    got = jack.cache.get(key)
    if got is None:
        got = jack.cache.setdefault(key, _POINT[family](*params))
    return got


def meixner(m, x, alpha: Rat, c: Rat, jack: JackTable) -> Fraction:
    """Meixner value at index pair (m, x) with parameters (alpha, c != 0)."""
    alpha = Fraction(alpha)
    c = Fraction(c)
    if c == 0:
        raise ParameterError("meixner: c must be nonzero")
    return _kernel(jack, pad(m, jack.r), pad(x, jack.r), *_point(jack, "meixner", alpha, c))


def charlier(m, x, a: Rat, jack: JackTable) -> Fraction:
    """Charlier value at index pair (m, x) with parameter a != 0."""
    a = Fraction(a)
    if a == 0:
        raise ParameterError("charlier: a must be nonzero")
    return _kernel(jack, pad(m, jack.r), pad(x, jack.r), *_point(jack, "charlier", a))


def _box_size(N) -> int:
    """The Krawtchouk box size as an int; a non-integral or negative N
    raises ParameterError instead of being truncated."""
    N = integer(N, "krawtchouk: N")
    if N < 0:
        raise ParameterError("krawtchouk: N must be >= 0")
    return N


def _check_box(m, N: int) -> None:
    """Refuse a padded Krawtchouk first index m outside the (N, ..., N) box."""
    if not contains(m, (N,) * len(m)):
        raise DomainError(f"krawtchouk: index {format_partition(m)} not contained in the box N={N}")


def krawtchouk(m, x, p: Rat, N: int, jack: JackTable) -> Fraction:
    """Krawtchouk value at (m, x) with p != 0 and box size N; requires the
    first index to fit in the (N, ..., N) box.  The shifted factorial of -N
    never vanishes on contributing terms, so no pole can occur."""
    p = Fraction(p)
    N = _box_size(N)
    if p == 0:
        raise ParameterError("krawtchouk: p must be nonzero")
    m = pad(m, jack.r)
    _check_box(m, N)
    return _kernel(jack, m, pad(x, jack.r), *_point(jack, "krawtchouk", p, N))


def companion_poly(m, alpha: Rat, jack: JackTable, scale: Rat = 1) -> SymPoly:
    """The Laguerre companion element as an exact symmetric polynomial, its
    argument scaled by ``scale``; the superscript convention is
    alpha - n/r."""
    alpha = Fraction(alpha)
    m = pad(m, jack.r)
    jack.extend(weight(m))
    total = SymPoly.zero(jack.r)
    for k, b in binomial_row(jack, m).items():
        poch = _pochhammer(jack, alpha, k)
        if poch == 0:
            raise PoleError(
                f"laguerre: (alpha)_k vanishes at k={format_partition(k)} for alpha={alpha}"
            )
        sign = -1 if weight(k) % 2 else 1
        total = total + jack.phi(k).scale(sign * b * Fraction(scale) ** weight(k) / poch)
    return total.scale(weight_factor(m, jack, alpha))


def laguerre(m, diag_u: Sequence[Rat], alpha: Rat, jack: JackTable) -> Fraction:
    """Laguerre companion value at the diagonal point ``diag_u``."""
    return companion_poly(m, alpha, jack).eval_at(diag_u)


# ---------------------------------------------------------------------------
# classical single-variable versions


def _univariate_kernel(m: int, x: Rat, s: Optional[Fraction], z: Fraction) -> Fraction:
    """The r = 1 family sum: C(m, k) x(x - 1)...(x - k + 1) z^k / (s)_k
    over k <= m, the (s)_k factor left out when ``s`` is None.  A
    polynomial of degree m in any rational x; at an integer x >= 0 the
    falling factorial vanishes past k = x, and a pole of (s)_k raises only
    on a term the sum contains."""
    total = Fraction(0)
    falling = poch = Fraction(1)
    for k in range(m + 1):
        if not falling:
            break
        if poch == 0:
            raise PoleError(f"({s})_{k} = 0")
        total += comb(m, k) * falling * z**k / poch
        falling *= x - k
        if s is not None:
            poch *= s + k
    return total


def univariate_laguerre(m: int, u: Rat, alpha: Rat) -> Fraction:
    """Classical Laguerre with superscript alpha - 1, matching the r = 1
    reduction of ``laguerre``."""
    alpha = Fraction(alpha)
    u = Fraction(u)
    total = Fraction(0)
    poch = Fraction(1)
    for k in range(m + 1):
        if k:
            poch *= alpha + k - 1
        if poch == 0:
            raise PoleError(f"(alpha)_{k} = 0 for alpha={alpha}")
        total += Fraction((-1) ** k) * comb(m, k) * u**k / poch
    return poch / Fraction(factorial(m)) * total


def univariate(family: str, m: int, x, **params) -> Fraction:
    """The classical r = 1 value of ``family`` at index m: at the point x
    for the two-index families, read off the declared point (s, z), with
    m >= 0 (and <= N for Krawtchouk); at the point u = x for Laguerre."""
    fp = FamilyParams(family, **params)
    if family not in TWO_INDEX:
        return univariate_laguerre(m, x, fp.alpha)
    if m < 0 or not fp.fits((m,)):
        raise DomainError(f"{family}: index {m} outside its domain")
    return _univariate_kernel(m, x, *fp.point)


# ---------------------------------------------------------------------------
# determinant evaluation (d = 2 only)


def _det(mat: list) -> Fraction:
    n = len(mat)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = Fraction(-1 if inv % 2 else 1)
        for i in range(n):
            term *= mat[i][perm[i]]
            if not term:
                break
        total += term
    return total


def determinant_formula(family: str, m, x, jack: JackTable, **params) -> Fraction:
    """Value of a family polynomial assembled from an r x r determinant of
    single-variable polynomials at staircase-shifted indices.  Only valid
    at d = 2, where the normalized basis elements degenerate to ratios of
    alternants.  With (s, z) the family's point, the prefactor is
    z^(-r(r-1)/2) prod_{j<r} (s - r + 1)_j / j! and the entries are the
    r = 1 family sums at (s - r + 1, z); the route is refused where the
    prefactor is singular (z = 0) or zero (s in 1, ..., r - 1)."""
    if jack.d != 2:
        raise DomainError(f"determinant route needs d = 2, got d = {jack.d}")
    fp = FamilyParams(family, **params)
    r = jack.r
    m = pad(m, r)
    x = pad(x, r)
    if not (fp.fits(m) and fp.fits(x)):
        raise DomainError(f"{family} determinant route needs m, x inside the box")
    s, z = fp.point
    if z == 0 and r > 1:
        raise DomainError(f"{family}: z = 0 makes the prefactor singular for r > 1")
    if s is not None:
        s -= r - 1
    pref = z ** -(r * (r - 1) // 2)
    poch = 1
    for j in range(r):
        pref /= factorial(j)
        if s is not None:
            pref *= poch
            poch *= s + j
    if not pref:
        raise DomainError(f"{family}: the prefactor vanishes at s = {s + r - 1} in 1..{r - 1}")
    mat = [
        [_univariate_kernel(m[mu] + r - 1 - mu, x[nu] + r - 1 - nu, s, z) for nu in range(r)]
        for mu in range(r)
    ]
    return pref / (jack.principal(m) * jack.principal(x)) * _det(mat)


# ---------------------------------------------------------------------------
# parameter bundle used by the determinant route, the verification layer
# and the CLI


class FamilyParams(_Frozen):
    """A family and its FAMILY_PARAMS as Fractions (N an int), the rest None."""

    _fields = ("family",) + PARAM_NAMES

    def __init__(self, family: str, alpha=None, c=None, a=None, p=None, N=None):
        vars(self).update(family=family, alpha=alpha, c=c, a=a, p=p, N=N)
        need = FAMILY_PARAMS.get(self.family)
        if need is None:
            raise ParameterError(f"unknown family {self.family!r}")
        for name in need:
            if getattr(self, name) is None:
                raise ParameterError(f"{self.family} needs --{name}")
        for name in PARAM_NAMES:
            if name not in need and getattr(self, name) is not None:
                raise ParameterError(f"{self.family} takes no --{name}")
        for name in need:
            if name != "N":
                object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.c == 0 or self.a == 0 or self.p == 0:
            raise ParameterError(f"{self.family}: zero parameter not allowed")
        if self.N is not None:
            object.__setattr__(self, "N", _box_size(self.N))

    def _declared(self, table: dict):
        make = table.get(self.family)
        if make is None:
            raise ParameterError(f"{self.family} is not indexed by two partitions")
        return make(*(getattr(self, name) for name in FAMILY_PARAMS[self.family]))

    @cached_property
    def point(self) -> tuple:
        """The point (s, z) of the family sum; s is None for Charlier."""
        return self._declared(_POINT)

    @cached_property
    def shift(self) -> tuple:
        """The triple (b, c, e) of the family's difference equation."""
        return self._declared(_SHIFT)

    @cached_property
    def _key(self) -> tuple:
        """The family and its parameters, each Fraction as its integer
        pair: a memo key that hashes and compares in C, where hashing
        the instance runs Fraction.__hash__ in Python per field."""
        out = [self.family]
        for name in FAMILY_PARAMS[self.family]:
            v = getattr(self, name)
            out.append(v if name == "N" else (v.numerator, v.denominator))
        return tuple(out)

    def fits(self, m) -> bool:
        """True when the index m lies in the family's domain: inside the
        (N, ..., N) box for a family that takes N (Krawtchouk), anywhere
        otherwise."""
        return self.N is None or max(m, default=0) <= self.N

    def evaluate(self, m, x, jack: JackTable) -> Fraction:
        if self.family == "meixner":
            return meixner(m, x, self.alpha, self.c, jack)
        if self.family == "charlier":
            return charlier(m, x, self.a, jack)
        if self.family == "krawtchouk":
            return krawtchouk(m, x, self.p, self.N, jack)
        raise ParameterError(f"{self.family} is not indexed by two partitions")

    def label(self) -> dict:
        out = {"family": self.family}
        for name in FAMILY_PARAMS[self.family]:
            v = getattr(self, name)
            out[name] = v if name == "N" else str(v)
        return out
