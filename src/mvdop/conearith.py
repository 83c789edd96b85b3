"""Rational structure constants of the rank-r, multiplicity-d calculus.

Everything here is an exact rational for arbitrary rational d > 0: the
ambient dimension n = r + (d/2)r(r-1), the half-sum shift vector, the
generalized shifted factorial, the component dimensions d_m, the
generalized binomial coefficients with their falling-factorial eigenvalue
form, and the closed-form raise/lower shift coefficients used by the
difference and recurrence equations.

None of the dimensions, rows or shift equations needs the basis table.
Each constant has one implementation.  The generalized shifted factorial
(s)_x is ``gen_pochhammer``, a product of ordinary ones, and the ratio
rho(m) = d_m / (n/r)_m the closed product of d_m over (n/r)_m
(Faraut-Koranyi, ch. XI), both run in ints; d_m itself is
``weight_factor`` at s = n/r, the two memoized factors.  The
full falling-factorial row G_x of x (all k contained in x) follows top
down from G_x[x] = 1 / rho(x) by Lassalle's recursion, with the Pieri
coefficient ``raise_coefficient``.  A row capped below |x| takes its
entries of weight <= 2 in closed form and the heavier ones from the rows
of the partitions x - e_j at the same cap, by the dual recursion with the
one-box binomial in closed form; binom(x, k) is G_x[k] rho(k).

Rho, the rows and (s)_x are memoized per partition (and per s, or cap)
in the owning table's ``cache`` dict, each entry published whole once
computed.  Rho, (s)_x and the rows capped at weight <= 2 read no other
entry, so they cost the same at every |x|.  A row capped at weight >= 3
fills the missing rows below it in increasing weight, so no computation
recurses.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from .errors import ParameterError, SingularArgumentError, _Frozen, integer
from .jack import JackTable
from .partitions import pad, sub_partitions, weight

Rat = Union[int, Fraction]


class ConeParams(_Frozen):
    """Rank r (an int) and multiplicity d (a Fraction) with derived constants."""

    _fields = ("r", "d")

    def __init__(self, r: int, d: Rat):
        vars(self).update(r=integer(r, "r"), d=Fraction(d))
        if self.r < 1:
            raise ParameterError(f"need r >= 1, got {self.r}")
        if self.d <= 0:
            raise ParameterError(f"need d > 0, got {self.d}")

    @property
    def n(self) -> Fraction:
        return self.r + self.d / 2 * self.r * (self.r - 1)

    @property
    def rank_ratio(self) -> Fraction:
        """n / r = 1 + (d/2)(r - 1)."""
        return 1 + self.d / 2 * (self.r - 1)

    @property
    def rho(self) -> tuple:
        """Half-sum shift: rho_j = (d/4)(2j - r - 1); sums to zero."""
        return tuple(self.d / 4 * (2 * j - self.r - 1) for j in range(1, self.r + 1))


_CONE = ("cone",)


def cone_params(jack: JackTable) -> ConeParams:
    """The table's (r, d) constants, one instance per table."""
    got = jack.cache.get(_CONE)
    if got is None:
        got = jack.cache.setdefault(_CONE, ConeParams(jack.r, jack.d))
    return got


# ---------------------------------------------------------------------------
# dimensions and shifted factorials


def gen_pochhammer(s: Rat, m, params: ConeParams) -> Fraction:
    """Generalized shifted factorial (s)_m = prod_j (s - (d/2)(j-1))_{m_j},
    the scalar s broadcast to every slot.  With s = S/D and d/2 = p/q
    each factor is an integer over D q, so the product runs in ints and
    makes one Fraction.  Zero values are legal outputs."""
    s = Fraction(s)
    p, q = params.d.numerator, 2 * params.d.denominator
    step = s.denominator * q
    num = 1
    for j, mj in enumerate(m):
        base = s.numerator * q - p * j * s.denominator
        for t in range(mj):
            num *= base + step * t
    return Fraction(num, step ** weight(m))


def _pochhammer(jack: JackTable, s: Fraction, x) -> Fraction:
    """(s)_x memoized per (s, x); a miss calls ``gen_pochhammer``."""
    key = ("poch", s, x)
    got = jack.cache.get(key)
    if got is None:
        got = jack.cache.setdefault(key, gen_pochhammer(s, x, cone_params(jack)))
    return got


def _dim_ratio(jack: JackTable, m) -> Fraction:
    """rho(m) = d_m / (n/r)_m for a padded m, memoized per m, from the
    closed products (Faraut-Koranyi, ch. XI), a = d/2:

        d_m = prod_{i<j} (m_i - m_j + a(j-i)) / (a(j-i))
                         (a(j-i+1))_{m_i-m_j} / (1 + a(j-i-1))_{m_i-m_j},
        (n/r)_m = prod_j (1 + a(r-j))_{m_j}.

    With a = p/q every factor is an integer over q, so the product runs
    in ints and makes one Fraction."""
    key = ("dimratio", m)
    got = jack.cache.get(key)
    if got is None:
        p, q = jack.d.numerator, 2 * jack.d.denominator
        r = jack.r
        num, den = q ** weight(m), 1
        for i, mi in enumerate(m):
            base = q + p * (r - 1 - i)
            for t in range(mi):
                den *= base + q * t
            for j in range(i + 1, r):
                h, gap = j - i, mi - m[j]
                num *= q * gap + p * h
                den *= p * h
                for t in range(gap):
                    num *= p * (h + 1) + q * t
                    den *= q + p * (h - 1) + q * t
        got = jack.cache.setdefault(key, Fraction(num, den))
    return got


def dim_partition(m, jack: JackTable) -> Fraction:
    """Exact dimension weight d_m, strictly positive for every rational
    d > 0: ``weight_factor`` at s = n/r, both factors memoized."""
    return weight_factor(m, jack, cone_params(jack).rank_ratio)


def weight_factor(x, jack: JackTable, s: Optional[Rat] = None) -> Fraction:
    """d_x (s)_x / (n/r)_x: the partition factor shared by the family
    weights, norms and generating-function coefficients.  The (s)_x factor
    is left out when ``s`` is None."""
    x = pad(x, jack.r)
    out = _dim_ratio(jack, x)
    return out if s is None else out * _pochhammer(jack, Fraction(s), x)


# ---------------------------------------------------------------------------
# generalized binomials and their eigenvalue form


def _one_box_binomial(x, j: int, params: ConeParams) -> Fraction:
    """binom(x, x - e_j) in closed form, (x_j + (d/2)(r - j)) lower_j(x)
    (Kaneko's lowering action), evaluated in integers with d/2 = p/q; no
    factor vanishes on partitions."""
    p, q = params.d.numerator, 2 * params.d.denominator
    num, den = q * x[j - 1] + p * (params.r - j), q
    for k in range(1, params.r + 1):
        if k != j:
            diff = q * (x[k - 1] - x[j - 1])
            num *= diff + p * (j - k + 1)
            den *= diff + p * (j - k)
    return Fraction(num, den)


def _lowered(x) -> list:
    """(j, x - e_j) for every row j (1-based) where x - e_j is a partition."""
    pairs = enumerate(zip(x, x[1:] + (0,)))
    return [(j + 1, x[:j] + (a - 1,) + x[j + 1 :]) for j, (a, b) in pairs if a > b]


def _capped_head(jack: JackTable, x, cap: int) -> dict:
    """G_x[k] for the k in x of weight <= min(cap, 2), in (weight,
    descending lex) order, in closed form: with w = |x|, a = d/2 and
    e = sum_i x_i (x_i - 1 - d(i - 1)),

        G_x[0] = 1,   G_x[e_1] = w / r,
        G_x[(2)] = (a w(w - 1) + e) / (r (1 + a r)),
        G_x[(1, 1)] = (w(w - 1) - e) / (r (r - 1)),

    each evaluated in ints with d = p/q."""
    r = jack.r
    w = weight(x)
    head = {(0,) * r: Fraction(1)}
    if cap >= 1:
        head[(1,) + (0,) * (r - 1)] = Fraction(w, r)
    if cap >= 2:
        p, q = jack.d.numerator, jack.d.denominator
        pairs = w * (w - 1)
        e0 = sum(a * (a - 1) for a in x)
        e1 = sum(i * a for i, a in enumerate(x))
        if x[0] >= 2:
            head[(2,) + (0,) * (r - 1)] = Fraction(
                p * pairs + 2 * q * e0 - 2 * p * e1, r * (2 * q + p * r)
            )
        if r > 1 and x[1]:
            head[(1, 1) + (0,) * (r - 2)] = Fraction(q * (pairs - e0) + p * e1, q * r * (r - 1))
    return head


def _falling_row(jack: JackTable, x, cap: int) -> dict:
    """G_x[k] for |k| <= cap, memoized with the rows it reads.  A full row
    (cap = |x|) comes from Lassalle's recursion.  A capped row takes its
    entries of weight <= 2 from ``_capped_head``, and above weight two the
    dual recursion

        (|x| - |k|) G_x[k] = sum_j binom(x, x - e_j) G_{x - e_j}[k]

    over the rows at the same cap, down to the full rows at weight cap.
    A miss first collects, without recursion, every missing row below x,
    then computes them in increasing weight, so no call nests."""
    params = cone_params(jack)
    todo, stack = {}, [x]
    while stack:
        y = stack.pop()
        if y not in todo and ("frow", y, cap) not in jack.cache:
            todo[y] = _lowered(y) if 2 < cap < weight(y) else []
            stack += [down for _, down in todo[y]]
    for y in sorted(todo, key=weight):
        top = weight(y)
        if top == cap:
            jack.cache[("frow", y, cap)] = _full_falling_row(jack, y)
            continue
        row = _capped_head(jack, y, cap)
        acc: dict = {}
        for j, down in todo[y]:
            b = _one_box_binomial(y, j, params)
            for k, g in jack.cache[("frow", down, cap)].items():
                if k not in row:
                    acc[k] = acc.get(k, 0) + b * g
        for k in sorted(acc, key=lambda k: (weight(k), [-a for a in k])):
            row[k] = acc[k] / (top - weight(k))
        jack.cache[("frow", y, cap)] = row
    return jack.cache[("frow", x, cap)]


def _full_falling_row(jack: JackTable, x) -> dict:
    """G_x[k] for every k in x, top down from G_x[x] = 1 / rho(x) by

        (|x| - |k|) G_x[k] = sum_j raise_j(k) G_x[k + e_j],

    a k + e_j outside x, or not a partition, contributing nothing."""
    params = cone_params(jack)
    ks = sub_partitions(x)
    top = weight(x)
    row = {x: 1 / _dim_ratio(jack, x)}
    for k in reversed(ks[:-1]):
        total = Fraction(0)
        for j in range(jack.r):
            g = row.get(k[:j] + (k[j] + 1,) + k[j + 1 :])
            if g:
                total += raise_coefficient(j + 1, k, params) * g
        row[k] = total / (top - weight(k))
    return {k: row[k] for k in ks}


def binomial_row(jack: JackTable, x, max_weight: Optional[int] = None) -> dict:
    """All generalized binomial coefficients over ``x`` at once: the map
    k -> coefficient of Phi_k in the expansion of Phi_x shifted by the
    all-ones point, for |k| <= max_weight (default |x|).  Keys are exactly
    the partitions contained in x.  Each is binom(x, k) = G_x[k] d_k /
    (n/r)_k from the memoized falling row."""
    return {k: g * _dim_ratio(jack, k) for k, g in falling_row(jack, x, max_weight).items()}


def binomial(m, k, jack: JackTable) -> Fraction:
    """Generalized binomial coefficient; zero whenever k is not contained
    in m."""
    m = pad(m, jack.r)
    k = pad(k, jack.r)
    return binomial_row(jack, m, weight(k)).get(k, Fraction(0))


def falling_row(jack: JackTable, x, max_weight: Optional[int] = None) -> dict:
    """Generalized falling factorials of ``x``: k -> the eigenvalue-form
    value (n/r)_k * binomial(x, k) / d_k, for |k| <= max_weight, in
    (weight, descending lex) order.  A full row comes top down from
    Lassalle's recursion, a capped one from the rows of the one-box-smaller
    partitions at the same cap."""
    x = pad(x, jack.r)
    cap = weight(x) if max_weight is None else min(max_weight, weight(x))
    got = jack.cache.get(("frow", x, cap))
    return got if got is not None else _falling_row(jack, x, cap)


def generalized_falling(k, x, jack: JackTable) -> Fraction:
    """Generalized falling factorial of x of shape k; for r = 1 this is
    x(x-1)...(x-|k|+1).  Nonnegative on partition arguments."""
    k = pad(k, jack.r)
    return falling_row(jack, x, weight(k)).get(k, Fraction(0))


def box_binomial(N: int, x, jack: JackTable) -> Fraction:
    """Generalized binomial of the rectangular box (N, ..., N) over x, via
    the closed falling-factorial evaluation; vanishes unless x fits in the
    box.  Cross-checked against ``binomial`` in the test suite."""
    x = pad(x, jack.r)
    sign = -1 if weight(x) % 2 else 1
    return sign * weight_factor(x, jack, -N)


# ---------------------------------------------------------------------------
# shift coefficients


def raise_coefficient(j: int, x, params: ConeParams) -> Fraction:
    """Closed-form coefficient governing the upward box move at row j:

        prod_{k != j} (x_j - x_k - (d/2)(j-k-1)) / (x_j - x_k - (d/2)(j-k))

    Accepts arbitrary rational tuples.  On partition arguments the values
    are finite, sum to r over j, and agree with the coefficients of
    m_(1) * Phi_x expanded in the basis table."""
    r = params.r
    if not 1 <= j <= r:
        raise ValueError(f"row index {j} out of range 1..{r}")
    xs = tuple(Fraction(a) for a in x)
    half = params.d / 2
    total = Fraction(1)
    for k in range(1, r + 1):
        if k == j:
            continue
        diff = xs[j - 1] - xs[k - 1]
        den = diff - half * (j - k)
        if den == 0:
            raise SingularArgumentError(
                f"zero denominator at rows (j={j}, k={k}) for argument {xs}"
            )
        total *= (diff - half * (j - k - 1)) / den
    return total


def lower_coefficient(j: int, x, params: ConeParams) -> Fraction:
    """Companion coefficient for the downward box move at row j:

        prod_{k != j} (x_k - x_j + (d/2)(j-k+1)) / (x_k - x_j + (d/2)(j-k))

    This is ``raise_coefficient`` evaluated at the argument reflected
    through the half-sum shift (2*rho - x), which is finite on every
    partition argument; the naive sign-flipped evaluation is singular
    already for d = 2 at rows of equal length."""
    return raise_coefficient(j, tuple(2 * h - Fraction(a) for h, a in zip(params.rho, x)), params)
