"""Rational structure constants of the rank-r, multiplicity-d calculus.

Everything here is an exact rational for arbitrary rational d > 0: the
ambient dimension n = r + (d/2)r(r-1), the half-sum shift vector, the
generalized shifted factorial, the component dimensions d_m, the
generalized binomial coefficients with their falling-factorial eigenvalue
form, and the closed-form raise/lower shift coefficients used by the
difference and recurrence equations.

Dimensions are *defined* through the exponential-trace expansion (the
coefficient of the normalized basis element in powers of p1), which keeps
every value rational for every rational d; the classical Gamma-product
expression is kept only as a floating-point cross-check.

Row computations memoize into the owning table's ``cache`` dict, so the
table's single-writer rule applies to them as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import exp, factorial, lgamma
from typing import Optional, Union

from .errors import SingularArgumentError
from .jack import JackTable
from .partitions import pad, weight
from .symfun import SymPoly, shift_by_one_map

Rat = Union[int, Fraction]


@dataclass(frozen=True)
class ConeParams:
    """Rank r and multiplicity d with the derived constants."""

    r: int
    d: Fraction

    def __post_init__(self):
        object.__setattr__(self, "d", Fraction(self.d))
        if self.r < 1:
            raise ValueError(f"need r >= 1, got {self.r}")
        if self.d <= 0:
            raise ValueError(f"need d > 0, got {self.d}")

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


def cone_params(jack: JackTable) -> ConeParams:
    return ConeParams(jack.r, jack.d)


def gen_pochhammer(s: Rat, m, params: ConeParams) -> Fraction:
    """Generalized shifted factorial: prod_j (s - (d/2)(j-1))_{m_j}, the
    scalar s broadcast to every slot.  Zero values are legal outputs."""
    s = Fraction(s)
    total = Fraction(1)
    for j, mj in enumerate(m):
        base = s - params.d / 2 * j
        for i in range(mj):
            total *= base + i
            if not total:
                return total
    return total


# ---------------------------------------------------------------------------
# dimensions


def _p1_power(jack: JackTable, n: int) -> SymPoly:
    key = ("p1pow", n)
    got = jack.cache.get(key)
    if got is None:
        if n == 0:
            got = SymPoly.one(jack.r)
        else:
            got = _p1_power(jack, n - 1) * SymPoly.monomial(jack.r, (1,))
        jack.cache[key] = got
    return got


def _p1_phi_row(jack: JackTable, w: int) -> dict:
    key = ("p1row", w)
    got = jack.cache.get(key)
    if got is None:
        jack.check_degree(w)
        got = jack.to_phi_basis(_p1_power(jack, w))
        jack.cache[key] = got
    return got


def dim_partition(m, jack: JackTable) -> Fraction:
    """Exact dimension weight d_m, strictly positive for every rational
    d > 0.  Computed from the coefficient of the normalized basis element
    in p1^{|m|}."""
    m = pad(m, jack.r)
    w = weight(m)
    key = ("dim", m)
    got = jack.cache.get(key)
    if got is None:
        params = cone_params(jack)
        coeff = _p1_phi_row(jack, w).get(m, Fraction(0))
        got = gen_pochhammer(params.rank_ratio, m, params) * coeff / factorial(w)
        jack.cache[key] = got
    return got


def weight_factor(x, jack: JackTable, s: Optional[Rat] = None) -> Fraction:
    """d_x (s)_x / (n/r)_x: the partition factor shared by the family
    weights, norms and generating-function coefficients.  The (s)_x factor
    is left out when ``s`` is None."""
    params = cone_params(jack)
    out = dim_partition(x, jack) / gen_pochhammer(params.rank_ratio, x, params)
    return out if s is None else out * gen_pochhammer(s, x, params)


def dim_partition_gamma_check(m, params: ConeParams) -> float:
    """Floating-point evaluation of the classical Gamma-product expression
    for d_m; used only as a cross-check oracle for ``dim_partition``."""
    r = params.r
    d = float(params.d)
    m = pad(m, r)
    log_part = 0.0
    linear = 1.0
    for j in range(1, r + 1):
        log_part += lgamma(d / 2) - lgamma(d / 2 * j) - lgamma(d / 2 * (j - 1) + 1)
    for p in range(r):
        for q in range(p + 1, r):
            diff = m[p] - m[q]
            linear *= diff + d / 2 * (q - p)
            log_part += lgamma(diff + d / 2 * (q - p + 1))
            log_part -= lgamma(diff + d / 2 * (q - p - 1) + 1)
    return linear * exp(log_part)


# ---------------------------------------------------------------------------
# generalized binomials and their eigenvalue form


def binomial_row(jack: JackTable, x, max_weight: Optional[int] = None) -> dict:
    """All generalized binomial coefficients over ``x`` at once: the map
    k -> coefficient of Phi_k in the expansion of Phi_x shifted by the
    all-ones point, for |k| <= max_weight (default |x|).  Keys are exactly
    the partitions contained in x."""
    x = pad(x, jack.r)
    cap = weight(x) if max_weight is None else min(max_weight, weight(x))
    key = ("brow", x, cap)
    got = jack.cache.get(key)
    if got is None:
        shifted = shift_by_one_map(jack.r, jack.phi(x).coeffs, cap)
        got = jack.to_phi_basis(SymPoly(jack.r, shifted))
        jack.cache[key] = got
    return got


def binomial(m, k, jack: JackTable) -> Fraction:
    """Generalized binomial coefficient; zero whenever k is not contained
    in m."""
    m = pad(m, jack.r)
    k = pad(k, jack.r)
    return binomial_row(jack, m, weight(k)).get(k, Fraction(0))


def falling_row(jack: JackTable, x, max_weight: Optional[int] = None) -> dict:
    """Generalized falling factorials of ``x``: k -> the eigenvalue-form
    value (n/r)_k * binomial(x, k) / d_k, for |k| <= max_weight."""
    x = pad(x, jack.r)
    cap = weight(x) if max_weight is None else min(max_weight, weight(x))
    key = ("frow", x, cap)
    got = jack.cache.get(key)
    if got is None:
        params = cone_params(jack)
        got = {
            k: gen_pochhammer(params.rank_ratio, k, params) * b / dim_partition(k, jack)
            for k, b in binomial_row(jack, x, cap).items()
        }
        jack.cache[key] = got
    return got


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
    are finite, sum to r over j, and agree with the basis-expansion route
    ``JackTable.pieri_coefficients``."""
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
    r = params.r
    if not 1 <= j <= r:
        raise ValueError(f"row index {j} out of range 1..{r}")
    xs = tuple(Fraction(a) for a in x)
    half = params.d / 2
    total = Fraction(1)
    for k in range(1, r + 1):
        if k == j:
            continue
        diff = xs[k - 1] - xs[j - 1]
        den = diff + half * (j - k)
        if den == 0:
            raise SingularArgumentError(
                f"zero denominator at rows (j={j}, k={k}) for argument {xs}"
            )
        total *= (diff + half * (j - k + 1)) / den
    return total
