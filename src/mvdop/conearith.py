"""Rational structure constants of the rank-r, multiplicity-d calculus.

Everything here is an exact rational for arbitrary rational d > 0: the
ambient dimension n = r + (d/2)r(r-1), the half-sum shift vector, the
generalized shifted factorial, the component dimensions d_m, the
generalized binomial coefficients with their falling-factorial eigenvalue
form, and the closed-form raise/lower shift coefficients used by the
difference and recurrence equations.

One closed form, the Pieri coefficient ``raise_coefficient``, gives the
dimensions, the full rows and the shift equations, so none of them needs
the basis table.  The ratio rho(m) = d_m / (n/r)_m that the rows, weights
and family coefficients use follows from the Pieri recursion (memoized
per partition; d_m is derived from it on each call).  The full
falling-factorial row G_x of x (all k contained in x) follows top down
from G_x[x] = 1 / rho(x) by Lassalle's recursion, and binom(x, k) is
G_x[k] rho(k).  A row capped below |x| is evaluated from interpolation
polynomials instead: for each k, x -> G_x[k] is a shifted-symmetric
polynomial of degree |k| (the shifted Jack polynomial of Knop-Sahi and
Okounkov-Olshanski), built once per table from the full rows of the
partitions of weight <= |k|, so the cost of a capped row does not grow
with |x|.

Row computations memoize into the owning table's ``cache`` dict, each
entry published whole once computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import NamedTuple, Optional, Union

from .errors import MvdopError, SingularArgumentError
from .jack import JackTable
from .partitions import box_move, pad, partitions_of, sub_partitions, weight

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


_CONE = ("cone",)


def cone_params(jack: JackTable) -> ConeParams:
    """The table's (r, d) constants, one instance per table."""
    got = jack.cache.get(_CONE)
    if got is None:
        got = jack.cache.setdefault(_CONE, ConeParams(jack.r, jack.d))
    return got


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


def _dim_ratio(jack: JackTable, m) -> Fraction:
    """rho(m) = d_m / (n/r)_m for a padded m, by the Pieri recursion

        |m| rho(m) = sum_j raise_j(m - e_j) rho(m - e_j),   rho(0) = 1,

    over the rows j where m - e_j is a partition."""
    key = ("dimratio", m)
    got = jack.cache.get(key)
    if got is None:
        got = Fraction(1)
        if any(m):
            params = cone_params(jack)
            total = Fraction(0)
            for j in range(1, jack.r + 1):
                down = box_move(m, j, -1)
                if down is not None:
                    total += raise_coefficient(j, down, params) * _dim_ratio(jack, down)
            got = total / weight(m)
        jack.cache[key] = got
    return got


def dim_partition(m, jack: JackTable) -> Fraction:
    """Exact dimension weight d_m, strictly positive for every rational
    d > 0: (n/r)_m times the memoized ratio d_m / (n/r)_m."""
    m = pad(m, jack.r)
    params = cone_params(jack)
    return gen_pochhammer(params.rank_ratio, m, params) * _dim_ratio(jack, m)


def weight_factor(x, jack: JackTable, s: Optional[Rat] = None) -> Fraction:
    """d_x (s)_x / (n/r)_x: the partition factor shared by the family
    weights, norms and generating-function coefficients.  The (s)_x factor
    is left out when ``s`` is None."""
    x = pad(x, jack.r)
    out = _dim_ratio(jack, x)
    return out if s is None else out * gen_pochhammer(s, x, cone_params(jack))


# ---------------------------------------------------------------------------
# generalized binomials and their eigenvalue form


class _Interpolants(NamedTuple):
    """The falling-factorial interpolants of one table up to ``degree``.

    The variables are y_j = q (x_j - (d/2)(j - 1)), q the denominator of
    d/2, so y is integral on partitions; the partition nu names the basis
    element prod_i e_i(y)^(nu_i - nu_{i+1}) of degree |nu|.  ``keys`` holds
    the partitions of weight <= degree in enumeration order and names both
    the basis and the rows; ``sizes[w]`` counts the keys of weight <= w;
    ``steps[i - 1] = (j, l)`` builds basis value i as value j times e_l.
    ``rows[k] = (den, nums)`` gives G_x[k] = sum_i nums[i] basis_i(y) / den.
    An instance never changes: a deeper build is a new instance."""

    degree: int
    keys: tuple
    sizes: tuple
    steps: tuple
    rows: dict


_INTERPOLANTS = ("interpolants",)


def _elementary(jack: JackTable, x) -> list:
    """e_0, ..., e_r of the scaled shifted variables at x, as integers."""
    half = jack.d / 2
    e = [1] + [0] * jack.r
    for j, xj in enumerate(x):
        y = half.denominator * xj - half.numerator * j
        for i in range(jack.r, 0, -1):
            e[i] += y * e[i - 1]
    return e


def _basis_values(steps: tuple, e: list, n: int) -> list:
    """The first n basis values, from the elementary values e."""
    vals = [1]
    for j, l in steps[: n - 1]:
        vals.append(vals[j] * e[l])
    return vals


def _next_degree(jack: JackTable, state: _Interpolants, w: int) -> _Interpolants:
    """``state`` extended by degree w, as a new instance.  Each new basis
    element is expanded in the falling-factorial basis by forward
    substitution over the nodes (triangular: G_mu[k] = 0 unless k is in
    mu); then only the degree-w block of those expansions is inverted."""
    new = tuple(partitions_of(w, jack.r))
    keys = state.keys + new
    n = len(keys)
    index = {k: i for i, k in enumerate(keys)}
    # nu is (nu - 1^l) times one more factor e_l, l the length of nu
    steps = state.steps + tuple(
        (index[tuple(a - 1 if a else 0 for a in nu)], sum(1 for a in nu if a)) for nu in new
    )
    node_rows = [falling_row(jack, mu) for mu in keys]
    node_vals = [_basis_values(steps, _elementary(jack, mu), n) for mu in keys]
    # one row per new basis element: its coefficients on the new G[k], then
    # the element minus its lower-degree G part, over the basis
    system = []
    for a in range(n - len(new), n):
        c: dict = {}
        for mu, row, vals in zip(keys, node_rows, node_vals):
            pivot = row.get(mu)
            if not pivot:
                raise MvdopError(f"interpolant build: zero pivot at node {mu}")
            c[mu] = (vals[a] - sum(c[k] * g for k, g in row.items() if k != mu)) / pivot
        # the lower-degree part over one common denominator, in integers
        scaled = {k: c[k] / den for k, (den, _) in state.rows.items() if c[k]}
        common = lcm(*(f.denominator for f in scaled.values()))
        acc = [0] * n
        for k, f in scaled.items():
            g = f.numerator * (common // f.denominator)
            for i, v in enumerate(state.rows[k][1]):
                acc[i] += g * v
        rhs = [int(i == a) - Fraction(t, common) for i, t in enumerate(acc)]
        system.append([c[k] for k in new] + rhs)
    rows = dict(state.rows)
    for k, vec in zip(new, _solve(system, w)):
        den = lcm(*(v.denominator for v in vec))
        rows[k] = (den, tuple(v.numerator * (den // v.denominator) for v in vec))
    return _Interpolants(w, keys, state.sizes + (n,), steps, rows)


def _solve(aug: list, w: int) -> list:
    """Exact Gauss-Jordan elimination of the augmented rows [A | B] of
    Fractions, A square; returns the rows of A^-1 B."""
    p = len(aug)
    for col in range(p):
        piv = next((i for i in range(col, p) if aug[i][col]), None)
        if piv is None:
            raise MvdopError(f"interpolant build: singular block at degree {w}")
        aug[col], aug[piv] = aug[piv], aug[col]
        head = aug[col][col]
        aug[col] = [v / head for v in aug[col]]
        for i in range(p):
            f = aug[i][col]
            if i != col and f:
                aug[i] = [v - f * q for v, q in zip(aug[i], aug[col])]
    return [row[p:] for row in aug]


def _interpolants(jack: JackTable, cap: int) -> _Interpolants:
    """The table's interpolants to at least degree ``cap``.  Each deeper
    degree is built into a new instance and published with one store, so a
    concurrent reader never sees a half-built degree."""
    state = jack.cache.get(_INTERPOLANTS)
    if state is None:
        zero = (0,) * jack.r
        state = _Interpolants(0, (zero,), (1,), (), {zero: (1, (1,))})
    for w in range(state.degree + 1, cap + 1):
        state = _next_degree(jack, state, w)
        jack.cache[_INTERPOLANTS] = state
    return state


def _capped_falling_row(jack: JackTable, x, cap: int) -> dict:
    state = _interpolants(jack, cap)
    n = state.sizes[cap]
    vals = _basis_values(state.steps, _elementary(jack, x), n)
    out = {}
    for k in state.keys[:n]:
        if all(a <= b for a, b in zip(k, x)):
            den, nums = state.rows[k]
            v = Fraction(sum(map(mul, nums, vals)), den)
            if v:
                out[k] = v
    return out


def _full_falling_row(jack: JackTable, x) -> dict:
    """G_x[k] for every k in x, top down from G_x[x] = 1 / rho(x) by

        (|x| - |k|) G_x[k] = sum_j raise_j(k) G_x[k + e_j],

    a k + e_j outside x, or not a partition, contributing nothing."""
    params = cone_params(jack)
    ks = sub_partitions(x)
    top = weight(x)
    # rho in increasing weight keeps each Pieri recursion one level deep
    rho = [_dim_ratio(jack, k) for k in ks]
    row = {x: 1 / rho[-1]}
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
    (weight, descending lex) order.  A capped row is evaluated from the
    interpolants up to degree max_weight."""
    x = pad(x, jack.r)
    cap = weight(x) if max_weight is None else min(max_weight, weight(x))
    key = ("frow", x, cap)
    got = jack.cache.get(key)
    if got is None:
        if cap < weight(x):
            got = _capped_falling_row(jack, x, cap)
        else:
            got = _full_falling_row(jack, x)
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
