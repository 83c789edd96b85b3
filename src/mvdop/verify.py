"""Machine checks for the identities satisfied by the partition-indexed
discrete orthogonal families.

Every identity (orthogonality, difference and recurrence equations,
generating-function coefficients up to a stated degree, the
orthogonality-generator kernel, the degenerate limits) is checked in
exact rational arithmetic and must produce the literal zero residual.
Every orthogonality sum is one pairing of family values with one rule of
rational node weights (``_node_weights``), from the binomial moments of
the weight: a shifted-symmetric f of degree D is sum of a_k binom(x, k)
over |k| <= D, and sum over x of w(x) binom(x, k) is mass
weight_factor(k, s) (-1/z)^|k|, so the sum over the mass is rational.
Only a check asked for explicit truncation weights cuts its sums: exact
partial sums, compared against the closed-form norm (60-digit decimal
where the mass is irrational), with the residual sequence required to
decrease.  Those partial sums come from the same nodes: each weight
shell of a binomial moment has a closed form too (``_shell_moment``), so
no shell is summed point by point.  Only the deepest shell is evaluated,
for the report's ``tail_estimate``, its largest |term|: an indication of
the tail, not a bound on it.  A limit is the leading coefficient of a
polynomial in the scale, read off exact finite differences.

Orthogonality has one weight for all three families, derived from the
point (s, z) of the family sum: w(x) = d_x (s)_x / (n/r)_x c^|x| with
c = 1/(1 - z), of mass (1 - c)^(-r s), and for Charlier (no s)
d_x / (n/r)_x a^|x| with a = -1/z, of mass e^(r a).  At s = -N it vanishes
outside the box, and a weight of finite support is its own rule: its box
points, whatever the degree.  The finite Krawtchouk check is the exact
sum at every index of weight <= rN; only the domain checks are per
family.

The generating functions come from the point too: one series, (1 - t w)^(-s)
composed with (1 + (z - 1) t w)/(1 - t w) (e^(tr w) with 1 + z w for
Charlier), serves the genfunc and Charlier master checks and, at w -> c w,
the orthogonality-generator kernel.

Each identity is one check over its whole index grid (every argument x of
a generating function, every index pair of an equation) that emits one
:class:`VerificationReport`, with one row per case and a deterministic
ordering, serializable to JSON; no caller builds or merges reports.  Case
grids are pure fan-outs over an immutable table; only the checks that
expand in the basis (generating functions, the generator kernel) extend it
up front.
"""

from __future__ import annotations

import json
from decimal import Decimal, localcontext
from fractions import Fraction
from math import factorial, log
from typing import Optional, Sequence, Union

from .conearith import (
    ConeParams,
    binomial_row,
    cone_params,
    dim_partition,
    gen_pochhammer,
    lower_coefficient,
    raise_coefficient,
    weight_factor,
)
from .dpolys import (
    FamilyParams,
    _first_row,
    _over_common_denominator,
    _row_sum,
    _second_row,
    companion_poly,
)
from .errors import DomainError, ParameterError, _Fields
from .jack import JackTable
from .partitions import (
    box_move,
    enumerate_up_to,
    format_partition,
    pad,
    partitions_of,
    weight,
)
from .symfun import series_compose_diagonal, u_binomial, u_exp

Rat = Union[int, Fraction]

_DECIMAL_PREC = 60


def _dec(q: Fraction) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_PREC
        return Decimal(q.numerator) / Decimal(q.denominator)


def _fmt(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, Decimal):
        return float(v)
    return v


class VerificationReport(_Fields):
    """Structured outcome of one identity check."""

    _fields = ("identity", "params", "truncation", "cases", "summary")

    def __init__(self, identity: str, params: dict, truncation=None, cases=None, summary=None):
        self.identity, self.params = identity, params
        self.truncation = {} if truncation is None else truncation
        self.cases = [] if cases is None else cases
        self.summary = {} if summary is None else summary

    def finalize(self) -> "VerificationReport":
        # every residual is a "p/q" string or a float (a cut sum, a suite's maximum)
        residuals = [abs(float(Fraction(r) if isinstance(r, str) else r))
                     for r in (c["residual"] for c in self.cases)]
        self.summary = {
            "total": len(self.cases),
            "passed": sum(1 for c in self.cases if c["pass"]),
            "max_residual": max(residuals, default=0.0),
        }
        return self

    @property
    def passed(self) -> bool:
        return self.summary.get("passed") == self.summary.get("total")

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "params": self.params,
            "truncation": self.truncation,
            "cases": self.cases,
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _exact_case(indices: dict, lhs: Fraction, rhs: Fraction) -> dict:
    res = lhs - rhs
    case = {k: format_partition(v) for k, v in indices.items()}
    case.update(
        {"lhs": _fmt(lhs), "rhs": _fmt(rhs), "residual": _fmt(res), "pass": res == 0}
    )
    return case


# ---------------------------------------------------------------------------
# generating functions


def _genfunc_series(fp: FamilyParams, poly, D: int, scale: Rat = 1):
    """The one-index generating function of ``fp`` composed on ``poly`` in
    the variables scale*w, to total degree D, read from the point (s, z):

        Charlier (s None):  exp(scale tr w) poly(1 + z scale w),
        otherwise:          prod_i (1 - t w_i)^(-s) poly((1 + (z - 1) t w) / (1 - t w)),

    with t = scale, and t = -scale for a finite support (Krawtchouk): it
    is Meixner at s = -N, c = p/(p - 1), read at w -> -w so that its
    coefficients carry the positive box binomials (the "plus"
    convention); no other convention is tried."""
    s, z = fp.point
    if s is None:
        return series_compose_diagonal(poly, [1, z * scale], u_exp(scale, D), D)
    t = scale if fp.N is None else -scale
    # (1 + (z - 1) t w) / (1 - t w) = 1 + sum over k >= 1 of z t^k w^k
    entry = [1] + [z * t**k for k in range(1, D + 1)]
    return series_compose_diagonal(poly, entry, u_binomial(-s, t, D), D)


def genfunc(fp: FamilyParams, max_weight: int, degree: int, jack: JackTable) -> VerificationReport:
    """Coefficient-by-coefficient check of the one-index generating
    function of a family against the closed product form, exact up to total
    degree ``degree``, at every argument x of weight <= ``max_weight`` in
    the family's domain."""
    r = jack.r
    D = int(degree)
    jack.extend(max(D, max_weight))
    rep = VerificationReport(
        identity=f"genfunc-{fp.family}",
        params={**fp.label(), "d": str(jack.d), "r": r},
        truncation={"degree": D},
    )
    s = fp.point[0]
    sign = 1 if fp.N is None else -1  # the "plus" convention
    grid = enumerate_up_to(r, D)
    for x in enumerate_up_to(r, max_weight):
        if not fp.fits(x):
            continue
        coeffs = jack.to_phi_basis(_genfunc_series(fp, jack.phi(x), D))
        for n in grid:
            rhs = (
                sign ** weight(n) * weight_factor(n, jack, s) * fp.evaluate(n, x, jack)
                if fp.fits(n)
                else Fraction(0)
            )
            rep.cases.append(_exact_case({"x": x, "n": n}, coeffs.get(n, Fraction(0)), rhs))
    rep.finalize()
    if sign < 0:
        rep.params["sign_convention"] = "plus" if rep.passed else "none"
    return rep


def _master_domain(fp: FamilyParams) -> None:
    """The families with a two-level generating function."""
    if fp.family not in ("meixner", "charlier"):
        raise ParameterError(
            f"master generating function covers meixner/charlier, got {fp.family!r}"
        )


def master_genfunc(fp: FamilyParams, degree: int, jack: JackTable) -> VerificationReport:
    """Bidegree check of the two-level generating function: for every first
    index m up to ``degree``, expand the exponential-weighted companion
    series and compare each second-index coefficient up to ``degree`` with
    the family value, exactly."""
    _master_domain(fp)
    family = fp.family
    r = jack.r
    D = int(degree)
    jack.extend(D)
    rep = VerificationReport(
        identity=f"master-genfunc-{family}",
        params={**fp.label(), "d": str(jack.d), "r": r},
        truncation={"degree_first": D, "degree_second": D},
    )
    s, z = fp.point
    grid = enumerate_up_to(r, D)
    for m in grid:
        if s is None:
            # the Charlier one-index generating function at x = m
            series, scale = _genfunc_series(fp, jack.phi(m), D), 1
        else:
            companion = companion_poly(m, s, jack, -z)
            series = series_compose_diagonal(companion, [0, 1], u_exp(1, D), D)
            scale = weight_factor(m, jack, s)
        got = jack.to_phi_basis(series)
        for x in grid:
            rhs = scale * weight_factor(x, jack) * fp.evaluate(m, x, jack)
            rep.cases.append(_exact_case({"m": m, "x": x}, got.get(x, Fraction(0)), rhs))
    return rep.finalize()


# ---------------------------------------------------------------------------
# orthogonality


def _truncation_weights(truncation_weights: Sequence[int]) -> list:
    # a partial sum exists only at a weight >= 0, and the decrease test
    # needs two different ones
    ts = sorted(int(t) for t in truncation_weights)
    if len(ts) < 2 or ts[0] < 0 or len(set(ts)) < len(ts):
        raise ParameterError(f"need two or more distinct truncation weights >= 0, got {ts}")
    return ts


def _orthogonality_domain(fp: FamilyParams, r: int, d: Rat) -> None:
    """The hypotheses on a family's parameters under which its weight is
    positive and of finite mass, at rank r and multiplicity d."""
    if fp.family == "meixner":
        if not 0 < fp.c < 1:
            raise DomainError(f"need 0 < c < 1, got {fp.c}")
        rank_ratio = ConeParams(r, d).rank_ratio
        if not fp.alpha > rank_ratio - 1:
            raise DomainError(f"need alpha > n/r - 1 = {rank_ratio - 1}, got {fp.alpha}")
    elif fp.family == "charlier":
        if not fp.a > 0:
            raise DomainError(f"need a > 0, got {fp.a}")
    elif fp.family == "krawtchouk":
        if not 0 < fp.p < 1:
            raise DomainError(f"need 0 < p < 1, got {fp.p}")


def _weight(fp: FamilyParams, jack: JackTable):
    """The orthogonality weight of a two-index family, derived from its
    point (s, z) alone, as (w, q) with w(x) = weight_factor(x, s) q^|x|:
    q = c = 1/(1 - z), or, when s is None (Charlier), q = a = -1/z."""
    s, z = fp.point
    q = -1 / z if s is None else 1 / (1 - z)
    return (lambda x: weight_factor(x, jack, s) * q ** weight(x)), q


def _orthogonality_weight(fp: FamilyParams, jack: JackTable) -> tuple:
    """The weight w of ``_weight`` with its mass and norms, as (w, mass,
    norm):

        mass = sum over x of w(x),   norm(m) = mass / w(m),

    with mass (1 - c)^(-r s), or, when s is None, e^(r a).  The mass, and
    with it every norm, is a 60-digit Decimal only when irrational.  At
    s = -N (Krawtchouk, c = p/(p - 1)) w vanishes outside the box and
    w / mass is the binomial weight box_binomial(N, x) p^|x| (1 - p)^(rN - |x|)."""
    w, q = _weight(fp, jack)
    s = fp.point[0]
    if s is not None and (jack.r * s).denominator == 1:
        mass = (1 - q) ** -int(jack.r * s)
    else:  # 1 - q > 0 under the domain hypotheses
        with localcontext() as ctx:
            ctx.prec = _DECIMAL_PREC
            mass = _dec(jack.r * q).exp() if s is None else _dec(1 - q) ** _dec(-jack.r * s)

    def norm(m):
        part = 1 / w(m)
        return mass * (_dec(part) if isinstance(mass, Decimal) else part)

    return w, mass, norm


def _shell_moment(fp: FamilyParams, K: int, cut: int, jack: JackTable) -> Fraction:
    """The partial binomial moment of |k| = K cut at weight ``cut``, over
    weight_factor(k, s): by the generalized binomial formula each weight
    shell has the closed form

        sum over |x| = t of w(x) binom(x, k) = weight_factor(k, s) q^t coef_(t - K),

    with q and w from ``_weight``, coef_j = (rs + K)_j / j! (r^j / j! when s
    is None, Charlier), so the moment is sum of q^t coef_(t - K) over
    K <= t <= cut, and 0 for K > cut.  The running sums of each K are
    memoized per family parameters in ``jack.cache`` as (sums, next term),
    sums[t - K] the moment cut at t, and a deeper cut continues the series
    where the last one stopped, so the cuts of one check share one pass."""
    if cut < K:
        return Fraction(0)
    key = ("shells", fp._key, K)
    got = jack.cache.get(key)
    if got is None or cut - K >= len(got[0]):
        s = fp.point[0]
        q = _weight(fp, jack)[1]
        sums, term = got or ((), q**K)
        sums = list(sums)
        total = sums[-1] if sums else Fraction(0)
        for j in range(len(sums), cut - K + 1):
            total += term
            sums.append(total)
            term *= q * (jack.r if s is None else jack.r * s + K + j) / (j + 1)
        got = jack.cache[key] = tuple(sums), term
    return got[0][cut - K]


def _node_weights(fp: FamilyParams, degree: int, cut: Optional[int], jack: JackTable) -> dict:
    """The one rule behind every weighted sum: {node: l} such that sum of
    l f(node) is the sum of w(x) f(x) over every x of weight <= ``cut``,
    or over every x divided by the mass when ``cut`` is None, for any f
    shifted-symmetric of degree <= ``degree`` (as a product of family
    values is).  Every l is rational, whatever the mass.

    A weight of finite support (``fp.N`` set: s = -N) is its own rule,
    whatever ``degree``: its points x of weight <= ``cut`` with w(x) != 0,
    each with l = w(x), or w(x) / mass over the whole box.  Any other
    weight gets the nodes |mu| <= ``degree``: f = sum of a_k binom(x, k)
    over |k| <= degree, and with the closed-form binomial moments

        sum over x of w(x) binom(x, k) = mass weight_factor(k, s) rho^|k| = mass M_k,

    rho = -1/z from the point (s, z) (c/(1 - c) for Meixner, a for
    Charlier), and f(mu) = sum of binom(mu, k) a_k over k in mu, the sum
    is sum of l_mu f(mu), l_k = M_k - sum over mu strictly containing k of
    binom(mu, k) l_mu.  With ``cut`` = T, M_k is the partial moment
    weight_factor(k, s) times ``_shell_moment``, not divided by the mass.
    No basis table is read.  Memoized in ``jack.cache``: the nodes per
    (family parameters, degree, cut), the box per (family parameters,
    cut)."""
    finite = fp.N is not None
    key = ("box", fp._key, cut) if finite else ("nodes", fp._key, degree, cut)
    ell = jack.cache.get(key)
    if ell is not None:
        return ell
    if finite:
        w, mass, _ = _orthogonality_weight(fp, jack)
        top = jack.r * fp.N if cut is None else min(cut, jack.r * fp.N)
        ell = {x: wx if cut is not None else wx / mass
               for x in enumerate_up_to(jack.r, top) if (wx := w(x))}
        return jack.cache.setdefault(key, ell)
    s, z = fp.point
    nodes = enumerate_up_to(jack.r, degree)
    if cut is None:
        rho = -1 / z
        ell = {k: weight_factor(k, jack, s) * rho ** weight(k) for k in nodes}
    else:
        ell = {k: weight_factor(k, jack, s) * _shell_moment(fp, weight(k), cut, jack)
               for k in nodes}
    # every mu strictly containing k is heavier, so l_mu is final first
    for mu in reversed(nodes):
        for k, b in binomial_row(jack, mu).items():
            if k != mu:
                ell[k] -= b * ell[mu]
    return jack.cache.setdefault(key, ell)


def _tail_estimate(fp: FamilyParams, values, t: int, jack: JackTable) -> Fraction:
    """The largest |w(x) f(m, x) f(n, x)| over the points x of nonzero
    weight on the shell |x| = t, with ``values(x)`` the family values at
    x: max |f(m, x)| squared, as the pairs include m = n.  An indication
    of the tail past t, not a bound on it.  A shell past a finite support
    (``fp.N`` set, t > rN) has no such point and is not walked."""
    if fp.N is not None and t > jack.r * fp.N:
        return Fraction(0)
    w, _ = _weight(fp, jack)
    return max((abs(wx) * max(map(abs, values(x).values())) ** 2
                for x in partitions_of(t, jack.r) if (wx := w(x))), default=Fraction(0))


def _orthogonality(
    fp: FamilyParams, max_index_weight: int, ts: Optional[list], jack: JackTable,
    tol_diag: Optional[Rat], tol_off: Optional[Rat],
) -> VerificationReport:
    """The orthogonality report of ``fp`` over every pair m <= n of indices
    in its domain up to ``max_index_weight``, for both public checks: each
    sum of w(x) f(m, x) f(n, x) is one pairing of family values with
    ``_node_weights``, over the mass when ``ts`` is None, else at every
    truncation weight in ``ts``."""
    _orthogonality_domain(fp, jack.r, jack.d)
    w, _ = _weight(fp, jack)
    idx = [m for m in enumerate_up_to(jack.r, max_index_weight) if fp.fits(m)]
    vals = {}

    def values(x):
        if x not in vals:
            vals[x] = {m: fp.evaluate(m, x, jack) for m in idx}
        return vals[x]

    sums = {
        (m, n): [sum(l * values(x)[m] * values(x)[n]
                     for x, l in _node_weights(fp, weight(m) + weight(n), cut, jack).items())
                 for cut in ([None] if ts is None else ts)]
        for i, m in enumerate(idx) for n in idx[i:]
    }
    rep = VerificationReport(
        identity=f"orthogonality-{fp.family}", params={**fp.label(), "d": str(jack.d), "r": jack.r}
    )
    if ts is None:
        rep.truncation = {"exact": True}
        for (m, n), (lhs,) in sums.items():
            rep.cases.append(_exact_case({"m": m, "n": n}, lhs, 1 / w(m) if m == n else Fraction(0)))
        return rep.finalize()
    rep.truncation = {
        "weights": ts,
        "tail_estimate": float(_tail_estimate(fp, values, ts[-1], jack)),
        "tolerance_diagonal": float(tol_diag),
        "tolerance_offdiagonal": float(tol_off),
    }
    _, mass, norm = _orthogonality_weight(fp, jack)
    decimal = isinstance(mass, Decimal)
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_PREC
        for (m, n), partial in sums.items():
            # a residual on the diagonal is relative to the norm
            goal = norm(m) if m == n else (Decimal(0) if decimal else Fraction(0))
            residuals = []
            for v in partial:
                res = abs((_dec(v) if decimal else v) - goal)
                residuals.append(res / abs(goal) if m == n else res)
            tol = tol_diag if m == n else tol_off
            rep.cases.append({
                "m": format_partition(m),
                "n": format_partition(n),
                "lhs": _fmt(partial[-1]),
                "rhs": _fmt(goal),
                "residual": float(residuals[-1]),
                "residuals": [float(res) for res in residuals],
                # within the tolerance, and no larger than the residual before
                "pass": residuals[-1] <= residuals[-2] and float(residuals[-1]) <= float(tol),
            })
    return rep.finalize()


def orthogonality(
    fp: FamilyParams,
    max_index_weight: int,
    truncation_weights: Optional[Sequence[int]],
    jack: JackTable,
    tol_diag: Rat = Fraction(1, 10**8),
    tol_off: Rat = Fraction(1, 10**10),
) -> VerificationReport:
    """Orthogonality of a two-index family over every index pair of weight
    <= ``max_index_weight``.  Without truncation weights each sum is exact
    (``_node_weights``): reported over the mass, against norm(m) / mass =
    1 / w(m) on the diagonal, every pair must give the literal zero
    residual.  With them, exact partial sums over weight shells are
    compared against the closed-form norm (decimal where it is
    irrational: always for Charlier, and for Meixner when r*alpha is not
    an integer), within the tolerances and with decreasing residuals."""
    ts = None if truncation_weights is None else _truncation_weights(truncation_weights)
    return _orthogonality(fp, max_index_weight, ts, jack, tol_diag, tol_off)


def orthogonality_krawtchouk(p: Rat, N: int, jack: JackTable) -> VerificationReport:
    """Finite Krawtchouk orthogonality over the (N, ..., N) box: the exact
    orthogonality sum at every index of weight <= rN, which is every index
    of the box.  Both sides are reported over the rational mass, that is,
    against the binomial weight of total mass one; every pair must give
    the literal zero residual."""
    fp = FamilyParams("krawtchouk", p=p, N=N)
    rep = _orthogonality(fp, jack.r * fp.N, None, jack, None, None)
    # d and r ahead of p and N: the report's key order
    rep.params = {"family": "krawtchouk", "d": str(jack.d), "r": jack.r, **fp.label()}
    rep.truncation = {"finite": True}
    return rep


# ---------------------------------------------------------------------------
# difference and recurrence equations


def _plan_terms(jack: JackTable, y) -> tuple:
    """The family-free part of the shift equations at the padded index y,
    as (dim, terms, den).  ``dim`` is d_y as an integer pair.  ``terms``
    has one entry per term of the residual row: the centre first, then
    for each row j the move up, y + e_j, and the move down, y - e_j, where
    it stays a partition.  Each entry is (row, vector), with ``row`` the
    full falling-factorial row of its index, the numerators of
    ``dpolys._second_row``, and ``vector`` the integers (beta, gamma, eps)
    such that the term's coefficient divided by that row's denominator is
    (beta b + gamma c + eps e) / den for any shift triple (b, c, e):

        centre:    d_y ((b + c) |y| + e r),
        up at j:   -d_up lower_j(up) (c (y_j - (d/2)(j - 1)) + e),
        down at j: -d_down raise_j(down) (y_j + (d/2)(r - j)) b.

    Memoized per index in ``jack.cache``, for every family."""
    key = ("terms", y)
    got = jack.cache.get(key)
    if got is not None:
        return got
    params = cone_params(jack)
    r, half = params.r, params.d / 2
    dim_y = dim_partition(y, jack)
    centre = dim_y * weight(y)
    moves = [(y, (centre, centre, dim_y * r))]
    for j in range(1, r + 1):
        up = box_move(y, j, +1)
        if up is not None:
            base = dim_partition(up, jack) * lower_coefficient(j, up, params)
            moves.append((up, (0, -base * (y[j - 1] - half * (j - 1)), -base)))
        down = box_move(y, j, -1)
        if down is not None:
            base = dim_partition(down, jack) * raise_coefficient(j, down, params)
            moves.append((down, (-base * (y[j - 1] + half * (r - j)), 0, 0)))
    rows = [_second_row(jack, move, weight(move)) for move, _ in moves]
    flat, den = _over_common_denominator(tuple(
        Fraction(v) / rden for (_, vector), (_, rden) in zip(moves, rows) for v in vector
    ))
    terms = tuple((nums, flat[3 * i:3 * i + 3]) for i, (nums, _) in enumerate(rows))
    got = ((dim_y.numerator, dim_y.denominator), terms, den)
    return jack.cache.setdefault(key, got)


def _shift_plan(fp: FamilyParams, moving, jack: JackTable) -> tuple:
    """The residual row of the difference equation in the padded index
    ``moving``, as (lam numerator, lam denominator, row, den).  The
    equation reads

        (lam |fixed| + diag) f(moving) = sum of coef f(y) over neighbours,

    with (y, coef) for every up and down box move whose coefficient is
    nonzero.  The family enters only through its shift triple (b, c, e) =
    ``fp.shift``: every coefficient, diag = d_y sum_j ((b + c) y_j + e)
    included, is linear in it, and lam = d_y (c - b).  The family value
    f(fixed, y) is linear in the falling-factorial row G_y of y, so all
    but the lam term is one pairing with the row

        H = diag G_moving - sum of coef G_y,

    returned as {k: integer numerator} over den.  It is built in integers:
    (b, c, e) over one denominator, from
    ``dpolys._over_common_denominator``, times the family-free vectors of
    ``_plan_terms``, which scale each term's row.  The centre term is
    always kept and a term whose coefficient is zero is skipped (a
    Krawtchouk raise out of the box, which keeps the recurrence inside
    it, or any lowering at p = 1); the row keeps every key of the kept
    rows, entries that cancel to 0 included, so a pole of the fixed
    index's row raises where evaluating the family at the neighbours
    would.  Computed once per (fp, moving) and memoized in ``jack.cache``,
    keyed by the integer pairs of ``fp._key``."""
    key = ("shift", fp._key, moving)
    got = jack.cache.get(key)
    if got is not None:
        return got
    (b, c, e), bce_den = _over_common_denominator(fp.shift)
    (dim_num, dim_den), terms, den = _plan_terms(jack, moving)
    row = {}
    for i, (nums, (beta, gamma, eps)) in enumerate(terms):
        scale = beta * b + gamma * c + eps * e
        if scale or not i:  # terms[0] is the centre
            for k, n in nums.items():
                row[k] = row.get(k, 0) + scale * n
    got = (dim_num * (c - b), dim_den * bce_den, row, den * bce_den)
    return jack.cache.setdefault(key, got)


def _shift_equation(
    fp: FamilyParams, fixed, moving, jack: JackTable, moving_first: bool
) -> Fraction:
    """Exact residual (lhs - rhs) of the difference equation in the index
    ``moving`` with ``fixed`` held.  Terms whose shifted index is not a
    partition are omitted, which reproduces the classical r = 1 equations.
    The centre value f is evaluated with ``moving`` as its first index when
    ``moving_first``; by duality that turns the equation into the
    recurrence in the first index.  The rest is the first-index row of
    ``fixed`` paired with the residual row of ``moving``: the family sum
    is symmetric in its two indices, so the one row serves both
    equations.  The pairing is one integer sum S over q, the product of
    the two rows' denominators, so with lam = ln/ld from the plan and
    f = a/b the residual is one Fraction,

        (ln |fixed| a q + S ld b) / (ld b q)."""
    fixed = pad(fixed, jack.r)
    moving = pad(moving, jack.r)
    if moving_first:
        fy = fp.evaluate(moving, fixed, jack)
    else:
        fy = fp.evaluate(fixed, moving, jack)
    lam_num, lam_den, row, den = _shift_plan(fp, moving, jack)
    s, z = fp.point
    first = _first_row(jack, fixed, s, z)
    total = _row_sum(first, row, s)
    q = first[2] * den
    a, b = fy.numerator, fy.denominator
    return Fraction(lam_num * weight(fixed) * a * q + total * lam_den * b, lam_den * b * q)


def difference_residual(fp: FamilyParams, m, x, jack: JackTable) -> Fraction:
    """Exact residual (lhs - rhs) of the second-index difference equation
    at one index pair."""
    return _shift_equation(fp, m, x, jack, moving_first=False)


def recurrence_residual(fp: FamilyParams, m, x, jack: JackTable) -> Fraction:
    """Exact residual of the first-index recurrence at one index pair: the
    difference equation with the roles of m and x exchanged (duality)."""
    return _shift_equation(fp, x, m, jack, moving_first=True)


def _equation_report(
    kind: str, fp: FamilyParams, max_weight: int, jack: JackTable
) -> VerificationReport:
    r = jack.r
    residual_fn = difference_residual if kind == "difference" else recurrence_residual
    grid = enumerate_up_to(r, max_weight)
    rep = VerificationReport(
        identity=f"{kind}-{fp.family}",
        params={**fp.label(), "d": str(jack.d), "r": r},
        truncation={"max_weight": max_weight},
    )
    for m in grid:
        if not fp.fits(m):
            continue
        for x in grid:
            # only the difference equation holds for x outside the box
            if kind == "recurrence" and not fp.fits(x):
                continue
            res = residual_fn(fp, m, x, jack)
            rep.cases.append(_exact_case({"m": m, "x": x}, Fraction(0), -res))
    return rep.finalize()


def difference_equation(fp: FamilyParams, max_weight: int, jack: JackTable) -> VerificationReport:
    """Exact difference-equation residuals over all index pairs of weight
    <= max_weight."""
    return _equation_report("difference", fp, max_weight, jack)


def recurrence(fp: FamilyParams, max_weight: int, jack: JackTable) -> VerificationReport:
    """Exact recurrence residuals over all index pairs of weight <= max_weight."""
    return _equation_report("recurrence", fp, max_weight, jack)


# ---------------------------------------------------------------------------
# orthogonality-generator kernel


def _generator_params(alpha: Rat, c: Rat) -> FamilyParams:
    """The Meixner parameters of the generator kernel, with 0 < c < 1."""
    c = Fraction(c)
    if not 0 < c < 1:
        raise DomainError(f"need 0 < c < 1, got {c}")
    return FamilyParams("meixner", alpha=alpha, c=c)


def orthogonality_generator_check(
    alpha: Rat,
    c: Rat,
    max_degree: int,
    jack: JackTable,
) -> VerificationReport:
    """Checks that the weighted double sum of generating functions against
    the Cayley-type kernel reproduces the diagonal kernel, coefficient by
    coefficient up to ``max_degree`` in both outer variables.  The kernel
    coefficient K_n(x) at Phi_n is a combination of binom(x, k), |k| <=
    |n| (binomial formula), so each infinite sum over x of w(x) F_m(x)
    K_n(x) is exact from ``_node_weights``, which reads K_n at the nodes
    of weight <= |m| + |n|: the basis is needed to degree 2 ``max_degree``."""
    fp = _generator_params(alpha, c)
    c = fp.c
    r = jack.r
    D = int(max_degree)
    jack.extend(2 * D)
    idx = enumerate_up_to(r, D)
    nodes = enumerate_up_to(r, 2 * D)
    # (1 - c w)^(-alpha) Phi_x((1 - w)/(1 - c w)): the Meixner generating
    # function at w -> c w
    kern = {x: jack.to_phi_basis(_genfunc_series(fp, jack.phi(x), D, scale=c)) for x in nodes}
    vals = {x: {m: fp.evaluate(m, x, jack) for m in idx} for x in nodes}
    rep = VerificationReport(
        identity="orthogonality-generator",
        params={"d": str(jack.d), "r": r, "alpha": str(fp.alpha), "c": str(c)},
        truncation={"degree": D},
    )
    for m in idx:
        pref = weight_factor(m, jack, fp.alpha)
        for n in idx:
            ell = _node_weights(fp, weight(m) + weight(n), None, jack)
            got = sum(l * vals[x][m] * kern[x].get(n, 0) for x, l in ell.items())
            rep.cases.append(
                _exact_case({"m": m, "n": n}, pref * got, pref if m == n else Fraction(0))
            )
    return rep.finalize()


# ---------------------------------------------------------------------------
# degenerate limits

def _limit_scales(a: Fraction, scales: Sequence[int], max_index_weight: int,
                  r: int, d: Rat) -> list:
    """The scales t of ``limits_check``'s gaps: two or more, increasing, each
    > 0 with a + t != 0 (alpha = N = t, c = a/(a + t)), a != 0, and both
    paths defined on the grid: t >= its largest part (the Krawtchouk box
    N = t) and (t)_k != 0 at each k of the grid (no Meixner pole)."""
    scales = [int(s) for s in scales]
    if len(scales) < 2 or any(s >= t for s, t in zip(scales, scales[1:])):
        raise ParameterError(f"need two or more strictly increasing scales, got {scales}")
    for t in scales:
        if t <= 0 or a + t == 0:
            raise ParameterError(f"need every scale > 0 and a + scale != 0, got scale {t}")
    FamilyParams("charlier", a=a)  # the target refuses a = 0
    params, grid = ConeParams(r, d), enumerate_up_to(r, max_index_weight)
    for t in scales:
        if t < max_index_weight:
            raise ParameterError(
                f"need every scale >= max weight {max_index_weight}, got scale {t}")
        pole = next((k for k in grid if not gen_pochhammer(t, k, params)), None)
        if pole is not None:
            raise ParameterError(f"need (scale)_k != 0 on the grid, got scale {t}: "
                                 f"meixner ({t})_k vanishes at k={format_partition(pole)}")
    return scales


def limits_check(a: Rat, scales: Sequence[int], max_index_weight: int,
                 jack: JackTable) -> VerificationReport:
    """Checks exactly that Meixner at alpha = t, c = a/(a + t) and
    Krawtchouk at N = t, p = a/t tend to Charlier at a (the Meixner ->
    Charlier and Krawtchouk -> Charlier limits of the Askey scheme).  Their
    points are (sigma t, -sigma t/a), sigma = 1 and -1, so with
    kappa = m ∩ x, P(t) = (sigma t)_kappa F_t(m, x) is a polynomial of
    degree <= |kappa| in t with leading coefficient sigma^|kappa| times the
    limit.  P is read at |kappa| + 3 consecutive integers t; a case passes
    when its three |kappa|-th differences are equal (the degree) and
    sigma^|kappa| Delta^|kappa| P / |kappa|! is the Charlier value, a
    literal zero residual.  The exact gaps |F_t - Charlier| at the scales
    and their log-rate ``order`` (None where a gap is 0) are only shown."""
    a = Fraction(a)
    scales = _limit_scales(a, scales, max_index_weight, jack.r, jack.d)
    params = cone_params(jack)
    # one start for the grid: above every part (the Krawtchouk box), above
    # n/r - 1 (no pole of (t)_k) and above |a| (c = a/(a + t) finite)
    t0 = int(max(max_index_weight, params.rank_ratio - 1, abs(a))) + 1
    paths = (
        ("meixner", 1, lambda t: FamilyParams("meixner", alpha=t, c=a / (a + t))),
        ("krawtchouk", -1, lambda t: FamilyParams("krawtchouk", p=a / t, N=t)),
    )
    target = FamilyParams("charlier", a=a)
    grid = enumerate_up_to(jack.r, max_index_weight)
    rep = VerificationReport(
        identity="limits-to-charlier",
        params={"d": str(jack.d), "r": jack.r, "a": str(a), "scales": scales},
    )
    for kind, sigma, at in paths:
        samples = [at(t) for t in range(t0, t0 + max_index_weight + 3)]
        shown = [at(t) for t in scales]
        for m in grid:
            for x in grid:
                kappa = tuple(map(min, m, x))
                k = weight(kappa)
                diffs = [gen_pochhammer(fp.point[0], kappa, params) * fp.evaluate(m, x, jack)
                         for fp in samples[: k + 3]]
                for _ in range(k):
                    diffs = [q - p for p, q in zip(diffs, diffs[1:])]
                rhs = target.evaluate(m, x, jack)
                gaps = [abs(fp.evaluate(m, x, jack) - rhs) for fp in shown]
                order = None if 0 in gaps else (log(float(gaps[0])) - log(float(gaps[-1]))) / (
                    log(scales[-1]) - log(scales[0]))
                case = _exact_case({"m": m, "x": x}, sigma**k * diffs[0] / factorial(k), rhs)
                case["pass"] = case["pass"] and diffs[0] == diffs[1] == diffs[2]
                rep.cases.append(
                    {"kind": kind, **case, "gaps": [float(g) for g in gaps], "order": order}
                )
    return rep.finalize()


# ---------------------------------------------------------------------------
# the non-classical suite


def is_classical(r: int, d: Rat) -> bool:
    """True when (r, d) lies in the range where the identities are proven:
    rank one, multiplicity 1, 2 or 4, rank two with integer multiplicity,
    or rank three with multiplicity 8."""
    d = Fraction(d)
    if r == 1:
        return True
    if d in (1, 2, 4):
        return True
    if r == 2 and d.denominator == 1 and d > 0:
        return True
    if r == 3 and d == 8:
        return True
    return False


def conjecture_suite(
    d: Rat,
    r: int,
    degree_budget: int,
    jack: Optional[JackTable] = None,
    seed: int = 20250808,
) -> VerificationReport:
    """Runs the full identity battery at one (r, d): generating functions,
    master generating functions, Krawtchouk, Meixner and Charlier
    orthogonality, and difference/recurrence grids, every check exact.
    At non-classical (r, d) a passing report is evidence for the
    conjectured extension of the identities."""
    d = Fraction(d)
    budget = int(degree_budget)
    if jack is None:
        from .jack import jack_table

        jack = jack_table(r, d, budget)
    params = cone_params(jack)

    # any alpha above rank_ratio - 1 = (d/2)(r-1) keeps every shifted
    # factorial positive, so no pole can occur on any grid of the suite
    alpha = params.rank_ratio + Fraction(3, 2)
    c_gf = Fraction(1, 2)
    a_gf = Fraction(2)
    p_gf = Fraction(1, 3)
    n_box = max(2, (budget + 1) // 2)
    n_eq = max(3, budget)

    sub: list[VerificationReport] = []
    gf = (
        FamilyParams("meixner", alpha=alpha, c=c_gf),
        FamilyParams("charlier", a=a_gf),
        FamilyParams("krawtchouk", p=p_gf, N=n_box),
    )
    for fp in gf:
        sub.append(genfunc(fp, budget, budget, jack))
    for fp in gf[:2]:  # the master generating function has no Krawtchouk form
        sub.append(master_genfunc(fp, min(3, budget), jack))
    sub.append(orthogonality_krawtchouk(p_gf, n_box, jack))
    for fp in (FamilyParams("meixner", alpha=alpha, c=Fraction(1, 8)),
               FamilyParams("charlier", a=1)):
        sub.append(orthogonality(fp, min(2, budget), None, jack))
    for fp in (FamilyParams("meixner", alpha=alpha, c=Fraction(3, 5)),
               FamilyParams("charlier", a=Fraction(5, 4)),
               FamilyParams("krawtchouk", p=Fraction(2, 7), N=n_eq)):
        sub.append(difference_equation(fp, budget, jack))
        sub.append(recurrence(fp, budget, jack))

    rep = VerificationReport(
        identity="conjecture-suite",
        params={
            "d": str(d),
            "r": r,
            "classical": is_classical(r, d),
            "degree_budget": budget,
            "seed": seed,
        },
    )
    for s in sub:
        rep.cases.append(
            {
                "identity": s.identity,
                "params": s.params,
                "passed": s.summary["passed"],
                "total": s.summary["total"],
                "max_residual": s.summary["max_residual"],
                "residual": s.summary["max_residual"],
                "pass": s.passed,
            }
        )
    rep.truncation["subreports"] = [s.to_dict() for s in sub]
    return rep.finalize()
