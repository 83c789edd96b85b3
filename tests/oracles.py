"""Independent construction oracles used by the tests.

Nothing here shares an algorithm with the package: the deformed basis is
rebuilt by Gram-Schmidt against the deformation inner product in the
power-sum coordinates, and the d = 2 specialization is evaluated through
the bialternant ratio.  Both routes are exact.  The one exception shares
the algorithm but not the arithmetic: the eigenoperator recursion that
builds the table is run on E itself in Fractions, where the package runs
it on q*E (d = p/q) in ints.  The Pieri coefficients of m_(1) * Phi_m are
read off the basis expansion, where the package has a closed form.  The first-index
recurrence is written out term by term in the first index, where the
package derives it from the difference equation by duality.  The
difference equation itself is also evaluated with every coefficient
recomputed per call, where the package reads a memoized plan, and on
the package's rows in Fractions, one Fraction coefficient per term and
the family value added as a Fraction, where the package builds its plans
in integers from family-free vectors and ends in one Fraction.  Binomial
and falling-factorial rows are expanded directly in the basis table
(Phi_x at the all-ones shift, cut at the cap), where the package runs
Lassalle's recursion on full rows and its dual, over the rows of the
one-box-smaller partitions, on capped ones.  The family sum is added up
term by term in Fractions, where the package takes one integer dot
product of two memoized rows.  The dimension ratio d_m / (n/r)_m is read
off p1^|m| in the basis, and run up from rho(0) = 1 by the Pieri
recursion over every partition contained in m, where the package takes
the closed product; dimensions are also cross-checked in floating point
against the classical Gamma-product expression.  The classical r = 1 Meixner,
Charlier and Krawtchouk values are the terminating hypergeometric series
of the Askey scheme with their parameters written out by hand, where the
package reads each family's declared point (s, z).  The package never
multiplies two SymPolys; ``product`` does, orbit by orbit, and it is the
reference behind the power sums, p1^|m| and m_(1) * Phi_m here.  A
diagonal composition with a per-variable factor f is rebuilt as the
``product`` of the series prod_i f(z_i) and the composition without it,
cut at the same degree, where the package folds f into the per-variable
powers in one pass, and a ratio of univariate series is expanded by
series inversion, where the package writes its one ratio in closed
form.  The generalized shifted factorial is multiplied out one Fraction
factor at a time, where the package takes one integer product.  The
truncated orthogonality
sums are added up term by term over every x, one weight shell at a time,
where the package takes them from the closed-form shell moments at the
nodes.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import permutations
from math import comb, exp, factorial, lgamma

from mvdop.conearith import (
    cone_params,
    dim_partition,
    falling_row,
    lower_coefficient,
    raise_coefficient,
    weight_factor,
)
from mvdop.dpolys import _first_row, _over_common_denominator, _row_dot, _second_row
from mvdop.errors import DomainError, ParameterError, PoleError
from mvdop.partitions import (
    box_move,
    contains,
    enumerate_up_to,
    format_partition,
    pad,
    partitions_of,
    sub_partitions,
    weight,
)
from mvdop.symfun import SymPoly, _orbit, u_binomial, u_exp, u_mul


def dominates(a, b) -> bool:
    """Dominance order a ⊵ b for partitions of equal weight and length."""
    if len(a) != len(b) or sum(a) != sum(b):
        raise ValueError("dominance needs equal weight and ambient length")
    sa = sb = 0
    for x, y in zip(a, b):
        sa += x
        sb += y
        if sa < sb:
            return False
    return True


def partitions_all_lengths(w: int) -> list:
    """Partitions of w with any number of parts <= w, descending lex."""
    if w == 0:
        return [()]
    return [tuple(a for a in p if a) for p in partitions_of(w, w)]


def product(a: SymPoly, b: SymPoly, max_degree=None) -> SymPoly:
    """The product of two monomial-basis polynomials, cut at total degree
    ``max_degree`` when one is given: both orbits are expanded and only the
    weakly decreasing exponent vectors (the orbit representatives) are
    collected."""
    if a.r != b.r:
        raise ValueError(f"ambient length mismatch: {a.r} vs {b.r}")
    r = a.r
    out: dict = defaultdict(Fraction)
    bitems = [(bk, sum(bk), bv) for bk, bv in b.coeffs.items()]
    for ak, av in a.coeffs.items():
        wa = sum(ak)
        for bk, wb, bv in bitems:
            if max_degree is not None and wa + wb > max_degree:
                continue
            coef = av * bv
            for avec in _orbit(ak):
                for bvec in _orbit(bk):
                    e = tuple(x + y for x, y in zip(avec, bvec))
                    if all(e[i] >= e[i + 1] for i in range(r - 1)):
                        out[e] += coef
    return SymPoly(r, out)


def truncated(p: SymPoly, max_degree: int) -> SymPoly:
    """The terms of ``p`` of total degree <= ``max_degree``."""
    return SymPoly(p.r, {k: c for k, c in p.coeffs.items() if sum(k) <= max_degree})


def power_sum_in_monomials(lam: tuple, nvars: int) -> SymPoly:
    out = SymPoly.one(nvars)
    for part in lam:
        out = product(out, SymPoly.monomial(nvars, (part,)))
    return out


def _zee(lam: tuple) -> int:
    z = 1
    mult: dict = {}
    for a in lam:
        mult[a] = mult.get(a, 0) + 1
    for a, k in mult.items():
        z *= a**k
        for i in range(1, k + 1):
            z *= i
    return z


def _solve(system: list, rhs: list) -> list:
    """Exact Gaussian elimination, small systems only."""
    n = len(system)
    mat = [row[:] + [rhs[i]] for i, row in enumerate(system)]
    for col in range(n):
        piv = next(row for row in range(col, n) if mat[row][col] != 0)
        mat[col], mat[piv] = mat[piv], mat[col]
        for row in range(n):
            if row != col and mat[row][col]:
                f = mat[row][col] / mat[col][col]
                mat[row] = [x - f * y for x, y in zip(mat[row], mat[col])]
    return [mat[i][n] / mat[i][i] for i in range(n)]


def gram_schmidt_basis(w: int, alpha: Fraction) -> dict:
    """For each partition lam of w: the monomial expansion of the basis
    element orthogonal (for the alpha-deformed power-sum inner product) to
    everything dominance-below it, normalized with unit leading term.
    Computed in w variables, which is faithful for degree w."""
    alpha = Fraction(alpha)
    nvars = max(w, 1)
    parts = partitions_all_lengths(w)
    padded = [pad(p, nvars) for p in parts]
    # power sums in the monomial basis, then invert to express monomials
    p_rows = [power_sum_in_monomials(p, nvars).coeffs for p in parts]
    mat = [[row.get(mu, Fraction(0)) for mu in padded] for row in p_rows]
    m_in_p = []  # m_in_p[i][j]: coefficient of p_{parts[j]} in m_{parts[i]}
    for i in range(len(parts)):
        rhs = [Fraction(1) if k == i else Fraction(0) for k in range(len(parts))]
        col = _solve([[mat[j][k] for j in range(len(parts))] for k in range(len(parts))], rhs)
        m_in_p.append(col)

    def inner(i: int, j: int) -> Fraction:
        return sum(
            m_in_p[i][k] * m_in_p[j][k] * _zee(parts[k]) * alpha ** len(parts[k])
            for k in range(len(parts))
        )

    out = {}
    for i, lam in enumerate(parts):
        below = [
            j
            for j, mu in enumerate(parts)
            if mu != lam and dominates(pad(lam, nvars), pad(mu, nvars))
        ]
        if not below:
            coeffs = {padded[i]: Fraction(1)}
        else:
            # solve <m_lam + sum c_j m_mu_j, m_nu> = 0 for all nu below
            system = [[inner(jb, jn) for jb in below] for jn in below]
            rhs = [-inner(i, jn) for jn in below]
            sol = _solve(system, rhs)
            coeffs = {padded[i]: Fraction(1)}
            for c, j in zip(sol, below):
                if c:
                    coeffs[padded[j]] = c
        out[lam] = coeffs
    return out


def restrict_to_r(coeffs: dict, r: int) -> dict:
    """Drop monomial keys with more than r nonzero parts, re-pad to r."""
    out = {}
    for key, c in coeffs.items():
        stripped = tuple(a for a in key if a)
        if len(stripped) <= r:
            out[pad(stripped, r)] = c
    return out


def schur_eval(m: tuple, xs: tuple) -> Fraction:
    """Bialternant ratio at a point with distinct coordinates."""
    r = len(xs)
    m = pad(m, r)
    xs = tuple(Fraction(x) for x in xs)

    def det(rows):
        n = len(rows)
        total = Fraction(0)
        for perm in permutations(range(n)):
            inv = sum(
                1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
            )
            term = Fraction(-1 if inv % 2 else 1)
            for i in range(n):
                term *= rows[i][perm[i]]
            total += term
        return total

    num = [[xs[i] ** (m[k] + r - 1 - k) for k in range(r)] for i in range(r)]
    den = [[xs[i] ** (r - 1 - k) for k in range(r)] for i in range(r)]
    return det(num) / det(den)


def _terminating_series(m: int, x: int, b, z) -> Fraction:
    """sum over k <= min(m, x) of (-m)_k (-x)_k z^k / ((b)_k k!): the
    terminating 2F1(-m, -x; b; z), or 2F0(-m, -x; ; z) when b is None."""
    total, term = Fraction(0), Fraction(1)
    for k in range(min(m, x) + 1):
        if k:
            den = k if b is None else k * (b + k - 1)
            if not den:
                raise PoleError(f"({b})_{k} = 0")
            term *= (k - 1 - m) * (k - 1 - x) * z / Fraction(den)
        total += term
    return total


def univariate_meixner(m: int, x: int, alpha, c) -> Fraction:
    """Classical Meixner M_m(x; alpha, c) = 2F1(-m, -x; alpha; 1 - 1/c)."""
    c = Fraction(c)
    if c == 0:
        raise ParameterError("c must be nonzero")
    return _terminating_series(m, x, Fraction(alpha), 1 - 1 / c)


def univariate_charlier(m: int, x: int, a) -> Fraction:
    """Classical Charlier C_m(x; a) = 2F0(-m, -x; ; -1/a)."""
    a = Fraction(a)
    if a == 0:
        raise ParameterError("a must be nonzero")
    return _terminating_series(m, x, None, -1 / a)


def univariate_krawtchouk(m: int, x: int, p, N: int) -> Fraction:
    """Classical Krawtchouk K_m(x; p, N) = 2F1(-m, -x; -N; 1/p), 0 <= m <= N."""
    p = Fraction(p)
    if p == 0:
        raise ParameterError("p must be nonzero")
    if not 0 <= m <= N:
        raise DomainError(f"index {m} outside 0..{N}")
    return _terminating_series(m, x, Fraction(-N), 1 / p)


def recurrence_residual_mirror(fp, m, x, jack) -> Fraction:
    """Exact residual of the first-index recurrence at one index pair,
    written directly in the first index: the difference equation with the
    roles of m and x exchanged by hand.  Krawtchouk raises that would leave
    the box must carry a zero coefficient."""
    params = cone_params(jack)
    r, d = params.r, params.d
    m = pad(m, r)
    x = pad(x, r)
    jack.extend(max(weight(m) + 1, weight(x)))
    fam = fp.family
    fx = fp.evaluate(m, x, jack)
    dim_m = dim_partition(m, jack)

    if fam == "meixner":
        lhs = dim_m * (fp.c - 1) * weight(x) * fx
    else:
        lhs = -dim_m * weight(x) * fx

    box = (int(fp.N),) * r if fam == "krawtchouk" else None
    rhs = Fraction(0)
    mid = Fraction(0)
    for j in range(1, r + 1):
        mj = m[j - 1]
        up = box_move(m, j, +1)
        if up is not None:
            base = dim_partition(up, jack) * lower_coefficient(j, up, params)
            if fam == "meixner":
                coef = base * (mj + fp.alpha - d / 2 * (j - 1)) * fp.c
            elif fam == "charlier":
                coef = base * fp.a
            else:
                coef = base * (fp.N - mj + d / 2 * (j - 1)) * fp.p
            if coef:
                if box is not None and not contains(up, box):
                    raise AssertionError("nonzero raise out of the box")
                rhs += coef * fp.evaluate(up, x, jack)
        if fam == "meixner":
            mid += mj + (mj + fp.alpha) * fp.c
        elif fam == "charlier":
            mid += mj + fp.a
        else:
            mid += fp.p * (fp.N - mj) + mj * (1 - fp.p)
        down = box_move(m, j, -1)
        if down is not None:
            base = (
                dim_partition(down, jack)
                * raise_coefficient(j, down, params)
                * (mj + d / 2 * (r - j))
            )
            coef = base * (1 - fp.p) if fam == "krawtchouk" else base
            if coef:
                rhs += coef * fp.evaluate(down, x, jack)
    rhs -= dim_m * mid * fx
    return lhs - rhs


def kernel_direct(jack, m, x, s, z) -> Fraction:
    """The family sum over padded m, x term by term in Fractions, with
    every coefficient recomputed per call:

        sum over k in m and x of  d_k z^|k| / ((n/r)_k (s)_k) G_m[k] G_x[k],

    the (s)_k factor left out when ``s`` is None.  A vanishing (s)_k on a
    term with G_x[k] != 0 raises PoleError naming k."""
    gm = falling_row(jack, m)
    gx = falling_row(jack, x, max_weight=weight(m))
    params = cone_params(jack)
    total = Fraction(0)
    for k, gmk in gm.items():
        gxk = gx.get(k)
        if not gxk:
            continue
        ck = weight_factor(k, jack) * z ** weight(k)
        if s is not None:
            poch = gen_pochhammer_direct(s, k, params)
            if poch == 0:
                raise PoleError(
                    f"shifted factorial ({s})_k vanishes at k={format_partition(k)}"
                )
            ck /= poch
        total += ck * gmk * gxk
    return total


def truncated_sums_by_shells(fp, max_index_weight: int, ts, jack) -> tuple:
    """The orthogonality sums of ``fp`` cut at each weight T in ``ts``,
    added up term by term over every x of weight <= max(ts), one weight
    shell at a time, with the weight w(x) = d_x (s)_x / (n/r)_x q^|x|
    read off the family point (q = 1/(1 - z), or -1/z when s is None).

    Returns (snapshots, tail): {T: {(m, n): partial sum}} for every pair
    m <= n of indices in the family's domain up to ``max_index_weight``,
    and the largest |term| of the deepest shell."""
    s, z = fp.point
    q = -1 / z if s is None else 1 / (1 - z)
    idx = [m for m in enumerate_up_to(jack.r, max_index_weight) if fp.fits(m)]
    pairs = [(m, n) for i, m in enumerate(idx) for n in idx[i:]]
    sums = dict.fromkeys(pairs, Fraction(0))
    snapshots = {}
    tail = Fraction(0)
    for t in range(max(ts) + 1):
        tail = Fraction(0)
        for x in partitions_of(t, jack.r):
            wx = weight_factor(x, jack, s) * q**t
            if not wx:  # zero outside the Krawtchouk box
                continue
            vals = {m: fp.evaluate(m, x, jack) for m in idx}
            for m, n in pairs:
                term = wx * vals[m] * vals[n]
                sums[m, n] += term
                tail = max(tail, abs(term))
        if t in ts:
            snapshots[t] = dict(sums)
    return snapshots, tail


def shift_equation_direct(fp, fixed, moving, jack, moving_first: bool) -> Fraction:
    """Exact residual of the difference equation in ``moving`` with
    ``fixed`` held, every coefficient recomputed at each call; the family
    is evaluated with ``moving`` first when ``moving_first``.  The package
    reads the same coefficients from a plan built once per (family
    parameters, index)."""
    params = cone_params(jack)
    r, d = params.r, params.d
    fixed = pad(fixed, r)
    moving = pad(moving, r)
    jack.extend(max(weight(fixed), weight(moving) + 1))
    fam = fp.family

    def value(y):
        return fp.evaluate(y, fixed, jack) if moving_first else fp.evaluate(fixed, y, jack)

    fy = value(moving)
    dim_y = dim_partition(moving, jack)

    if fam == "meixner":
        lhs = dim_y * (fp.c - 1) * weight(fixed) * fy
    else:
        lhs = -dim_y * weight(fixed) * fy

    rhs = Fraction(0)
    mid = Fraction(0)
    for j in range(1, r + 1):
        yj = moving[j - 1]
        up = box_move(moving, j, +1)
        if up is not None:
            base = dim_partition(up, jack) * lower_coefficient(j, up, params)
            if fam == "meixner":
                coef = base * (yj + fp.alpha - d / 2 * (j - 1)) * fp.c
            elif fam == "charlier":
                coef = base * fp.a
            else:
                coef = base * (fp.N - yj + d / 2 * (j - 1)) * fp.p
            if coef:
                rhs += coef * value(up)
        if fam == "meixner":
            mid += yj + (yj + fp.alpha) * fp.c
        elif fam == "charlier":
            mid += yj + fp.a
        else:
            mid += fp.p * (fp.N - yj) + yj * (1 - fp.p)
        down = box_move(moving, j, -1)
        if down is not None:
            base = (
                dim_partition(down, jack)
                * raise_coefficient(j, down, params)
                * (yj + d / 2 * (r - j))
            )
            coef = base * (1 - fp.p) if fam == "krawtchouk" else base
            if coef:
                rhs += coef * value(down)
    rhs -= dim_y * mid * fy
    return lhs - rhs


def shift_equation_fraction_route(fp, fixed, moving, jack, moving_first: bool) -> Fraction:
    """Exact residual of the difference equation in ``moving`` with
    ``fixed`` held, on the package's rows but in Fractions: the residual
    row is built from one Fraction coefficient per term, (b, c, e) read
    into each term's coefficient in Fractions and scaled by Fraction(coef,
    den) onto its neighbour's row, and the residual is lam |fixed| f plus
    the Fraction pairing ``dpolys._row_dot``.  The key-set rules are
    written out again: the centre term is always kept, a term whose
    coefficient is zero is skipped.  The package reads integer plans from
    family-free vectors and ends in one Fraction."""
    params = cone_params(jack)
    r, half = params.r, params.d / 2
    fixed = pad(fixed, r)
    moving = pad(moving, r)
    fy = fp.evaluate(moving, fixed, jack) if moving_first else fp.evaluate(fixed, moving, jack)
    b, c, e = fp.shift
    dim_y = dim_partition(moving, jack)
    terms = [(moving, dim_y * ((b + c) * weight(moving) + e * r))]
    for j in range(1, r + 1):
        yj = moving[j - 1]
        up = box_move(moving, j, +1)
        if up is not None:
            coef = dim_partition(up, jack) * lower_coefficient(j, up, params) * (
                c * (yj - half * (j - 1)) + e)
            if coef:
                terms.append((up, -coef))
        down = box_move(moving, j, -1)
        if down is not None:
            coef = (dim_partition(down, jack) * raise_coefficient(j, down, params)
                    * (yj + half * (r - j)) * b)
            if coef:
                terms.append((down, -coef))
    rows = [_second_row(jack, y, weight(y)) for y, _ in terms]
    scales, hden = _over_common_denominator(
        tuple(Fraction(coef) / den for (_, coef), (_, den) in zip(terms, rows)))
    row = {}
    for (nums, _), a in zip(rows, scales):
        for k, n in nums.items():
            row[k] = row.get(k, 0) + a * n
    s, z = fp.point
    return dim_y * (c - b) * weight(fixed) * fy + _row_dot(_first_row(jack, fixed, s, z), row, hden, s)


def gen_pochhammer_direct(s, m, params) -> Fraction:
    """Generalized shifted factorial prod_j (s - (d/2)(j-1))_{m_j} one
    Fraction factor at a time, where the package takes one integer
    product over a common denominator."""
    s = Fraction(s)
    total = Fraction(1)
    for j, mj in enumerate(m):
        base = s - params.d / 2 * j
        for i in range(mj):
            total *= base + i
            if not total:
                return total
    return total


def dim_partition_gamma_check(m, params) -> float:
    """Floating-point evaluation of the classical Gamma-product expression
    for d_m, a cross-check for the exact ``dim_partition``."""
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


def shift_by_one_map(r: int, coeffs: dict) -> dict:
    """Monomial-basis map of p(1 + z_1, ..., 1 + z_r) for a monomial-basis
    map of p."""
    acc: dict = defaultdict(Fraction)
    for lam, c in coeffs.items():
        for avec in set(permutations(lam)):
            _shift_accumulate(acc, avec, c, r)
    return {k: v for k, v in acc.items() if v}


def _shift_accumulate(acc, avec, c, r):
    # walk all e <= avec componentwise, weakly decreasing only
    def rec(i, prev, coef, prefix):
        if i == r:
            acc[prefix] += coef
            return
        for e in range(min(avec[i], prev) + 1):
            rec(i + 1, e, coef * comb(avec[i], e), prefix + (e,))

    rec(0, avec[0], c, ())


_P1_ROWS: dict = {}


def dim_ratio_p1(jack, m) -> Fraction:
    """d_m / (n/r)_m: the coefficient of Phi_m in p1^|m|, over |m|!.  The
    table is extended to |m|; the row of each (r, d, |m|) is converted
    once."""
    m = pad(m, jack.r)
    w = weight(m)
    key = (jack.r, jack.d, w)
    if key not in _P1_ROWS:
        jack.extend(w)
        power = SymPoly.one(jack.r)
        for _ in range(w):
            power = product(power, SymPoly.monomial(jack.r, (1,)))
        _P1_ROWS[key] = jack.to_phi_basis(power)
    return _P1_ROWS[key].get(m, Fraction(0)) / factorial(w)


def dim_ratio_pieri(jack, m) -> Fraction:
    """rho(m) = d_m / (n/r)_m by the Pieri recursion

        |m| rho(m) = sum_j raise_j(m - e_j) rho(m - e_j),   rho(0) = 1,

    over the rows j where m - e_j is a partition, run up over every
    partition contained in m in increasing weight."""
    params = cone_params(jack)
    m = pad(m, jack.r)
    rho = {}
    for y in sub_partitions(m):
        total = Fraction(0) if weight(y) else Fraction(1)
        for j in range(1, jack.r + 1):
            down = box_move(y, j, -1)
            if down is not None:
                total += raise_coefficient(j, down, params) * rho[down]
        rho[y] = total / max(weight(y), 1)
    return rho[m]


def binomial_row_expansion(jack, x, cap: int) -> dict:
    """Generalized binomials over x with |k| <= cap: Phi_x expanded at the
    all-ones shift, cut at total degree cap, converted to the Phi basis."""
    x = pad(x, jack.r)
    jack.extend(weight(x))
    shifted = shift_by_one_map(jack.r, jack.phi(x).coeffs)
    cut = {k: c for k, c in shifted.items() if sum(k) <= cap}
    return jack.to_phi_basis(SymPoly(jack.r, cut))


def falling_row_expansion(jack, x, cap: int) -> dict:
    """Generalized falling factorials (n/r)_k binom(x, k) / d_k of x with
    |k| <= cap, from ``binomial_row_expansion`` and ``dim_ratio_p1``."""
    return {
        k: b / dim_ratio_p1(jack, k) for k, b in binomial_row_expansion(jack, x, cap).items()
    }


def u_inv(a: list, max_degree: int) -> list:
    """Multiplicative inverse of a univariate series with nonzero constant
    term, by the coefficient recursion."""
    if not a or a[0] == 0:
        raise ZeroDivisionError("series has no inverse: zero constant term")
    inv = [Fraction(0)] * (max_degree + 1)
    inv[0] = 1 / Fraction(a[0])
    for n in range(1, max_degree + 1):
        s = Fraction(0)
        for i in range(1, min(n, len(a) - 1) + 1):
            if a[i]:
                s += Fraction(a[i]) * inv[n - i]
        inv[n] = -inv[0] * s
    return inv


def u_ratio(num: list, den: list, max_degree: int) -> list:
    """The univariate series num / den to degree ``max_degree``, where the
    package writes its one ratio, (1 + (z - 1) t w) / (1 - t w), in closed
    form."""
    return u_mul(
        [Fraction(x) for x in num] + [Fraction(0)] * max_degree,
        u_inv([Fraction(x) for x in den], max_degree),
        max_degree,
    )


def series_per_variable(u: list, r: int, max_degree: int) -> SymPoly:
    """The series prod_i u(z_i) truncated at total degree ``max_degree``."""
    coeffs = {}
    for mu in enumerate_up_to(r, max_degree):
        v = Fraction(1)
        for e in mu:
            v *= u[e] if e < len(u) else Fraction(0)
            if not v:
                break
        if v:
            coeffs[mu] = v
    return SymPoly(r, coeffs)


def series_prod_binomial(exponent, scale, r: int, max_degree: int) -> SymPoly:
    """Expansion of prod_{i=1..r} (1 - scale*z_i)**exponent to total degree
    <= max_degree; the branch with value 1 at z = 0."""
    return series_per_variable(u_binomial(exponent, scale, max_degree), r, max_degree)


def series_exp_trace(scale, r: int, max_degree: int) -> SymPoly:
    """Expansion of exp(scale * (z_1 + ... + z_r))."""
    return series_per_variable(u_exp(scale, max_degree), r, max_degree)


def operator_rows_fraction(r: int, d: Fraction, keys: list) -> dict:
    """The deformation operator E on the monomial basis of one weight
    space, in Fractions: rows[nu][mu] is the coefficient of m_mu in
    E(m_nu)."""
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


def solve_weight_fraction(keys: list, rows: dict) -> dict:
    """Unitriangular eigenvector solve in Fractions: for each lam, the
    expansion of the basis element with leading monomial m_lam."""
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
                    raise ArithmeticError(f"eigenvalue collision between {lam} and {mu}")
                u[mu] = num / gap
        out[lam] = u
    return out


def basis_table_fraction(r: int, d, degree: int) -> tuple:
    """The basis expansions and principal values up to ``degree``, as
    (polys, principal), from the eigenoperator recursion run in
    Fractions."""
    d = Fraction(d)
    polys, principal = {}, {}
    for w in range(degree + 1):
        keys = list(partitions_of(w, r))
        for lam, u in solve_weight_fraction(keys, operator_rows_fraction(r, d, keys)).items():
            polys[lam] = u
            principal[lam] = sum(c * len(_orbit(mu)) for mu, c in u.items())
    return polys, principal


def pieri_coefficients(table, m) -> dict:
    """Coefficients b_j with m_(1) * Phi_m = sum_j b_j Phi_{m + e_j},
    obtained by basis expansion (no closed form)."""
    m = pad(m, table.r)
    table.check_degree(sum(m) + 1)
    p1 = SymPoly.monomial(table.r, (1,))
    conv = table.to_phi_basis(product(p1, table.phi(m)))
    out = {}
    for j in range(1, table.r + 1):
        up = box_move(m, j, +1)
        if up is not None and up in conv:
            out[j] = conv[up]
    return out
