"""Both sides of every identity, written from the paper's formulas in plain
``Fraction`` arithmetic.

Each function ``thm*`` / ``lemma6`` / ``eq24_25`` / ``exp_moment_bridge``
names the identity of ``degderange.identities`` that it mirrors and returns
that identity's (lhs, rhs) at (n, lam, x, r), each side evaluated as the
paper writes it: sums over k of products of falling factorials, Stirling
numbers, derangement values, Fubini and Bell values.  Every one of those is
computed here, from its definition, with its own loops:

  falling(x, n; lam) = x (x - lam) ... (x - (n-1) lam)
  S2(n+1, m; lam) = S2(n, m-1; lam) + (m - n lam) S2(n, m; lam)
  S1(n+1, m; lam) = S1(n, m-1; lam) + (m lam - n) S1(n, m; lam)
  D(n; lam, x) = n! sum_{l<=n} falling(x-1, l; lam) / l!
  D_r(n; lam, x) = n! sum_{l<=n} binom(r-1+n-l, n-l) falling(x-1, l; lam) / l!
  F(n; lam, y) = sum_m m! y^m S2(n, m; lam)                   (Fubini)
  Bel(n; lam, x) = sum_m falling(1, m; lam) x^m S2(n, m; lam)  (Bell)

and the series sides, n! [t^n] of a generating function, by long division
of truncated power series.  The module imports only ``fractions`` and
``math``: no memo row, integer kernel or grow step of ``degderange`` is read,
so a defect that moves both of an engine's sides together still differs from
these values.  (Nothing is cached either: n stays small in the tests.)
"""

from fractions import Fraction as F
from math import comb, factorial


def falling(x, n, lam):
    acc = F(1)
    for i in range(n):
        acc *= x - i * lam
    return acc


def stirling_rows(n, lam, second_kind):
    """Rows 0..n of the degenerate Stirling triangle of either kind, each
    row listing m = 0..k, by the triangular recurrence."""
    rows = [[F(1)]]
    for k in range(n):
        prev = rows[-1] + [F(0)]
        row = [F(0)] * (k + 2)
        for m in range(k + 2):
            factor = m - k * lam if second_kind else m * lam - k
            row[m] = (prev[m - 1] if m else 0) + factor * prev[m]
        rows.append(row)
    return rows


def s2(n, lam):
    return stirling_rows(n, lam, True)[n]


def s1(n, lam):
    return stirling_rows(n, lam, False)[n]


def derange(n, lam, x):
    return factorial(n) * sum(falling(x - 1, l, lam) / factorial(l) for l in range(n + 1))


def _order_sum(terms, n, r):
    """D_r(n) = n! sum_{l<=n} binom(r-1+n-l, n-l) terms[l]."""
    return factorial(n) * sum(comb(r - 1 + n - l, n - l) * terms[l] for l in range(n + 1))


def derange_order(n, r, lam, x):
    return _order_sum([falling(x - 1, l, lam) / factorial(l) for l in range(n + 1)], n, r)


def derange_order_rows(n, orders, lam, x):
    """{r: [D_r(k; lam, x) for k = 0..n] for r in orders}: each value the sum
    of ``derange_order``, over the terms falling(x-1, l; lam)/l!, l = 0..n,
    built once."""
    terms = [falling(x - 1, l, lam) / factorial(l) for l in range(n + 1)]
    return {r: [_order_sum(terms, k, r) for k in range(n + 1)] for r in orders}


def derange_order_series(n, r, lam, x):
    """n! [t^n] deg_exp(x-1, t) / (1-t)^r, by long division of the
    coefficients falling(x-1, k; lam)/k! by those of (1-t)^r."""
    den = [(-1) ** i * comb(r, i) for i in range(n + 1)]
    out = []
    for k in range(n + 1):
        acc = falling(x - 1, k, lam) / factorial(k)
        acc -= sum(den[i] * out[k - i] for i in range(1, k + 1))
        out.append(acc)
    return factorial(n) * out[n]


def fubini(n, lam, y):
    return sum(factorial(m) * y**m * v for m, v in enumerate(s2(n, lam)))


def bell(n, lam, x):
    return sum(falling(1, m, lam) * x**m * v for m, v in enumerate(s2(n, lam)))


def conv(n, a, b):
    """sum_l binom(n, l) a(l) b(n-l)."""
    return sum(comb(n, l) * a(l) * b(n - l) for l in range(n + 1))


# ---------------------------------------------------------------------------
# the identities


def thm2_conv(n, lam, x, r):
    """Theorem 2: D(n; lam, x) = sum_l binom(n, l) D(l; lam, 0) falling(x, n-l; lam),
    the lhs as n! [t^n] deg_exp(x-1)/(1-t)."""
    rhs = conv(n, lambda l: derange(l, lam, 0), lambda k: falling(x, k, lam))
    return derange_order_series(n, 1, lam, x), rhs


def thm2_rec(n, lam, x, r):
    """Theorem 2: falling(x-1, n; lam) = D(n; lam, x) - n D(n-1; lam, x)."""
    return falling(x - 1, n, lam), derange(n, lam, x) - n * derange(n - 1, lam, x)


def thm2_rec_x0(n, lam, x, r):
    return thm2_rec(n, lam, 0, r)


def thm3(n, lam, x, r):
    """Theorem 3: sum_j binom(n, j) falling(1, n-j; lam) sum_l (-1)^l D(l; lam, x) S2(j, l; lam)
    = sum_m (-1)^m falling(x-1, m; lam) S2(n, m; lam)."""
    rows = stirling_rows(n, lam, True)

    def inner(j):
        return sum((-1) ** l * derange(l, lam, x) * v for l, v in enumerate(rows[j]))

    lhs = conv(n, inner, lambda k: falling(1, k, lam))
    rhs = sum((-1) ** m * falling(x - 1, m, lam) * v for m, v in enumerate(rows[n]))
    return lhs, rhs


def thm4(n, lam, x, r):
    """Theorem 4: sum_m S2(n, m; lam) D(m; lam, x)
    = sum_l binom(n, l) F(n-l; lam, 1) sum_m falling(x-1, m; lam) S2(l, m; lam)."""
    rows = stirling_rows(n, lam, True)
    lhs = sum(v * derange(m, lam, x) for m, v in enumerate(rows[n]))

    def inner(l):
        return sum(falling(x - 1, m, lam) * v for m, v in enumerate(rows[l]))

    return lhs, conv(n, inner, lambda k: fubini(k, lam, 1))


def thm5(n, lam, x, r):
    """Theorem 5: sum_m F(m; lam, 1) S1(n, m; lam)
    = sum_l binom(n, l) D(l; lam, x) falling(1-x, n-l; lam), both n!."""
    lhs = sum(fubini(m, lam, 1) * v for m, v in enumerate(s1(n, lam)))
    return lhs, conv(n, lambda l: derange(l, lam, x), lambda k: falling(1 - x, k, lam))


def lemma6(n, lam, x, r):
    """Lemma 6: sum_{m=1..n} falling(x-1, m; lam) S2(n, m; lam)
    = sum_{m=1..n} (D(m; lam, x) - m D(m-1; lam, x)) S2(n, m; lam)."""
    row = s2(n, lam)
    lhs = sum(falling(x - 1, m, lam) * row[m] for m in range(1, n + 1))
    rhs = sum(
        (derange(m, lam, x) - m * derange(m - 1, lam, x)) * row[m] for m in range(1, n + 1)
    )
    return lhs, rhs


def thm7_a(n, lam, x, r):
    """Theorem 7: falling(1, n; lam) = sum_m Bel(m; lam, 1) S1(n, m; lam)."""
    return falling(1, n, lam), sum(bell(m, lam, 1) * v for m, v in enumerate(s1(n, lam)))


def thm7_b(n, lam, x, r):
    """Theorem 7: Bel(n; lam, 1) = sum_m falling(1, m; lam) S2(n, m; lam)."""
    return bell(n, lam, 1), sum(falling(1, m, lam) * v for m, v in enumerate(s2(n, lam)))


def thm8_a(n, lam, x, r):
    """Theorem 8: sum_m (-1)^m D(m; lam, 0) S2(n, m; -lam)
    = sum_l binom(n, l) Bel(l; -lam, 1) falling(-1, n-l; -lam)."""
    lhs = sum((-1) ** m * derange(m, lam, 0) * v for m, v in enumerate(s2(n, -lam)))
    return lhs, conv(n, lambda l: bell(l, -lam, 1), lambda k: falling(-1, k, -lam))


def thm8_b(n, lam, x, r):
    """Theorem 8: sum_m Bel(m; lam, 1) S1(n, m; lam) = (-1)^n falling(-1, n; -lam)."""
    lhs = sum(bell(m, lam, 1) * v for m, v in enumerate(s1(n, lam)))
    return lhs, (-1) ** n * falling(-1, n, -lam)


def eq24_25(n, lam, x, r):
    """Eqs. (24)-(25): (-1)^n sum_m falling(-1, m; lam) S1(n, m; lam)
    = sum_l binom(n, l) D(l; lam, x) falling(1-x, n-l; lam)."""
    lhs = (-1) ** n * sum(falling(-1, m, lam) * v for m, v in enumerate(s1(n, lam)))
    return lhs, conv(n, lambda l: derange(l, lam, x), lambda k: falling(1 - x, k, lam))


def thm9_vs_series(n, lam, x, r):
    """Theorem 9: the explicit order-r sum D_r(n; lam, x) = n! [t^n] deg_exp(x-1)/(1-t)^r."""
    return derange_order(n, r, lam, x), derange_order_series(n, r, lam, x)


def thm10(n, lam, x, r):
    """Theorem 10: Bel(n; -lam, 1)
    = sum_j binom(n, j) falling(1, n-j; -lam) sum_l (-1)^l D(l; lam, 0) S2(j, l; -lam)."""
    rows = stirling_rows(n, -lam, True)

    def inner(j):
        return sum((-1) ** l * derange(l, lam, 0) * v for l, v in enumerate(rows[j]))

    return bell(n, -lam, 1), conv(n, inner, lambda k: falling(1, k, -lam))


def exp_moment_bridge(n, lam, x, r):
    """The exponential moment bridge: sum_l binom(n, l) E[X^l] falling(x-1, n-l; lam),
    E[X^l] = l! for a unit exponential X, = n! [t^n] deg_exp(x-1)/(1-t)."""
    lhs = conv(n, factorial, lambda k: falling(x - 1, k, lam))
    return lhs, derange_order_series(n, 1, lam, x)


SIDES = {
    "THM2_CONV": thm2_conv,
    "THM2_REC": thm2_rec,
    "THM2_REC_X0": thm2_rec_x0,
    "THM3": thm3,
    "THM4": thm4,
    "THM5": thm5,
    "LEMMA6": lemma6,
    "THM7_A": thm7_a,
    "THM7_B": thm7_b,
    "THM8_A": thm8_a,
    "THM8_B": thm8_b,
    "EQ24_25": eq24_25,
    "THM9_VS_SERIES": thm9_vs_series,
    "THM10": thm10,
    "EXP_MOMENT_BRIDGE": exp_moment_bridge,
}
