"""Degenerate gamma function and distribution: numerics for the moment layer.

Floating point is confined to this module.  Every check compares a float
produced by quadrature or sampling against an exact rational target computed
by the exact layer, converted at the last moment.  The moment checks take
an exact lam and divide by float(lam), so they refuse a lam that rounds out
of (0, 1/2) as a float, as 1e-400 rounds to 0.0.

Integrands containing powers of the deformed exponential are integrated after
the change of variables u = (1/lam)*log(1 + lam*x).  With
x = (e^(lam*u) - 1)/lam, (1 + lam*x)^(-1/lam) = e^(-u) and 1 + lam*x =
e^(lam*u), so each damped member is exactly c * x^a * u^b * e^(-r*u) on
[0, inf): ``deg_gamma_fn_quadrature`` is x^(s-1) e^(-(1-lam)u),
``theorem11_check`` is (1-lam) u^n e^(-u) and ``moment_ratio_expectation``
is (1-lam) x^m e^(-u).  :func:`_damped` evaluates each node as one ``exp``
of a sum of logs, with log x = lam*u + log(1 - e^(-lam*u)) - log(lam),
finite for every u > 0, so no factor overflows where the product does not,
and no power of 1 + lam*x magnifies its rounding by 1/lam.  A node or a
result that does leave the float range raises :class:`QuadratureError`.

The damped members of one lam share their node logs: thm11 at one lam,
n = 0..8, makes 121 rule calls on 21 Kronrod intervals.  So each member
gives ``_quadpack.quad`` a batch ``rule(a, b)`` that reads the interval's
(t, u, log x, log u) per node from ``_transform``, an LRU cache of
``TRANSFORM_CACHE_INTERVALS`` intervals over every lam: a check visits some
21 to 35 intervals per lam, so it keeps a few lam values, and a quadrature
that bisects without end cannot grow it.  The cache lives at module level
because the CLI runs each n of ``gamma-check thm11`` as its own call; each
interval's entry is a tuple, built whole and never changed, so a warm and a
cold cache give the same floats.  Every value is the float the per-node
integrand gives, each operation in the same order, so value, abserr and
neval are those of the per-node path, and scipy, handed the same integrand
(it is callable per node), agrees bit for bit.

That agreement also rests on the Kronrod sums: ``_quadpack`` forms each
of them as one straight-line expression over the 15 values, added left to
right in the order of QUADPACK's loop, with the products by the zero Gauss
weights kept, so that an inf value still makes the Gauss sum NaN.  Never
form such a sum with ``sum()`` or ``math.fsum``: both round differently
from Fortran's loop, and float ``sum`` itself changed in Python 3.12 to a
compensated sum, so the same code would give other bits on 3.10 and 3.11
than on 3.12.

The normaliser of the degenerate gamma density is computed once per
:class:`DegGammaParams` (its ``norm`` property), not once per density
evaluation: an outer quadrature over the density then costs one inner
quadrature in all, not one per node.  That outer quadrature,
``_pdf_mass``, gives the density a rule that calls ``_pdf_formula``, the
formula ``deg_gamma_pdf`` evaluates, at an interval's 15 nodes, with no
call of the density itself in between.  Where a factor of that formula
leaves the float range, the density is taken through its log.  The
expansion check integrates each E[X^m/(1+lam X)] once per (m, lam, spec),
not once per n.

Quadrature runs on ``_quadpack``, a port of the QUADPACK routine behind
``scipy.integrate.quad`` on [0, inf) (``dqagie``) that returns scipy's
value, error and ``ier`` bit for bit; a nonzero ``ier`` raises
:class:`QuadratureError` with scipy's message.  So the moment checks import
no scipy.  The package imports this module on first use, as the CLI's gamma
commands do: the exact layer does not load it.

Sampling runs on the standard library alone.  The uniforms are
``random.Random(seed).random()``, CPython's Mersenne Twister, whose stream
for an int seed Python keeps the same across versions, and the transforms
are ``math.expm1`` and ``math.log1p``.  So the samples of a seed depend only
on the interpreter and the platform's libm, as the quadratures do.  A sample
past the float range, which u near 1 reaches for lam above about 0.951, is
``math.inf``: a block whose ``expm1`` overflows is drawn again from the same
uniforms through ``deg_gamma11_ppf``, so the common path pays one
``Random.getstate()`` per block.

The sampler's KS check needs no scipy.  Its statistic is computed, float for
float, as ``scipy.stats.kstest`` computes it, and its critical value is the
Dvoretzky-Kiefer-Wolfowitz bound with Massart's tight constant,
P(sup|F_n - F| > eps) <= 2 exp(-2 n eps^2) (Dvoretzky, Kiefer & Wolfowitz,
Ann. Math. Statist. 27(3), 1956; Massart, Ann. Probab. 18(3), 1990), so
sqrt(log(2/level)/(2n)).  The test keeps its level but is conservative: the
bound is never below ``scipy.stats.kstwo.ppf(1 - level, n)``.  At the 1%
level it lies 0.03% above it at n = 10^5, 1% at n = 141 and 7% at n = 7,
and at n = 1 it exceeds 1, so that check can never reject.
"""

from __future__ import annotations

import math
import numbers
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, islice, repeat
from operator import sub, truediv
from random import Random
from typing import Callable, Iterator

from . import _quadpack
from .exactcore import ExactScalar, binomial_conv, factorial
from .sequences import (
    _DERANGE,
    _DERANGE_ORDER_SERIES,
    _FALLING,
    _dual,
    _key,
    _stirling_steps,
    derange_deg_order,
    falling_deg,
)

DEFAULT_ABS_TOL = 1e-12
DEFAULT_REL_TOL = 1e-9
# acceptance thresholds sit one order looser than the solver tolerances
DEFAULT_CHECK_TOL = 1e-8
# the largest n whose moment target (1-lam) n! is compared as a float:
# 170! ~ 7.3e306 fits in one, 171! ~ 1.2e309 does not
MAX_FLOAT_N = 170
# the Kronrod intervals whose node logs (about 2.7 kB each) stay cached,
# over every lam: about three lam values of the gamma checks, at 33-35
# intervals each.  On the benchmark's gamma ops (seed 1) it builds 2,387
# of them for 8,083 rule calls
TRANSFORM_CACHE_INTERVALS = 96
# log x and log u at u = 0: 0 * _LOG0 is 0, so x^0 = u^0 = 1 there, a
# positive power is 0 and a negative one is past the float range
_LOG0 = -sys.float_info.max


@dataclass(frozen=True)
class QuadratureSpec:
    """QUADPACK's tolerances epsabs and epsrel and its subdivision limit."""

    abs_tol: float = DEFAULT_ABS_TOL
    rel_tol: float = DEFAULT_REL_TOL
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):  # NaN fails too
            raise ValueError("tolerances must be positive")
        if not isinstance(self.max_subdivisions, numbers.Integral) or self.max_subdivisions < 1:
            raise ValueError(
                f"max_subdivisions must be an integer >= 1, got {self.max_subdivisions!r}"
            )


class QuadratureError(RuntimeError):
    """Raised when the integrator does not converge; carries the partial value.

    ``args`` is (message, partial_estimate), so the error survives pickling.
    """

    def __init__(self, message: str, partial_estimate: float):
        super().__init__(message, partial_estimate)
        self.partial_estimate = partial_estimate

    def __str__(self) -> str:
        message, partial_estimate = self.args
        return f"{message} (partial estimate {partial_estimate!r})"


def _check_lam(lam: float) -> None:
    if not 0 < lam < 1:
        raise ValueError(f"lam must lie in (0, 1), got {lam}")


@dataclass(frozen=True)
class DegGammaParams:
    """Parameters of the degenerate gamma distribution.

    Requires 0 < lam < 1, finite beta > 0 and 0 < alpha < 1/lam (the density
    is not normalizable otherwise).
    """

    alpha: float
    beta: float
    lam: float

    def __post_init__(self):
        _check_lam(self.lam)
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if not 0 < self.alpha < 1 / self.lam:
            raise ValueError(
                f"alpha must lie in (0, 1/lam) = (0, {1 / self.lam}), got {self.alpha}"
            )

    @cached_property
    def norm(self) -> float:
        """Gamma_lam(alpha): the closed form (alpha-1)!/prod_{i<=alpha}(1-i*lam)
        at integer alpha, the integral definition otherwise."""
        a, lam = self.alpha, self.lam
        if float(a).is_integer():
            k = int(a)
            prod = 1.0
            for i in range(k + 1):
                prod *= 1 - i * lam  # positive throughout since lam < 1/alpha
            return math.gamma(k) / prod
        return deg_gamma_fn_quadrature(a, lam)


@dataclass
class MomentCheckResult:
    numeric_value: float
    exact_target: Fraction
    abs_error: float
    rel_error: float
    passed: bool
    inconclusive: bool = False
    detail: str | None = None


def _moment_args(n: int, lam: ExactScalar) -> tuple[Fraction, float]:
    """lam exact and as the float the quadratures divide by, for a moment
    check at n: n in [0, MAX_FLOAT_N], where the target (1-lam) n! is a
    finite float, and lam in (0, 1/2), refused also if it rounds out of
    (0, 1/2) as a float, as 1e-400 rounds to 0.0."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > MAX_FLOAT_N:
        raise ValueError(f"n must be <= {MAX_FLOAT_N}, got {n}: (1-lam) n! is past the float range")
    lam = Fraction(lam)
    if not 0 < lam < Fraction(1, 2):
        raise ValueError(f"lam must lie in (0, 1/2), got {lam}")
    lamf = float(lam)
    if not 0 < lamf < 0.5:
        raise ValueError(f"lam rounds to {lamf!r} as a float, outside (0, 1/2)")
    return lam, lamf


def _float_target(target: Fraction) -> float:
    """float(target), refused if the exact target is past the float range."""
    try:
        return float(target)
    except OverflowError:
        raise ValueError("the exact target is past the float range") from None


def _compare(numeric: float, target: Fraction, tol: float, **extra) -> MomentCheckResult:
    tf = _float_target(target)
    abs_err = abs(numeric - tf)
    rel_err = abs_err / abs(tf) if tf != 0 else abs_err
    passed = (rel_err <= tol) if tf != 0 else (abs_err <= tol)
    return MomentCheckResult(numeric, target, abs_err, rel_err, passed, **extra)


# ---------------------------------------------------------------------------
# quadrature engine


def improper_quadrature(f: Callable[[float], float], spec: QuadratureSpec | None = None) -> float:
    """Integrate f over [0, inf) to the requested tolerances, with QUADPACK's
    ``dqagie``: the map x = (1 - t)/t takes the infinite interval to (0, 1].

    Raises :class:`QuadratureError` when QUADPACK does not converge or the
    value is not finite."""
    spec = spec or QuadratureSpec()
    value, _, _, ier = _quadpack.quad(f, spec.abs_tol, spec.rel_tol, spec.max_subdivisions)
    if ier:  # not converged
        raise QuadratureError(_quadpack.message(ier, spec.max_subdivisions), value)
    if not math.isfinite(value):
        raise QuadratureError("integral evaluated to a non-finite value", value)
    return value


def _node_logs(lam: float, centre: float, points) -> list:
    """(t, u, log x, log u) at each (t, w) of points: u = centre*w and
    x = (e^(lam*u) - 1)/lam, log x taken as lam*u + log(1 - e^(-lam*u)) -
    log(lam), finite for every u > 0.  At u = 0, which only the rounding of
    a node t to 1 reaches, both logs are ``_LOG0``."""
    log, expm1, log_lam = math.log, math.expm1, math.log(lam)
    out = []
    for t, w in points:
        u = centre * w
        lu = lam * u
        out.append((t, u, lu + log(-expm1(-lu)) - log_lam, log(u)) if u else (t, u, _LOG0, _LOG0))
    return out


@lru_cache(maxsize=TRANSFORM_CACHE_INTERVALS)
def _transform(lam: float, centre: float, a: float, b: float) -> tuple:
    """``_node_logs`` at the nodes t of the Kronrod interval [a, b], in the
    order of ``_quadpack.nodes(a, b)``, w = (1 - t)/t; cached for the last
    ``TRANSFORM_CACHE_INTERVALS`` intervals used."""
    return tuple(_node_logs(lam, centre, [(t, (1.0 - t) / t) for t in _quadpack.nodes(a, b)]))


def _damped(
    lam: float, c: float, a: float, b: float, r: float, spec: QuadratureSpec | None
) -> float:
    """c times the integral over u in [0, inf) of x^a u^b e^(-r*u), with
    x = (e^(lam*u) - 1)/lam, for a*b = 0, r > 0 and a < r/lam: a damped
    member in u-space.  Each node is exp(E), E = a log x + b log u - r*u -
    shift.

    Two values follow from the inputs.  shift = max(0, log T - 690), with
    log T the log of the integral by ``lgamma`` (n!/r^(n+1) for u^n, the
    Beta form lam^-(a+1) B(a+1, r/lam - a) for x^a), keeps the nodes finite
    near n = 170; it is a scale only, 0 below e^690, and the result is
    multiplied back.  The quadrature runs in w = u/centre, centre the
    integrand's peak u* (b/r for u^b, -log1p(-a*lam/r)/lam for x^a) where
    that is at least 64, else 1: the first Kronrod rules miss a peak that
    far out and converge, with ier 0, to about 0.

    The per-node callable gives exp(E)*centre at w; ``rule(a, b)`` gives
    exp(E)*centre/t/t at the nodes of ``_transform``, the floats of the
    per-node path that scipy takes.  Raises :class:`QuadratureError` where
    the quadrature does not converge, or a node or the result leaves the
    float range; its partial estimate carries the scale."""
    if b:
        log_t, peak = math.lgamma(b + 1) - (b + 1) * math.log(r), b / r
    else:
        q = r / lam
        log_t = math.lgamma(a + 1) - (a + 1) * math.log(r)  # the limit lam -> 0
        if q < 1e12:  # past it lgamma(q) ~ q log q, and the difference loses units
            log_t += math.lgamma(q - a) - math.lgamma(q + 1) + (a + 1) * math.log(q)
        peak = -math.log1p(-a / q) / lam
    shift = max(0.0, log_t - 690.0)
    centre = peak if peak >= 64 else 1.0
    exp = math.exp

    def f(w: float) -> float:
        ((_, u, lx, lu),) = _node_logs(lam, centre, ((1.0, w),))
        return exp(a * lx + b * lu - r * u - shift) * centre

    def rule(lo: float, hi: float) -> list[float]:
        return [exp(a * lx + b * lu - r * u - shift) * centre / t / t
                for t, u, lx, lu in _transform(lam, centre, lo, hi)]

    f.rule = rule
    try:
        scale = c * math.exp(shift)
        value = improper_quadrature(f, spec) * scale
    except QuadratureError as exc:
        raise QuadratureError(exc.args[0], exc.partial_estimate * scale) from None
    except OverflowError:  # e^shift or a node past the float range
        value = math.inf
    if not math.isfinite(value):
        raise QuadratureError("integral evaluated to a non-finite value", value)
    return value


# ---------------------------------------------------------------------------
# degenerate gamma function


def deg_gamma_fn_exact(k: int, lam: ExactScalar) -> Fraction:
    """Closed-form value at a positive integer: (k-1)! / (1*(1-lam)*...*(1-k*lam)).

    Valid for lam in (0, 1/k)."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    lam = Fraction(lam)
    if not 0 < lam < Fraction(1, k):
        raise ValueError(f"lam must lie in (0, 1/{k}), got {lam}")
    return Fraction(factorial(k - 1)) / falling_deg(1, k + 1, lam)


def deg_gamma_fn(k: int, lam: ExactScalar) -> float:
    """Float image of the exact closed-form value."""
    return float(deg_gamma_fn_exact(k, lam))


def deg_gamma_fn_quadrature(s: float, lam: float, spec: QuadratureSpec | None = None) -> float:
    """Integral definition: integral of t^(s-1) (1+lam*t)^(-1/lam) dt over [0, inf).

    Converges for 0 < s < 1/lam."""
    _check_lam(lam)
    if not 0 < s < 1 / lam:
        raise ValueError(f"s must lie in (0, 1/lam), got {s}")

    return _damped(lam, 1.0, s - 1, 0, 1 - lam, spec)


def _pdf_formula(p: DegGammaParams, x: float) -> float:
    """The density formula, b (bx)^(a-1) (1 + lam*bx)^(-1/lam) / norm with
    bx = b*x, at x >= 0, as written: a power may overflow, and an
    overflowed b (bx)^(a-1) times a tail that underflowed to 0.0 is NaN.
    ``deg_gamma_pdf`` then takes the density through its log."""
    b, lam = p.beta, p.lam
    bx = b * x
    return b * bx ** (p.alpha - 1) * (1 + lam * bx) ** (-1 / lam) / p.norm


def _pdf_log(p: DegGammaParams, x: float) -> float:
    """The density at x > 0 as exp(log b + (a-1) log bx - log1p(lam*bx)/lam
    - log norm): 0.0 where that underflows, inf where it overflows."""
    a, b, lam = p.alpha, p.beta, p.lam
    lbx = math.log(b) + math.log(x)  # finite where b*x overflows
    bx = b * x
    tail = math.log1p(lam * bx) if bx < math.inf else math.log(lam) + lbx
    try:
        return math.exp(math.log(b) + (a - 1) * lbx - tail / lam - math.log(p.norm))
    except OverflowError:
        return math.inf


def deg_gamma_pdf(params: DegGammaParams, x: float) -> float:
    """Density of the degenerate gamma distribution; zero for x < 0.  Where
    a factor of its formula leaves the float range, the density is the exp
    of its log, 0.0 where that underflows."""
    if x < 0:
        return 0.0
    try:
        value = _pdf_formula(params, x)
    except OverflowError:
        return _pdf_log(params, x)
    return value if math.isfinite(value) else _pdf_log(params, x)


def _pdf_mass(params: DegGammaParams) -> float:
    """The integral of ``deg_gamma_pdf(params, x)`` over [0, inf), which is
    1 up to the quadrature error: one quadrature, whose rule calls the
    formula at each node of a Kronrod interval with no call of the density
    in between."""

    def density(x: float) -> float:
        return deg_gamma_pdf(params, x)

    def rule(a: float, b: float) -> list[float]:
        # each value divided by t twice as the per-node path does; an
        # interval where the formula leaves the float range takes that path
        ts = _quadpack.nodes(a, b)
        try:
            values = [(_pdf_formula(params, (1.0 - t) / t) / t) / t for t in ts]
            if all(map(math.isfinite, values)):
                return values
        except OverflowError:
            pass
        return [(deg_gamma_pdf(params, (1.0 - t) / t) / t) / t for t in ts]

    density.rule = rule
    return improper_quadrature(density)


# ---------------------------------------------------------------------------
# moment checks


def theorem11_check(
    n: int,
    lam: ExactScalar,
    spec: QuadratureSpec | None = None,
    tol: float = DEFAULT_CHECK_TOL,
) -> MomentCheckResult:
    """Moment identity for the unit-parameter degenerate gamma variable.

    Numeric side: E[(1+lam*X)^(-1) * ((1/lam) log(1+lam*X))^n] by quadrature;
    in u = (1/lam) log(1+lam*x) its integrand is (1-lam) u^n e^(-u), so the
    check tests the quadrature and the exact layer, not the density.
    Exact side: (1-lam) * sum_l binom(n,l) d_l (1)_{n-l} which must also equal
    (1-lam) * n! exactly; all three are required to agree.  n lies in
    [0, MAX_FLOAT_N], where the target is a finite float.
    """
    lam, lamf = _moment_args(n, lam)
    lam_key = _key(lam)
    key = (lam_key, (0, 1))  # the derangement numbers: x = 0
    f = _FALLING.ints(((1, 1), lam_key), n)
    # in cross-check mode, the derangement numbers of the series path give
    # the same target
    target = _dual(
        (1 - lam) * Fraction(*binomial_conv(_DERANGE.ints(key, n), f, n)),
        lambda: (1 - lam) * Fraction(
            *binomial_conv(_DERANGE_ORDER_SERIES.ints((*key, 1), n), f, n)
        ),
    )
    consistency = (1 - lam) * factorial(n)
    if target != consistency:
        raise AssertionError(
            f"exact layer inconsistency at n={n}, lam={lam}: {target} != {consistency}"
        )
    return _compare(_damped(lamf, 1 - lamf, 0, n, 1.0, spec), target, tol)


def moment_ratio_expectation(m: int, lam: float, spec: QuadratureSpec | None = None) -> float:
    """E[X^m / (1 + lam*X)] for the unit-parameter family, by quadrature.

    Finite only for m < 1/lam (the integrand tail decays like x^(m-1/lam-1)).
    """
    _check_lam(lam)
    if m >= 1 / lam:
        raise ValueError(f"E[X^{m}/(1+lam X)] diverges for m >= 1/lam = {1 / lam}")

    return _damped(lam, 1 - lam, m, 0, 1.0, spec)


@lru_cache(maxsize=256)
def _moment_ratio(m: int, lam: float, spec: QuadratureSpec | None) -> float:
    """moment_ratio_expectation, once per (m, lam, spec): the expansion check
    asks for the same m at every n."""
    return moment_ratio_expectation(m, lam, spec)


def stirling_log_expansion_check(
    n: int,
    m_cap: int,
    lam: ExactScalar,
    spec: QuadratureSpec | None = None,
    tol: float = 1e-6,
) -> MomentCheckResult:
    """Finite-truncation check of the log-power expansion of the moment above.

    Partial sums of (n!/lam^n) * sum_m s(m,n) lam^m/m! E[X^m/(1+lam X)] are
    compared against the exact target (1-lam)*n!.  The series is asymptotic:
    individual expectations diverge for m >= 1/lam, so terms are restricted to
    that window and their decay is monitored.  If the terms stop decaying (or
    the window is exhausted) before the tolerance is met, the result is
    flagged inconclusive rather than passed, as is a window ending below n
    (no term; the value is the empty sum 0).  n lies in [0, MAX_FLOAT_N].
    """
    lam, lamf = _moment_args(n, lam)
    if m_cap < n:
        raise ValueError(f"m_cap must be >= n, got {m_cap} < {n}")
    target = (1 - lam) * factorial(n)
    tf = float(target)
    # largest m with a convergent expectation: m < 1/lam
    m_limit = min(m_cap, math.ceil(1 / lamf) - 1)
    partial = 0.0
    best_err = math.inf
    best_partial = 0.0
    m_used = None
    prev_abs = math.inf
    growing = 0
    truncated_by_window = m_limit < m_cap
    # row m of the lam = 0 first-kind triangle, columns 0..n, holds s(m, n);
    # rows are stepped only as far as the loop reads them
    rows = chain(([1],), _stirling_steps(False, (0, 1), m_limit, n + 1))
    p, q = lam.numerator, lam.denominator
    for m, row in enumerate(islice(rows, n, None), n):
        # n! s(m, n) lam^(m-n) / m! as one correctly rounded int / int
        coef = factorial(n) * row[n] * p ** (m - n) / (q ** (m - n) * factorial(m))
        term = coef * _moment_ratio(m, lamf, spec)
        partial += term
        err = abs(partial - tf)
        if err < best_err:
            best_err = err
            best_partial = partial
            m_used = m
        tol_met = (err / abs(tf) <= tol) if tf != 0 else (err <= tol)
        if tol_met:
            return _compare(partial, target, tol, detail=f"converged at m={m}")
        if abs(term) > prev_abs:
            growing += 1
            if growing >= 2:
                break
        else:
            growing = 0
        prev_abs = abs(term)
    if m_limit < n:
        detail = f"convergent window m < 1/lam ends at m={m_limit}, below n={n}: no term m >= n"
        inconclusive = True
    elif growing >= 2:
        detail = f"terms stopped decaying before tolerance; best truncation at m={m_used}"
        inconclusive = True
    elif truncated_by_window:
        detail = (
            f"convergent window m < 1/lam exhausted at m={m_limit} "
            f"before tolerance; best truncation at m={m_used}"
        )
        inconclusive = True
    else:
        detail = f"tolerance not reached by m_cap={m_cap}"
        inconclusive = False
    result = _compare(best_partial, target, tol, inconclusive=inconclusive, detail=detail)
    result.passed = False
    return result


# ---------------------------------------------------------------------------
# sampling (unit-parameter family only)


def deg_gamma11_cdf(lam: float, x: float) -> float:
    """Exact CDF of the unit-parameter family: 1 - (1+lam*x)^((lam-1)/lam),
    zero for x <= 0."""
    _check_lam(lam)
    return -math.expm1((lam - 1) / lam * math.log1p(lam * max(x, 0.0)))


def deg_gamma11_ppf(lam: float, u: float) -> float:
    """Inverse CDF of the unit-parameter family: ((1-u)^(lam/(lam-1)) - 1)/lam,
    for u in [0, 1); maps u = 0 to 0, and to ``math.inf`` a value past the
    float range, which u near 1 reaches for lam above about 0.951."""
    _check_lam(lam)
    if not 0 <= u < 1:
        raise ValueError(f"u must lie in [0, 1), got {u}")
    try:
        return math.expm1(lam / (lam - 1) * math.log1p(-u)) / lam
    except OverflowError:
        return math.inf


def _check_seed(rng_seed: int) -> None:
    # random.Random seeds with abs(rng_seed), so -s would silently alias s
    if rng_seed < 0:
        raise ValueError(f"rng_seed must be >= 0, got {rng_seed}")


def sample_deg_gamma11_blocks(
    lam: float, rng_seed: int, count: int, block: int
) -> Iterator[list[float]]:
    """Inverse-CDF sampler: X = ((1-U)^(lam/(lam-1)) - 1)/lam, U uniform on
    [0, 1), count samples as consecutive lists of at most ``block`` samples.
    The uniforms are ``random.Random(rng_seed).random()`` in turn, so the
    blocks joined are the same samples whatever the block size, and memory
    holds one block at a time.  Each sample is ``deg_gamma11_ppf(lam, U)``,
    the same operations inlined; a block in which one of them leaves the
    float range is drawn again from the same uniforms through the ppf
    itself, so that sample is ``math.inf``.  Requires count >= 0,
    rng_seed >= 0, 0 < lam < 1 and block >= 1."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    _check_seed(rng_seed)
    _check_lam(lam)
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    rng = Random(rng_seed)
    uniform = rng.random
    c = lam / (lam - 1)
    expm1, log1p = math.expm1, math.log1p

    def draw(k: int) -> list[float]:
        state = rng.getstate()
        try:
            return [expm1(c * log1p(-uniform())) / lam for _ in range(k)]
        except OverflowError:
            rng.setstate(state)
            return [deg_gamma11_ppf(lam, uniform()) for _ in range(k)]

    return (draw(min(block, count - i)) for i in range(0, count, block))


def sample_deg_gamma11(lam: float, rng_seed: int, count: int) -> list[float]:
    """``sample_deg_gamma11_blocks`` in one block: the count samples as one
    list."""
    return next(sample_deg_gamma11_blocks(lam, rng_seed, count, max(count, 1)), [])


def sampler_ks_check(lam: float, count: int, rng_seed: int, level: float = 0.01):
    """Kolmogorov-Smirnov statistic of the sampler against the exact CDF.

    Returns (statistic, critical_value, passed) at the given level.  The
    statistic is D = max(D+, D-) over the sorted samples, D+ = max(i/n -
    F(x_i)) and D- = max(F(x_i) - (i-1)/n), computed as ``scipy.stats.kstest``
    computes it, each difference the same float.  The critical value is the
    Dvoretzky-Kiefer-Wolfowitz-Massart bound sqrt(log(2/level)/(2 count))
    (Dvoretzky, Kiefer & Wolfowitz, Ann. Math. Statist. 27(3), 1956; Massart,
    Ann. Probab. 18(3), 1990): a conservative level-``level`` test, never
    below the exact ``kstwo.ppf(1 - level, count)``, and one that never
    rejects at count = 1, where the bound exceeds 1.  A sample past the
    float range is ``inf``: the law of the float samples has an atom there,
    of mass 1 - c with c = F(``sys.float_info.max``).  So D+ and D- run over
    the k finite samples, and D- also takes the gap c - k/count just below
    the atom, where the empirical CDF still reads k/count; at inf both CDFs
    read 1.  With no inf sample the gap c - 1 is negative, and D is
    scipy's.  Requires count >= 1, rng_seed >= 0 and 0 < level < 1.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    _check_seed(rng_seed)
    if not 0 < level < 1:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    xs = sample_deg_gamma11(lam, rng_seed, count)
    xs.sort()
    k = bisect_left(xs, math.inf)
    del xs[k:]
    # F(x_i) in place of x_i: deg_gamma11_cdf inlined, x_i >= 0 already
    e = (lam - 1) / lam
    expm1, log1p = math.expm1, math.log1p
    for i, x in enumerate(xs):
        xs[i] = -expm1(e * log1p(lam * x))
    d_plus = max(map(sub, map(truediv, range(1, k + 1), repeat(count)), xs), default=0.0)
    d_minus = max(map(sub, xs, map(truediv, range(k), repeat(count))), default=0.0)
    gap = -expm1(e * log1p(lam * sys.float_info.max)) - k / count
    statistic = max(d_plus, d_minus, gap)
    critical = math.sqrt(math.log(2 / level) / (2 * count))
    return statistic, critical, statistic < critical


# ---------------------------------------------------------------------------
# exponential / Erlang moment bridges


def erlang_moment(l: int, r: int) -> int:
    """Raw moment of the sum of r independent unit exponentials: (l+r-1)!/(r-1)!."""
    if l < 0 or r < 1:
        raise ValueError("need l >= 0 and r >= 1")
    return factorial(l + r - 1) // factorial(r - 1)


def erlang_moment_quadrature(l: int, r: int, spec: QuadratureSpec | None = None) -> float:
    """Quadrature oracle for the Erlang moment: integral of x^(l+r-1) e^(-x)/(r-1)!."""
    if l < 0 or r < 1:
        raise ValueError("need l >= 0 and r >= 1")
    norm = factorial(r - 1)

    def f(x: float) -> float:
        return x ** (l + r - 1) * math.exp(-x) / norm

    return improper_quadrature(f, spec)


def erlang_bridge_check(
    n: int, r: int, lam: ExactScalar, x: ExactScalar
) -> tuple[Fraction, Fraction, bool]:
    """Exact identity between the order-r derangement values and Erlang moments:

    lhs: explicit order-r sum; rhs: sum_l binom(n,l) * (l+r-1)!/(r-1)! *
    falling(x-1, n-l).  Both sides exact rationals.
    """
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    lam = Fraction(lam)
    x = Fraction(x)
    lhs = derange_deg_order(n, r, lam, x)
    moments = [erlang_moment(l, r) for l in range(n + 1)]
    rhs = Fraction(*binomial_conv((moments, 1), _FALLING.ints((_key(x - 1), _key(lam)), n), n))
    return lhs, rhs, lhs == rhs
