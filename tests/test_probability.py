import decimal
import math
import sys
from decimal import Decimal
from fractions import Fraction as F
from random import Random

import pytest
from scipy import integrate, special

from degderange import _quadpack, probability, sequences
from degderange.exactcore import factorial
from degderange.probability import (
    DegGammaParams,
    QuadratureError,
    QuadratureSpec,
    deg_gamma11_cdf,
    deg_gamma11_ppf,
    deg_gamma_fn,
    deg_gamma_fn_exact,
    deg_gamma_fn_quadrature,
    deg_gamma_pdf,
    erlang_bridge_check,
    erlang_moment,
    erlang_moment_quadrature,
    improper_quadrature,
    moment_ratio_expectation,
    sample_deg_gamma11,
    sample_deg_gamma11_blocks,
    sampler_ks_check,
    stirling_log_expansion_check,
    theorem11_check,
)
from degderange.sequences import derange_deg, stirling1_column


# ---------------------------------------------------------------------------
# quadrature engine


def test_quadrature_exponential():
    assert abs(improper_quadrature(lambda x: math.exp(-x)) - 1.0) < 1e-10


def test_quadrature_density_mass():
    lam = 0.25

    def f(x):
        return (1 - lam) * (1 + lam * x) ** (-1 / lam)

    assert abs(improper_quadrature(f) - 1.0) < 1e-8


def test_quadrature_shifted_exponent_mass():
    # antiderivative of (1+lam x)^(-1/lam - 1) is -(1+lam x)^(-1/lam),
    # so the mass is exactly 1 for any lam in (0,1)
    for lam in (0.25, 0.4):
        mass = improper_quadrature(lambda x: (1 + lam * x) ** (-1 / lam - 1))
        assert abs(mass - 1.0) < 1e-8


def test_quadrature_first_moment():
    lam = 0.25

    def f(x):
        return x * (1 - lam) * (1 + lam * x) ** (-1 / lam)

    assert abs(improper_quadrature(f) - 2.0) < 1e-8  # 1/(1-2*lam) at lam=1/4


def test_quadrature_spec_validation():
    for bad in (
        {"abs_tol": 0},
        {"rel_tol": -1e-9},
        {"abs_tol": math.nan},
        {"rel_tol": math.nan},
        {"max_subdivisions": 0},
        {"max_subdivisions": -3},
        {"max_subdivisions": 2.5},
    ):
        with pytest.raises(ValueError):
            QuadratureSpec(**bad)


def test_quadrature_failure_carries_partial():
    # an oscillatory non-decaying integrand cannot converge
    with pytest.raises(QuadratureError) as info:
        improper_quadrature(lambda x: math.sin(x) if x < 1e6 else 0.0,
                            QuadratureSpec(max_subdivisions=10))
    assert hasattr(info.value, "partial_estimate")


# ---------------------------------------------------------------------------
# damped integrands: one cached transform per (lam, Kronrod interval)


@pytest.fixture
def fresh_transforms():
    probability._transform.cache_clear()
    yield
    probability._transform.cache_clear()


def _damped_members(monkeypatch, lam):
    """The damped integrands the moment checks hand to the quadrature at lam:
    thm11 for n = 0..8, E[X^m/(1+mu X)] at mu = lam/16 for m = 0..40, and
    the gamma function at s = 1.5 and 2."""
    members = []

    def capture(f, spec=None):
        members.append(f)
        return 1.0

    monkeypatch.setattr(probability, "improper_quadrature", capture)
    for n in range(9):
        theorem11_check(n, lam)
    for m in range(41):
        moment_ratio_expectation(m, lam / 16)
    for s in (1.5, 2):
        deg_gamma_fn_quadrature(s, lam)
    monkeypatch.undo()
    assert len(members) == 9 + 41 + 2
    return members


# [0, 1], a few inner intervals, and dyadic ones towards t = 0 (u -> inf),
# where the factors x^m and e^(lam*u) of the product form overflow
_INTERVALS = [(0.0, 1.0), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)] + [
    iv for k in range(1, 25) for iv in ((0.0, 2.0**-k), (2.0**-k, 2.0 ** (1 - k)))
]


def _bits(values):
    return [v.hex() for v in values]


def _product_form(a, b, r, lam, u):
    """x^a u^b e^(-r*u), x = (e^(lam*u) - 1)/lam, in 40-digit decimal, whose
    exponent range no factor leaves, rounded to a float."""
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 40, decimal.MAX_EMAX, decimal.MIN_EMIN
        u, lam = Decimal(u), Decimal(lam)
        x = ((lam * u).exp() - 1) / lam
        return float(x ** Decimal(a) * u**b * (-Decimal(r) * u).exp())


@pytest.mark.parametrize("lam", [0.05, 0.2, 0.36])
def test_damped_rule_is_the_scalar_integrand(lam, monkeypatch, fresh_transforms):
    # the batch rule, cold and then warm, gives the bits of the per-node
    # path that scipy takes, on every interval, at every member
    members = _damped_members(monkeypatch, lam)
    for f in members:
        point_rule = _quadpack._point_rule(f)
        for a, b in _INTERVALS:
            expected = _bits(point_rule(a, b))
            assert _bits(f.rule(a, b)) == expected, (a, b)
            assert _bits(f.rule(a, b)) == expected, (a, b)
    # each node at w is centre times the product x^a u^b e^(-r u) at
    # u = centre*w (no shift at these sizes), also where lam*u > 700 or
    # x^40 overflows: there the product underflows to 0.0 at lam = 0.05,
    # and at lam = 0.2 and 0.36 is a nonzero value, up to 7.6e40 at
    # lam = 0.36 (mu = 0.0225, centre u* = 102.3), that zeroing an
    # overflowed x**40 loses
    mu = lam / 16
    params = [(members[8], (0, 8, 1.0, lam)), (members[9 + 40], (40, 0, 1.0, mu)),
              (members[-2], (0.5, 0, 1 - lam, lam))]
    lost = 0
    for f, (a, b, r, at) in params:
        peak = b / r if b else -math.log1p(-a * at / r) / at
        centre = peak if peak >= 64 else 1.0
        for t in (t for iv in _INTERVALS for t in _quadpack.nodes(*iv)):
            w = (1.0 - t) / t
            u = centre * w
            expected = centre * _product_form(a, b, r, at, u)
            assert f(w) == pytest.approx(expected, rel=1e-11, abs=1e-300), (a, b, w)
            log_x = at * u + math.log(-math.expm1(-at * u)) - math.log(at)
            lost += a == 40 and 40 * log_x > 709.8 and f(w) > 0.0
    assert (lam > 0.05) == (lost > 0)


def test_thm11_sweep_transforms_each_interval_once(monkeypatch, fresh_transforms):
    # every rule call reads the cache: 121 of them, and a build (a miss)
    # for each of the 21 intervals the bisection visits
    rules = []
    qk15i = _quadpack._qk15i

    def counted(rule, a, b):
        rules.append((a, b))
        return qk15i(rule, a, b)

    monkeypatch.setattr(_quadpack, "_qk15i", counted)
    for n in range(9):
        assert theorem11_check(n, F(1, 4)).passed
    info = probability._transform.cache_info()
    assert len(rules) == info.hits + info.misses == 121
    assert info.misses == info.currsize == len(set(rules)) == 21


def test_node_cache_is_bounded(fresh_transforms):
    # the bound counts intervals over every lam, so a few lam values of the
    # gamma checks fit, and it holds at each lam added past it
    bound = probability._transform.cache_info().maxsize
    assert bound == probability.TRANSFORM_CACHE_INTERVALS
    assert 64 <= bound <= 512
    sizes = []
    for k in range(30):  # 11 intervals at each lam
        deg_gamma_fn_quadrature(2, 0.1 + 0.01 * k)
        sizes.append(probability._transform.cache_info().currsize)
    assert sizes[0] > 0
    assert sizes == sorted(sizes) and sizes[-1] == bound


def test_a_long_sweep_keeps_the_cache_bounded(fresh_transforms):
    # from n = 64 each thm11 member is centred on its own peak u* = n, so
    # the sweep to n = 170 visits far more intervals than the bound; no
    # single member, smooth in u, bisects past about 150 intervals
    for n in range(64, 171):
        assert theorem11_check(n, F(1, 10)).passed
    info = probability._transform.cache_info()
    assert info.misses > 4 * info.maxsize
    assert info.currsize <= info.maxsize == probability.TRANSFORM_CACHE_INTERVALS


# ---------------------------------------------------------------------------
# degenerate gamma function


def test_gamma_fn_exact_values():
    assert deg_gamma_fn_exact(1, F(1, 4)) == F(4, 3)
    # direct product oracle: 1 * (1 - 1/4) * (1 - 2/4) = 3/8
    assert deg_gamma_fn_exact(2, F(1, 4)) == 1 / (F(1) * F(3, 4) * F(1, 2)) == F(8, 3)
    assert deg_gamma_fn(1, F(1, 4)) == pytest.approx(4 / 3)


def test_gamma_fn_unit_value_closed_form():
    for lam in (F(1, 10), F(1, 4), F(2, 5), F(99, 100)):
        assert deg_gamma_fn_exact(1, lam) == 1 / (1 - lam)


def test_gamma_fn_domain():
    with pytest.raises(ValueError):
        deg_gamma_fn_exact(2, F(3, 4))  # lam >= 1/k
    with pytest.raises(ValueError):
        deg_gamma_fn_exact(1, F(0))
    with pytest.raises(ValueError):
        deg_gamma_fn_exact(0, F(1, 4))


@pytest.mark.parametrize(
    "k,lam", [(1, F(1, 4)), (2, F(1, 4)), (3, F(1, 5)), (2, F(2, 5))]
)
def test_gamma_fn_quadrature_matches_closed_form(k, lam):
    numeric = deg_gamma_fn_quadrature(k, float(lam))
    exact = float(deg_gamma_fn_exact(k, lam))
    assert abs(numeric - exact) / exact < 1e-8


def test_gamma_fn_quadrature_domain():
    with pytest.raises(ValueError):
        deg_gamma_fn_quadrature(3, 0.5)  # s >= 1/lam


def _moment_ratio_exact(m, lam):
    """E[X^m/(1+lam X)] = (1-lam) m!/prod_{j=0..m}(1 - j lam), for m lam < 1."""
    return (1 - lam) * factorial(m) / math.prod(1 - j * lam for j in range(m + 1))


def test_damped_members_hold_on_their_whole_domain():
    """thm11 at n, the gamma function at k and E[X^m/(1+lam X)] at m, each in
    steps of 3 up to 170, at six lam from 10^-9 to 49/100: every input in
    the domain whose exact value is a float passes at 1e-8, 758 in all.  An
    input outside the domain raises ValueError, and one whose value is past
    the float range raises QuadratureError, never a wrong number."""
    checked = past = 0
    for lam in (F(1, 10**9), F(1, 10**6), F(1, 1000), F(1, 100), F(1, 10), F(49, 100)):
        lamf = float(lam)
        for n in range(0, 171, 3):
            assert theorem11_check(n, lam).passed, (n, lam)
            checked += 1
        members = [(deg_gamma_fn_quadrature, k, lam < F(1, k), deg_gamma_fn_exact)
                   for k in range(1, 171, 3)]
        members += [(moment_ratio_expectation, m, m * lam < 1, _moment_ratio_exact)
                    for m in range(0, 171, 3)]
        for quadrature, j, inside, exact in members:
            if not inside:
                with pytest.raises(ValueError):
                    quadrature(j, lamf)
            elif exact(j, lam) > sys.float_info.max:
                past += 1
                with pytest.raises(QuadratureError, match="non-finite"):
                    quadrature(j, lamf)
            else:
                target = float(exact(j, lam))
                assert abs(quadrature(j, lamf) - target) <= 1e-8 * target, (quadrature, j, lam)
                checked += 1
    assert (checked, past) == (758, 2)


@pytest.mark.parametrize("lam", [1e-15, 1e-100, 1e-300])
def test_members_at_a_tiny_lam(lam):
    # the scale's log T drops the lgamma difference past 1/lam = 1e12,
    # where it loses whole units: at 1e-300 it once scaled Gamma_lam(2) = 1
    # away, to rel_error 2e-7
    for k in (2, 150):
        exact = float(deg_gamma_fn_exact(k, F(lam)))
        assert deg_gamma_fn_quadrature(k, lam) == pytest.approx(exact, rel=1e-10)
    assert deg_gamma_fn_quadrature(0.5, lam) == pytest.approx(math.sqrt(math.pi), rel=1e-11)
    exact = float(_moment_ratio_exact(5, F(lam)))
    assert moment_ratio_expectation(5, lam) == pytest.approx(exact, rel=1e-12)


def test_a_moment_past_the_float_range_is_an_error():
    # E[X^m/(1+lam X)] at lam = 1/1000 passes the largest float from m = 168
    for m in (171, 200, 400):
        assert _moment_ratio_exact(m, F(1, 1000)) > sys.float_info.max
        with pytest.raises(QuadratureError, match="non-finite"):
            moment_ratio_expectation(m, 1e-3)


@pytest.mark.parametrize("lam", [1e-6, 1e-3, 0.05, 0.2, 0.36, 0.49])
def test_gamma_fn_at_non_integer_s_is_the_beta_form(lam):
    # Gamma_lam(s) = lam^(-s) B(s, 1/lam - s): substitute y = lam*t in the
    # Beta-prime integral; s runs up to 1/lam - 0.01, where the decay
    # e^(-(1 - lam*s)u) is slowest
    q = 1 / lam
    for s in (0.5, 1.5, 2.5, q / 2 + 0.25, q - 0.3, q - 0.01):
        if s >= q:
            continue
        log_expected = -s * math.log(lam) + special.betaln(s, q - s)
        if log_expected > 700:  # past the float range with lam^(-s)
            continue
        expected = math.exp(log_expected)
        value = deg_gamma_fn_quadrature(s, lam)
        assert value == pytest.approx(expected, rel=1e-8), s
        assert DegGammaParams(s, 1.0, lam).norm == value
        assert math.isclose(lam**-s * special.beta(s, q - s), expected, rel_tol=1e-8)


# ---------------------------------------------------------------------------
# density


def test_pdf_at_zero_unit_parameters():
    p = DegGammaParams(1.0, 1.0, 0.25)
    assert deg_gamma_pdf(p, 0.0) == pytest.approx(0.75)


def test_pdf_zero_on_negative_axis():
    p = DegGammaParams(2.0, 1.0, 0.2)
    assert deg_gamma_pdf(p, -1.0) == 0.0


@pytest.mark.parametrize(
    "alpha,beta,lam",
    [(1, 1, 0.25), (2, 1, 0.2), (1, 2, 1 / 3), (1.5, 1, 0.2), (0.5, 2, 0.25), (2.5, 1, 0.3)],
)
def test_pdf_normalization(alpha, beta, lam):
    p = DegGammaParams(alpha, beta, lam)
    mass = improper_quadrature(lambda x: deg_gamma_pdf(p, x))
    assert abs(mass - 1.0) < 1e-8


@pytest.mark.parametrize("alpha,quads", [(1.5, 2), (2, 1)])
def test_normalization_check_quadrature_count(alpha, quads, monkeypatch, capsys):
    # One quadrature for the mass, plus one for the normaliser when alpha is
    # not an integer: the normaliser is not recomputed at each node.
    from degderange import cli

    calls = []
    quad = _quadpack.quad

    def counted(*args, **kwargs):
        calls.append(args)
        return quad(*args, **kwargs)

    monkeypatch.setattr(_quadpack, "quad", counted)
    argv = ["gamma-check", "normalization", "--lambda", "1/5", "--alpha", str(alpha)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(calls) == quads


@pytest.mark.parametrize("alpha,beta,lam", [(1, 1, 0.25), (2, 0.7, 0.2), (1.5, 1, 0.2), (2.5, 2, 0.3)])
def test_pdf_matches_per_call_normaliser(alpha, beta, lam):
    # The density with its normaliser recomputed inline at every x, as a
    # plain formula: the cached normaliser must give the same floats.
    p = DegGammaParams(alpha, beta, lam)
    for x in (0.0, 0.3, 1.0, 2.75, 40.0):
        if float(alpha).is_integer():
            prod = 1.0
            for i in range(int(alpha) + 1):
                prod *= 1 - i * lam
            norm = math.gamma(int(alpha)) / prod
        else:
            norm = deg_gamma_fn_quadrature(alpha, lam)
        bx = beta * x
        power = 1.0 if alpha == 1 else bx ** (alpha - 1)
        expected = beta * power * (1 + lam * bx) ** (-1 / lam) / norm
        assert deg_gamma_pdf(p, x) == expected


def _density_integrand(monkeypatch, params):
    """The integrand that _pdf_mass hands to the quadrature."""
    params.norm  # a quadrature itself at non-integer alpha
    members = []
    monkeypatch.setattr(probability, "improper_quadrature", lambda f, spec=None: members.append(f))
    probability._pdf_mass(params)
    monkeypatch.undo()
    (f,) = members
    return f


@pytest.mark.parametrize("lam", [0.05, 0.2, 0.36])
@pytest.mark.parametrize("beta", [1, 3])
@pytest.mark.parametrize("alpha", [1, 1.5, 2])
def test_density_rule_is_the_scalar_density(alpha, beta, lam, monkeypatch):
    # the batch rule, called twice, gives the bits of the per-node path of
    # deg_gamma_pdf on every interval
    p = DegGammaParams(alpha, beta, lam)
    f = _density_integrand(monkeypatch, p)
    point_rule = _quadpack._point_rule(lambda x: deg_gamma_pdf(p, x))
    for a, b in _INTERVALS:
        expected = _bits(point_rule(a, b))
        assert _bits(f.rule(a, b)) == expected, (a, b)
        assert _bits(f.rule(a, b)) == expected, (a, b)


def _density_as_written(p, x):
    # the density formula as deg_gamma_pdf wrote it before its log path
    bx = p.beta * x
    power = 1.0 if p.alpha == 1 else bx ** (p.alpha - 1)
    return p.beta * power * (1 + p.lam * bx) ** (-1 / p.lam) / p.norm


def test_pdf_is_the_written_formula_wherever_that_is_finite():
    xs = [0.0, 5e-324, 1e-300, 1e-12, 0.3, 1.0, 2.75, 40.0, 1e5, 1e30, 1e100, 1e200, 1e300]
    written = other = 0
    for lam in (0.05, 0.2, 0.36):
        for alpha in (0.5, 1, 1.5, 2, 2.5):
            if alpha >= 1 / lam:
                continue
            for beta in (0.5, 1, 3, 1e10, 1e300):
                p = DegGammaParams(alpha, beta, lam)
                for x in xs:
                    if alpha < 1 and beta * x == 0:
                        continue  # 0.0 ** (alpha - 1) raises ZeroDivisionError
                    try:
                        expected = _density_as_written(p, x)
                    except OverflowError:
                        expected = math.nan
                    if math.isfinite(expected):
                        written += 1
                        assert deg_gamma_pdf(p, x).hex() == expected.hex(), (alpha, beta, lam, x)
                    elif x > 0:
                        other += 1
                        # not NaN; inf only past the float range
                        assert deg_gamma_pdf(p, x) >= 0.0, (alpha, beta, lam, x)
    assert written > 400 and other > 20


def test_pdf_past_the_float_range_of_its_factors(monkeypatch):
    # (bx)^(a-1) overflows, and at beta = 1e300 an infinite b (bx)^(a-1)
    # meets a tail that underflowed to 0.0: the density is the exp of its
    # log, 0.0 where that underflows, on the scalar and the batch path
    overflow = DegGammaParams(3.0, 1.0, 0.2)
    with pytest.raises(OverflowError):
        _density_as_written(overflow, 1e200)
    assert deg_gamma_pdf(overflow, 1e200) == 0.0
    huge_beta = DegGammaParams(1.5, 1e300, 0.2)
    assert math.isnan(_density_as_written(huge_beta, 1.0))
    assert deg_gamma_pdf(huge_beta, 1.0) == 0.0
    # where the log path is not negligible: b (bx)^(a-1) = 2b overflows at
    # bx = 4, but b 2 (1 + 4 lam)^(-1/lam) / norm does not
    edge = DegGammaParams(1.5, 1.7e308, 0.2)
    x = 4 / 1.7e308
    assert _density_as_written(edge, x) == math.inf
    assert deg_gamma_pdf(edge, x) == pytest.approx(1.7e308 * (2 * 1.8**-5) / edge.norm, rel=1e-12)
    # b*x itself overflows, and the density is still far from 0.0
    far = DegGammaParams(1.9, 1e308, 0.5)
    assert 1e308 * 2.0 == math.inf
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        b, x, lam = Decimal(1e308), Decimal(2), Decimal("0.5")
        expected = b * (b * x) ** Decimal("0.9") * (1 + lam * b * x) ** -2 / Decimal(far.norm)
    assert 0 < deg_gamma_pdf(far, 2.0) == pytest.approx(float(expected), rel=1e-12)
    for p in (overflow, huge_beta, edge, far):
        f = _density_integrand(monkeypatch, p)
        point_rule = _quadpack._point_rule(lambda x: deg_gamma_pdf(p, x))
        for a, b in _INTERVALS:
            assert _bits(f.rule(a, b)) == _bits(point_rule(a, b)), (a, b)


def test_params_validation():
    with pytest.raises(ValueError):
        DegGammaParams(5.0, 1.0, 0.25)  # alpha >= 1/lam
    with pytest.raises(ValueError):
        DegGammaParams(1.0, -1.0, 0.25)
    with pytest.raises(ValueError):
        DegGammaParams(1.0, 1.0, 1.5)
    for beta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="beta must be finite"):
            DegGammaParams(1.5, beta, 0.25)


# ---------------------------------------------------------------------------
# the moment identity


def test_theorem11_small_cases():
    res = theorem11_check(0, F(1, 4))
    assert res.exact_target == F(3, 4)
    assert res.passed
    res = theorem11_check(3, F(1, 4))
    assert res.exact_target == F(3, 4) * 6 == F(9, 2)
    assert res.rel_error < 1e-8


def test_theorem11_domain():
    with pytest.raises(ValueError):
        theorem11_check(2, F(1, 2))
    with pytest.raises(ValueError):
        theorem11_check(-1, F(1, 4))


def test_moment_checks_stop_at_the_float_range(monkeypatch):
    """(1-lam) n! is compared as a float: past MAX_FLOAT_N = 170 both checks
    raise ValueError before any quadrature runs."""

    def no_quad(*args):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(_quadpack, "quad", no_quad)
    assert probability.MAX_FLOAT_N == 170
    assert math.isfinite(float(factorial(170))) and factorial(171) > sys.float_info.max
    with pytest.raises(ValueError, match="n must be <= 170, got 171"):
        theorem11_check(171, F(1, 5))
    with pytest.raises(ValueError, match="n must be <= 170, got 171"):
        stirling_log_expansion_check(171, 171, F(1, 80))


@pytest.mark.parametrize("lam", [F(1, 10**400), F(1, 2) - F(1, 10**20)])
def test_moment_checks_refuse_a_lam_that_rounds_out_of_range(lam, monkeypatch):
    """lam lies in (0, 1/2) exactly but rounds to 0.0 or 0.5 as a float, which
    the quadratures divide by: both checks raise ValueError before any
    quadrature runs, not ZeroDivisionError."""

    def no_quad(*args):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(_quadpack, "quad", no_quad)
    rounded = repr(float(lam))
    with pytest.raises(ValueError, match=f"lam rounds to {rounded} as a float, outside"):
        theorem11_check(2, lam)
    with pytest.raises(ValueError, match=f"lam rounds to {rounded} as a float, outside"):
        stirling_log_expansion_check(2, 40, lam)


def test_theorem11_cross_check_reaches_the_series_path(monkeypatch):
    # The exact side reads the integer derangement row; in cross-check mode
    # the series path's row must give the same target.  A series row off by
    # one in its top value makes the check fail.
    from degderange import probability, sequences

    sequences.set_cross_check(True)
    try:
        assert theorem11_check(4, F(1, 5)).passed
        real = sequences._DERANGE_ORDER_SERIES

        def off_by_one(key, n):
            nums, den = real.grow(key, n)
            return nums[:-1] + [nums[-1] + den], den

        monkeypatch.setattr(probability, "_DERANGE_ORDER_SERIES", sequences._Memo(off_by_one))
        with pytest.raises(AssertionError, match="dual-path mismatch"):
            theorem11_check(4, F(1, 5))
    finally:
        sequences.set_cross_check(False)
    assert theorem11_check(4, F(1, 5)).passed


def test_theorem11_exact_consistency():
    # the exact side must collapse to (1-lam) * n!; checked inside the op,
    # and the raw convolution is verified here for a spread of lam
    from degderange.exactcore import binomial
    from degderange.sequences import falling_deg

    for lam in (F(1, 10), F(1, 4), F(2, 5), F(0), F(-1, 3), F(1, 2)):
        for n in range(21):
            acc = F(0)
            for l in range(n + 1):
                acc += binomial(n, l) * derange_deg(l, lam, 0) * falling_deg(1, n - l, lam)
            assert acc == factorial(n)


# ---------------------------------------------------------------------------
# truncated log-power expansion


def test_expansion_trivial_n_zero():
    res = stirling_log_expansion_check(0, 10, F(1, 4))
    assert res.passed and res.detail == "converged at m=0"


def test_expansion_converges_for_small_lam():
    for n in (1, 2):
        res = stirling_log_expansion_check(n, 40, F(1, 64))
        assert res.passed, res.detail
        assert not res.inconclusive


def test_expansion_runs_one_quadrature_per_m(monkeypatch, capsys):
    # every n of an expansion command asks for E[X^m/(1+lam X)] at the m
    # from n up; each distinct (m, lam) is integrated once
    from degderange import cli

    requested, quads = [], []
    moment_ratio, quad = probability._moment_ratio, _quadpack.quad

    def record(m, lam, spec):
        requested.append(m)
        return moment_ratio(m, lam, spec)

    def counted(*args):
        quads.append(args)
        return quad(*args)

    monkeypatch.setattr(probability, "_moment_ratio", record)
    monkeypatch.setattr(_quadpack, "quad", counted)
    moment_ratio.cache_clear()
    argv = ["gamma-check", "expansion", "--lambda=1/80", "--n-max", "2", "--m-cap", "40"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    # n = 0 converges at m = 0, n = 1 at m = 4 and n = 2 at m = 6
    assert requested == [0, 1, 2, 3, 4, 2, 3, 4, 5, 6]
    assert len(quads) == len(set(requested)) == 7


def test_expansion_keeps_no_stirling_triangle():
    # s(m, n) is stepped in rows of width n + 1 as the loop reads them, so
    # the check fills no memo row of the first-kind triangle, however far
    # m_cap reaches past the m where it converges
    for memo in sequences._MEMOS:
        memo.clear()
    res = stirling_log_expansion_check(2, 40, F(1, 80))
    assert res.passed and res.detail == "converged at m=6"
    assert not sequences._S1.rows


def test_expansion_coefficients_are_correctly_rounded(monkeypatch):
    # each coefficient n! s(m, n) lam^(m-n) / m! is the float nearest the
    # exact rational, with s(m, n) from the Fraction column as reference
    coefs = []

    class Recorder(float):  # E[...] = 0.0, so every m up to the window runs
        def __rmul__(self, coef):
            coefs.append(coef)
            return 0.0

    monkeypatch.setattr(probability, "_moment_ratio", lambda m, lam, spec: Recorder())
    for lam in [F(k, d) for d in range(40, 400, 7) for k in (1, 3)]:
        m_limit = min(40, math.ceil(1 / float(lam)) - 1)
        for n in range(4):
            coefs.clear()
            stirling_log_expansion_check(n, 40, lam)
            s = stirling1_column(m_limit, n, 0)
            expected = [float(factorial(n) * s[m] * lam ** (m - n) / factorial(m))
                        for m in range(n, m_limit + 1)]
            assert [c.hex() for c in coefs] == [c.hex() for c in expected], (lam, n)


def test_expansion_inconclusive_at_large_lam():
    # asymptotic wall: must be flagged, never faked into a pass
    res = stirling_log_expansion_check(1, 30, F(1, 10))
    assert not res.passed
    assert res.inconclusive
    assert res.rel_error > 1e-6


def test_expansion_window_ending_below_n_is_inconclusive(capsys):
    # at lam = 9/20 the window m < 1/lam ends at m = 2: n = 3 has no term
    from degderange import cli

    res = stirling_log_expansion_check(3, 40, F(9, 20))
    assert not res.passed and res.inconclusive
    assert res.numeric_value == 0.0
    assert res.detail == "convergent window m < 1/lam ends at m=2, below n=3: no term m >= n"
    assert "None" not in stirling_log_expansion_check(2, 40, F(9, 20)).detail
    assert cli.main(["gamma-check", "expansion", "--lambda=9/20", "--n-max", "3"]) == 1
    out = capsys.readouterr().out
    assert "m=None" not in out and "below n=3" in out


def test_expansion_argument_validation():
    with pytest.raises(ValueError):
        stirling_log_expansion_check(5, 3, F(1, 10))  # m_cap < n
    with pytest.raises(ValueError):
        moment_ratio_expectation(12, 0.1)  # diverges for m >= 1/lam


# ---------------------------------------------------------------------------
# sampling


def test_ppf_at_zero():
    assert deg_gamma11_ppf(0.25, 0.0) == 0.0


def test_ppf_validated_against_quadrature_cdf():
    # quadrature-based CDF values vs the inverse formula, before trusting it
    lam = 0.25
    p = DegGammaParams(1.0, 1.0, lam)
    for u in (0.1, 0.5, 0.9):
        x = deg_gamma11_ppf(lam, u)
        mass, err = integrate.quad(lambda t: deg_gamma_pdf(p, t), 0.0, x)
        assert abs(mass - u) < 1e-9


def test_cdf_closed_form_against_quadrature():
    lam = 1 / 3
    p = DegGammaParams(1.0, 1.0, lam)
    for x in (0.5, 1.0, 4.0):
        mass, err = integrate.quad(lambda t: deg_gamma_pdf(p, t), 0.0, x)
        assert abs(mass - deg_gamma11_cdf(lam, x)) < 1e-9
    assert deg_gamma11_cdf(lam, 1.0) == pytest.approx(1 - (1 + lam) ** ((lam - 1) / lam))


def test_sampler_mean():
    # E[X] = 1/(1-2 lam) = 2 at lam = 1/4, first validated by quadrature
    lam = 0.25
    mean_quad = improper_quadrature(
        lambda x: x * (1 - lam) * (1 + lam * x) ** (-1 / lam)
    )
    assert abs(mean_quad - 2.0) < 1e-8
    n = 200_000
    samples = sample_deg_gamma11(lam, 42, n)
    se = math.sqrt(12.0 / n)  # Var = E[X^2] - 4 = 16 - 4
    assert abs(math.fsum(samples) / n - 2.0) < 3 * se


def test_sampler_reproducible():
    a = sample_deg_gamma11(0.25, 7, 100)
    b = sample_deg_gamma11(0.25, 7, 100)
    assert type(a) is list and len(a) == 100 and all(type(v) is float for v in a)
    assert a == b
    assert a != sample_deg_gamma11(0.25, 8, 100)


@pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 100])
def test_sampler_blocks_join_to_the_whole_draw(count):
    whole = sample_deg_gamma11(0.25, 7, count)
    for block in (1, 8, 1000):
        blocks = list(sample_deg_gamma11_blocks(0.25, 7, count, block))
        assert all(0 < len(b) <= block for b in blocks)
        assert [v for b in blocks for v in b] == whole
    with pytest.raises(ValueError, match="block"):
        sample_deg_gamma11_blocks(0.25, 7, count, 0)


@pytest.mark.parametrize("lam", [0.25, 0.5 - 0.01])
def test_sampler_ks(lam):
    stat, crit, ok = sampler_ks_check(lam, 100_000, 42)
    assert ok, (stat, crit)


def test_sampler_validation():
    with pytest.raises(ValueError):
        sample_deg_gamma11(1.5, 0, 10)
    with pytest.raises(ValueError):
        sample_deg_gamma11(0.25, 0, -1)
    for count in (0, -1):
        with pytest.raises(ValueError, match="count"):
            sampler_ks_check(0.25, count, 42)
    for level in (0, 1, 1.5, -0.01, float("nan")):
        with pytest.raises(ValueError, match="level"):
            sampler_ks_check(0.25, 10, 42, level=level)
    for u in (-0.1, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"u must lie in \[0, 1\)"):
            deg_gamma11_ppf(0.25, u)


def test_negative_seed_is_rejected_before_numpy(monkeypatch):
    # random.Random seeds with abs(seed), so a negative seed would silently
    # alias its absolute value; the check refuses it, and no sampling path
    # imports numpy
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert Random(-1).random() == Random(1).random()
    with pytest.raises(ValueError, match="rng_seed must be >= 0, got -1"):
        sample_deg_gamma11(0.25, -1, 10)
    with pytest.raises(ValueError, match="rng_seed must be >= 0, got -1"):
        sampler_ks_check(0.25, 10, -1)


@pytest.mark.parametrize("lam", [0.25, 0.49, 1e-6])
def test_sampler_is_the_ppf_of_the_mersenne_twister(lam):
    # the sampler inlines deg_gamma11_ppf: each sample is the ppf of the
    # next uniform of random.Random(seed), to the bit
    for seed in (0, 42, 2**200):
        uniform = Random(seed).random
        expected = [deg_gamma11_ppf(lam, uniform()) for _ in range(1000)]
        assert sample_deg_gamma11(lam, seed, 1000) == expected


def test_samples_past_the_float_range_are_inf():
    """Above lam ~ 0.951, ((1-u)^(lam/(lam-1)) - 1)/lam passes the largest
    float as u nears 1; at lam = 0.999 about half the draws do.  Such a
    sample is inf, the rest of its block is still the ppf of its uniform,
    and the KS check takes inf as the atom of the float law past the
    largest float, so it passes."""
    assert deg_gamma11_ppf(0.999, 0.9) == math.inf
    assert deg_gamma11_cdf(0.999, math.inf) == 1.0
    uniform = Random(0).random
    expected = [deg_gamma11_ppf(0.999, uniform()) for _ in range(1000)]
    samples = sample_deg_gamma11(0.999, 0, 1000)
    assert samples == expected
    assert 400 < sum(map(math.isinf, samples)) < 600
    assert all(0 <= x for x in samples)
    # blocks that overflow and blocks that do not join to the same draw
    assert [x for b in sample_deg_gamma11_blocks(0.999, 0, 1000, 3) for x in b] == samples
    stat, critical, passed = sampler_ks_check(0.999, 1000, 1)
    # D- takes the gap c - k/n below the atom, c = F(largest float), not the
    # jump to F(inf) = 1 that rejected before
    assert 0 < stat < critical and passed
    assert abs(stat - 0.0305) < 1e-4
    # every draw inf: the statistic is the gap c - 0 alone
    assert sample_deg_gamma11(0.9999999, 0, 3) == [math.inf] * 3
    assert sampler_ks_check(0.9999999, 3, 0)[0] < 1e-4


def test_empirical_cdf_at_one():
    lam = 0.25
    n = 100_000
    samples = sample_deg_gamma11(lam, 42, n)
    target = deg_gamma11_cdf(lam, 1.0)
    assert abs(sum(v <= 1.0 for v in samples) / n - target) < 3 / math.sqrt(n)


# ---------------------------------------------------------------------------
# Erlang bridge


def test_erlang_moment_quadrature_validation():
    # mandatory oracle before the closed form is trusted
    for r in range(1, 5):
        for l in range(5):
            numeric = erlang_moment_quadrature(l, r)
            assert abs(numeric - erlang_moment(l, r)) / erlang_moment(l, r) < 1e-9


def test_erlang_moment_values():
    assert erlang_moment(0, 3) == 1
    assert erlang_moment(2, 1) == 2
    assert erlang_moment(3, 2) == factorial(4) // factorial(1) == 24


def test_erlang_bridge_reduces_to_exponential_bridge():
    for lam in (F(1, 3), F(-1, 4)):
        for n in range(8):
            lhs, rhs, ok = erlang_bridge_check(n, 1, lam, F(3, 4))
            assert ok
            assert lhs == derange_deg(n, lam, F(3, 4))


def test_erlang_bridge_trivial_and_deep():
    lhs, rhs, ok = erlang_bridge_check(0, 4, F(1, 3), F(0))
    assert ok and lhs == 1
    lhs, rhs, ok = erlang_bridge_check(6, 3, F(1, 3), F(0))
    assert ok


def test_erlang_bridge_validation():
    with pytest.raises(ValueError):
        erlang_bridge_check(3, 0, F(1, 3), F(0))
    with pytest.raises(ValueError):
        erlang_moment(-1, 2)
