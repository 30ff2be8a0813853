"""The ported QUADPACK, brentq and kolmogi against the installed scipy, which
the library itself no longer imports: every float must be scipy's, bit for
bit."""

import math
import random

import numpy as np
import pytest
from scipy import integrate, optimize, special, stats

from degderange import _ks, _quadpack, probability
from degderange.probability import (
    DegGammaParams,
    QuadratureError,
    QuadratureSpec,
    deg_gamma_fn_quadrature,
    deg_gamma_pdf,
    erlang_moment_quadrature,
    improper_quadrature,
    moment_ratio_expectation,
    theorem11_check,
)


def scipy_quad(f, a, epsabs, epsrel, limit):
    value, abserr, info, *message = integrate.quad(
        f, a, math.inf, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1
    )
    return value.hex(), abserr.hex(), info["neval"], message[0] if message else None


def ported_quad(f, a, epsabs, epsrel, limit, quad=_quadpack.quad):
    value, abserr, neval, ier = quad(f, a, epsabs, epsrel, limit)
    return value.hex(), abserr.hex(), neval, _quadpack.message(ier, limit) if ier else None


# ---------------------------------------------------------------------------
# QUADPACK


def test_library_quadratures_are_scipys(monkeypatch):
    # every quadrature the moment checks run
    quad = _quadpack.quad
    checked = []

    def both(f, a, epsabs, epsrel, limit):
        ours = ported_quad(f, a, epsabs, epsrel, limit, quad)
        assert ours == scipy_quad(f, a, epsabs, epsrel, limit)
        checked.append(a)
        return quad(f, a, epsabs, epsrel, limit)

    monkeypatch.setattr(_quadpack, "quad", both)
    probability._moment_ratio.cache_clear()

    def run(fn, *args):
        try:
            fn(*args)
        except QuadratureError:  # scipy's ier too: the floats were compared
            pass

    for lam in (0.05, 0.2, 0.36):
        for n in range(9):
            run(theorem11_check, n, lam)
        run(deg_gamma_fn_quadrature, 2, lam)
        run(deg_gamma_fn_quadrature, 1.5, lam)
        params = DegGammaParams(1.5, 1.0, lam)
        run(improper_quadrature, lambda x: deg_gamma_pdf(params, x))
        for m in range(4):
            run(moment_ratio_expectation, m, lam / 16)
    for r in (1, 3):
        run(erlang_moment_quadrature, 4, r)
    assert len(checked) == 3 * 17 + 2


def _integrand(rng):
    c = rng.choice([0.01, 0.1, 0.5, 1.0, 2.0, 3.7])
    return rng.choice(
        [
            lambda x: math.exp(-c * x),
            lambda x: x**c * math.exp(-x),
            lambda x: 1 / (1 + c * x * x),
            lambda x: abs(x - c) ** -0.5 if x != c else 0.0,
            lambda x: math.cos(c * x),
            lambda x: (1 + c * x) ** (-1 / c),
            lambda x: math.log(x) * math.exp(-c * x) if x > 0 else 0.0,
            lambda x: 1.0 if x < c else 0.0,
            lambda x: 1 / (x * x + 1e-6 * c),
        ]
    )


def test_random_quadratures_are_scipys():
    rng = random.Random(20)
    codes = set()
    for _ in range(300):
        f = _integrand(rng)
        a = rng.choice([0.0, 0.5])
        args = (f, a, rng.choice([1e-12, 1e-8, 0.0]), rng.choice([1e-9, 1e-6, 1e-12]),
                rng.choice([1, 2, 3, 10, 50, 200]))
        ours = ported_quad(*args)
        assert ours == scipy_quad(*args), args[1:]
        codes.add(ours[3] is None)
    assert codes == {True, False}


ERROR_PATHS = [
    (lambda x: math.exp(-x), 1e-12, 1e-9, 1),
    (lambda x: math.exp(-x), 1e-12, 1e-9, 3),
    (lambda x: math.exp(-x), 0.0, 1e-12, 200),
    (lambda x: math.exp(-x), 1e-14, 1e-14, 50),
    (lambda x: 1 / (1 + x), 1e-12, 1e-9, 200),
    (lambda x: math.sin(x) / x if x else 1.0, 1e-12, 1e-9, 200),
    (lambda x: math.sin(x) / x if x else 1.0, 1e-14, 1e-14, 50),
    (lambda x: x**-0.99 if x > 0 else 0.0, 1e-12, 1e-9, 200),
    (lambda x: x**-0.99 if x > 0 else 0.0, 1e-14, 1e-14, 50),
    (lambda x: x**-1.5 if x > 0 else 0.0, 1e-12, 1e-9, 50),
    (lambda x: math.exp(-x) / abs(x - 1) if x != 1 else 0.0, 1e-12, 1e-9, 200),
    (math.sin, 1e-12, 1e-9, 200),
]


@pytest.mark.parametrize("f, epsabs, epsrel, limit", ERROR_PATHS)
def test_error_paths_are_scipys(f, epsabs, epsrel, limit):
    args = (f, 0.0, epsabs, epsrel, limit)
    assert ported_quad(*args) == scipy_quad(*args)


def test_error_paths_reach_every_code():
    iers = {_quadpack.quad(f, 0.0, *rest)[3] for f, *rest in ERROR_PATHS}
    assert iers == {0, 1, 2, 3, 4, 5}


@pytest.mark.parametrize("epsabs, epsrel, limit", [(1e-12, 1e-9, 0), (0.0, 1e-30, 50)])
def test_invalid_input_raises_scipys_error(epsabs, epsrel, limit):
    with pytest.raises(ValueError) as expected:
        integrate.quad(math.exp, 0.0, math.inf, epsabs=epsabs, epsrel=epsrel, limit=limit)
    with pytest.raises(ValueError) as info:
        _quadpack.quad(math.exp, 0.0, epsabs, epsrel, limit)
    assert str(info.value) == str(expected.value)


# one integrand and spec per ier: (f, spec)
IER_CASES = {
    1: (lambda x: 1 / (1 + x), QuadratureSpec()),
    2: (lambda x: math.exp(-x), QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=50)),
    3: (lambda x: math.exp(-x) / abs(x - 1) if x != 1 else 0.0, QuadratureSpec()),
    4: (math.sin, QuadratureSpec()),
    5: (lambda x: math.sin(x) / x if x else 1.0, QuadratureSpec()),
}


@pytest.mark.parametrize("ier", sorted(IER_CASES))
def test_nonconvergence_raises_scipys_message(ier):
    f, spec = IER_CASES[ier]
    value, _, _, message = integrate.quad(
        f, 0.0, math.inf, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
        limit=spec.max_subdivisions, full_output=1,
    )
    assert message == _quadpack.message(ier, spec.max_subdivisions)
    with pytest.raises(QuadratureError) as info:
        improper_quadrature(f, spec)
    assert str(info.value) == f"{message} (partial estimate {value!r})"
    assert info.value.partial_estimate.hex() == value.hex()


# ---------------------------------------------------------------------------
# brentq


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def test_brentq_is_scipys():
    rng = random.Random(7)
    families = [
        lambda c: lambda x: x**3 - c,
        lambda c: lambda x: math.cos(x) - c * x,
        lambda c: lambda x: math.expm1(x) - c,
        lambda c: lambda x: math.atan(x - c),
        lambda c: lambda x: (x - c) ** 5,  # often not converged in 100 steps
    ]
    for _ in range(300):
        f = rng.choice(families)(rng.uniform(0.05, 3))
        a, b = rng.uniform(-2, 0), rng.uniform(3, 6)
        xtol = rng.choice([2e-12, 1e-14, 1e-6])
        ours = _outcome(_ks.brentq, f, a, b, xtol=xtol)
        assert ours == _outcome(optimize.brentq, f, a, b, xtol=xtol)


def test_brentq_in_kstwo_ppf_is_scipys(monkeypatch):
    # the root finds of the critical values: same steps, same root
    brentq = _ks.brentq
    finds = []

    def both(f, a, b, xtol):
        root = brentq(f, a, b, xtol=xtol)
        assert root == optimize.brentq(f, a, b, xtol=xtol)
        finds.append(root)
        return root

    monkeypatch.setattr(_ks, "brentq", both)
    for n in (3, 10, 140, 141, 10**4, 10**5):
        for p in (0.5, 0.8, 0.95, 0.99, 0.999):
            _ks.kstwo_ppf(n, p)
    assert len(finds) > 20


def test_brentq_errors():
    with pytest.raises(ValueError, match="different signs"):
        _ks.brentq(lambda x: x * x + 1, 0.0, 1.0, xtol=1e-12)
    with pytest.raises(RuntimeError, match="Failed to converge after 100 iterations"):
        _ks.brentq(lambda x: (x - 1 / 3) ** 5, -1.0, 3.0, xtol=1e-14)


# ---------------------------------------------------------------------------
# kolmogi


def test_kolmogorov_is_scipys():
    xs = np.concatenate([np.linspace(0.01, 3.0, 3001), np.linspace(0.81, 0.83, 201)])
    for x in map(float, xs):
        sf, cdf, pdf = _ks._kolmogorov(x)
        assert sf == special.kolmogorov(x)
        assert cdf == stats.kstwobign.cdf(x)
        assert pdf == stats.kstwobign.pdf(x)


def test_kolmogi_is_scipys():
    # both branches: the series in exp(-2 x^2) for q <= 1/2, the theta series
    # for q > 1/2, whose start needs scipy's log(sqrt(2 pi)) to the last bit
    rng = np.random.default_rng(3)
    qs = np.concatenate([np.linspace(1e-6, 1 - 1e-6, 2001), rng.random(1000), [1e-300, 0.5]])
    for q in map(float, qs):
        assert _ks._kolmogi(q, 1 - q) == special.kolmogi(q), q
    assert (_ks._kolmogi(0.0, 1.0), _ks._kolmogi(1.0, 0.0)) == (math.inf, 0.0)


def test_log_factorial_is_scipys():
    ns = list(range(1, 3000)) + [10**4, 123_457, 10**6, 10**8, 10**9 + 7]
    for n in ns:
        assert _ks._log_factorial(n) == special.loggamma(n + 1), n


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 40, 140, 141, 1000, 10**5])
def test_kstwo_ppf_is_scipys(n):
    # both closed-form ends and the root find, at every level
    for p in np.concatenate([np.geomspace(1e-9, 0.5, 12), np.linspace(0.5, 0.999, 12)]):
        assert _ks.kstwo_ppf(n, float(p)) == stats.kstwo.ppf(p, n), float(p)
