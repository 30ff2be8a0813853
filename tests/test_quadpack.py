"""The ported QUADPACK against the installed scipy, which the library itself
no longer imports: every float must be scipy's, bit for bit."""

import math
import random

import pytest
from scipy import integrate

from degderange import _quadpack, probability
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


def scipy_quad(f, epsabs, epsrel, limit):
    value, abserr, info, *message = integrate.quad(
        f, 0.0, math.inf, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1
    )
    return value.hex(), abserr.hex(), info["neval"], message[0] if message else None


def ported_quad(f, epsabs, epsrel, limit, quad=_quadpack.quad):
    value, abserr, neval, ier = quad(f, epsabs, epsrel, limit)
    return value.hex(), abserr.hex(), neval, _quadpack.message(ier, limit) if ier else None


def test_library_quadratures_are_scipys(monkeypatch, fresh_quadratures):
    # every quadrature the moment checks run, each on emptied caches: thm11
    # does not read lam, and the density's norm is gammafn at s = 1.5
    quad = _quadpack.quad
    checked = []

    def both(f, epsabs, epsrel, limit):
        ours = ported_quad(f, epsabs, epsrel, limit, quad)
        assert ours == scipy_quad(f, epsabs, epsrel, limit)
        checked.append(f)
        return quad(f, epsabs, epsrel, limit)

    monkeypatch.setattr(_quadpack, "quad", both)

    def run(fn, *args):
        fresh_quadratures()
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
        run(probability._pdf_mass, params)
        for m in range(4):
            run(moment_ratio_expectation, m, lam / 16)
    for r in (1, 3):
        run(erlang_moment_quadrature, 4, r)
    assert len(checked) == 3 * 18 + 2


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
        args = (f, rng.choice([1e-12, 1e-8, 0.0]), rng.choice([1e-9, 1e-6, 1e-12]),
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


# values that the Kronrod sums must carry as QUADPACK's loops do: -0.0,
# whose sign survives only a sum that starts from the centre term, and inf
# or NaN.  The outer nodes of the first rule call sit at x ~ 233, so every
# non-finite value reaches a node.  The products with the zero Gauss weights
# make resg NaN there, as in Fortran, but resasc is then NaN too and decides
# abserr either way: no case can tell those products from none.
NON_FINITE = [
    lambda x: -0.0,
    lambda x: math.inf if x > 100 else math.exp(-x),
    lambda x: -math.inf if x > 100 else math.exp(-x),
    lambda x: math.nan if x > 100 else math.exp(-x),
    lambda x: math.nan if x < 1 else math.exp(-x),
]


@pytest.mark.parametrize("epsabs, epsrel, limit", [(1e-12, 1e-9, 200), (0.0, 1e-9, 50), (1e-12, 1e-9, 1)])
@pytest.mark.parametrize("f", NON_FINITE)
def test_non_finite_and_signed_zero_values_are_scipys(f, epsabs, epsrel, limit):
    args = (f, epsabs, epsrel, limit)
    assert ported_quad(*args) == scipy_quad(*args)


@pytest.mark.parametrize("f, epsabs, epsrel, limit", ERROR_PATHS)
def test_error_paths_are_scipys(f, epsabs, epsrel, limit):
    args = (f, epsabs, epsrel, limit)
    assert ported_quad(*args) == scipy_quad(*args)


def test_error_paths_reach_every_code():
    iers = {_quadpack.quad(f, *rest)[3] for f, *rest in ERROR_PATHS}
    assert iers == {0, 1, 2, 3, 4, 5}


@pytest.mark.parametrize("epsabs, epsrel, limit", [(1e-12, 1e-9, 0), (0.0, 1e-30, 50)])
def test_invalid_input_raises_scipys_error(epsabs, epsrel, limit):
    with pytest.raises(ValueError) as expected:
        integrate.quad(math.exp, 0.0, math.inf, epsabs=epsabs, epsrel=epsrel, limit=limit)
    with pytest.raises(ValueError) as info:
        _quadpack.quad(math.exp, epsabs, epsrel, limit)
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
