"""The sampler's KS check against scipy.stats, which the library itself never
imports: the ported kstwo critical value and the numpy statistic."""

import numpy as np
import pytest
from scipy import stats

from degderange import _ks
from degderange.probability import deg_gamma11_cdf, sample_deg_gamma11, sampler_ks_check

NS = [1, 2, 3, 5, 10, 20, 50, 100, 140, 141, 500, 10**3, 10**4, 10**5, 10**6]
LEVELS = [0.2, 0.1, 0.05, 0.01, 0.001]


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("n", NS)
def test_critical_value_matches_scipy(n, level):
    expected = stats.kstwo.ppf(1 - level, n)
    critical = _ks.kstwo_ppf(n, 1 - level)
    assert type(critical) is float
    assert abs(critical - expected) <= 1e-12 * expected, (critical, expected)


def test_critical_value_is_scipys_at_the_acceptance_point():
    # n = 10^5 at the 1% level, on the Pelz-Good branch
    assert _ks.kstwo_ppf(10**5, 0.99) == stats.kstwo.ppf(0.99, 10**5)


@pytest.mark.parametrize("n", [3, 20, 100, 140, 141, 1000, 10**5])
def test_cdf_matches_scipy(n):
    # every branch: Ruben-Gambino ends, Durbin/MTW, Pomeranz, smirnov, Pelz-Good
    xs = np.concatenate([np.linspace(0.0, 1.0, 201), np.linspace(0.5 / n, 3 / np.sqrt(n), 201)])
    ported = np.array([float(_ks.kstwo_cdf(n, float(x))) for x in xs])
    assert np.allclose(ported, stats.kstwo.cdf(xs, n), rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("count", [1, 7, 141, 10**5])
@pytest.mark.parametrize("lam", [0.25, 0.49])
def test_statistic_is_scipys(lam, count):
    stat, critical, passed = sampler_ks_check(lam, count, 42)
    samples = sample_deg_gamma11(lam, 42, count)
    expected = stats.kstest(samples, lambda x: deg_gamma11_cdf(lam, x))
    assert type(stat) is np.float64 and type(critical) is float and type(passed) is bool
    assert stat == expected.statistic
    assert passed == bool(expected.statistic < stats.kstwo.ppf(0.99, count))
