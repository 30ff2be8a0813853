"""The sampler's KS check against scipy.stats, which the library itself never
imports: the DKW-Massart critical value against the exact kstwo quantile, and
the statistic against kstest's."""

import math

import numpy as np
import pytest
from scipy import stats

from degderange.probability import deg_gamma11_cdf, sample_deg_gamma11, sampler_ks_check

NS = [1, 2, 3, 5, 10, 20, 50, 100, 140, 141, 500, 10**3, 10**4, 10**5, 10**6]
LEVELS = [0.2, 0.1, 0.05, 0.01, 0.001]


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("n", NS)
def test_critical_value_matches_scipy(n, level):
    # the DKW-Massart bound sqrt(ln(2/level)/(2n)): never below scipy's exact
    # kstwo quantile, and within 0.1% of it for n >= 10^5
    _, critical, _ = sampler_ks_check(0.25, n, 42, level)
    assert type(critical) is float
    assert critical == math.sqrt(math.log(2 / level) / (2 * n))
    exact = stats.kstwo.ppf(1 - level, n)
    assert critical >= exact, (critical, exact)
    if n >= 10**5:
        assert critical <= 1.001 * exact, (critical, exact)


@pytest.mark.parametrize("count", [1, 7, 141, 10**5])
@pytest.mark.parametrize("lam", [0.25, 0.49])
def test_statistic_is_scipys(lam, count):
    stat, critical, passed = sampler_ks_check(lam, count, 42)
    samples = sample_deg_gamma11(lam, 42, count)
    # the library's scalar CDF, mapped over kstest's sorted array
    expected = stats.kstest(samples, lambda xs: np.array([deg_gamma11_cdf(lam, x) for x in xs]))
    assert type(stat) is float and type(critical) is float and type(passed) is bool
    assert stat == expected.statistic
    assert passed == bool(expected.statistic < stats.kstwo.ppf(0.99, count))
