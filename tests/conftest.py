import pytest


@pytest.fixture
def fresh_quadratures():
    """Empty the damped-quadrature results and the node logs before and
    after the test: a test that spies on the quadrature, or replaces it,
    must see every quadrature it asks for run, and leave no value of its
    own in the caches for the next test."""
    from degderange import probability

    def clear():
        probability._damped_quadrature.cache_clear()
        probability._transform.cache_clear()

    clear()
    yield clear
    clear()
