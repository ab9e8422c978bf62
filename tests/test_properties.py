import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from groupspeed.netsim import RandomFailureTopology
from groupspeed.riskmodel import RiskBank

from conftest import parabola_points


@given(
    n=st.integers(min_value=2, max_value=12),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
    k=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=100, deadline=None)
def test_matrix_invariants_hold_for_any_failure_model(n, p, seed, k):
    P = RandomFailureTopology(n, p, seed=seed).build_matrix(k)
    assert np.all(P >= 0)
    assert np.max(np.abs(P.sum(axis=1) - 1.0)) < 1e-12
    assert np.all(np.diag(P) > 0)


@given(
    d=st.floats(min_value=0.5, max_value=30.0),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_quasi_convex_triple_inequality(d, data):
    g = RiskBank([parabola_points()], [d])[0]
    lo, hi = g.speed_domain
    u = data.draw(st.floats(min_value=lo, max_value=hi, exclude_max=True))
    v = data.draw(st.floats(min_value=u, max_value=hi, exclude_min=True))
    frac = data.draw(st.floats(min_value=0.01, max_value=0.99))
    x = u + frac * (v - u)
    assume(u < x < v)
    # At float resolution: with the points a few ulps apart, rounding can tie
    # g(x) with the larger end value (as at d=20) or lift it one ulp above.
    # Once the points are 1e-6 of the domain apart, the true gap (about
    # g'' * sep**2 / 2, above 1e-11 for these curves) dwarfs rounding.
    gx, top = g.value(x), max(g.value(u), g.value(v))
    assert gx <= top + 8 * np.spacing(top)
    if min(x - u, v - x) > 1e-6 * (hi - lo):
        assert gx < top


@given(
    c=st.floats(min_value=-100.0, max_value=100.0),
    n=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=100, deadline=None)
def test_consensus_vectors_are_fixed_points_of_averaging(c, n, seed):
    P = RandomFailureTopology(n, 0.5, seed=seed).build_matrix(0)
    v = np.full(n, c)
    np.testing.assert_allclose(P @ v, v, atol=1e-9)
