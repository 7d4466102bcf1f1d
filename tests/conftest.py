"""Shared hypothesis strategy: parameters over the whole admissible domain."""
from hypothesis import strategies as st

from nclab import PhysicalParams, derived_constants, make_gauge


@st.composite
def admissible_physics(draw):
    """DerivedConstants (with its params and gauge) over the admissible
    domain: either sign of theta and eta, theta*eta up to just below
    hbar**2, gauge ratios 1e-3 to 1e3."""
    hbar = draw(st.floats(0.2, 3.0))
    theta = draw(st.floats(1e-4, 5.0)) * draw(st.sampled_from([1.0, -1.0]))
    # Fraction of hbar**2 reached by |theta*eta|, including 1 - 1e-12.
    frac = draw(
        st.one_of(
            st.floats(0.0, 0.999),
            st.integers(3, 12).map(lambda k: 1.0 - 10.0**-k),
        )
    )
    eta = frac * hbar**2 / theta * draw(st.sampled_from([1.0, -1.0]))
    ratio = 10.0 ** draw(st.floats(-3.0, 3.0))
    m = draw(st.floats(0.2, 5.0))
    omega = draw(st.floats(0.2, 5.0))
    p = PhysicalParams(m, omega, hbar, theta, eta)
    return derived_constants(p, make_gauge(p, ratio=ratio))
