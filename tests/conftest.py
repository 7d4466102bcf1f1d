"""Shared hypothesis strategies over the whole admissible domain, and the
census's margin table at the end of a session."""
import sys

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


@st.composite
def scaled_physics(draw):
    """DerivedConstants at a dimensionless point scaled by decades.

    The model reads m, omega and hbar only through a = theta*m*omega/hbar,
    b = eta/(m*omega*hbar) and the gauge ratio.  Those are drawn first:
    a of either sign from 1e-3 to 10**0.5, a*b = theta*eta/hbar**2 from
    -0.99 to just below 1 (0 included: the degenerate surface), the gauge
    ratio from 1e-3 to 1e3.  Then m, omega and hbar are drawn from 1e-100
    to 1e100, and theta = a*hbar/(m*omega), eta = b*m*omega*hbar.  So
    dc.params.a, dc.params.b and dc.gauge.ratio give the same model at
    m = omega = hbar = 1.  Every draw is accepted: the model computes on
    its core, so no alpha**2 or beta**2 at the drawn scales is formed (at
    m = omega = 1e100, |b| near 1000 and a gauge ratio near 1e3 they would
    leave float range).
    """
    a = 10.0 ** draw(st.floats(-3.0, 0.5)) * draw(st.sampled_from([1.0, -1.0]))
    ab = draw(
        st.one_of(
            st.just(0.0),
            st.floats(-0.99, 0.99),
            st.integers(3, 12).map(lambda k: 1.0 - 10.0**-k),
        )
    )
    ratio = 10.0 ** draw(st.floats(-3.0, 3.0))
    m, omega, hbar = [10.0 ** draw(st.floats(-100.0, 100.0)) for _ in range(3)]
    mw = m * omega
    p = PhysicalParams(m, omega, hbar, a * hbar / mw, ab / a * mw * hbar)
    return derived_constants(p, make_gauge(p, ratio=ratio))


def pytest_terminal_summary(terminalreporter):
    """After a session in which test_scales' CLI census ran, print each
    check's worst margin over the census's runs: value / upper bound, or
    for a two-sided check, distance to the nearer side / half-width."""
    margins = getattr(sys.modules.get("test_scales"), "CENSUS_MARGINS", None)
    if not margins:
        return
    terminalreporter.section("census: worst margin per check")
    for (command, name, measure), worst in sorted(margins.items()):
        terminalreporter.write_line("%-12s %-36s %-26s %.3g" % (command, name, measure, worst))
