import math

import pytest

from spartitions import (
    AccuracyError,
    DomainError,
    QuadratureResult,
    integrate_adaptive,
    sawtooth_f,
)
from spartitions.quadrature import _WG, _WGK, _XGK


def log1p_over_t(t):
    return math.log1p(t) / t if t != 0.0 else 1.0


def test_linear():
    res = integrate_adaptive(lambda t: t, 0.0, 1.0, tol=1e-12)
    assert abs(res.value - 0.5) <= 1e-14
    assert res.error_estimate <= 1e-12
    assert res.evaluations >= 15


def test_rule_is_exact_on_polynomials_to_degree_22():
    # the 15-point Kronrod rule integrates v^j exactly for j <= 22, so with
    # full-precision nodes and weights one panel is off by rounding only
    # (at most 6 ulp, at high degree); tol = 1 keeps the engine at one panel
    for j in range(23):
        res = integrate_adaptive(lambda v, j=j: v ** j, 0.0, 1.0, tol=1.0)
        assert res.evaluations == 15, j
        exact = 1.0 / (j + 1)
        assert abs(res.value - exact) <= 8 * math.ulp(exact), j


def qk15(f, a, b):
    """QUADPACK's qk15 panel as written there: (result, abserr)."""
    centr, hlgth = (a + b) / 2, (b - a) / 2
    fc = f(centr)
    f1 = [f(centr - hlgth * x) for x in _XGK[:7]]
    f2 = [f(centr + hlgth * x) for x in _XGK[:7]]
    resk = _WGK[7] * fc + sum(w * (u + v) for w, u, v in zip(_WGK, f1, f2))
    resg = _WG[3] * fc + sum(_WG[j] * (f1[2 * j + 1] + f2[2 * j + 1]) for j in range(3))
    resabs = _WGK[7] * abs(fc) + sum(w * (abs(u) + abs(v)) for w, u, v in zip(_WGK, f1, f2))
    reskh = resk / 2
    resasc = _WGK[7] * abs(fc - reskh) + sum(
        w * (abs(u - reskh) + abs(v - reskh)) for w, u, v in zip(_WGK, f1, f2))
    resabs, resasc = resabs * hlgth, resasc * hlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0 and abserr != 0:
        abserr = resasc * min(1.0, (200 * abserr / resasc) ** 1.5)
    return resk * hlgth, max(abserr, 50 * 2.0 ** -52 * resabs)


@pytest.mark.parametrize("f, a, b", [
    (lambda v: 1.0, 0.0, 1.0),      # the floor 50 eps * integral of |f|
    (lambda v: -3.0, 0.0, 2.0),
    (math.exp, 0.0, 8.0),           # |K - G| damped against the variation
    (math.sqrt, 0.0, 1.0),
    (math.sin, 0.0, 40.0),          # no damping: the error is the variation
])
def test_one_panel_matches_quadpack_qk15(f, a, b):
    # tol = 1e300 keeps the engine at one panel: its value and error
    # estimate are qk15's, up to rounding
    res = integrate_adaptive(f, a, b, tol=1e300)
    value, error = qk15(f, a, b)
    assert res.evaluations == 15
    assert res.value == pytest.approx(value, rel=1e-13, abs=1e-300)
    assert res.error_estimate == pytest.approx(error, rel=1e-9, abs=0.0)


def test_a_panel_without_variation_keeps_its_raw_error():
    # a constant whose Kronrod and Gauss sums round apart while every node
    # equals their mean: the variation resasc is 0, so |K - G| is kept
    # undamped rather than divided by it
    c, a, b = -8.078856591063007, 0.7263739008947692, 1.7263739008947692
    res = integrate_adaptive(lambda v: c, a, b, tol=1e300)
    assert res.error_estimate == pytest.approx(qk15(lambda v: c, a, b)[1], rel=1e-9, abs=0.0)


def test_only_the_panel_that_needs_it_is_split():
    # worst panel first: the smooth panel [1, 2] stays one panel while
    # [0, 1], where sqrt is steep, is split exactly as it is on its own
    alone = integrate_adaptive(math.sqrt, 0.0, 1.0, tol=1e-10)
    both = integrate_adaptive(math.sqrt, 0.0, 2.0, tol=1e-10, breakpoints=[1.0])
    assert alone.evaluations > 15
    assert both.evaluations == alone.evaluations + 15
    assert abs(both.value - 2.0 ** 2.5 / 3.0) <= 1e-10
    assert both.error_estimate <= 1e-10


def test_a_tol_met_exactly_is_met():
    first = integrate_adaptive(math.exp, 0.0, 1.0, tol=1.0)
    assert integrate_adaptive(math.exp, 0.0, 1.0, tol=first.error_estimate) == first


def test_breakpoints_at_the_limits_add_no_panel():
    res = integrate_adaptive(math.exp, 0.0, 1.0, tol=1.0, breakpoints=[0.0, 1.0, 2.0])
    assert res.evaluations == 15


def test_a_half_width_below_the_subnormals_is_not_divided_by():
    # 0.5 * 5e-324 rounds to 0, so the panel's half-width is 0
    assert integrate_adaptive(lambda v: 1.0, 0.0, 5e-324) == QuadratureResult(0.0, 0.0, 15)


def test_dilog_value():
    res = integrate_adaptive(log1p_over_t, 0.0, 1.0, tol=1e-12)
    assert abs(res.value - math.pi ** 2 / 12.0) <= 1e-12


def test_sawtooth_middle_interval():
    res = integrate_adaptive(lambda v: sawtooth_f(v) / v, 1.0, 2.0, tol=1e-11)
    assert abs(res.value) <= 1e-10


def test_breakpoint_kink():
    res = integrate_adaptive(lambda v: abs(v - 1.0 / 3.0), 0.0, 1.0,
                             tol=1e-12, breakpoints=[1.0 / 3.0])
    assert abs(res.value - 5.0 / 18.0) <= 1e-13


def test_honesty_on_known_integrals():
    cases = [
        (lambda t: t, 0.0, 1.0, 0.5),
        (log1p_over_t, 0.0, 1.0, math.pi ** 2 / 12.0),
        (lambda t: math.cos(t), 0.0, math.pi / 2.0, 1.0),
    ]
    for f, a, b, truth in cases:
        res = integrate_adaptive(f, a, b, tol=1e-11)
        assert abs(res.value - truth) <= max(res.error_estimate, 1e-15)


def test_budget_exhaustion_carries_best():
    # the 4096-interval budget runs out on 1/v long before 1e-300
    with pytest.raises(AccuracyError) as info:
        integrate_adaptive(lambda v: 1.0 / v, 1e-300, 1.0, tol=1e-13)
    best = info.value.best
    assert best is not None
    assert best.error_estimate > 1e-13
    assert best.evaluations == 15 + 30 * 4095


def test_float_resolution_stops_before_the_budget():
    # a one-ulp interval cannot be split: the loop ends at once, not after
    # 4096 intervals, and the error of the one panel is reported.  Its
    # midpoint rounds to the lower limit from 1.0 and to the upper one
    # from the next float
    for a in (1.0, math.nextafter(1.0, 2.0)):
        with pytest.raises(AccuracyError) as info:
            integrate_adaptive(math.exp, a, math.nextafter(a, 2.0), tol=1e-300)
        best = info.value.best
        assert best.evaluations == 15, a
        assert best.error_estimate > 1e-300, a


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_integrand_raises_with_best(bad):
    for f in (lambda v: bad, lambda v: bad if v > 0.9 else v):
        with pytest.raises(AccuracyError) as info:
            integrate_adaptive(f, 0.0, 1.0)
        assert info.value.best is not None


@pytest.mark.parametrize("f, a, b, breakpoints", [
    # finite panels whose sum passes the float range
    (lambda v: 5e307, 0.0, 4.0, [1.0, 2.0, 3.0]),
    # an inf panel and a -inf panel
    (lambda v: math.inf if v > 0.5 else -math.inf, 0.0, 1.0, [0.5]),
])
def test_a_sum_past_the_float_range_is_an_accuracy_error(f, a, b, breakpoints):
    with pytest.raises(AccuracyError, match="non-finite") as info:
        integrate_adaptive(f, a, b, tol=1e300, breakpoints=breakpoints)
    assert info.value.best is not None


def test_domain_errors():
    with pytest.raises(DomainError):
        integrate_adaptive(lambda v: v, 0.0, 1.0, tol=0.0)
    for a, b in ((1.0, 0.0), (1.0, 1.0)):
        with pytest.raises(DomainError):
            integrate_adaptive(lambda v: v, a, b)
    # a str would reach a comparison's TypeError, and True would run as 1
    for tol in (math.nan, math.inf, "x", None, True):
        with pytest.raises(DomainError):
            integrate_adaptive(lambda v: v, 0.0, 1.0, tol=tol)
    for a, b in ((0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan), (math.nan, 1.0),
                 ("0", 1.0), (0.0, "1"), (None, 1.0), (0.0, True), (False, 1.0),
                 (0, 10 ** 400)):
        with pytest.raises(DomainError):
            integrate_adaptive(lambda v: math.exp(-v), a, b)
    # a str or None would reach sorted()'s TypeError, and NaN would be dropped
    for breakpoints in (["x"], None, [math.nan], [0.5, math.inf], 0.5, [0.5, "x"]):
        with pytest.raises(DomainError):
            integrate_adaptive(lambda v: v, 0.0, 1.0, breakpoints=breakpoints)
    with pytest.raises(DomainError):
        integrate_adaptive(None, 0.0, 1.0)


def test_nodes_stay_inside_the_interval_near_the_float_max():
    # a + b overflows to inf here, so a midpoint taken as (a + b)/2 would
    # evaluate f outside [a, b]
    nodes = []

    def f(v):
        nodes.append(v)
        return math.sin(v)

    with pytest.raises(AccuracyError):
        integrate_adaptive(f, 0.0, 1e308)
    assert 0.0 < min(nodes) and max(nodes) < 1e308


def test_integrand_exception_propagates():
    def f(v):
        raise ZeroDivisionError("from f")

    with pytest.raises(ZeroDivisionError, match="from f"):
        integrate_adaptive(f, 0.0, 1.0)
