import math

import pytest

from spartitions import AccuracyError, DomainError, integrate_adaptive, sawtooth_f


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
    # 4096 intervals, and the error of the one panel is reported
    with pytest.raises(AccuracyError) as info:
        integrate_adaptive(math.exp, 1.0, math.nextafter(1.0, 2.0), tol=1e-300)
    best = info.value.best
    assert best.evaluations == 15
    assert best.error_estimate > 1e-300


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_integrand_raises_with_best(bad):
    for f in (lambda v: bad, lambda v: bad if v > 0.9 else v):
        with pytest.raises(AccuracyError) as info:
            integrate_adaptive(f, 0.0, 1.0)
        assert info.value.best is not None


def test_domain_errors():
    with pytest.raises(DomainError):
        integrate_adaptive(lambda v: v, 0.0, 1.0, tol=0.0)
    with pytest.raises(DomainError):
        integrate_adaptive(lambda v: v, 1.0, 0.0)
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
