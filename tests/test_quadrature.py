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
