import math
import random
import time

import mpmath
import numpy as np
import pytest

from spartitions import (
    AsymptoticParams,
    DomainError,
    H_constant,
    alpha_constant,
    binary_partition_params,
    c_constant,
    count_s_partitions_table,
    sawtooth_log_integral_series,
    integrate_adaptive,
    sawtooth_f,
    sawtooth_log_integral,
    tail_integral_I,
    ln_ps_estimate,
    ln_Ph_estimate,
    w_oscillation,
    w_oscillation_complex,
)
from spartitions import asymptotics, specfun

LN2 = math.log(2.0)

# dyadic-slice integral of f(v)/(v(v-1)), 40 digits via mpmath (dev-time)
ALPHA_REF = 0.05549298439679
# tail integral, confirmed independently by the series sum_m (H_m - gamma - ln m)/m
TAIL_REF = 0.72869391700393060594
# oscillation values, 50 digits via mpmath with the eta-safe zeta route
W0_REF = -1.5117301578196709e-06
W02_REF = 1.8129290675484489e-06


def fourier_coefficient(nu):
    # c_nu of the dyadic sawtooth mean
    return -LN2 / (4.0 * math.pi ** 2 * nu * nu)


def mersenne_params(tol):
    return AsymptoticParams(b=-0.5, c=c_constant(tol))


def closed_sawtooth_integral(u):
    # integral of f(v)/v over [1, u] in closed form: ln2 x(1-x)/2 at the
    # fractional part x of log2 u (independent oracle for the series and
    # the quadrature route)
    x = math.log2(u) % 1.0
    return LN2 * x * (1.0 - x) / 2.0


def remainder_R(u):
    # remainder of the part-counting function after a ln u + b:
    # R(u) = ln(1 + 1/u)/ln2 + f(u + 1)
    return math.log1p(1.0 / u) / LN2 + sawtooth_f(u + 1)


def midpoint_refine(f, a, b):
    # plain midpoint refinement, no shared code with the GK engine
    total, n = 0.0, 64
    while True:
        h = (b - a) / n
        new = h * sum(f(a + (i + 0.5) * h) for i in range(n))
        if abs(new - total) < 1e-11 and n > 64:
            return new
        total, n = new, 2 * n


def test_sawtooth_values():
    assert sawtooth_f(1.0) == 0.5
    assert sawtooth_f(2.0) == 0.5
    assert sawtooth_f(4.0) == 0.5
    assert sawtooth_f(2.0 ** 40) == 0.5
    assert abs(sawtooth_f(3.0) - (1.0 - math.log2(3.0) + 0.5)) <= 1e-15


def test_sawtooth_bounds_and_domain():
    for i in range(1, 500):
        x = 1.0 + i * 0.37
        assert -0.5 <= sawtooth_f(x) <= 0.5
    with pytest.raises(DomainError):
        sawtooth_f(0.999)


def test_remainder_values():
    assert abs(remainder_R(1) - 1.5) <= 1e-15
    expected = math.log(4.0 / 3.0) / LN2 + 0.5
    assert abs(remainder_R(3) - expected) <= 1e-15


def test_counting_identity_reconstruction():
    # floor(log2(u+1)) = ln u/ln2 - 1/2 + R(u), floor from bit_length
    for u in list(range(1, 2000)) + [5000, 9999, 10000]:
        lhs = (u + 1).bit_length() - 1
        rhs = math.log(u) / LN2 - 0.5 + remainder_R(u)
        assert abs(lhs - rhs) <= 1e-10, u


def test_alpha_value_and_consistency():
    alpha = alpha_constant(1e-6)
    assert abs(alpha - ALPHA_REF) <= 1e-6
    assert abs(alpha_constant(1e-9) - ALPHA_REF) <= 1e-9
    assert abs(alpha_constant(1e-6) - alpha_constant(1e-9)) <= 1e-6


def test_alpha_matches_closed_form():
    # independent oracle: alpha = ln2 - pi^2/(12 ln2) - ln prod_{r>=2}(1 - 2^-r);
    # past r = 53 each factor rounds to 1.0, and in floats the closed form
    # is within 1e-16 of mpmath's 0.05549298439678949
    closed = LN2 - math.pi ** 2 / (12.0 * LN2) - math.log(
        math.prod(1.0 - 2.0 ** -r for r in range(2, 60)))
    assert abs(closed - ALPHA_REF) <= 1e-14
    for tol in (1e-6, 1e-8, 1e-10):
        assert abs(alpha_constant(tol) - closed) <= tol, tol


@pytest.mark.parametrize("tol, value", [
    # tol > 1 keeps K = 2 at the first test, tol in (1/3, 1] stops there
    (2.0, 0.04733527467008827),
    (1.0, 0.04733527467008827),
    # 0.5/(2^K - 1) equals 0.5 tol exactly, at K = 2 for 1/3 and K = 3 for
    # 1/7: the tail bound must fall strictly below tol/2, so K goes one further
    (1 / 3, 0.05167868672800971),
    (1 / 7, 0.053645825712544164),
    (1e-6, 0.055492957071644845),
    (1e-8, 0.05549298418331187),
    (1e-10, 0.05549298439512169),
])
def test_alpha_frozen_values(tol, value):
    # regression pins of the recipe (K from the tail bound, one quadrature
    # over [2, 2^(K+1)] split at 2^2..2^K), each within tol of alpha
    assert abs(value - ALPHA_REF) <= tol
    assert alpha_constant(tol) == value


def test_alpha_first_slice_against_midpoint_oracle():
    oracle = midpoint_refine(
        lambda v: (1.5 - math.log2(v)) / (v * (v - 1.0)), 2.0, 4.0)
    engine = integrate_adaptive(
        lambda v: (1.5 - math.log2(v)) / (v * (v - 1.0)), 2.0, 4.0,
        tol=1e-11).value
    assert abs(engine - oracle) <= 1e-9


def test_alpha_tolerance_floor():
    for tol in (1e-12, math.nan, math.inf):
        with pytest.raises(DomainError):
            alpha_constant(tol)


def test_absolute_convergence_of_alpha_slices():
    # partial sums of integral |f(v)|/(v(v-1)) over dyadic slices are
    # increasing and bounded (by 1/2 integral 1/(v(v-1)) = ln2 / 2)
    partial = 0.0
    previous = -1.0
    for k in range(1, 11):
        lo, hi = 2.0 ** k, 2.0 ** (k + 1)
        crossing = 2.0 ** (k + 0.5)
        val = integrate_adaptive(
            lambda v, kk=k: abs(kk + 0.5 - math.log2(v)) / (v * (v - 1.0)),
            lo, hi, tol=1e-10, breakpoints=[crossing]).value
        assert val >= 0.0
        partial += val
        assert partial > previous
        previous = partial
    assert partial <= 0.5 * LN2 + 1e-9


def test_alpha_slices_are_positive():
    # with v = 2^(k+x) slice k is ln2 * integral over [0, 1] of
    # (1/2 - x)/(2^(k+x) - 1) dx: an odd factor about x = 1/2 against a
    # strictly decreasing weight, so every slice, and alpha, is > 0
    tol = 1e-8
    K = 2
    while 0.5 / (2.0 ** K - 1.0) >= 0.5 * tol:
        K += 1
    for k in range(1, K + 1):
        val = integrate_adaptive(
            lambda v, kk=k: (kk + 0.5 - math.log2(v)) / (v * (v - 1.0)),
            2.0 ** k, 2.0 ** (k + 1), tol=0.5 * tol / K).value
        assert val > 0.0, k


def test_c_constant_composition():
    closed = (math.pi ** 2 + LN2 ** 2) / (12.0 * LN2)
    assert abs(closed - 1.2443313754622876) <= 1e-13
    assert abs(c_constant(1e-8) - alpha_constant(1e-8) - closed) <= 1e-14


def test_tail_integral_value_and_stability():
    assert abs(tail_integral_I(1e-8) - TAIL_REF) <= 1e-8
    assert abs(tail_integral_I(1e-10) - TAIL_REF) <= 1e-10
    for tol in (1e-11, math.nan, math.inf):
        with pytest.raises(DomainError):
            tail_integral_I(tol)


def test_tail_integral_closed_form():
    # two independent routes: the integral itself, and the closed form of
    # its series sum_j (H_j - ln j - gamma)/j
    with mpmath.workdps(30):
        integral = mpmath.quad(
            lambda v: -mpmath.log(-mpmath.expm1(-v) / v) / mpmath.expm1(v),
            [0, 1, 5, 20, mpmath.inf])
        closed = mpmath.pi ** 2 / 12 - mpmath.euler ** 2 / 2 - mpmath.stieltjes(1)
        assert abs(integral - closed) <= mpmath.mpf(10) ** -25
        value = tail_integral_I()
        # the bound the constants command reports is a rounding-level one
        assert abs(mpmath.mpf(value) - closed) <= asymptotics.TAIL_I_ERROR_BOUND < 1e-15
    assert value == 0.7286939170039306
    # 8 units of 2^-53 over the derivation's 5.3: the constants command prints it
    assert asymptotics.TAIL_I_ERROR_BOUND == 8 * 2.0 ** -53
    assert abs(value - float(integral)) <= 2.0 ** -53 * value
    assert abs(value - float(closed)) <= 2.0 ** -53 * value
    assert not hasattr(tail_integral_I, "cache_info")
    for tol in (1e-10, 3.3e-9, 1e-8, 1e-6, 0.5, 1.0, 1e300):
        assert tail_integral_I(tol) == value, tol


def test_H_composition_and_reduction():
    tol = 1e-8
    h = H_constant(tol)
    assert abs(h - c_constant(tol) - tail_integral_I(tol) / LN2) <= 1e-14
    assert abs(h - 2.3511074602466) <= 1e-7


def test_H_has_one_home():
    # H_constant and the estimate's h_const are one expression, bit for bit
    tols = [1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 3.7e-10, 2.5e-9, 4.2e-8, 6.1e-7]
    for tol in tols:
        assert H_constant(tol) == ln_ps_estimate(4096, tol).h_const, tol


def test_sawtooth_log_integral_series_matches_closed_form():
    # the documented truncation bound, (ln2 / (2 pi^2)) / nu_max; u = 1
    # (every cosine 1) comes closest to it
    for nu_max in (1, 3, 100, 10_000):
        bound = (LN2 / (2.0 * math.pi ** 2)) / nu_max
        for u in (3.0, 5.0, 10.0, 6.7, 1.0):
            series = sawtooth_log_integral_series(u, nu_max)
            assert abs(series - closed_sawtooth_integral(u)) <= bound, (u, nu_max)
    # exactly nu_max cosines, 10_000 by default
    for u in (1.5, 3.0, 7.3):
        x = 2.0 * math.pi * math.log2(u)
        for nu_max, cosines in ((1, math.cos(x)), (2, math.cos(x) + math.cos(2.0 * x) / 4.0)):
            series = LN2 / 12.0 - LN2 / (2.0 * math.pi ** 2) * cosines
            assert abs(sawtooth_log_integral_series(u, nu_max) - series) <= 1e-16, (u, nu_max)
        assert sawtooth_log_integral_series(u) == sawtooth_log_integral_series(u, 10_000)


def test_sawtooth_log_integral_series_dyadic_zero():
    for u in (2.0, 4.0, 8.0, 1024.0):
        assert abs(sawtooth_log_integral_series(u, 10_000)) <= 4e-6, u


def test_sawtooth_log_integral_series_matches_quadrature():
    for u in (3.0, 10.0):
        lhs = sawtooth_log_integral(u, tol=1e-10)
        assert abs(lhs - sawtooth_log_integral_series(u, 10_000)) <= 1e-5, u


@pytest.mark.parametrize("fn", [sawtooth_f, sawtooth_log_integral,
                                sawtooth_log_integral_series])
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_sawtooth_family_rejects_non_finite(fn, x):
    with pytest.raises(DomainError):
        fn(x)
    if fn is not sawtooth_log_integral_series:
        # an exact int passes 1 <= x < inf yet lies past the float range;
        # the series takes log2 of the int and stays in its domain
        with pytest.raises(DomainError):
            fn(10 ** 400)
    # a bool would pass as 0 or 1, and a str or None would reach a
    # comparison's TypeError
    for bad in (True, "3", None):
        with pytest.raises(DomainError):
            fn(bad)


def test_series_domain():
    with pytest.raises(DomainError):
        sawtooth_log_integral_series(0.5, 100)
    for nu_max in (0, -1, 2.5, 3.0, True):
        with pytest.raises(DomainError):
            sawtooth_log_integral_series(3.0, nu_max)
    # the series allocates O(nu_max) floats, so the cap of 10^6 is checked first
    with pytest.raises(DomainError):
        sawtooth_log_integral_series(3.0, 10 ** 6 + 1)
    bound = (LN2 / (2.0 * math.pi ** 2)) / 10 ** 6
    assert abs(sawtooth_log_integral_series(3.0, 10 ** 6) - closed_sawtooth_integral(3.0)) <= bound


def test_sawtooth_integral_against_closed_form():
    for u in (1.0, 2.0, 3.0, 7.3, 100.0):
        assert abs(sawtooth_log_integral(u, 1e-10)
                   - closed_sawtooth_integral(u)) <= 1e-9, u


def quadrature_sawtooth_integral(u, tol=1e-10):
    # the library's former route: adaptive quadrature of f(v)/v over [1, u]
    # split at the powers of two inside it (u > 1)
    breakpoints = [2.0 ** k for k in range(1, 64) if 2.0 ** k < u]
    return integrate_adaptive(lambda v: sawtooth_f(v) / v, 1.0, float(u),
                              tol=tol, breakpoints=breakpoints).value


def test_sawtooth_integral_matches_mpmath():
    rng = random.Random(2011)
    us = [10.0 ** rng.uniform(0.0, 300.0) for _ in range(2000)]
    us += [1.0, 1.5, 3.0, math.sqrt(2.0), 1e300, 2.0 ** 996 * (2.0 - 2.0 ** -52)]
    with mpmath.workdps(40):
        ln2 = mpmath.log(2)
        for u in us:
            x = mpmath.log(mpmath.mpf(u), 2)
            y = x - mpmath.floor(x)
            ref = ln2 * y * (1 - y) / 2
            assert abs(sawtooth_log_integral(u) - ref) <= 1e-16, u


def test_sawtooth_integral_vanishes_at_powers_of_two():
    for k in range(1001):
        assert sawtooth_log_integral(2.0 ** k) == 0.0, k
        assert sawtooth_log_integral(2 ** k) == 0.0, k


def test_sawtooth_integral_against_quadrature_oracle():
    rng = random.Random(7)
    us = [10.0 ** rng.uniform(0.0, 10.0) for _ in range(40)]
    for u in us + [1.5, 2.0, 3.0, 7.3, 1024.0, 1e10]:
        assert abs(sawtooth_log_integral(u) - quadrature_sawtooth_integral(u)) <= 1e-13, u


def test_sawtooth_integral_checks_tol_only():
    value = sawtooth_log_integral(3.0)
    for tol in (1e-10, 1e-6, 1, 1.0, np.float64(0.5), 1e300):
        assert sawtooth_log_integral(3.0, tol) == value, tol
    for tol in (1e-12, math.nan, math.inf):
        with pytest.raises(DomainError):
            sawtooth_log_integral(3.0, tol)


def test_sawtooth_integral_reaches_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature called")

    monkeypatch.setattr(asymptotics, "integrate_adaptive", refuse)
    for u in (1.0, 3.0, 1e10, 1e300, 10 ** 300):
        sawtooth_log_integral(u)
    start = time.perf_counter()
    sawtooth_log_integral(1e300)
    assert time.perf_counter() - start < 1e-3


def test_middle_integral_is_zero():
    res = integrate_adaptive(lambda v: sawtooth_f(v) / v, 1.0, 2.0, tol=1e-11)
    assert abs(res.value) <= 1e-10


def test_per_octave_cancellation():
    for k in range(0, 11):
        res = integrate_adaptive(lambda v: sawtooth_f(v) / v,
                                 2.0 ** k, 2.0 ** (k + 1), tol=1e-13)
        assert abs(res.value) <= 1e-12, k


def test_vanishing_last_integral():
    previous = math.inf
    for u in (10.0, 100.0, 1000.0):
        val = integrate_adaptive(lambda v: sawtooth_f(v) / (v - 1.0),
                                 u, u + 1.0, tol=1e-11).value
        assert abs(val) <= 1.0 / (2.0 * (u - 1.0)), u
        assert abs(val) < previous
        previous = abs(val)


def test_remainder_integral_decomposition():
    for u in (10.0, 100.0):
        shifted_dyadics = [2.0 ** k - 1.0 for k in range(2, 8)
                           if 1.0 < 2.0 ** k - 1.0 < u]
        first = integrate_adaptive(
            lambda v: (math.log1p(1.0 / v) / LN2) / v, 1.0, u, tol=1e-10).value
        second = integrate_adaptive(
            lambda v: sawtooth_f(v + 1.0) / v, 1.0, u, tol=1e-10,
            breakpoints=shifted_dyadics).value
        combined = integrate_adaptive(
            lambda v: remainder_R(v) / v, 1.0, u, tol=1e-10,
            breakpoints=shifted_dyadics).value
        assert abs(first + second - combined) <= 1e-8, u


def test_w_prefactor_simplification():
    # (2 pi nu / ln2)^2 * |c_nu| = 1/ln2 for the built-in family
    for nu in range(1, 17):
        t = 2.0 * math.pi * nu / LN2
        product = t * t * abs(fourier_coefficient(nu))
        assert abs(product - 1.0 / LN2) <= 1e-14 / LN2


def test_w_real_and_periodic():
    for z in (0.0, 0.1, 0.3, 17.5):
        assert w_oscillation_complex(z).imag == 0.0
    for z in (0.0, 0.1, 0.3):
        assert abs(w_oscillation(z + LN2) - w_oscillation(z)) <= 1e-14


def test_w_frozen_values():
    assert abs(w_oscillation(0.0) - W0_REF) <= 1e-15
    assert abs(w_oscillation(0.2) - W02_REF) <= 1e-15


def w_unmemoized(z, nu_max):
    # W term by term in W's own order, from specfun's unmemoized functions;
    # the prefactor -t^2 c_nu is 1/ln2 (test_w_prefactor_simplification)
    total = 0.0 + 0.0j
    for nu in range(1, nu_max + 1):
        t = 2.0 * math.pi * nu / LN2
        if t > specfun.IM_BAND:
            break
        term = (specfun.gamma_complex(1j * t) * specfun.zeta_complex(1.0 + 1j * t)
                * complex(math.cos(t * z), math.sin(t * z)))
        total += term + term.conjugate()
    return total / LN2


def test_w_memo_is_bit_identical():
    assert not hasattr(specfun.gamma_complex, "cache_info")
    assert not hasattr(specfun.zeta_complex, "cache_info")
    for z in (0.0, 0.1, 0.2, 0.3, 1.0, -2.5, 17.5, 123.456, 1e4):
        for nu_max in range(1, 41):
            assert w_oscillation_complex(z, nu_max) == w_unmemoized(z, nu_max), (z, nu_max)


def _w_zero(start):
    # bisect W from a sign change in [start, start + ln2] down to adjacent
    # floats; near there the partial sums are tiny and the exit must wait
    grid = [start + j * LN2 / 16.0 for j in range(17)]
    for a, b in zip(grid, grid[1:]):
        if (w_oscillation(a, 22) < 0.0) != (w_oscillation(b, 22) < 0.0):
            break
    else:
        raise AssertionError("W keeps its sign over a period")
    negative_at_a = w_oscillation(a, 22) < 0.0
    while True:
        mid = 0.5 * (a + b)
        if mid in (a, b):
            return a
        if (w_oscillation(mid, 22) < 0.0) == negative_at_a:
            a = mid
        else:
            b = mid


def test_w_memo_is_bounded_and_warm():
    # nu = 1..22 are the frequencies inside the specfun band, one memo entry
    # each at most; W's early exit reaches only the first few of them
    freqs = asymptotics._W_FREQS
    assert freqs == 22
    assert 2.0 * math.pi * freqs / LN2 <= specfun.IM_BAND < 2.0 * math.pi * (freqs + 1) / LN2
    # one table of the frequencies, the expression W and its domain read
    assert len(asymptotics._W_NU) == freqs
    for nu, (t, it, s, _) in enumerate(asymptotics._W_NU, 1):
        assert t == 2.0 * math.pi * nu / LN2
        assert (it, s) == (1j * t, 1.0 + 1j * t)
    assert asymptotics._W_NU[-1][0] <= specfun.IM_BAND
    zs = (0.0, 0.1, 3.0, -7.25, _w_zero(0.0))
    for z in zs:
        w_oscillation_complex(z, 40)
    before = [fn.cache_info() for fn in (asymptotics.gamma_complex, asymptotics.zeta_complex)]
    for nu_max in (1, 5, 16, 22, 23, 40):
        for z in zs:
            w_oscillation_complex(z, nu_max)
    after = [fn.cache_info() for fn in (asymptotics.gamma_complex, asymptotics.zeta_complex)]
    for b, a in zip(before, after):
        assert a.maxsize == freqs
        assert b.currsize == a.currsize <= freqs
        assert a.misses == b.misses
        assert a.hits > b.hits


def test_w_term_bound_covers_every_coefficient():
    # B(t_nu) >= |Re c_nu| + |Im c_nu| for specfun's c_nu and mpmath's,
    # and R_nu is the largest bound after nu (0 after the last)
    rows = asymptotics._W_NU
    bounds = [asymptotics._w_term_bound(t) for t, _, _, _ in rows]
    with mpmath.workdps(30):
        for (t, it, s, _), bound in zip(rows, bounds):
            for c in (specfun.gamma_complex(it) * specfun.zeta_complex(s),
                      complex(mpmath.gamma(1j * t) * mpmath.zeta(1 + 1j * t))):
                # the undoubled bound holds too (worst ratio 0.82), so the
                # factor 2 is all margin for rounding
                assert abs(c.real) + abs(c.imag) <= 0.5 * bound, t
    assert [r for _, _, _, r in rows] == [max(bounds[nu:], default=0.0)
                                          for nu in range(1, len(rows) + 1)]


def test_w_early_exit_is_bit_identical():
    rng = random.Random(33)
    limit = asymptotics._W_MAX_Z
    zeros = [_w_zero(k * LN2) for k in (0, 1, rng.randrange(10 ** 6))]
    zeros.append(_w_zero(rng.uniform(-1e9, 1e9)))
    near_zero = [x for z in zeros
                 for x in (z, math.nextafter(z, math.inf), z + 1e-15, z - 1e-12, z + 1e-9)]
    edges = [limit, -limit, math.nextafter(limit, 0.0), limit - rng.random(),
             -limit + rng.random()]
    tiny = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-17, 1e-9]
    for z in near_zero + edges + tiny + [rng.uniform(-100.0, 100.0) for _ in range(4)]:
        for nu_max in range(1, 41):
            assert w_oscillation_complex(z, nu_max) == w_unmemoized(z, nu_max), (z, nu_max)
    # more points at the full frequency count: adjacent floats of W's zeros
    # in many periods, where the partial sums cancel deepest
    for k in rng.sample(range(10 ** 5), 20):
        z = _w_zero(k * LN2)
        for x in (z, math.nextafter(z, -math.inf), math.nextafter(z, math.inf)):
            assert w_oscillation_complex(x, 22) == w_unmemoized(x, 22), x


def test_w_exit_rule_holds_at_a_power_of_two(monkeypatch):
    # made-up terms at z = 0, where term nu is Re c_nu: below 1.0 the
    # spacing is half ulp(1.0), so each later term of -0.3 ulp still
    # changes the sum, and a half-ulp rule would stop after the first term
    ulp = math.ulp(1.0)
    terms = [1.0] + [-0.3 * ulp] * 8 + [0.1 * ulp]
    rows = [(1.0, 1j * nu, 1.0 + 1j * nu, max(map(abs, terms[nu:]), default=0.0))
            for nu in range(1, len(terms) + 1)]
    monkeypatch.setattr(asymptotics, "_W_NU", tuple(rows))
    monkeypatch.setattr(asymptotics, "gamma_complex", lambda it: complex(terms[int(it.imag) - 1]))
    monkeypatch.setattr(asymptotics, "zeta_complex", lambda s: 1.0 + 0.0j)
    total = 0.0
    for term in terms:
        total += term
    assert total == 1.0 - 4 * ulp
    assert 2.0 * total / LN2 != 2.0 / LN2
    assert w_oscillation_complex(0.0, len(terms)) == complex(2.0 * total / LN2)


def test_w_stops_after_few_terms(monkeypatch):
    # the docstring's "3 terms, rarely 4" at the default nu_max, one zeta
    # call per term: a W near 1e-6 needs 3, and term 4 is near 1e-25
    calls = []
    memo = asymptotics.zeta_complex

    def counted(s):
        calls.append(s)
        return memo(s)

    monkeypatch.setattr(asymptotics, "zeta_complex", counted)
    rng = random.Random(12)
    counts = []
    for _ in range(20000):
        calls.clear()
        w_oscillation(rng.uniform(0.0, 50.0))
        counts.append(len(calls))
    assert set(counts) <= {3, 4}
    assert counts.count(4) < 0.05 * len(counts)
    calls.clear()
    w_oscillation_complex(_w_zero(0.0), 40)
    assert len(calls) > 4


def test_constant_caches_are_bounded():
    tols = [1e-6 * (1.0 + i * 2.0 ** -20) for i in range(200)]
    for tol in tols:
        alpha_constant(tol)
    info = alpha_constant.cache_info()
    assert info.currsize == info.maxsize == 32  # the 32 most recent tols
    alpha_constant(tols[-1])  # the latest tol is still cached
    assert alpha_constant.cache_info().hits == info.hits + 1


def test_w_magnitude_bound():
    # term-magnitude bound via |Gamma(it)| = sqrt(pi/(t sinh pi t))
    t1 = 2.0 * math.pi / LN2
    lead = 2.0 * (1.0 / LN2) * math.sqrt(math.pi / (t1 * math.sinh(math.pi * t1)))
    assert lead < 5e-6
    for j in range(64):
        assert abs(w_oscillation(j * LN2 / 64.0)) <= 1e-4


def test_w_nu_max_insensitive():
    assert abs(w_oscillation(0.1, 2) - w_oscillation(0.1, 16)) <= 1e-12
    for nu_max in (0, 2.5, 16.0, True):
        with pytest.raises(DomainError):
            w_oscillation(0.1, nu_max)
        with pytest.raises(DomainError):
            w_oscillation_complex(0.1, nu_max)
    # a bool would pass as 0 or 1, a str or None would reach isfinite's
    # TypeError, and an int past the float range its OverflowError
    for z in (math.nan, math.inf, -math.inf, True, "x", None, 10 ** 400):
        with pytest.raises(DomainError):
            w_oscillation(z)
        with pytest.raises(DomainError):
            w_oscillation_complex(z)


def test_w_domain_stops_where_the_phase_loses_its_digits():
    # t_22 z overflows near 1e307, where math.cos(inf) had raised a bare
    # ValueError; from 2^53 / t_22 on, t_22 z has no fractional digit
    t_top = 2.0 * math.pi * asymptotics._W_FREQS / LN2
    limit = asymptotics._W_MAX_Z
    assert limit == 2.0 ** 53 / t_top
    assert 4.5e13 < limit < 4.6e13
    beyond = (1e307, 1e308, -1e308, math.nextafter(limit, math.inf),
              -math.nextafter(limit, math.inf), 10 ** 20)
    for z in beyond:
        for w in (w_oscillation, w_oscillation_complex):
            with pytest.raises(DomainError, match=r"\|z\| <= 4\.517e\+13"):
                w(z)
    for z in (limit, -limit, 1e4, -1e4):
        assert math.isfinite(w_oscillation(z))


def test_generic_estimate_matches_mersenne_wrapper():
    n = 4096
    via2 = ln_Ph_estimate(float(n + 1), mersenne_params(1e-8))
    via1 = ln_ps_estimate(n)
    assert via1 == via2
    # ln_ps_estimate builds no params record, yet stays ln_Ph_estimate at
    # u = n + 1 with b = -1/2 and c = c_constant(tol), bit for bit
    rng = random.Random(3402)
    for i in range(120):
        digits = rng.randint(1, 320)
        n = rng.randrange(max(2, 10 ** (digits - 1)), 10 ** digits)
        if i == 0:
            n = 10 ** 400
        nu = rng.randint(1, 40)
        tol = rng.choice((1e-10, 1e-8, 1e-6)) if i % 4 else rng.uniform(1e-10, 1e-4)
        assert ln_ps_estimate(n, tol, nu) == ln_Ph_estimate(n + 1, mersenne_params(tol),
                                                            tol, nu), (n, tol, nu)


def test_estimate_breakdown_structure():
    n = 10 ** 4
    bd = ln_ps_estimate(n)
    u = float(n + 1)
    arg = math.log(u) - math.log(math.log(u)) - math.log(1.0 / LN2)
    assert abs(bd.quad_term - arg * arg / (2.0 * LN2)) <= 1e-10
    assert abs(bd.gauss_const + 0.5 * math.log(2.0 * math.pi)) <= 1e-15
    # regrouped second line: (1/ln2 - 3/2) ln u + lnln u - lnln 2
    lnln2 = math.log(LN2)
    regrouped = (1.0 / LN2 - 1.5) * math.log(u) + math.log(math.log(u)) - lnln2
    assert abs(bd.lin_term + bd.bline_term - regrouped) <= 1e-10
    # total is the correctly rounded sum of the six terms, for both families
    rng = random.Random(2001)
    binary = binary_partition_params()
    for n in [n] + [rng.randrange(2, 10 ** rng.randint(1, 300)) for _ in range(40)]:
        for bd in (ln_ps_estimate(n), ln_Ph_estimate(n + 1, binary)):
            terms = (bd.quad_term, bd.lin_term, bd.bline_term, bd.w_value,
                     bd.gauss_const, bd.h_const)
            assert bd.total == math.fsum(terms), n


def test_estimate_against_exact_counts():
    # frozen development measurements of the o(1) gap (exact DP oracle):
    # n = 2^16 errors by ~0.85, within the documented 1.0; the gap must
    # shrink as n grows
    table = count_s_partitions_table(2 ** 16)
    err_16 = abs(ln_ps_estimate(2 ** 16).total - table.ln(2 ** 16))
    err_1e3 = abs(ln_ps_estimate(10 ** 3).total - table.ln(10 ** 3))
    err_1e4 = abs(ln_ps_estimate(10 ** 4).total - table.ln(10 ** 4))
    assert err_16 < 1.0
    assert err_1e4 < err_1e3
    assert err_16 < err_1e4
    assert abs(err_1e3 - 1.0584) <= 2e-3
    assert abs(err_1e4 - 0.9216) <= 2e-3


def test_estimate_tracks_the_point_count_not_the_cumulative_one():
    # at u = n + 1 the estimate follows ln p_s(n), within 1.058, 0.922 and
    # 0.831 at 10^3, 10^4 and 10^5; ln of p_s(0) + ... + p_s(n) lies
    # 3.955, 6.040 and 8.162 above it, a gap that grows with n
    counts = count_s_partitions_table(10 ** 5).counts
    for n in (10 ** 3, 10 ** 4, 10 ** 5):
        total = ln_ps_estimate(n).total
        assert abs(total - math.log(counts[n])) < 1.1, n
        assert math.log(sum(counts[:n + 1])) - total > 3.5, n


def test_estimate_beyond_float_range():
    # n + 1 = 10^400 + 1 has no float; the log terms come from the exact int
    n = 10 ** 400
    bd = ln_ps_estimate(n)
    with mpmath.workdps(40):
        a = 1 / mpmath.log(2)
        lnu = mpmath.log(mpmath.mpf(n + 1))
        arg = lnu - mpmath.log(lnu) - mpmath.log(a)
        refs = {"quad_term": a / 2 * arg ** 2, "lin_term": (a - 0.5) * lnu,
                "bline_term": -arg}
    for name, ref in refs.items():
        assert abs(getattr(bd, name) - float(ref)) <= 1e-12 * abs(float(ref)), name
    assert math.isfinite(bd.total)


def test_estimate_total_increasing():
    totals = [ln_ps_estimate(n).total
              for n in (10, 100, 1000, 10 ** 4, 10 ** 5)]
    assert all(a < b for a, b in zip(totals, totals[1:]))


def test_estimate_domain_errors():
    # n >= 2 alone keeps ln_ps_estimate's u = n + 1 above e
    with pytest.raises(DomainError):
        ln_ps_estimate(1)
    assert math.isfinite(ln_ps_estimate(2).total)
    for u in (2.0, math.e):
        with pytest.raises(DomainError):
            ln_Ph_estimate(u, mersenne_params(1e-8))
    assert math.isfinite(ln_Ph_estimate(math.nextafter(math.e, 3.0),
                                        mersenne_params(1e-8)).total)
    # a str or None u would reach a comparison's TypeError, and params
    # without b and c an AttributeError
    for u in ("x", None, True):
        with pytest.raises(DomainError):
            ln_Ph_estimate(u, binary_partition_params(1e-8))
    for params in (None, (0.5, LN2 / 12.0)):
        with pytest.raises(DomainError):
            ln_Ph_estimate(100.0, params)
    # b and c are finite reals: NaN or inf would come out as the total,
    # and a str or None would reach a TypeError
    for bad in (math.nan, math.inf, -math.inf, None, "x", True, 10 ** 400):
        for params in (AsymptoticParams(b=bad, c=1.0), AsymptoticParams(b=0.5, c=bad)):
            with pytest.raises(DomainError):
                ln_Ph_estimate(100.0, params)
    for n in (math.nan, math.inf):
        with pytest.raises(DomainError):
            ln_ps_estimate(n)
        with pytest.raises(DomainError, match="^estimate needs finite u > e"):
            ln_Ph_estimate(n, binary_partition_params(1e-8))
    # n must be an int: a float such as 2.5 would give an estimate at a
    # non-integer n, and a str or None would reach a comparison's TypeError
    for n in ("x", None, 2.5, 4096.0, True):
        with pytest.raises(DomainError):
            ln_ps_estimate(n)
    with pytest.raises(DomainError):
        ln_ps_estimate(4096, 1e-8, 2.5)
    # ln_Ph_estimate checks its own tol, which its params make unused, and
    # names the estimate, not the tail integral
    for tol in (1e-11, math.nan, math.inf, "x", True):
        with pytest.raises(DomainError):
            binary_partition_params(tol)
        with pytest.raises(DomainError, match="^estimate needs a finite tol"):
            ln_Ph_estimate(501.0, AsymptoticParams(b=0.5, c=LN2 / 12.0), tol)


@pytest.mark.parametrize("call, tol", [
    pytest.param(alpha_constant, "1e-8", id="alpha-str"),
    pytest.param(tail_integral_I, None, id="tail-none"),
    pytest.param(lambda tol: ln_ps_estimate(4096, tol), "x", id="estimate-str"),
    pytest.param(binary_partition_params, True, id="binary-params-bool"),
    # True == 1.0, so it must not reach the entry alpha_constant(1.0) cached
    pytest.param(lambda tol: (alpha_constant(1.0), alpha_constant(tol)), True,
                 id="alpha-bool-after-float"),
    pytest.param(alpha_constant, [1e-8], id="alpha-unhashable"),
    pytest.param(lambda tol: sawtooth_log_integral(3.0, tol), "1e-10", id="sawtooth-str"),
    pytest.param(lambda tol: sawtooth_log_integral(3.0, tol), True, id="sawtooth-bool"),
    # an int past the float range passes tol < inf but overflows 0.5 * tol
    pytest.param(alpha_constant, 10 ** 400, id="alpha-big-int"),
    pytest.param(c_constant, 2 ** 1024, id="c-big-int"),
    pytest.param(H_constant, 10 ** 309, id="H-big-int"),
    pytest.param(lambda tol: ln_ps_estimate(4096, tol), 10 ** 400, id="estimate-big-int"),
])
def test_tol_must_be_a_real_number(call, tol):
    with pytest.raises(DomainError):
        call(tol)


def test_tol_takes_ints_and_numpy_floats():
    assert alpha_constant(np.float64(1e-8)) == alpha_constant(1e-8)
    assert alpha_constant(1) == alpha_constant(1.0)
    assert tail_integral_I(1) == tail_integral_I(np.float32(1e-6)) == tail_integral_I()
    assert binary_partition_params(np.float64(1e-6)) == binary_partition_params(1e-6)
    assert ln_ps_estimate(4096, np.float64(1e-7)) == ln_ps_estimate(4096, 1e-7)


def test_binary_params_structure():
    params = binary_partition_params(1e-8)
    assert params.b == 0.5
    assert abs(params.c - LN2 / 12.0) <= 1e-15
    bd = ln_Ph_estimate(501.0, params)
    assert bd.bline_term == 0.0
