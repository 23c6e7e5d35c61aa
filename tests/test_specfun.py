import cmath
import math
import random
import sys

import mpmath
import pytest

from spartitions import (
    DomainError,
    gamma_complex,
    gamma_imag_axis_modulus,
    specfun,
    zeta_complex,
)

T1 = 2.0 * math.pi / math.log(2.0)


def mp_gamma(z):
    with mpmath.workdps(30):
        return complex(mpmath.gamma(mpmath.mpc(z.real, z.imag)))


def mp_zeta(s):
    # zeta(s) = zeta(s, 1/2) / (2^s - 1): the Hurwitz route sidesteps the
    # eta-conversion pole of the default method at s = 1 + 2 pi i nu/ln2
    with mpmath.workdps(30):
        s = mpmath.mpc(s.real, s.imag)
        return complex(mpmath.zeta(s, mpmath.mpf(1) / 2) / (2 ** s - 1))


def test_gamma_known_values():
    assert abs(gamma_complex(1.0) - 1.0) <= 1e-14
    assert abs(gamma_complex(0.5) - math.sqrt(math.pi)) <= 1e-12
    assert abs(gamma_complex(6.0) - 120.0) <= 120.0 * 1e-13


def test_gamma_modulus_identity():
    for t in (1.0, 5.0, T1, 20.0):
        value = abs(gamma_complex(1j * t))
        truth = gamma_imag_axis_modulus(t)
        assert abs(value - truth) <= 1e-10 * truth, t


def test_gamma_against_mpmath_band():
    for re in (-3.3, -0.7, 0.1, 0.5, 1.0, 2.0, 6.5, 20.0):
        for im in (0.0, 0.5, 2.0, T1, 35.0, 100.0, 200.0):
            if im == 0.0 and re <= 0.0 and re == int(re):
                continue
            z = complex(re, im)
            ref = mp_gamma(z)
            # on the real axis the value is math.gamma's
            rel = 1e-15 if im == 0.0 else 1e-12
            assert abs(gamma_complex(z) - ref) <= rel * abs(ref), z


def test_gamma_off_the_real_axis_is_the_lanczos_sum():
    # bit for bit, W's frequencies i t_nu among them
    rng = random.Random(38)
    zs = [1j * nu * T1 for nu in range(1, 23)]
    zs += [complex(rng.uniform(-80.0, 190.0), rng.uniform(-200.0, 200.0))
           for _ in range(2000)]
    compared = 0
    for z in zs:
        try:
            value = gamma_complex(z)
        except DomainError:
            continue
        lanczos = specfun._lanczos(z)
        assert (value.real.hex(), value.imag.hex()) == (lanczos.real.hex(),
                                                        lanczos.imag.hex()), z
        compared += 1
    assert compared >= 1500


def test_gamma_conjugate_symmetry():
    for z in (1j * T1, 0.3 + 2.0j, -1.7 + 9.0j, 4.0 + 50.0j):
        left = gamma_complex(z.conjugate())
        right = gamma_complex(z).conjugate()
        scale = max(1.0, abs(right))
        assert abs(left.real - right.real) <= 1e-13 * scale
        assert abs(left.imag - right.imag) <= 1e-13 * scale


def test_gamma_poles_and_band():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(DomainError, match="pole"):
            gamma_complex(z)
    with pytest.raises(DomainError):
        gamma_complex(1.0 + 201.0j)


@pytest.mark.parametrize("im", [0.0, 0.5, -3.0, T1, 100.0, -150.0, 200.0])
def test_gamma_is_finite_or_domain_error(im):
    # past the float range the Lanczos product overflows (OverflowError) or
    # the reflection meets inf * 0 (NaN); neither may escape
    for k in range(-2500, 2501):
        z = complex(k / 10.0, im)
        try:
            value = gamma_complex(z)
        except DomainError:
            continue
        assert cmath.isfinite(value), z


@pytest.mark.parametrize("z", [172.0, -171.5, -250 + 0.5j, -100 + 200j, 177 + 100j])
def test_gamma_past_the_float_range(z):
    with pytest.raises(DomainError, match="float range"):
        gamma_complex(z)


@pytest.mark.parametrize("x", [-171.0000001, -172.00000001, -173.0000000001])
def test_gamma_below_the_reflection_on_the_real_axis(x):
    # below -170.62, where Gamma(1 - x) overflows a float; near a pole
    # Gamma(x) is still a normal float: 8.06e-303, -4.68e-304, ...
    ref = mp_gamma(x)
    assert abs(ref) >= sys.float_info.min
    value = gamma_complex(x)
    assert value.imag == 0.0
    assert abs(value - ref) <= 1e-15 * abs(ref), x


def test_gamma_on_the_real_axis_is_close_or_below_the_normal_range():
    # spread from -185 up to the overflow at 171.62, near each pole from
    # -1 to -185 from either side, and at 100.5, where the Lanczos sum errs
    # by 3.4e-14: each z gives Gamma(z) to 1e-15 or raises DomainError, and
    # only where |Gamma(z)| is below the normal float range
    rng = random.Random(31)
    xs = [rng.uniform(-185.0, -170.6) for _ in range(200)]
    xs += [sign * 10.0 ** -rng.uniform(1.0, 12.0) - k
           for k in range(1, 186) for sign in (-1, 1) for _ in range(10)]
    xs += [rng.uniform(-170.6, 171.6) for _ in range(1000)] + [100.5]
    values = 0
    for x in xs:
        ref = mp_gamma(x)
        try:
            value = gamma_complex(x)
        except DomainError:
            assert abs(ref) < sys.float_info.min, x
            continue
        values += 1
        assert abs(value - ref) <= 1e-15 * abs(ref), x
    assert values >= 40


def test_gamma_never_returns_a_subnormal_on_the_real_axis():
    # |Gamma| is below sys.float_info.min from about -170.583 down
    # (Gamma(-170.6) = -2.08e-308): it raises DomainError there, and a
    # normal |Gamma| just above the edge is still returned
    raised = returned = 0
    for i in range(201):
        x = -170.63 + i * 0.0004
        ref = mp_gamma(x)
        try:
            value = gamma_complex(x)
        except DomainError:
            assert abs(ref) < sys.float_info.min * (1 + 1e-12), x
            raised += 1
            continue
        assert abs(value) >= sys.float_info.min, x
        assert abs(value - ref) <= 1e-15 * abs(ref), x
        returned += 1
    assert raised >= 100 and returned >= 50


@pytest.mark.parametrize("im", [0.0, 1.0, T1, -200.0])
def test_zeta_is_finite_up_to_the_float_range(im):
    # from Re s = 1076 every n^-s, n >= 2, underflows; from ~1e14 the
    # Bernoulli tail would give inf * 0 = NaN
    res = [0.65 + k / 10.0 for k in range(2500)]  # steps past the pole at 1 + [10.0 ** k for k in range(3, 309)]
    for re in res:
        value = zeta_complex(complex(re, im))
        assert cmath.isfinite(value), (re, im)
        if re > 1076.0:
            assert value == 1.0, (re, im)
    assert zeta_complex(1e50 + 1j) == 1.0


def test_zeta_known_values():
    assert abs(zeta_complex(2.0) - math.pi ** 2 / 6.0) <= 1e-10
    assert abs(zeta_complex(4.0) - math.pi ** 4 / 90.0) <= 1e-10
    assert abs(zeta_complex(3.0) - 1.2020569031595943) <= 1e-12


def test_zeta_at_oscillation_frequency():
    # frozen from the Hurwitz(1/2) evaluation at 50 digits
    ref = complex(1.34657954283631703147, 0.10988313679626963757)
    assert abs(zeta_complex(complex(1.0, T1)) - ref) <= 1e-12


def test_zeta_against_mpmath_band():
    for re in (0.6, 1.0, 1.5, 2.0, 4.0):
        # 22 T1 is W's highest frequency, the last inside the band
        for im in (0.0, 1.0, T1, 2 * T1, 100.0, 22 * T1, 200.0, -200.0):
            if re == 1.0 and im == 0.0:
                continue
            s = complex(re, im)
            # the docstring's bound: 1e-10 let B_12's sign be flipped
            assert abs(zeta_complex(s) - mp_zeta(s)) <= 2e-13, s


def test_zeta_conjugate_symmetry():
    for s in (complex(1.0, T1), 0.8 + 3.0j, 2.0 + 40.0j):
        left = zeta_complex(s.conjugate())
        right = zeta_complex(s).conjugate()
        assert abs(left.real - right.real) <= 1e-13
        assert abs(left.imag - right.imag) <= 1e-13


def test_zeta_pole_and_band():
    with pytest.raises(DomainError, match="pole"):
        zeta_complex(1.0)
    with pytest.raises(DomainError):
        zeta_complex(0.5 + 3.0j)
    for im in (201.0, 1000.0, 1e5, 2e5):
        with pytest.raises(DomainError):
            zeta_complex(complex(1.0, im))


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.5, math.nan),
                               complex(math.inf, 0.0), complex(2.0, -math.inf),
                               pytest.param(10 ** 400, id="10**400"),
                               # complex() would parse a str and take a bool as 0 or 1
                               "1+1j", "x", pytest.param(b"1", id="bytes"), None, True])
def test_non_finite_arguments_rejected(z):
    with pytest.raises(DomainError):
        gamma_complex(z)
    with pytest.raises(DomainError):
        zeta_complex(z)


def test_modulus_identity_domain():
    for t in (0.0, -1.0, math.nan, math.inf, 225.0, 1000.0, 1e-310, 5e-324,
              "x", None, True, 1j):
        with pytest.raises(DomainError):
            gamma_imag_axis_modulus(t)


@pytest.mark.parametrize("t", [1e-300, 1e-160, 1e-8, 1.0, T1, 100.0, 200.0])
def test_modulus_identity_across_the_range(t):
    # no intermediate over- or underflows, from 1/t ~ 1e300 down to ~1e-138
    with mpmath.workdps(30):
        truth = mpmath.sqrt(mpmath.pi / (t * mpmath.sinh(mpmath.pi * t)))
    value = gamma_imag_axis_modulus(t)
    assert math.isfinite(value) and value > 0.0
    assert abs(value - float(truth)) <= 1e-13 * float(truth), t
