import cmath
import math

import mpmath
import pytest

from spartitions import (
    DomainError,
    PoleError,
    gamma_complex,
    gamma_imag_axis_modulus,
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
            assert abs(gamma_complex(z) - ref) <= 1e-12 * abs(ref), z


def test_gamma_conjugate_symmetry():
    for z in (1j * T1, 0.3 + 2.0j, -1.7 + 9.0j, 4.0 + 50.0j):
        left = gamma_complex(z.conjugate())
        right = gamma_complex(z).conjugate()
        scale = max(1.0, abs(right))
        assert abs(left.real - right.real) <= 1e-13 * scale
        assert abs(left.imag - right.imag) <= 1e-13 * scale


def test_gamma_poles_and_band():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            gamma_complex(z)
    assert issubclass(PoleError, DomainError)  # poles take the CLI's exit-1 path
    with pytest.raises(DomainError):
        gamma_complex(1.0 + 201.0j)


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
            assert abs(zeta_complex(s) - mp_zeta(s)) <= 1e-10, s


def test_zeta_conjugate_symmetry():
    for s in (complex(1.0, T1), 0.8 + 3.0j, 2.0 + 40.0j):
        left = zeta_complex(s.conjugate())
        right = zeta_complex(s).conjugate()
        assert abs(left.real - right.real) <= 1e-13
        assert abs(left.imag - right.imag) <= 1e-13


def test_zeta_pole_and_band():
    with pytest.raises(PoleError):
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
