"""Complex Gamma and Riemann zeta, binary64, for imaginary-axis arguments.

Both serve the band |Im| <= 200, which holds every frequency
t_nu = 2 pi nu / ln2 (nu <= 22) of the oscillation W.

gamma_complex uses the Lanczos rational approximation (g = 607/128,
15 terms) with the reflection formula for Re z < 1/2; relative error is
~1e-13 across the band.

zeta_complex uses Euler-Maclaurin summation with a fixed Bernoulli tail.
"""

import cmath
import math
import numbers

import numpy as np

from .errors import DomainError, PoleError, _is_real

__all__ = ["gamma_complex", "zeta_complex", "gamma_imag_axis_modulus"]

IM_BAND = 200.0
ZETA_RE_MIN = 0.6

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517, -59.597960355475491248, 14.136097974741747174,
    -0.49191381609762019978, 0.33994649984811888699e-4,
    0.46523628927048575665e-4, -0.98374475304879564677e-4,
    0.15808870322491248884e-3, -0.21026444172410488319e-3,
    0.21743961811521264320e-3, -0.16431810653676389022e-3,
    0.84418223983852743293e-4, -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

# B_{2k} for k = 1..12
_B2K = (
    1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
    -691.0 / 2730.0, 7.0 / 6.0, -3617.0 / 510.0, 43867.0 / 798.0,
    -174611.0 / 330.0, 854513.0 / 138.0, -236364091.0 / 2730.0,
)


def _finite_complex(z, name: str) -> complex:
    """z as a finite complex; DomainError for a non-number (str, bytes,
    None, bool), NaN/inf parts and an int too large for a float."""
    # complex() would parse a str and take a bool as 0 or 1
    if isinstance(z, bool) or not isinstance(z, numbers.Complex):
        raise DomainError(f"{name} needs a number, got {z!r}")
    try:
        z = complex(z)
    except OverflowError:
        raise DomainError(f"{name} needs an argument within the float range") from None
    if not cmath.isfinite(z):
        raise DomainError(f"{name} needs a finite argument, got {z}")
    return z


def gamma_complex(z) -> complex:
    """Gamma(z) for complex z with |Im z| <= 200.

    Poles (z a nonpositive real integer), non-finite and out-of-band
    arguments raise.
    """
    z = _finite_complex(z, "gamma_complex")
    if abs(z.imag) > IM_BAND:
        raise DomainError(f"gamma_complex supports |Im z| <= {IM_BAND:g}, got {z}")
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise PoleError(f"gamma pole at z = {z.real:g}")
    return _lanczos(z)


def _lanczos(z: complex) -> complex:
    if z.real < 0.5:
        # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return math.pi / (cmath.sin(math.pi * z) * _lanczos(1.0 - z))
    z -= 1.0
    series = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        series += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    # t^(z+1/2) e^-t through one exp keeps intermediates in range up to
    # the true overflow of the result (~Re z = 171.6 on the real axis)
    return math.sqrt(2.0 * math.pi) * series * cmath.exp((z + 0.5) * cmath.log(t) - t)


def gamma_imag_axis_modulus(t: float) -> float:
    """|Gamma(i t)| = sqrt(pi / (t sinh(pi t))) for finite 0 < t <= 200.

    Computed as sqrt(x / sinh x) / t with x = pi t, where x / sinh x lies
    in (0, 1], so no intermediate leaves the float range; the value itself
    does below t ~ 5.6e-309, which raises DomainError.
    """
    if not (_is_real(t) and 0.0 < t <= IM_BAND):
        raise DomainError(f"modulus identity needs finite 0 < t <= {IM_BAND:g}, got {t!r}")
    x = math.pi * t
    value = math.sqrt(x / math.sinh(x)) / t
    if value == math.inf:
        raise DomainError(f"|Gamma(i t)| overflows a float at t = {t}")
    return value


def zeta_complex(s) -> complex:
    """zeta(s) for Re s >= 0.6, |Im s| <= 200, s != 1.

    Euler-Maclaurin: sum_{n<N} n^-s + N^{1-s}/(s-1) + N^-s/2 + 12
    Bernoulli corrections, N = max(24, |Im s| + 24); the absolute error
    measured against mpmath stays below 2e-13 across the band.
    """
    s = _finite_complex(s, "zeta_complex")
    if s == 1.0:
        raise PoleError("zeta pole at s = 1")
    if s.real < ZETA_RE_MIN or abs(s.imag) > IM_BAND:
        raise DomainError(
            f"zeta_complex supports Re s >= {ZETA_RE_MIN} and "
            f"|Im s| <= {IM_BAND:g}, got {s}"
        )
    N = max(24, int(abs(s.imag)) + 24)

    n = np.arange(1, N, dtype=float)
    main = np.exp(-s * np.log(n))
    # ascending-magnitude accumulation keeps the roundoff of the long sum low
    total = complex(np.sum(main[::-1]))

    total += N ** (1.0 - s) / (s - 1.0)
    total += 0.5 * N ** (-s)

    rising = s                      # s (s+1) ... (s + 2k - 2)
    factorial = 2.0                 # (2k)!
    total += _B2K[0] / factorial * rising * N ** (-s - 1.0)
    for k in range(2, len(_B2K) + 1):
        rising *= (s + (2 * k - 3)) * (s + (2 * k - 2))
        factorial *= (2 * k - 1) * (2 * k)
        total += _B2K[k - 1] / factorial * rising * N ** (-s - (2 * k - 1))
    return total
