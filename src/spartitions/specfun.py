"""Complex Gamma and Riemann zeta, binary64, for imaginary-axis arguments.

Both serve the band |Im| <= 200, which holds every frequency
t_nu = 2 pi nu / ln2 (nu <= 22) of the oscillation W.

gamma_complex takes a real z from math.gamma and any other z from the
Lanczos rational approximation (g = 607/128, 15 terms) with the
reflection formula for Re z < 1/2; relative error is ~1e-13 across the
band off the real axis, except near a negative pole -k, where rounding
pi z costs sin(pi z) up to about k * 1e-16 / (distance to the pole).

zeta_complex uses Euler-Maclaurin summation with a fixed Bernoulli tail.
"""

import cmath
import math
import numbers
import sys

import numpy as np

from .errors import DomainError, _is_real

__all__ = ["gamma_complex", "zeta_complex", "gamma_imag_axis_modulus"]

IM_BAND = 200.0
ZETA_RE_MIN = 0.6
# past this, every n^-s with n >= 2 underflows and zeta(s) rounds to 1; the
# Bernoulli tail would meet inf * 0 = NaN from Re s ~ 1e14 on
_ZETA_RE_ONE = 1076.0

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

# B_{2k} for k = 1..10
_B2K = (
    1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
    -691.0 / 2730.0, 7.0 / 6.0, -3617.0 / 510.0, 43867.0 / 798.0,
    -174611.0 / 330.0,
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

    A real z takes math.gamma's value (within 1e-15 relative of mpmath in
    seeded sweeps of the real axis, near its poles too), any other z the
    Lanczos sum with its reflection.  Poles (z a nonpositive real
    integer), non-finite and out-of-band arguments raise DomainError.  Off
    the real axis so does z where Gamma(z), or an intermediate of the
    Lanczos or reflection formula, leaves the float range: at Im z = 200
    Re z > 189 or Re z < -74.  On the real axis it raises DomainError for
    z > 171.62 and wherever |Gamma(z)| is below the normal float range
    (from about z = -170.583 down).
    """
    z = _finite_complex(z, "gamma_complex")
    if abs(z.imag) > IM_BAND:
        raise DomainError(f"gamma_complex supports |Im z| <= {IM_BAND:g}, got {z}")
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise DomainError(f"gamma pole at z = {z.real:g}")
    try:  # math/cmath raise OverflowError; a complex product turns inf or NaN
        value = complex(math.gamma(z.real)) if z.imag == 0.0 else _lanczos(z)
    except OverflowError:
        value = complex(math.inf)
    # a subnormal |Gamma| on the real axis raises
    if cmath.isfinite(value) and (z.imag != 0.0 or abs(value) >= sys.float_info.min):
        return value
    raise DomainError(f"Gamma(z) or an intermediate of it leaves the float range "
                      f"at z = {z}")


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
    # the true overflow of the result (Re z ~ 189 at Im z = 200)
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

    Euler-Maclaurin: sum_{n<N} n^-s + N^{1-s}/(s-1) + N^-s/2 + 10
    Bernoulli corrections, N = int(|Im s|) + 24; the absolute error
    measured against mpmath stays below 2e-13 across the band.  Past
    Re s = 1076, where every n^-s with n >= 2 underflows, it is exactly 1.
    """
    s = _finite_complex(s, "zeta_complex")
    if s == 1.0:
        raise DomainError("zeta pole at s = 1")
    if s.real < ZETA_RE_MIN or abs(s.imag) > IM_BAND:
        raise DomainError(
            f"zeta_complex supports Re s >= {ZETA_RE_MIN} and "
            f"|Im s| <= {IM_BAND:g}, got {s}"
        )
    if s.real > _ZETA_RE_ONE:
        return 1.0 + 0.0j
    N = int(abs(s.imag)) + 24

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
