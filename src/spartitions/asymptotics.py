"""The log-count asymptotics: sawtooth remainder, analytic constants,
Fourier oscillation, and the assembled estimate.

For part sequences whose counting function is logarithmic,
N(u) = a ln u + b + R(u), the estimate

    ln P_h(u) = a/2 (ln u - lnln u - ln a)^2 + (a - 1/2) ln u
                + (b - 1/2)(ln u - lnln u - ln a)
                + W(ln u - lnln u - ln a) - ln(2 pi)/2 + H + o(1)

at u = n + 1 is of ln p(n), the point count: the number of partitions of
n into the parts l1, l2, ..., which acceptance criteria 8 and 9 compare
it against.  It is not the cumulative count of solutions of
r1*l1 + r2*l2 + ... < u, whose ln lies higher by a growing margin (the
README lists all three at n = 10^3..10^6).

H = c - b ln l1 - a ln^2(l1)/2 + a * I, where c is the mean of the
integrated remainder, I is a fixed tail integral with a closed form, and
W is a small periodic oscillation built from Gamma and zeta on the
imaginary axis.

The estimate serves two part families: Mersenne parts 2^k - 1 (b = -1/2,
c = (pi^2 + ln^2 2)/(12 ln2) + alpha) and power-of-two parts (b = +1/2,
c = ln2/12).  Both have a = 1/ln2, smallest part 1, step 1, the period
ln 2 and the Fourier coefficients -ln2 / (4 pi^2 nu^2), so H reduces to
c + a I and only b and c vary.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun
from .errors import DomainError, _check_int, _is_finite_real, _is_real
from .quadrature import integrate_adaptive
from .specfun import IM_BAND

__all__ = [
    "AsymptoticParams",
    "AsymptoticBreakdown",
    "sawtooth_f",
    "sawtooth_log_integral",
    "alpha_constant",
    "c_constant",
    "tail_integral_I",
    "H_constant",
    "sawtooth_log_integral_series",
    "w_oscillation",
    "w_oscillation_complex",
    "binary_partition_params",
    "ln_Ph_estimate",
    "ln_ps_estimate",
]

LN2 = math.log(2.0)
A = 1.0 / LN2  # the coefficient a of ln u in N(u), shared by both families
DEFAULT_TOL = 1e-8  # every tol default of the estimate layer, and --tol's
DEFAULT_NU_MAX = 16  # every nu_max default of W and the estimates, and --nu-max's
_MIN_TOL = 1e-10
_SERIES_NU_MAX = 10 ** 6  # the series allocates O(nu_max) floats
# distinct tols whose alpha stays cached; an unbounded cache grows with
# every new tol a long-running caller passes
_TOL_CACHE = 32
# Euler's constant gamma and the first Stieltjes constant gamma_1
_EULER_GAMMA = 0.57721566490153286060651
_STIELTJES_1 = -0.072815845483676724860586
_TAIL_I = math.pi ** 2 / 12.0 - _EULER_GAMMA ** 2 / 2.0 - _STIELTJES_1
# rounding bound on _TAIL_I: pi, gamma and gamma_1 round to binary64 and
# each of the six operations rounds at most once, all on terms below 1;
# summed by magnitude that is under 5.3 units of 2^-53
TAIL_I_ERROR_BOUND = 8 * 2.0 ** -53
# W's frequencies t_nu = 2 pi nu / ln2 inside the specfun band: nu = 1..22
_W_FREQS = int(IM_BAND * LN2 / (2.0 * math.pi))


def _w_term_bound(t: float) -> float:
    """B(t) >= |Re c| + |Im c| for c = Gamma(i t) zeta(1 + i t), t >= 3:
    the tail bound of w_oscillation_complex, doubled to cover the rounding
    of the computed c.  Only math runs here, no Gamma or zeta."""
    return 2.0 * math.sqrt(2.0) * specfun.gamma_imag_axis_modulus(t) * 0.75 * math.log(t)


def _w_rows() -> tuple:
    # one row per nu = 1..22: t_nu, the Gamma and zeta arguments i t_nu and
    # 1 + i t_nu, and R_nu, the largest B(t_mu) over mu > nu (0 for nu = 22)
    rows, tail = [], 0.0
    for nu in range(_W_FREQS, 0, -1):
        t = 2.0 * math.pi * nu / LN2
        rows.append((t, 1j * t, 1.0 + 1j * t, tail))
        tail = max(tail, _w_term_bound(t))
    return tuple(reversed(rows))


_W_NU = _w_rows()
# W's domain |z| <= 2^53 / t_22, about 4.5e13: past it the top phase t_22 z
# has no fractional digit left, and near 1e307 it overflows to inf
_W_MAX_Z = 2.0 ** 53 / _W_NU[-1][0]

# W evaluates Gamma and zeta at the same few frequencies on every call, so
# the names it calls them through remember one value per frequency; the
# specfun functions themselves stay unmemoized
gamma_complex = lru_cache(maxsize=_W_FREQS)(specfun.gamma_complex)
zeta_complex = lru_cache(maxsize=_W_FREQS)(specfun.zeta_complex)


def _check_float_x(x, name: str) -> None:
    """DomainError unless x is a real >= 1 that converts to a finite float."""
    if not (_is_finite_real(x) and x >= 1):
        raise DomainError(f"{name} needs a finite x >= 1 within the float range, got {x!r}")


def _check_tol(tol, name: str) -> None:
    """DomainError unless tol is a non-bool real >= _MIN_TOL, finite as a float."""
    if not (_is_finite_real(tol) and tol >= _MIN_TOL):
        raise DomainError(f"{name} needs a finite tol >= {_MIN_TOL:g}, got {tol!r}")


def sawtooth_f(x) -> float:
    """floor(log2 x) - log2 x + 1/2, exact at dyadic points.

    The floor is taken from the binary exponent (frexp), never from a
    rounded logarithm, so f(2^k) = +1/2 exactly.
    """
    _check_float_x(x, "sawtooth_f")
    _, exponent = math.frexp(x)
    return (exponent - 1) - math.log2(x) + 0.5


def sawtooth_log_integral(u: float, tol: float = 1e-10) -> float:
    """Integral of f(v)/v over [1, u], exact: ln2 y(1 - y)/2.

    With v = 2^(k+x) every octave integrates to 0, which leaves
    ln2 * integral over [0, y] of (1/2 - x) dx at the fractional part y of
    log2 u.  y is log2 of the doubled frexp mantissa, so it never cancels
    against the exponent and is exactly 0 at every power of two.  tol is
    only checked, as for tail_integral_I.
    """
    _check_float_x(u, "sawtooth_log_integral")
    _check_tol(tol, "sawtooth_log_integral")
    m, _ = math.frexp(u)
    y = math.log2(2.0 * m)
    return LN2 * y * (1.0 - y) / 2.0


def alpha_constant(tol: float = DEFAULT_TOL) -> float:
    """The dyadic sawtooth integral of f(v)/(v(v-1)) from 2 to infinity.

    One adaptive quadrature over [2, 2^(K+1)] at tol/2, split at the
    dyadic points 2^2..2^K, so every panel lies in one slice
    [2^k, 2^(k+1)] where floor(log2 v) is the constant k and the
    integrand is smooth.  The analytic tail bound |f| <= 1/2, integral of
    1/(v(v-1)) beyond 2^K <= 1/(2^K - 1); K is chosen so the bound is
    under tol/2.
    """
    _check_tol(tol, "alpha")
    return _alpha_sum(tol)


@lru_cache(maxsize=_TOL_CACHE)
def _alpha_sum(tol: float) -> float:
    K = 2
    while 0.5 / (2.0 ** K - 1.0) >= 0.5 * tol:
        K += 1
    return integrate_adaptive(_alpha_integrand, 2.0, 2.0 ** (K + 1), tol=0.5 * tol,
                              breakpoints=[2.0 ** k for k in range(2, K + 1)]).value


# the cache sits behind the tol check, so a bool tol cannot hit the entry of
# an equal int or float, and an unhashable one raises DomainError, not the
# cache's TypeError
alpha_constant.cache_info = _alpha_sum.cache_info
alpha_constant.cache_clear = _alpha_sum.cache_clear


def _alpha_integrand(v: float) -> float:
    # every node is interior to its slice, so the frexp exponent minus one
    # is floor(log2 v) exactly; exponent - 1/2 is floor(log2 v) + 1/2
    _, exponent = math.frexp(v)
    return (exponent - 0.5 - math.log2(v)) / (v * (v - 1.0))


def c_constant(tol: float = DEFAULT_TOL) -> float:
    """(pi^2 + ln^2 2)/(12 ln 2) plus the sawtooth integral constant."""
    closed = (math.pi ** 2 + LN2 ** 2) / (12.0 * LN2)
    return closed + alpha_constant(tol)


def tail_integral_I(tol: float = DEFAULT_TOL) -> float:
    """Integral of (ln v - ln(1-e^-v))/(e^v - 1) over (0, infinity), exact.

    With 1/(e^v - 1) = sum_j e^-jv the j-th term integrates to
    (H_j - ln j - gamma)/j, and these sum to pi^2/12 - gamma^2/2 - gamma_1.
    The value is within TAIL_I_ERROR_BOUND of I whatever the tol; tol is
    only checked, so the estimates keep one tol domain.
    """
    _check_tol(tol, "tail integral")
    return _TAIL_I


def _h(c: float) -> float:
    # c - b ln l1 - a ln^2(l1)/2 + a I collapses to c + a I: l1 = 1
    return c + A * _TAIL_I


def H_constant(tol: float = DEFAULT_TOL) -> float:
    """Additive constant H = c + I/ln 2 of the Mersenne family."""
    return _h(c_constant(tol))


def sawtooth_log_integral_series(u: float, nu_max: int = 10_000) -> float:
    """Fourier form of the integral of f(v)/v over [1, u].

    ln2/12 - sum over nu != 0 of (ln2/(4 pi^2 nu^2)) e^{2 pi i nu log2 u},
    with the +-nu terms paired into cosines.  Truncation error is below
    (ln2 / (2 pi^2)) / nu_max, and nu_max may not exceed 10^6.
    """
    if not (_is_real(u) and 1 <= u < math.inf):
        raise DomainError(f"sawtooth series needs finite u >= 1, got {u!r}")
    _check_int("nu_max", nu_max, 1)
    if nu_max > _SERIES_NU_MAX:
        raise DomainError(f"sawtooth series takes nu_max <= {_SERIES_NU_MAX}, got {nu_max}")
    x = math.log2(u)
    nu = np.arange(1, nu_max + 1, dtype=float)
    cosines = np.cos((2.0 * math.pi * x) * nu) / (nu * nu)
    return LN2 / 12.0 - (LN2 / (2.0 * math.pi ** 2)) * float(np.sum(cosines[::-1]))


@dataclass(frozen=True)
class AsymptoticParams:
    """The two constants that tell the dyadic part families apart.

    b is the constant term of N(u) = a ln u + b + R(u) and c the mean of
    the integrated remainder.
    """

    b: float
    c: float


def binary_partition_params(tol: float = DEFAULT_TOL) -> AsymptoticParams:
    """Parameters of the power-of-two family 1, 2, 4, 8, ...

    Here N(u) = ln u/ln2 + 1/2 + f(u), so b = +1/2 and the integrated
    remainder mean is exactly ln2/12 with the same dyadic Fourier
    coefficients.
    """
    _check_tol(tol, "binary params")
    return AsymptoticParams(b=0.5, c=LN2 / 12.0)


def w_oscillation_complex(z: float, nu_max: int = DEFAULT_NU_MAX) -> complex:
    """The oscillation W(z) as a complex number whose imaginary part is 0.

    1/ln2 times the sum over 0 < |nu| <= nu_max of Gamma(i t) zeta(1 + i t)
    e^{i t z}, t = 2 pi nu / ln2.  The general term carries the prefactor
    -t^2 c_nu, and with the dyadic Fourier coefficients
    c_nu = -ln2/(4 pi^2 nu^2) and t^2 = 4 pi^2 nu^2 / ln^2 2 that is
    exactly 1/ln2.  The -nu term is the conjugate of the +nu term, as the
    sawtooth series pairs its +-nu terms into cosines, so W is the real sum
    (2/ln2) sum_{nu=1}^{min(nu_max, 22)} Re(Gamma(i t) zeta(1 + i t) e^{i t z}).
    Frequencies beyond the specfun band are dropped: |Gamma(it)| < 1e-130
    there, far below double noise.  z must be real with |z| <= 2^53 / t_22
    (about 4.5e13), where t_22 is the top frequency kept; past that the
    phase t_22 z keeps no fractional digit, and DomainError is raised.

    The terms are added in nu order, and the sum stops after term nu once
    R_nu < ulp(total)/4, where R_nu bounds every later term.  Each bound is
    B(t) = 2 sqrt(2) |Gamma(i t)| (3/4) ln t, from |Gamma(i t)| =
    sqrt(pi/(t sinh(pi t))) and Trudgian's |zeta(1 + i t)| <= (3/4) ln t
    for t >= 3 (Bull. Aust. Math. Soc. 89, 2014); the Fourier form is that
    of Flajolet, Gourdon & Dumas (Theor. Comput. Sci. 144, 1995).  A float
    sits at least half an ulp(total) from either neighbour, so adding less
    than a quarter ulp rounds back to total: the result is the full
    sum's, bit for bit.  |Gamma(i t)| falls by about e^-14 per nu, so a W
    near 1e-6 stops after 3 terms, rarely 4.
    """
    _check_int("nu_max", nu_max, 1)
    if not (_is_finite_real(z) and abs(z) <= _W_MAX_Z):
        raise DomainError(f"W needs a real z with |z| <= {_W_MAX_Z:.4g}, got {z!r}")
    total = 0.0
    for t, it, s, rest in _W_NU[:nu_max]:
        c = gamma_complex(it) * zeta_complex(s)
        total += c.real * math.cos(t * z) - c.imag * math.sin(t * z)
        if rest < math.ulp(total) / 4:
            break
    return complex(2.0 * total / LN2)


def w_oscillation(z: float, nu_max: int = DEFAULT_NU_MAX) -> float:
    """The ln2-periodic oscillation W(z) of the built-in dyadic family,
    for real |z| <= 2^53 / t_22 (about 4.5e13)."""
    return w_oscillation_complex(z, nu_max).real


@dataclass(frozen=True)
class AsymptoticBreakdown:
    """Term-by-term decomposition of one ln P_h(u) estimate, which at
    u = n + 1 estimates ln p(n), the point count.

    total is math.fsum of the six terms: their exact sum, correctly
    rounded, whatever the term order.
    """

    quad_term: float    # a/2 (ln u - lnln u - ln a)^2
    lin_term: float     # (a - 1/2) ln u
    bline_term: float   # (b - 1/2)(ln u - lnln u - ln a)
    w_value: float
    gauss_const: float  # -ln(2 pi)/2
    h_const: float
    total: float


def ln_Ph_estimate(u: float | int, params: AsymptoticParams, tol: float = DEFAULT_TOL,
                   nu_max: int = DEFAULT_NU_MAX) -> AsymptoticBreakdown:
    """Assemble the ln P_h(u) estimate of a dyadic family for finite u > e:
    at u = n + 1, of ln p(n), the number of partitions of n into the
    family's parts, not of the cumulative count over all m < u.  An exact
    int u may lie beyond the float range.  tol is only checked: params
    already holds c."""
    if not (_is_real(u) and math.e < u < math.inf):
        raise DomainError(f"estimate needs finite u > e, got {u!r}")
    if not isinstance(params, AsymptoticParams):
        raise DomainError(f"estimate needs AsymptoticParams, got {params!r}")
    if not (_is_finite_real(params.b) and _is_finite_real(params.c)):
        raise DomainError(f"estimate needs finite real b and c, got {params!r}")
    _check_tol(tol, "estimate")
    return _estimate(u, params.b, params.c, nu_max)


def _estimate(u: float | int, b: float, c: float, nu_max: int) -> AsymptoticBreakdown:
    # the six terms at a checked u > e, finite b and c; nu_max is W's to check
    lu = math.log(u)
    arg = lu - math.log(lu) - math.log(A)
    quad_term = 0.5 * A * arg * arg
    lin_term = (A - 0.5) * lu
    bline_term = (b - 0.5) * arg
    w_value = w_oscillation_complex(arg, nu_max).real
    gauss_const = -0.5 * math.log(2.0 * math.pi)
    h_const = _h(c)
    terms = (quad_term, lin_term, bline_term, w_value, gauss_const, h_const)
    return AsymptoticBreakdown(*terms, total=math.fsum(terms))


def ln_ps_estimate(n: int, tol: float = DEFAULT_TOL,
                   nu_max: int = DEFAULT_NU_MAX) -> AsymptoticBreakdown:
    """Estimate of ln p_s(n) (Mersenne parts, b = -1/2), n >= 2:
    ln_Ph_estimate's six terms at u = n + 1 and c = c_constant(tol).

    The oscillation argument is ln u - lnln u - ln a = ln(n+1)
    - lnln(n+1) + lnln2, the same combination that is squared in the
    leading term.
    """
    _check_int("n", n, 2)  # n >= 2 is what keeps u = n + 1 above e
    return _estimate(n + 1, -0.5, c_constant(tol), nu_max)
