"""The log-count asymptotics: sawtooth remainder, analytic constants,
Fourier oscillation, and the assembled estimate.

For part sequences whose counting function is logarithmic,
N(u) = a ln u + b + R(u), the number P_h(u) of solutions of
r1*l1 + r2*l2 + ... < u satisfies

    ln P_h(u) = a/2 (ln u - lnln u - ln a)^2 + (a - 1/2) ln u
                + (b - 1/2)(ln u - lnln u - ln a)
                + W(ln u - lnln u - ln a) - ln(2 pi)/2 + H + o(1),

with H = c - b ln l1 - a ln^2(l1)/2 + a * I, where c is the mean of the
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
from .errors import AccuracyError, DomainError, _check_int, _is_finite_real, _is_real
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
_MIN_TOL = 1e-10
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

# W evaluates Gamma and zeta at the same few frequencies on every call, so
# the names it calls them through remember one value per frequency; the
# specfun functions themselves stay unmemoized
gamma_complex = lru_cache(maxsize=_W_FREQS)(specfun.gamma_complex)
zeta_complex = lru_cache(maxsize=_W_FREQS)(specfun.zeta_complex)


def _check_float_x(x, name: str) -> None:
    """DomainError unless x is real, 1 <= x and x converts to a finite
    float; an exact int passes 1 <= x < inf even past the float range."""
    if not (_is_real(x) and 1 <= x < math.inf):
        raise DomainError(f"{name} needs finite x >= 1, got {x!r}")
    try:
        if float(x) < math.inf:
            return
    except OverflowError:
        pass
    raise DomainError(f"{name} needs x within the float range")


def _check_tol(tol, name: str) -> None:
    """DomainError unless tol is a real number, not a bool, with
    _MIN_TOL <= tol < inf (NaN fails too)."""
    if not (_is_real(tol) and _MIN_TOL <= tol < math.inf):
        raise DomainError(f"{name} needs {_MIN_TOL:g} <= tol < inf, got {tol!r}")


def sawtooth_f(x) -> float:
    """floor(log2 x) - log2 x + 1/2, exact at dyadic points.

    The floor is taken from the binary exponent (frexp), never from a
    rounded logarithm, so f(2^k) = +1/2 exactly.
    """
    _check_float_x(x, "sawtooth_f")
    _, exponent = math.frexp(x)
    return (exponent - 1) - math.log2(x) + 0.5


def _remainder_R(u) -> float:
    """Remainder of the part-counting function after a ln u + b.

    R(u) = ln(1 + 1/u)/ln 2 + f(u + 1); it reconstructs
    floor(log2(u+1)) = ln u/ln2 - 1/2 + R(u) exactly.
    """
    _check_float_x(u, "remainder_R")
    return math.log1p(1.0 / u) / LN2 + sawtooth_f(u + 1)


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


def alpha_constant(tol: float = 1e-8) -> float:
    """The dyadic sawtooth integral of f(v)/(v(v-1)) from 2 to infinity.

    Integrates slice by slice over [2^k, 2^(k+1)], where floor(log2 v)
    is the constant k and the integrand is smooth, for k = 1..K with the
    analytic tail bound |f| <= 1/2, integral of 1/(v(v-1)) beyond 2^K
    <= 1/(2^K - 1); K is chosen so the bound is under tol/2.
    """
    _check_tol(tol, "alpha")
    return _alpha_sum(tol)


@lru_cache(maxsize=_TOL_CACHE)
def _alpha_sum(tol: float) -> float:
    K = 2
    while 0.5 / (2.0 ** K - 1.0) >= 0.5 * tol:
        K += 1
    slice_tol = 0.5 * tol / K
    total = 0.0
    for k in range(1, K + 1):
        total += _alpha_slice(k, slice_tol)
    return total


# the cache sits behind the tol check, so a bool tol cannot hit the entry of
# an equal int or float, and an unhashable one raises DomainError, not the
# cache's TypeError
alpha_constant.cache_info = _alpha_sum.cache_info
alpha_constant.cache_clear = _alpha_sum.cache_clear


def _alpha_slice(k: int, tol: float) -> float:
    lo, hi = 2.0 ** k, 2.0 ** (k + 1)
    smooth = k + 0.5  # floor(log2 v) + 1/2 on the open slice

    def integrand(v):
        return (smooth - math.log2(v)) / (v * (v - 1.0))

    try:
        return integrate_adaptive(integrand, lo, hi, tol=tol).value
    except AccuracyError as exc:
        raise AccuracyError(f"alpha (dyadic slice k={k}): {exc}",
                            best=exc.best) from exc


def c_constant(tol: float = 1e-8) -> float:
    """(pi^2 + ln^2 2)/(12 ln 2) plus the sawtooth integral constant."""
    closed = (math.pi ** 2 + LN2 ** 2) / (12.0 * LN2)
    return closed + alpha_constant(tol)


def tail_integral_I(tol: float = 1e-8) -> float:
    """Integral of (ln v - ln(1-e^-v))/(e^v - 1) over (0, infinity), exact.

    With 1/(e^v - 1) = sum_j e^-jv the j-th term integrates to
    (H_j - ln j - gamma)/j, and these sum to pi^2/12 - gamma^2/2 - gamma_1.
    The value is within TAIL_I_ERROR_BOUND of I whatever the tol; tol is
    only checked, so the estimates keep one tol domain.
    """
    _check_tol(tol, "tail integral")
    return _TAIL_I


def _h(c: float, tol: float) -> float:
    # c - b ln l1 - a ln^2(l1)/2 + a I collapses to c + a I: l1 = 1
    return c + A * tail_integral_I(tol)


def H_constant(tol: float = 1e-8) -> float:
    """Additive constant H = c + I/ln 2 of the Mersenne family."""
    return _h(c_constant(tol), tol)


def sawtooth_log_integral_series(u: float, nu_max: int = 10_000) -> float:
    """Fourier form of the integral of f(v)/v over [1, u].

    ln2/12 - sum over nu != 0 of (ln2/(4 pi^2 nu^2)) e^{2 pi i nu log2 u},
    with the +-nu terms paired into cosines.  Truncation error is below
    (ln2 / (2 pi^2)) / nu_max.
    """
    if not (_is_real(u) and 1 <= u < math.inf):
        raise DomainError(f"sawtooth series needs finite u >= 1, got {u!r}")
    _check_int("nu_max", nu_max, 1)
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


def binary_partition_params(tol: float = 1e-8) -> AsymptoticParams:
    """Parameters of the power-of-two family 1, 2, 4, 8, ...

    Here N(u) = ln u/ln2 + 1/2 + f(u), so b = +1/2 and the integrated
    remainder mean is exactly ln2/12 with the same dyadic Fourier
    coefficients.
    """
    _check_tol(tol, "binary params")
    return AsymptoticParams(b=0.5, c=LN2 / 12.0)


def w_oscillation_complex(z: float, nu_max: int = 16) -> complex:
    """Paired complex sum of the oscillation before taking the real part.

    - sum over 0 < |nu| <= nu_max of (2 pi nu / ln2)^2 Gamma(2 pi i nu/ln2)
    zeta(1 + 2 pi i nu/ln2) c_nu e^{2 pi i nu z / ln2}, with the dyadic
    Fourier coefficients c_nu = -ln2/(4 pi^2 nu^2).  The -nu term is the
    conjugate of the +nu term, so the imaginary part is exactly 0.
    Frequencies beyond the specfun band are dropped: |Gamma(it)| < 1e-130
    there, far below double noise.
    """
    _check_int("nu_max", nu_max, 1)
    if not _is_finite_real(z):
        raise DomainError(f"W needs a finite real z, got {z!r}")
    total = 0.0 + 0.0j
    for nu in range(1, nu_max + 1):
        t = 2.0 * math.pi * nu / LN2
        if t > IM_BAND:
            break
        factor = -(t * t) * gamma_complex(1j * t) * zeta_complex(1.0 + 1j * t)
        c_nu = -LN2 / (4.0 * math.pi ** 2 * nu * nu)
        term = factor * c_nu * complex(math.cos(t * z), math.sin(t * z))
        total += term + term.conjugate()
    return total


def w_oscillation(z: float, nu_max: int = 16) -> float:
    """The ln2-periodic oscillation W(z) of the built-in dyadic family."""
    return w_oscillation_complex(z, nu_max).real


@dataclass(frozen=True)
class AsymptoticBreakdown:
    """Term-by-term decomposition of one ln P_h(u) estimate.

    total is the plain left-to-right sum of the six terms ordered by
    decreasing |value| (stable on ties), so totals are reproducible for
    a given platform rounding mode.
    """

    quad_term: float    # a/2 (ln u - lnln u - ln a)^2
    lin_term: float     # (a - 1/2) ln u
    bline_term: float   # (b - 1/2)(ln u - lnln u - ln a)
    w_value: float
    gauss_const: float  # -ln(2 pi)/2
    h_const: float
    total: float


def _assemble(terms: tuple) -> float:
    total = 0.0
    for t in sorted(terms, key=abs, reverse=True):
        total += t
    return total


def ln_Ph_estimate(u: float | int, params: AsymptoticParams, tol: float = 1e-8,
                   nu_max: int = 16) -> AsymptoticBreakdown:
    """Assemble the ln P_h(u) estimate of a dyadic family for finite u > e.
    An exact int u may lie beyond the float range."""
    if not (_is_real(u) and math.e < u < math.inf):
        raise DomainError(f"estimate needs finite u > e, got {u!r}")
    if not isinstance(params, AsymptoticParams):
        raise DomainError(f"estimate needs AsymptoticParams, got {params!r}")
    if not (_is_finite_real(params.b) and _is_finite_real(params.c)):
        raise DomainError(f"estimate needs finite real b and c, got {params!r}")
    lu = math.log(u)
    arg = lu - math.log(lu) - math.log(A)
    quad_term = 0.5 * A * arg * arg
    lin_term = (A - 0.5) * lu
    bline_term = (params.b - 0.5) * arg
    w_value = w_oscillation_complex(arg, nu_max).real
    gauss_const = -0.5 * math.log(2.0 * math.pi)
    h_const = _h(params.c, tol)
    terms = (quad_term, lin_term, bline_term, w_value, gauss_const, h_const)
    return AsymptoticBreakdown(*terms, total=_assemble(terms))


def ln_ps_estimate(n: int, tol: float = 1e-8, nu_max: int = 16) -> AsymptoticBreakdown:
    """Estimate of ln p_s(n) (Mersenne parts, b = -1/2), n >= 2:
    ln_Ph_estimate at u = n + 1.

    The oscillation argument is ln u - lnln u - ln a = ln(n+1)
    - lnln(n+1) + lnln2, the same combination that is squared in the
    leading term.
    """
    _check_int("n", n, 2)
    params = AsymptoticParams(b=-0.5, c=c_constant(tol))
    return ln_Ph_estimate(n + 1, params, tol, nu_max)
