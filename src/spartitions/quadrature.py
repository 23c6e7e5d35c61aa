"""Adaptive Gauss-Kronrod quadrature with explicit breakpoint control.

A 7-15 Gauss-Kronrod pair drives a worst-interval-first subdivision
loop.  Nodes are strictly interior, so integrands with removable
endpoint singularities (ln(1+t)/t at 0) can be integrated without
special casing, provided callers supply any interior breakpoints
(sawtooth corners, dyadic points) up front: the engine never subdivides
*across* a supplied breakpoint, it starts from them.  Limits must be
finite: callers cut infinite tails off with an analytic bound first.
"""

import heapq
import math
from dataclasses import dataclass

from .errors import AccuracyError, DomainError, _is_finite_real, _is_real

__all__ = ["QuadratureResult", "integrate_adaptive"]

# 15-point Kronrod extension of 7-point Gauss-Legendre (positive nodes),
# QUADPACK's qk15 values (Piessens et al., 1983): the rule is exact on
# polynomials of degree <= 22 up to rounding.
_XGK = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
)
_WGK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
# Gauss weights attach to the odd-indexed Kronrod nodes.
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)

_EPS = 2.220446049250313e-16
_MAX_INTERVALS = 4096


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float  # absolute
    evaluations: int


def _gauss_kronrod(f, a: float, b: float):
    """One GK 7-15 panel: returns (kronrod, error_estimate)."""
    # a + b can overflow near the float max; halving is exact bar subnormals
    half = 0.5 * b - 0.5 * a
    mid = 0.5 * a + 0.5 * b

    fvals = []
    for x in _XGK[:-1]:
        fvals.append((f(mid - half * x), f(mid + half * x)))
    fc = f(mid)

    resk = _WGK[-1] * fc
    resg = _WG[-1] * fc
    resabs = _WGK[-1] * abs(fc)
    for i, (lo, hi) in enumerate(fvals):
        resk += _WGK[i] * (lo + hi)
        resabs += _WGK[i] * (abs(lo) + abs(hi))
        if i % 2 == 1:
            resg += _WG[i // 2] * (lo + hi)
    resk *= half
    resg *= half
    resabs *= abs(half)

    # QUADPACK-style error scaling: |K - G| overstates the Kronrod error
    # badly on smooth panels, so damp it against the variation resasc.
    reskh = 0.5 * resk / half if half != 0.0 else 0.0
    resasc = _WGK[-1] * abs(fc - reskh)
    for i, (lo, hi) in enumerate(fvals):
        resasc += _WGK[i] * (abs(lo - reskh) + abs(hi - reskh))
    resasc *= abs(half)

    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * _EPS * resabs)
    return resk, err


def integrate_adaptive(f, a: float, b: float, tol: float = 1e-10,
                       breakpoints=()) -> QuadratureResult:
    """Integrate f over the finite interval [a, b] to absolute tolerance tol.

    breakpoints: finite real abscissae where f or a derivative jumps; the
    initial subdivision is split at those inside (a, b).  Raises
    AccuracyError (with the best estimate attached) if f returns a
    non-finite value or the panel sums leave the float range, or if the
    budget of 4096 intervals is exhausted before the error estimate drops
    below tol.  An exception raised by f itself propagates unchanged.
    """
    if not callable(f):
        raise DomainError(f"f must be callable, got {f!r}")
    if not (_is_real(tol) and 0.0 < tol < math.inf):
        raise DomainError(f"tol must be positive and finite, got {tol!r}")
    # compared as Python floats: a numpy float32 against a float past its
    # range overflows in the cast that the mixed comparison makes
    if not (_is_finite_real(a) and _is_finite_real(b) and float(a) < float(b)):
        raise DomainError(f"need finite real a < b, got [{a!r}, {b!r}]")
    a, b = float(a), float(b)

    try:
        inner = list(breakpoints)
        finite = all(map(_is_finite_real, inner))
    except TypeError:  # not iterable
        finite = False
    if not finite:
        raise DomainError(f"breakpoints must be finite reals, got {breakpoints!r}")
    inner = sorted(map(float, inner))
    points = [a] + [p for p in inner if a < p < b] + [b]

    nevals = 0
    heap = []  # (-err, lo, hi, value, err)
    total_err = 0.0
    for lo, hi in zip(points[:-1], points[1:]):
        val, err = _gauss_kronrod(f, lo, hi)
        nevals += 15
        total_err += err
        heapq.heappush(heap, (-err, lo, hi, val, err))

    while total_err > tol and len(heap) < _MAX_INTERVALS:
        _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * lo + 0.5 * hi
        if mid <= lo or mid >= hi:
            # interval at floating-point resolution; keep its estimate
            heapq.heappush(heap, (0.0, lo, hi, val, err))
            if all(item[0] == 0.0 for item in heap):
                break
            continue
        v1, e1 = _gauss_kronrod(f, lo, mid)
        v2, e2 = _gauss_kronrod(f, mid, hi)
        nevals += 30
        total_err += (e1 + e2) - err
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))

    # exact re-summation of the panel values for the final total
    try:
        total = math.fsum(item[3] for item in heap)
        total_err = math.fsum(item[4] for item in heap)
    except (OverflowError, ValueError):  # a sum past the float range, or inf - inf
        total = total_err = math.nan

    result = QuadratureResult(total, total_err, nevals)
    if not (math.isfinite(total) and math.isfinite(total_err)):
        raise AccuracyError(
            f"quadrature met a non-finite value after {nevals} evaluations",
            best=result,
        )
    if total_err > tol:
        raise AccuracyError(
            f"quadrature stalled at error {total_err:.3e} > tol {tol:.3e} "
            f"after {nevals} evaluations",
            best=result,
        )
    return result
