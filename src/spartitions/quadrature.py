"""Adaptive Gauss-Kronrod quadrature with explicit breakpoint control.

A 7-15 Gauss-Kronrod pair drives a worst-interval-first subdivision
loop.  Nodes are strictly interior, so integrands with removable
endpoint singularities (ln(1+t)/t at 0) can be integrated without
special casing, provided callers supply any interior breakpoints
(sawtooth corners, dyadic points) up front: the engine never subdivides
*across* a supplied breakpoint, it starts from them.  Limits must be finite: callers cut infinite tails off with an
analytic bound first.
"""

import heapq
import math
from dataclasses import dataclass

from .errors import AccuracyError, DomainError, _is_finite_real, _is_real

__all__ = ["QuadratureResult", "integrate_adaptive"]

# 15-point Kronrod extension of 7-point Gauss-Legendre (positive nodes).
_XGK = (
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
)
_WGK = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
)
# Gauss weights attach to the odd-indexed Kronrod nodes.
_WG = (0.129484966168870, 0.279705391489277, 0.381830050505119,
       0.417959183673469)

_EPS = 2.220446049250313e-16
_MAX_INTERVALS = 4096


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float  # absolute
    evaluations: int


def _gauss_kronrod(f, a: float, b: float):
    """One GK 7-15 panel: returns (kronrod, error_estimate, abs_integral)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)

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
    return resk, err, resabs


def integrate_adaptive(f, a: float, b: float, tol: float = 1e-10,
                       breakpoints=()) -> QuadratureResult:
    """Integrate f over the finite interval [a, b] to absolute tolerance tol.

    breakpoints: interior abscissae where f or a derivative jumps; the
    initial subdivision is split there.  Raises AccuracyError (with the
    best estimate attached) if f returns a non-finite value, or if the
    budget of 4096 intervals is exhausted before the error estimate
    drops below tol.
    """
    if not (_is_real(tol) and 0.0 < tol < math.inf):
        raise DomainError(f"tol must be positive and finite, got {tol!r}")
    if not (_is_finite_real(a) and _is_finite_real(b) and a < b):
        raise DomainError(f"need finite real a < b, got [{a!r}, {b!r}]")

    points = [a] + [p for p in sorted(breakpoints) if a < p < b] + [b]

    nevals = 0
    heap = []  # (-err, lo, hi, value, err)
    total = 0.0
    total_err = 0.0
    for lo, hi in zip(points[:-1], points[1:]):
        val, err, _ = _gauss_kronrod(f, lo, hi)
        nevals += 15
        total += val
        total_err += err
        heapq.heappush(heap, (-err, lo, hi, val, err))

    while total_err > tol and len(heap) < _MAX_INTERVALS:
        _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval at floating-point resolution; keep its estimate
            heapq.heappush(heap, (0.0, lo, hi, val, err))
            if all(item[0] == 0.0 for item in heap):
                break
            continue
        v1, e1, _ = _gauss_kronrod(f, lo, mid)
        v2, e2, _ = _gauss_kronrod(f, mid, hi)
        nevals += 30
        total += (v1 + v2) - val
        total_err += (e1 + e2) - err
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))

    # exact re-summation of the panel values for the final total
    total = math.fsum(item[3] for item in heap)
    total_err = math.fsum(item[4] for item in heap)

    result = QuadratureResult(total, total_err, nevals)
    if not (math.isfinite(total) and math.isfinite(total_err)):
        raise AccuracyError(
            f"quadrature met a non-finite integrand value after {nevals} evaluations",
            best=result,
        )
    if total_err > tol:
        raise AccuracyError(
            f"quadrature stalled at error {total_err:.3e} > tol {tol:.3e} "
            f"after {nevals} evaluations",
            best=result,
        )
    return result
