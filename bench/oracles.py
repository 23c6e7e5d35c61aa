"""Independent references for every output the benchmark checks.

Nothing here calls into ``spartitions``.  Each check recomputes the
quantity by another route (a recurrence, a separate big-integer
evaluation of the bound formula, builtin ``pow``, mpmath at 30 digits)
or compares against a digest pinned from a known-good run of the
library.
"""

import cmath
import hashlib
import math
from fractions import Fraction

TABLE_N = 10 ** 5

# sha256 of table_digest() over the exact tables 0..10**5, pinned from the
# library as first benchmarked; any change to a single count breaks them.
S_TABLE_DIGEST = "4c739599963c1b61bd3968b1d7dac6d671628c4d1b27133b835364f89326a9b1"
B_TABLE_DIGEST = "236c41297badcc5f05e3cf23f74de7f4409bc2263ca245c5c36b0598cd26ddf1"
# the same over the p_s table 0..2*10**4 that the audit workload reads
AUDIT_TABLE_DIGEST = "c2451afb8c2e09c8d7f0279d7f80d95599d1388ff4264ba895738a6f7d95325f"

# Audit summaries of the library as first benchmarked.
AUDIT_PINS = {
    2 * 10 ** 4: {"first_violation": 3804, "violations": 13448,
                  "max_ratio_n": 16383, "bound_monotone_from_16": True},
    10 ** 4: {"first_violation": 3804, "violations": 3448,
              "max_ratio_n": 8191, "bound_monotone_from_16": True},
}


def table_digest(counts) -> str:
    """sha256 over the counts, each as a length-prefixed little-endian int."""
    h = hashlib.sha256()
    for c in counts:
        raw = c.to_bytes((c.bit_length() + 8) // 8, "little")
        h.update(len(raw).to_bytes(2, "little") + raw)
    return h.hexdigest()


def binary_recurrence_ok(b) -> bool:
    """b(0) = 1, b(2k+1) = b(2k) and b(2k) = b(2k-1) + b(k) at every index."""
    if b[0] != 1:
        return False
    for n in range(1, len(b)):
        expected = b[n - 1] if n % 2 else b[n - 1] + b[n // 2]
        if b[n] != expected:
            return False
    return True


def ln_close(value: float, exact: int) -> bool:
    """value matches ln(exact) to 1e-12 relative (math.log takes big ints)."""
    ref = math.log(exact)
    return abs(value - ref) <= 1e-12 * max(1.0, abs(ref))


def bound_formula(n: int) -> int:
    """2 + floor(n/3) + sum over 0 <= i <= floor(log2 n) of m^(m-1),
    m = floor(log2(n - 3i)), summands with n - 3i < 2 omitted."""
    total = 2 + n // 3
    i = 0
    while 1 << i <= n:
        x = n - 3 * i
        if x >= 2:
            m = x.bit_length() - 1
            total += m ** (m - 1)
        i += 1
    return total


def ratio_close(value: float, exact: int, bound: int) -> bool:
    return abs(value - float(Fraction(exact, bound))) <= 1e-9 * abs(value)


class EstimateOracle:
    """The ln P_h(u) estimate and W assembled in mpmath at 30 digits.

    The constants are integrated afresh with mpmath.quad and zeta on the
    line Re s = 1 comes from the Hurwitz form zeta(s, 1/2) / (2^s - 1),
    a route the library's Euler-Maclaurin code does not share.
    """

    def __init__(self, max_nu: int = 24):
        from mpmath import mp
        mp.dps = 30
        self.mp = mp
        ln2 = mp.log(2)
        alpha = mp.mpf(0)
        for k in range(1, 80):  # slices beyond 2^80 add < 2^-80
            alpha += mp.quad(lambda v, k=k: (k + mp.mpf(1) / 2 - mp.log(v, 2)) / (v * (v - 1)),
                             [2 ** k, 2 ** (k + 1)])
        self.alpha = alpha
        self.tail = mp.quad(lambda v: (mp.log(v) - mp.log(-mp.expm1(-v))) / mp.expm1(v),
                            [0, 1, 5, 20, mp.inf])
        self.a = 1 / ln2
        self.c_mersenne = (mp.pi ** 2 + ln2 ** 2) / (12 * ln2) + alpha
        self.c_binary = ln2 / 12
        self.h_mersenne = self.c_mersenne + self.a * self.tail
        # W(z) = sum_nu 2 Re(F_nu c_nu e^{i t_nu z}), F_nu = -t^2 Gamma(it) zeta(1+it)
        self._w_terms = []
        for nu in range(1, max_nu + 1):
            t = 2 * mp.pi * nu / ln2
            s = 1 + 1j * t
            f = -(t ** 2) * mp.gamma(1j * t) * mp.zeta(s, 0.5) / (2 ** s - 1)
            coeff = -ln2 / (4 * mp.pi ** 2 * nu * nu)
            self._w_terms.append((float(t), complex(f * coeff)))

    def w(self, z: float, nu_max: int) -> float:
        return sum(2.0 * (fc * cmath.exp(1j * t * z)).real
                   for t, fc in self._w_terms[:nu_max])

    def terms(self, n: int, nu_max: int, binary: bool) -> list:
        """The six terms of the estimate at u = n + 1."""
        mp = self.mp
        u = mp.mpf(n + 1)
        lnu = mp.log(u)
        arg = lnu - mp.log(lnu) - mp.log(self.a)
        b = mp.mpf(1) / 2 if binary else -mp.mpf(1) / 2
        h = self.c_binary + self.a * self.tail if binary else self.h_mersenne
        return [float(self.a / 2 * arg ** 2), float((self.a - mp.mpf(1) / 2) * lnu),
                float((b - mp.mpf(1) / 2) * arg), self.w(float(arg), nu_max),
                float(-mp.log(2 * mp.pi) / 2), float(h)]

    def estimate_ok(self, total: float, w_value: float, n: int, tol: float,
                    nu_max: int, binary: bool = False) -> bool:
        """total within the requested tol (as propagated into H) of the reference."""
        terms = self.terms(n, nu_max, binary)
        allowed = tol * (1.0 + 1.0 / math.log(2.0)) + 16 * 2.0 ** -52 * sum(map(abs, terms))
        return abs(total - sum(terms)) <= allowed and abs(w_value - terms[3]) <= 1e-12

    def constants_ok(self, record: dict, tol: float) -> bool:
        """The CLI constants record within the requested tol (as propagated into H)."""
        refs = {"alpha": self.alpha, "c": self.c_mersenne,
                "tail_integral": self.tail, "H": self.h_mersenne}
        allowed = tol * (1.0 + 1.0 / math.log(2.0))
        return all(abs(record[k] - float(ref)) <= allowed for k, ref in refs.items())
