"""Closed-form number-theoretic oracles.

Bernoulli numbers, divisor sums, Fourier coefficients of Eisenstein series
and of the discriminant cusp form, polylogarithms and zeta values (via
Euler-Maclaurin for the Hurwitz sum), the regularized weight-2k period
integral of a level-one modular form, the Eisenstein reciprocity law, and
the closed forms for the second Eisenstein series on Gamma_0(2).
"""

import cmath
import math
from collections import namedtuple
from fractions import Fraction
from math import comb, factorial

from .contfrac import coprime, unimodular
from .errors import DomainError, NonConvergence

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Bernoulli numbers

_BERNOULLI = [Fraction(1)]


def bernoulli(n):
    """B_n as an exact rational, with the B_1 = -1/2 convention."""
    if n < 0:
        raise ValueError("n must be >= 0")
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        # B_m = -1/(m+1) * sum_{k<m} C(m+1, k) B_k
        acc = sum(Fraction(comb(m + 1, k)) * _BERNOULLI[k] for k in range(m))
        _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[n]


# ---------------------------------------------------------------------------
# Divisor sums and Fourier coefficients

def sigma(k, n):
    """Divisor power sum sigma_k(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** k
            e = n // d
            if e != d:
                total += e ** k
        d += 1
    return total


def _check_weight(k2):
    if k2 < 4 or k2 % 2:
        raise ValueError("weight must be an even integer >= 4")


def eisenstein_coeff(k2, n):
    """Fourier coefficient of the Hecke-normalized Eisenstein series of weight 2k."""
    _check_weight(k2)
    if n == 0:
        return -bernoulli(k2) / (2 * k2)
    return Fraction(sigma(k2 - 1, n))


_DELTA_COEFFS = [0, 1]


def _eta24(n_max):
    """q-expansion g of prod (1-q^n)^24 up to q^n_max, by J.C.P. Miller's
    power recurrence n g_n = sum_{m>=1} (25 m - n) e_m g_(n-m), where
    e = prod (1-q^n) is the pentagonal series, with e_m = (-1)^k at
    m = k(3k -+ 1)/2 and 0 elsewhere: O(n_max^1.5) integer operations."""
    pentagonal = []
    k = 1
    while k * (3 * k - 1) // 2 <= n_max:
        pentagonal += [(k * (3 * k - 1) // 2, (-1) ** k), (k * (3 * k + 1) // 2, (-1) ** k)]
        k += 1
    g = [1]
    for n in range(1, n_max + 1):
        acc = sum((25 * m - n) * e * g[n - m] for m, e in pentagonal if m <= n)
        g.append(acc // n)
    return g


def delta_coeff(n):
    """Ramanujan tau(n), from the truncated product expansion of q*prod(1-q^m)^24."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n >= len(_DELTA_COEFFS):
        n_max = max(2 * n, 64)
        e24 = _eta24(n_max)
        _DELTA_COEFFS[:] = [0] + e24[:n_max]  # tau(m) = coeff of q^(m-1)
    return _DELTA_COEFFS[n]


# ---------------------------------------------------------------------------
# Modular form descriptors

class ModularFormSpec:
    """A form descriptor with an exact Fourier-coefficient provider.

    kinds: "eisenstein" (level 1, Hecke normalized), "cusp_delta",
    "eisenstein_gamma02" (the second Eisenstein series for Gamma_0(2),
    supported on even q-powers).
    """

    __slots__ = ("kind", "weight", "name", "_cache", "_floats")

    def __init__(self, kind, weight, name):
        self.kind = kind
        self.weight = weight
        self.name = name
        self._cache = {}
        self._floats = []       # float(coeff(n)) for n < len, extended by _fourier_sum

    def __eq__(self, other):
        return isinstance(other, ModularFormSpec) and (self.kind, self.weight) == (other.kind, other.weight)

    def __hash__(self):
        return hash((self.kind, self.weight))

    def __repr__(self):
        return f"ModularFormSpec({self.name})"

    @property
    def level(self):
        return 2 if self.kind == "eisenstein_gamma02" else 1

    @property
    def is_cusp(self):
        return self.kind == "cusp_delta"

    def coeff(self, n):
        c = self._cache.get(n)
        if c is None:
            if self.kind == "eisenstein":
                c = eisenstein_coeff(self.weight, n)
            elif self.kind == "cusp_delta":
                c = Fraction(delta_coeff(n)) if n else Fraction(0)
            else:  # gamma02 second form: a_0 and even powers only
                if n == 0:
                    c = -bernoulli(self.weight) / (2 * self.weight)
                elif n % 2:
                    c = Fraction(0)
                else:
                    c = Fraction(sigma(self.weight - 1, n // 2))
            self._cache[n] = c
        return c


def eisenstein(k2):
    _check_weight(k2)
    return ModularFormSpec("eisenstein", k2, f"E{k2}")


def delta_form():
    return ModularFormSpec("cusp_delta", 12, "Delta")


def eisenstein_gamma02(k2):
    _check_weight(k2)
    return ModularFormSpec("eisenstein_gamma02", k2, f"E{k2},2")


def form_by_name(name):
    """Resolve names like E4, E6, Delta, E6,2 to descriptors."""
    if name == "Delta":
        return delta_form()
    if name.startswith("E") and name.endswith(",2"):
        return eisenstein_gamma02(int(name[1:-2]))
    if name.startswith("E"):
        return eisenstein(int(name[1:]))
    raise ValueError(f"unknown modular form name {name!r}")


# ---------------------------------------------------------------------------
# Evaluation of level-one forms anywhere in the upper half-plane

def sl2_reduce(tau):
    """Move tau into the standard fundamental domain.

    Returns (tau_reduced, (c, d)) where tau_reduced = g(tau) and (c, d) is
    the bottom row of g, so that f(tau) = f(tau_reduced) * (c tau + d)^(-k).
    """
    z = complex(tau)
    if z.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    a, b, c, d = 1, 0, 0, 1
    for _ in range(10_000):
        n = round(z.real)
        if n:
            z -= n
            a, b = a - n * c, b - n * d
        if abs(z) < 1.0 - 1e-14:
            z = -1.0 / z
            a, b, c, d = -c, -d, a, b
        else:
            return z, (c, d)
    raise NonConvergence("fundamental-domain reduction did not terminate")


def _fourier_sum(form, z):
    # q-series at a point with Im z large enough that it converges quickly:
    # at most 600 terms, to a tail bound of 1e-16
    q = cmath.exp(2j * math.pi * z)
    qn = 1.0 + 0j
    total = complex(form.coeff(0))
    absq = abs(q)
    floats = form._floats
    for n in range(1, 601):
        qn *= q
        if n >= len(floats):
            # doubled on demand up to 600; replaced whole, so a reader never
            # sees a half-extended list
            floats = floats + [float(form.coeff(m)) for m in range(len(floats), min(2 * n, 600) + 1)]
            form._floats = floats
        total += floats[n] * qn
        # crude tail bound: coefficients grow at most like n^(weight)
        if (n ** form.weight) * absq ** n / (1.0 - absq) < 1e-16:
            return total
    raise NonConvergence(f"Fourier series for {form.name} needs more than 600 terms at Im={z.imag:.3g}")


def form_value(form, tau):
    """f(tau) for any tau in the upper half-plane, via fundamental-domain reduction."""
    if form.level == 2:
        # the second Gamma_0(2) Eisenstein series is E_{2k} at 2*tau
        return form_value(eisenstein(form.weight), 2 * complex(tau))
    z, (c, d) = sl2_reduce(tau)
    val = _fourier_sum(form, z)
    if c == 0 and d == 1:
        return val
    return val * (c * complex(tau) + d) ** (-form.weight)


# ---------------------------------------------------------------------------
# Zeta functions and polylogarithms

_EM_N, _EM_J = 40, 14


def _hurwitz_em(s, a):
    # Euler-Maclaurin for real s > 1, a > 0
    N = _EM_N
    total = sum((n + a) ** (-s) for n in range(N))
    x = N + a
    total += x ** (1.0 - s) / (s - 1.0) + 0.5 * x ** (-s)
    rising = s
    for j in range(1, _EM_J + 1):
        total += float(bernoulli(2 * j)) / factorial(2 * j) * rising * x ** (-s - 2 * j + 1)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return total


def zeta(s):
    """Riemann zeta at an integer or real argument (s = 1 is rejected)."""
    if s == 1:
        raise DomainError("zeta has a pole at s = 1")
    if isinstance(s, int) or float(s).is_integer():
        s = int(s)
        if s == 0:
            return -0.5
        if s < 0:
            return float(-bernoulli(1 - s) / (1 - s))
        if s % 2 == 0:
            k = s // 2
            return float((-1) ** (k + 1) * bernoulli(s) / (2 * factorial(s))) * TWO_PI ** s
    if s < 1:
        raise ValueError("real non-integer s < 1 is out of scope")
    return _hurwitz_em(float(s), 1.0)


_POLYLOG_CAP = 5_000_000


def polylog(s, z):
    """Li_s(z) = sum z^n / n^s for integer s >= 2 and |z| <= 1, to a tail
    bound of 1e-12."""
    if s < 2:
        raise ValueError("polylog implemented for integer s >= 2")
    z = complex(z)
    r = abs(z)
    if r > 1 + 1e-12:
        raise ValueError("polylog needs |z| <= 1")
    if z == 0:
        return 0j
    if abs(z - 1.0) < 1e-14:
        return complex(zeta(s))
    if r < 1.0 - 1e-9:
        # geometric tail bound
        n = 64
        while r ** n / ((1 - r) * n ** s) > 1e-12 and n < _POLYLOG_CAP:
            n *= 2
    else:
        # Dirichlet-test tail bound ~ 4 / (|1-z| N^s) on the unit circle
        n = max(64, int((4.0 / (1e-12 * abs(1.0 - z))) ** (1.0 / s)) + 1)
    if n > _POLYLOG_CAP:
        raise NonConvergence(f"polylog needs {n} terms, above the cap {_POLYLOG_CAP}")
    import numpy as np

    idx = np.arange(1, n + 1)
    powers = np.cumprod(np.full(n, z, dtype=complex))
    return complex(np.sum(powers / idx.astype(float) ** s))


# ---------------------------------------------------------------------------
# The length-one symbol of a level-one modular form

# The default ceiling of fourier_cutoff: Delta's first 20,000 coefficients
# take about a second to build.
_FOURIER_CAP = 20000


def _fourier_root(exponent, height, level):
    """(peak, root) for the terms t(n) = n^E exp(-2 pi n height), E =
    exponent: the peak max(1, E / (2 pi height)) of t, and past it the root
    of n = (E log n + level) / (2 pi height), where t falls to exp(-level),
    reached by iterating from the peak."""
    y = TWO_PI * height
    peak = max(1.0, exponent / y)
    n = peak
    for _ in range(64):
        n = max(peak, (exponent * math.log(n) + level) / y)
    return peak, n


def fourier_cutoff(form, height, tol, cap=_FOURIER_CAP):
    """Smallest n with the remaining Fourier tail below tol; NonConvergence
    when n is above cap.

    The tail past n is bounded by t(n) = 2 (n+1)^E x^(n+1) / (1 - x), with
    x = exp(-2 pi height) and the coefficients growing like n^E.  t falls
    monotonically once n + 1 passes its peak E / (2 pi height), so n is
    solved from the height: ``_fourier_root`` at level -log(tol (1-x)/2),
    as ``eichler._cutoff`` solves it, then a step to the smallest integer n
    past the peak with t(n) < tol.
    """
    decay = math.exp(-TWO_PI * height)
    # |sigma_{2k-1}(n)| <= zeta(2k-1) n^(2k-1); |tau(n)| <= d(n) n^(11/2) <= n^(13/2)
    bound_exp = 6.5 if form.is_cusp else form.weight - 1

    def tail(n):
        return 2.0 * (n + 1) ** bound_exp * decay ** (n + 1) / (1.0 - decay)

    peak, m = _fourier_root(bound_exp, height, math.log(2.0 / (1.0 - decay) / tol))
    lo = max(1, math.floor(peak))
    n = max(lo, math.ceil(m) - 2)
    while n > lo and tail(n - 1) < tol:
        n -= 1
    while tail(n) >= tol:
        n += 1
    if n > cap:
        raise NonConvergence(f"Fourier cutoff n = {n} above the cap {cap} at height {height:.4g}")
    return n


def dedekind_symbol_length1(form, p, q, height=None, cap=_FOURIER_CAP):
    """Regularized period integral of a level-one form against (p tau - q)^(w).

    Three pieces: the cuspidal integral up from tau0 = q/p + i*height, the
    cusp-side integral computed through the modular substitution that maps
    q/p to i-infinity, and the closed-form boundary terms of the constant
    coefficient.  The value does not depend on the choice of tau0; the
    default height 1/|p| makes the Fourier heights of the two integral
    pieces equal.  The Fourier tails are cut below 1e-15.
    """
    if form.level != 1:
        raise ValueError("length-one symbol implemented for level-one forms")
    p, q = coprime(p, q, almost=True)
    w = form.weight - 2
    a0 = complex(form.coeff(0))
    if height is None:
        height = 1.0 / abs(p)
    tau0 = q / p + 1j * height

    # piece 1: int_{tau0}^{i inf} (f - a0)(p tau - q)^w dtau, termwise
    base = p * tau0 - q
    pre = [comb(w, j) * base ** (w - j) * (1j * p) ** j * factorial(j) for j in range(w + 1)]
    m1 = fourier_cutoff(form, height, 1e-15, cap)
    s1 = 0j
    for n in range(1, m1 + 1):
        an = float(form.coeff(n))
        if an:
            c = TWO_PI * n
            s1 += an * cmath.exp(2j * math.pi * n * tau0) * sum(pre[j] / c ** (j + 1) for j in range(w + 1))
    s1 *= 1j

    # piece 2: int_{q/p}^{tau0} (f - a0 (p tau - q)^(-w-2))(p tau - q)^w dtau,
    # pulled through gamma(inf) = q/p where the integrand becomes f(sigma) - a0
    r, s = unimodular(p, q)
    sigma0 = (s * tau0 - r) / (q - p * tau0)
    m2 = fourier_cutoff(form, sigma0.imag, 1e-15, cap)
    s2 = 0j
    for n in range(1, m2 + 1):
        an = float(form.coeff(n))
        if an:
            s2 += an * cmath.exp(2j * math.pi * n * sigma0) / (2j * math.pi * n)

    # piece 3: boundary terms of the constant coefficient
    s3 = -a0 * (base ** (w + 1) / ((w + 1) * p) + 1.0 / (p * base))
    return s1 + s2 + s3


def psi_length1(form, p, q):
    """Associated scalar reciprocity function D(p,q) - D(-q,p) of the length-one symbol."""
    return dedekind_symbol_length1(form, p, q) - dedekind_symbol_length1(form, -q, p)


# ---------------------------------------------------------------------------
# The Eisenstein reciprocity law

ReciprocityCheck = namedtuple("ReciprocityCheck", "lhs rhs diff")


def reciprocity_law_check(k2, p):
    """Both sides of the weight-2k Eisenstein reciprocity law at q = 1.

    The left side is the twisted polylogarithm sum at the p-th root of
    unity; the right side is the Bernoulli/zeta closed form.  The two are
    computed by independent code paths and the discrepancy is returned.
    """
    _check_weight(k2)
    if p < 2:
        raise ValueError("p must be >= 2")
    xi = cmath.exp(2j * math.pi / p)
    lhs = sum(n * polylog(k2 - 1, xi ** n) for n in range(1, p))

    bsum = Fraction(0)
    for n in range(-1, k2, 2):
        bsum += bernoulli(n + 1) * bernoulli(k2 - n - 1) / (factorial(n + 1) * factorial(k2 - n - 1)) * Fraction(p) ** (1 - n)
    two_pi_i = (2j * math.pi) ** (k2 - 1)
    rhs = (-two_pi_i / 2 * complex(bsum)
           - two_pi_i * float(bernoulli(k2)) / (2 * k2 * factorial(k2 - 2)) * float(p) ** (2 - k2)
           + zeta(k2 - 1) / 2 * (float(p) ** (3 - k2) - p))
    return ReciprocityCheck(lhs, rhs, abs(lhs - rhs))


# ---------------------------------------------------------------------------
# L-values and the Gamma_0(2) closed forms

def eisenstein_L(k2, s, level=1):
    """L(E_{2k,level}, s) = sum sigma_{2k-1}(n) / (level*n)^s, by continuation.

    Factorizes as zeta(s) zeta(s - 2k + 1); the value at s = 1 is the finite
    limit zeta'(2 - 2k), and s = 2k (the actual pole) is rejected.
    """
    if level not in (1, 2):
        raise ValueError("level must be 1 or 2")
    if s == k2:
        raise DomainError(f"L(E_{k2}, s) has a pole at s = {k2}")
    if s == 1:
        # lim_{s->1} zeta(s) zeta(s-2k+1) = zeta'(2-2k)
        k = k2 // 2
        val = (-1) ** (k - 1) * factorial(k2 - 2) * zeta(k2 - 1) / (2 * TWO_PI ** (k2 - 2))
    else:
        val = zeta(s) * zeta(s - k2 + 1)
    return val * (2.0 ** (-s) if level == 2 else 1.0)


def gamma02_delta(k2, p, q):
    """The parity-split constant: 2^(2k-1) zeta(2k-1)/p^(2k-2) for even p, zeta(2k-1)/p^(2k-2) for odd p."""
    _check_weight(k2)
    p, q = coprime(p, q, almost=True)
    p = abs(p)
    z = zeta(k2 - 1)
    if p % 2 == 0:
        return 2 ** (k2 - 1) * z / p ** (k2 - 2)
    return z / p ** (k2 - 2)


def gamma02_D(k2, p, q):
    """Closed form for the identity-coset symbol of the second Gamma_0(2) Eisenstein series.

    The residue sum in the derivation requires a positive modulus, so a
    negative p is folded through the (p, q) -> (-p, -q) symmetry of the
    underlying integral.
    """
    _check_weight(k2)
    p, q = coprime(p, q, almost=True)
    if p < 0:
        p, q = -p, -q
    s = k2 - 1
    bracket = complex(zeta(s)) - 0.5 * gamma02_delta(k2, p, q)
    for l in range(1, p):
        z = cmath.exp(4j * math.pi * l * q / p)
        bracket += (l / p) * polylog(s, z)
    return p ** (k2 - 2) * factorial(k2 - 2) / (4j * math.pi) ** s * bracket


def gamma02_F(k2, p, q):
    """Closed form for the identity-coset reciprocity function of the same form."""
    _check_weight(k2)
    p, q = coprime(p, q, almost=True)
    tot = 0j
    for r in range(k2 - 1):
        tot += (1j ** (1 - r) * comb(k2 - 2, r) * 2.0 ** (-r - 1)
                * eisenstein_L(k2, r + 1) * float(p) ** r * float(q) ** (k2 - 2 - r))
    bk = float(bernoulli(k2))
    tot -= bk / (2 * k2 * (k2 - 1)) * (q ** (k2 - 1) / p + p ** (k2 - 1) / q)
    tot -= bk / (2 * k2) / (p * q)
    return tot


# ---------------------------------------------------------------------------
# Laurent polynomials in (p, q) and least-squares structure fits

class LaurentPoly:
    """sum c_{ij} p^i q^j with integer exponents of either sign."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for (i, j), c in (coeffs or {}).items():
            c = complex(c)
            if c != 0:
                clean[(int(i), int(j))] = c
        self.coeffs = clean

    def evaluate(self, p, q):
        return sum(c * complex(p) ** i * complex(q) ** j for (i, j), c in self.coeffs.items())

    def homogeneous_degrees(self):
        return sorted({i + j for i, j in self.coeffs})

    def prune(self, tol):
        return LaurentPoly({k: c for k, c in self.coeffs.items() if abs(c) > tol})

    def __repr__(self):
        if not self.coeffs:
            return "LaurentPoly(0)"
        parts = [f"({c:.6g})*p^{i}*q^{j}" for (i, j), c in sorted(self.coeffs.items())]
        return "LaurentPoly(" + " + ".join(parts) + ")"


def laurent_fit(samples, box):
    """Least-squares fit of ((p,q), value) samples over a box of monomials p^i q^j.

    box is ((imin, imax), (jmin, jmax)).  Returns (LaurentPoly, residual)
    where the residual is the largest absolute deviation at the samples.
    Rank deficiency (a singular value below 1e-10 of the largest) raises,
    naming the unresolvable monomials.
    """
    import numpy as np

    (imin, imax), (jmin, jmax) = box
    monomials = [(i, j) for i in range(imin, imax + 1) for j in range(jmin, jmax + 1)]
    if len(samples) < len(monomials):
        raise ValueError(f"need at least {len(monomials)} samples, got {len(samples)}")
    A = np.array([[float(p) ** i * float(q) ** j for (i, j) in monomials] for (p, q), _ in samples],
                 dtype=complex)
    y = np.array([complex(v) for _, v in samples])
    scale = np.max(np.abs(A), axis=0)
    if np.any(scale == 0):
        dead = [monomials[k] for k in np.nonzero(scale == 0)[0]]
        raise ValueError(f"monomials vanish on all samples: {dead}")
    As = A / scale
    u_, sv, vt = np.linalg.svd(As, full_matrices=False)
    if sv[-1] < 1e-10 * sv[0]:
        null = np.abs(vt[-1])
        dead = [monomials[k] for k in np.argsort(null)[::-1][:3]]
        raise ValueError(f"rank-deficient design matrix; entangled monomials near {dead}")
    coef, *_ = np.linalg.lstsq(As, y, rcond=None)
    coef = coef / scale
    fit = LaurentPoly({m: c for m, c in zip(monomials, coef)})
    residual = max(abs(fit.evaluate(p, q) - complex(v)) for (p, q), v in samples)
    return fit, residual
