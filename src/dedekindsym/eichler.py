"""Regularized iterated Eichler integrals of level-one modular forms.

The series-valued connection form is

    Omega_h(tau) = sum_B B h(B) (X - Y tau)^w(B) dtau,

and I(a, b) denotes its Chen series along a path from a to b, so that
I(a,b) I(b,c) = I(a,c) and d/dtau I(tau, s) = -Omega(tau) I(tau, s).
Endpoints at cusps are regularized through tangential base points: the
value at the cusp i-infinity with direction datum s is

    I(tau, s at inf) = lim_{eps -> i inf} I(tau, eps) I_inf(eps, s),

where I_inf uses the constant Fourier terms only.  The cusp limit
RI(tau, i inf) = lim_{eps -> i inf} I(tau, eps) I_inf(eps, tau) needs no
quadrature.  G(s) = I(tau, tau + s) solves G' = G Omega(tau + s), and each
coefficient of Omega(tau + s) is a polynomial in s times e^(2 pi i n s),
so word by word G is an exponential polynomial sum_n P_n(s) e^(2 pi i n s).
Its words follow from the shorter ones by closed-form primitives: s^j
integrates to s^(j+1)/(j+1) at n = 0, and s^j e^(cs), c = 2 pi i n, to
e^(cs) sum_m (-1)^m j!/(j-m)! s^(j-m)/c^(m+1) at n >= 1, which vanishes at
i inf; G(0) = 1 fixes the constant of P_0.  The terms n >= 1 vanish at
i inf, so P_0(s) I_inf(tau + s, tau) is a polynomial in s with a finite
limit, hence a constant: RI(tau, i inf) is P_0(0).  The sum stops at an
index N fixed a priori from the forms, the word lengths and Im tau
(``_cutoff``).  build_D and build_F need no other path:
F(p, q) is two ends of the cusp limit at i, and D is fixed by F through
the continued fraction of q/p (the recursion in build_D), from D(1, 1),
two more such ends.  full_integral reaches a finite cusp a/c through the
unimodular change of chart gamma(inf) = a/c, which acts on the numeric
evaluation point (X, Y) linearly.  Its anchor a/c + i/|c| and the anchor
pulled back by gamma both sit at height 1/|c|, so each of its two pieces
is one regularized end at i inf.  So is each factor of i_numeric: I(a, b)
= I(a, ->s at inf) I(b, ->s at inf)^-1, as the factors I_inf cancel.

Every Chen series here runs along a fixed path, and its coefficient of
word B is a homogeneous polynomial of degree w(B) in (X, Y).  So each path
is computed once, for all points at once, on a monomial axis: entry k of
word B, k <= w(B), is the coefficient of (X - c Y)^(w(B)-k) Y^k.
The center c is the start tau of the cusp path; with c = 0 the monomial
sums of the weight-20 words of E4/Delta cancel to three digits at points
such as (5, 3).  The connection form expands (X - Y z)^w as
sum_k C(w, k) (X - c Y)^(w-k) Y^k (c - z)^k.  The cusp limit carries two
more axes while it is built, the Fourier index n and the power of s: a
product with Omega(tau + s) is a convolution along n and a shift of k and
the power of s together.

Three bounded ``functools.lru_cache`` memos hold what build_D and build_F
read: ``_cusp_series`` the cusp limit RI(tau, i inf) per (assignment,
tau, config), ``_end`` each regularized end, keyed by its direction as
the lowest-terms integer pair (num, den), den > 0, and its point up to
sign, and ``_d_reduced`` D at each reduced pair of its recursion.  Every
build_D and build_F reads only the cusp limit at i, so a sweep over many
pairs builds one series.  They call ``_end`` with integer pairs, each of
F's ends at its direction's own pair, so no Fraction is built there;
reg_to_cusp reads a point from outside into the same keys.  A miss runs
the operations that it would run without the memo, so no output depends
on what was evaluated before.  ``clear_caches()`` empties the three memos
and ``cache_info()`` reports their sizes, hits and misses.

I_inf needs no quadrature either.  Its antiderivative recursion runs once
per (assignment, truncation) on a monomial axis, into a polynomial array
that no point, direction or center enters, in the monomials
(X - s Y)^(w-k) (X - tau Y)^k (tau - s)^n of the values of X - Y z at the
two ends.  numpy only builds the arrays.  Each is stored as a flat tuple
and read at a point by a straight-line kernel compiled per word table
(``_read_kernel``), in plain Python arithmetic.  Where build_F
regularizes, X - s Y = 0, and the kernel reads each word of I_inf as one
monomial.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, factorial, log, pi

from .contfrac import coprime, euclid_walk, reduced, unimodular
from .errors import DomainError, NonConvergence
# form_value has no caller here: bench/tracing.py wraps eichler.form_value to count calls
from .modforms import _fourier_root, form_value
from .series import COMPLEX, Alphabet, TruncSeries, _split_table

INF = float("inf")

# ---------------------------------------------------------------------------
# Assignments of modular forms to words

class HAssignment:
    """Map from nonempty words to level-one modular forms.

    The form attached to a word B must have weight w(B) + 2.  Assigning
    forms only to single letters gives the usual case; longer words are
    allowed and simply contribute extra terms to the connection form.
    The forms are fixed at construction, and so are their constant Fourier
    terms, read once here for I_inf and ``build_E``: ``constants`` maps
    each word whose form has a_0 != 0 to a_0 as a complex, and
    ``letter_constants`` holds a_0 per letter (0j for a letter without a
    form), or is None when a longer word has a_0 != 0.
    """

    def __init__(self, alphabet, forms):
        self.alphabet = alphabet
        self.forms = {}
        for word, form in forms.items():
            w = alphabet.word(word)
            if not w:
                raise ValueError("cannot assign a form to the empty word")
            if form.level != 1:
                raise ValueError("iterated integrals are implemented for level-one forms")
            need = alphabet.word_weight(w) + 2
            if form.weight != need:
                raise ValueError(f"word {alphabet.word_name(w)!r} needs weight {need}, got {form.weight}")
            self.forms[w] = form
        self.constants = {w: complex(f.coeff(0)) for w, f in self.forms.items() if f.coeff(0)}
        self.letter_constants = (None if any(len(w) > 1 for w in self.constants) else
                                 tuple(self.constants.get((i,), 0j) for i in range(len(alphabet))))

    @classmethod
    def letters(cls, assignments):
        """Build alphabet and assignment from {letter_name: form}; letter
        weights are inferred as form weight - 2."""
        alphabet = Alphabet((name, form.weight - 2) for name, form in assignments.items())
        return cls(alphabet, {name: form for name, form in assignments.items()})


class TangentialBasePoint(namedtuple("TangentialBasePoint", "base direction")):
    """Tangential base point written ->base_direction: the point sits at the
    cusp ``direction`` (the subscript) and ``base`` is the rational datum
    fixing the regularization branch."""

    __slots__ = ()

    def __new__(cls, base, direction):
        for v in (base, direction):
            if v != INF and not isinstance(v, (int, Fraction)):
                raise ValueError("tangential data must be rational or infinity")
        if base == direction:
            raise ValueError("base and direction must differ")
        return super().__new__(cls, base, direction)


# The truncation length; a tuple, so that memo keys hash it in C.
IntegratorConfig = namedtuple("IntegratorConfig", "trunc", defaults=(2,))


# ---------------------------------------------------------------------------
# Series with polynomial coefficients on the monomial axis

@lru_cache(maxsize=32)
def _read_kernel(alphabet, trunc, degree, zeros=frozenset()):
    """The straight-line kernel ``read(c, x, z, t)`` that reads a stored
    series at a point.  c is the flat tuple of a (words, K, degree + 1)
    array over the word table of ``series`` (no last axis at degree 0),
    K = 1 + the largest word weight, and word B of the result is
    sum_{k <= w(B)} x^(w(B)-k) z^k sum_n c[B, k, n] t^n, n = 1..min(|B|, degree)
    for a nonempty word at degree > 0 (each step of I_inf's recursion adds
    a power of t and a letter).  At x = 0 word B reads its top monomial,
    (sum_n c[B, w(B), n] t^n) z^w(B); elsewhere each power of t multiplies
    one sum over k, of the entries not at the flat indices ``zeros`` times
    monomials x^a z^k shared by the words of one weight.  Powers are repeated
    products: (-x, -z) gives the bytes of (x, z), as every w(B) is even."""
    words = _split_table(alphabet, trunc).words
    K = 1 + trunc * max(alphabet.weights)

    def mono(a, k):
        return f" * m{a}_{k}" if a and k else f" * x{a}" if a else f" * z{k}" if k else ""

    tops, sums, monos = [], [], set()
    for i, word in enumerate(words):
        w = alphabet.word_weight(word)
        ns = range(1 if degree and word else 0, min(degree, len(word)) + 1)
        at = {(k, n): (i * K + k) * (degree + 1) + n for k in range(w + 1) for n in ns}
        tn = {n: f" * t{n}" if n else "" for n in ns}
        live = {n: [k for k in range(w + 1) if at[k, n] not in zeros] for n in ns}
        monos.update((w - k, k) for n in ns for k in live[n] if k < w)
        tops.append(f"({' + '.join(f'c[{at[w, n]}]{tn[n]}' for n in ns)}){mono(0, w)}")
        sums.append(" + ".join(f"({' + '.join(f'c[{at[k, n]}]{mono(w - k, k)}' for k in live[n])}){tn[n]}"
                               for n in ns if live[n]) or "0j")
    lines = ["def read(c, x, z, t):", "    x1, z1, t1 = x, z, t"]
    lines += [f"    z{n} = z{n - 1} * z" for n in range(2, K)]
    lines += [f"    t{n} = t{n - 1} * t" for n in range(2, min(degree, trunc) + 1)]
    lines += ["    if not x:", f"        return ({''.join(e + ', ' for e in tops)})"]
    lines += [f"    x{n} = x{n - 1} * x" for n in range(2, max((a for a, _ in monos), default=0) + 1)]
    lines += [f"    m{a}_{k} = x{a} * z{k}" for a, k in sorted(monos) if k]
    lines += [f"    return ({''.join(e + ', ' for e in sums)})"]
    kernel = {}
    exec("\n".join(lines), kernel)
    return kernel["read"]


def _at_point(h, coef, xy, trunc, center):
    """The flat (words, K) series ``coef`` centered at c, at the numeric
    point xy = (X, Y): word B reads sum_k coef[B, k] (X - c Y)^(w(B)-k) Y^k,
    by ``_read_kernel`` at x = X - c Y and z = Y."""
    Y = complex(xy[1])
    vec = _read_kernel(h.alphabet, trunc, 0)(coef, complex(xy[0]) - center * Y, Y, 0)
    return TruncSeries._from_vec(h.alphabet, trunc, vec)


@lru_cache(maxsize=32)
def _i_inf_paths(h, trunc):
    """I_inf(tau, s) for any two points as a polynomial array, stored as its
    flat tuple with the ``_read_kernel`` that reads it and skips its zeros.

    The array is (words, K, trunc + 1): entry [B, k, n] is the
    coefficient of m_k t^n, where t = tau - s and
    m_k = (X - s Y)^(w(B)-k) (X - tau Y)^k is built from the values of
    X - Y z at the two ends.  J(t) = I_inf(s + t, s) solves J' = -Omega_inf J,
    whose word B, a_0(h(B)) (X - tau Y)^w(B), shifts k; and as
    Y t = (X - s Y) - (X - tau Y), d/dt (m_k t^N) = t^(N-1) ((k + N) m_k - k m_(k-1)).
    So the coefficients of t^N follow by back substitution from the top
    monomial, with positive weights.  For letter-only assignments the
    entries of one word and one n therefore share their sign, and neither
    building nor evaluating them cancels."""
    import numpy as np   # in each function that builds arrays: the exact path never loads it

    index = _split_table(h.alphabet, trunc).index
    weight = h.alphabet.word_weight
    reverse = np.zeros((len(index), 1 + trunc * max(h.alphabet.weights), trunc + 1), dtype=complex)
    reverse[0, 0, 0] = 1.0
    for word in h.alphabet.iter_words(trunc, min_len=1):
        rhs = np.zeros(reverse.shape[1:], dtype=complex)       # -(Omega_inf J) of the word
        for k in range(1, len(word) + 1):
            if word[:k] in h.constants:
                shift = weight(word[:k])
                rhs[shift:] -= h.constants[word[:k]] * reverse[index[word[k:]], :rhs.shape[0] - shift]
        row = reverse[index[word]]
        for n in range(trunc):
            above = 0j
            for k in range(weight(word), -1, -1):
                above = row[k, n + 1] = (rhs[k, n] + (k + 1) * above) / (k + n + 1)
    flat = reverse.ravel()
    return tuple(flat.tolist()), _read_kernel(h.alphabet, trunc, trunc, frozenset(np.flatnonzero(flat == 0).tolist()))


def _i_inf_at(h, tau, s, xy, trunc):
    """I_inf(tau, s) at the numeric point xy: ``_i_inf_paths`` read by its
    kernel at x = X - s Y, z = X - tau Y and t = tau - s (x = 0 where
    build_F regularizes)."""
    X, Y = complex(xy[0]), complex(xy[1])
    flat, read = _i_inf_paths(h, trunc)
    return TruncSeries._from_vec(h.alphabet, trunc, read(flat, X - s * Y, X - tau * Y, tau - s))


# ---------------------------------------------------------------------------
# The cusp limit as a finite Fourier sum

_CUTOFF_CAP = 2500
# The bound on every Fourier term past the cutoff
_FOURIER_TOL = 1e-16


def _growth(h, trunc):
    """The exponent E with which the Fourier coefficients of the words grow,
    like n^E at index n: the largest, over the words and their
    factorizations into assigned words, of the sum of k - 1 per Eisenstein
    series and (k + 1)/2 per cusp form of weight k, plus |word| - 1 for the
    ways to split n among the factors."""
    best = {(): 0.0}
    for word in h.alphabet.iter_words(trunc, min_len=1):
        for k in range(1, len(word) + 1):
            form = h.forms.get(word[-k:])
            if form is not None and word[:-k] in best:
                e = best[word[:-k]] + ((form.weight + 1) / 2 if form.is_cusp else form.weight - 1)
                best[word] = max(best.get(word, e), e)
    return max((e + len(w) - 1 for w, e in best.items() if w), default=0.0)


def _cutoff(h, tau, cfg):
    """The Fourier cutoff N at tau, fixed a priori: every term past N, at
    most n^E exp(-2 pi n Im tau) with E from ``_growth``, is below
    ``_FOURIER_TOL``.  N is the root of n = (E log n - log tol) /
    (2 pi Im tau) past the terms' peak (``modforms._fourier_root``)."""
    y = tau.imag
    n = ceil(_fourier_root(_growth(h, cfg.trunc), y, -log(_FOURIER_TOL))[1])
    if n > _CUTOFF_CAP:
        raise NonConvergence(f"the cusp limit at Im tau = {y:.3g} needs N = {n} Fourier terms, "
                             f"more than {_CUTOFF_CAP}")
    return n


@lru_cache(maxsize=8)
def _primitive_factors(N, J):
    """The primitives of s^j e^(cs), c = 2 pi i n, that vanish at i inf, as
    two (N, J) arrays over n = 1..N: the primitive is e^(cs) sum_m (-1)^m
    j!/(j-m)! s^(j-m)/c^(m+1), and its coefficient of s^i e^(cs) factors as
    up[n, i] down[n, j], with up = (-c)^i/i! and down = (-1)^j j!/c^(j+1)."""
    import numpy as np

    n, j = np.arange(1, N + 1)[:, None], np.arange(J)
    fact = np.array([float(factorial(k)) for k in range(J)])
    size = (2 * pi * n) ** j                    # |c|^j; the powers of i come from tables, exact
    up = size * np.array([1, -1j, -1, 1j])[j % 4] / fact
    down = fact / (size * 2 * pi * n) * np.array([-1j, 1, 1j, -1])[j % 4]
    return up, down


@lru_cache(maxsize=256)
def _cusp_series(h, tau, cfg):
    """RI(tau, i inf) at the complex tau as the flat tuple of a (words, K)
    series centered at tau, memoized per (assignment, tau, config); one
    sweep pass holds one entry, the cusp limit at i.  Its entries are the
    constant terms P_w(0) of the exponential polynomial G(s) = I(tau,
    tau + s), built word by word from G' = G Omega(tau + s) (see the
    module docstring).  G_w is an array over the Fourier index n <= N, the
    power j <= w(w) + |w| of s and the monomial k <= w(w)."""
    import numpy as np

    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    N = _cutoff(h, tau, cfg)
    index = _split_table(h.alphabet, cfg.trunc).index
    K = 1 + cfg.trunc * max(h.alphabet.weights)
    up, down = _primitive_factors(N, K + cfg.trunc)
    qn = np.exp(2j * pi * tau * np.arange(N + 1))
    weight = h.alphabet.word_weight
    steps = {}
    for word, form in h.forms.items():
        if len(word) <= cfg.trunc:
            # Omega_B(tau + s) = sum_n a_n q^n e^(cs) sum_k C(w, k) (-s)^k m_k: a
            # convolution along n and a diagonal shift of (j, k)
            f = np.array([float(form.coeff(n)) for n in range(N + 1)]) * qn
            steps[word] = f, [(-1) ** k * comb(weight(word), k) for k in range(weight(word) + 1)]
    G = {(): np.zeros((N + 1, 1, 1), dtype=complex)}
    G[()][0, 0, 0] = 1.0
    out = np.zeros((len(index), K), dtype=complex)
    out[0, 0] = 1.0
    for word in h.alphabet.iter_words(cfg.trunc, min_len=1):
        wt = weight(word)
        rhs = np.zeros((N + 1, wt + len(word) + 1, wt + 1), dtype=complex)   # (G Omega)_w
        for k in range(1, len(word) + 1):
            if word[-k:] in steps:
                f, binom = steps[word[-k:]]
                prefix = G[word[:-k]]
                conv = np.zeros_like(prefix)
                for n in np.flatnonzero(f):
                    conv[n:] += f[n] * prefix[:N + 1 - n]
                pj, pk = prefix.shape[1:]
                for d, b in enumerate(binom):
                    rhs[:, d:d + pj, d:d + pk] += b * conv
        J = rhs.shape[1]
        g = np.zeros_like(rhs)
        g[0, 1:] = rhs[0, :-1] / np.arange(1, J)[:, None]       # s^j -> s^(j+1)/(j+1)
        # s^j e^(cs) -> sum_{i <= j} up_i down_j s^i e^(cs): a cumulative sum from the top
        g[1:] = up[:, :J, None] * np.cumsum((down[:, :J, None] * rhs[1:])[:, ::-1], axis=1)[:, ::-1]
        g[0, 0] = -g[1:, 0].sum(axis=0)                          # G_w(0) = 0
        out[index[word], :wt + 1] = g[0, 0]
        G[word] = g
    return tuple(out.ravel().tolist())


# ---------------------------------------------------------------------------
# Regularization at the cusp i-infinity

def reg_to_cusp(h, tau, direction, xy, cfg=IntegratorConfig()):
    """I(tau, ->direction_inf): regularized integral from tau in the upper
    half-plane to the tangential base point at i-infinity, at the numeric
    point xy.  The adapter for points from outside: the rational direction
    is read as its lowest-terms pair and the point up to sign (Y > 0, or
    Y = 0 < X) for ``_end``, so these ends share entries with F's."""
    direction = Fraction(direction)
    X, Y = complex(xy[0]), complex(xy[1])
    if (Y.real, Y.imag, X.real, X.imag) < (0, 0, 0, 0):
        X, Y = -X, -Y
    return _end(h, complex(tau), (direction.numerator, direction.denominator), (X, Y), cfg)


@lru_cache(maxsize=1024)
def _end(h, tau, direction, xy, cfg):
    """The regularized end RI(tau, i inf) I_inf(tau, num / den) at xy, each
    read from its stored series, memoized per (assignment, tau, (num, den),
    xy, config).  The direction is the lowest-terms integer pair (num, den),
    den > 0, and num / den its correctly rounded float, as float(Fraction)
    is.  xy is the point up to sign: every coefficient is even in (X, Y),
    so the two ends of F(p, q) are those of F(-q, p).  One sweep pass holds
    84 entries."""
    return (_at_point(h, _cusp_series(h, tau, cfg), xy, cfg.trunc, tau)
            * _i_inf_at(h, tau, direction[0] / direction[1], xy, cfg.trunc))


def i_numeric(h, tau0, tau1, xy, cfg=IntegratorConfig()):
    """Chen series I(tau0, tau1) at the numeric point xy, for any path in the
    upper half-plane: I(tau0, ->0 at inf) I(tau1, ->0 at inf)^-1, two
    regularized ends whose factors I_inf cancel."""
    tau0, tau1 = complex(tau0), complex(tau1)
    if tau0.imag <= 0 or tau1.imag <= 0:
        raise ValueError("endpoints must lie in the open upper half-plane")
    if tau0 == tau1:
        return TruncSeries.one(h.alphabet, cfg.trunc, COMPLEX)
    return reg_to_cusp(h, tau0, 0, xy, cfg) * reg_to_cusp(h, tau1, 0, xy, cfg).inverse()


# ---------------------------------------------------------------------------
# Charts at rational cusps

def _mat_inv(m):
    a, b, c, d = m
    return (d, -b, -c, a)


def _mat_apply_xy(m, xy):
    a, b, c, d = m
    X, Y = xy
    return (a * X + b * Y, c * X + d * Y)


def _mat_mobius(m, z):
    """m(z) for z rational (exact), infinite or complex (floating point)."""
    a, b, c, d = m
    if z == INF:
        return INF if c == 0 else Fraction(a, c)
    if isinstance(z, complex):
        return (a * z + b) / (c * z + d)
    z = Fraction(z)
    den = c * z + d
    if den == 0:
        return INF
    return (a * z + b) / den


def _piece_to_tangential(h, tau1, tb, xy, cfg):
    """I(tau1, tb) at the numeric point xy = (X, Y).  At a finite cusp a/c,
    with gamma = (a, r; c, s) unimodular, gamma(inf) = a/c, it is
    I(sigma, ->u_inf) at gamma^-1 xy, where sigma = gamma^-1 tau1 and
    u = gamma^-1 of the base."""
    if tb.direction == INF:
        return reg_to_cusp(h, tau1, tb.base, xy, cfg)
    loc = Fraction(tb.direction)
    r, s = unimodular(loc.denominator, loc.numerator)
    inv = _mat_inv((loc.numerator, r, loc.denominator, s))
    u = _mat_mobius(inv, tb.base)
    if u == INF:
        raise DomainError("tangential direction coincides with the cusp")
    v = _mat_apply_xy(inv, (complex(xy[0]), complex(xy[1])))
    return reg_to_cusp(h, _mat_mobius(inv, complex(tau1)), u, v, cfg)


def _anchor(cusp):
    """a/c + i/|c| for the finite cusp a/c, i for i-infinity: the chart at a/c
    pulls it back to height 1/|c|, its own height."""
    if cusp == INF:
        return 1j
    cusp = Fraction(cusp)
    return complex(cusp) + 1j / cusp.denominator


def full_integral(h, tb0, tb1, pair, cfg=IntegratorConfig(), tau1=None):
    """I(tb0, tb1) between two tangential base points, at (X, Y) = (q, p):
    I(tau1, tb0)^-1 I(tau1, tb1), each piece one regularized end at i inf,
    in the chart of its cusp.  The anchor tau1 defaults to ``_anchor`` of
    the cusp of tb1, or of tb0 where tb1 sits at i-infinity."""
    p, q = pair
    xy = (complex(q), complex(p))
    if tau1 is None:
        tau1 = _anchor(tb0.direction if tb1.direction == INF else tb1.direction)
    left = _piece_to_tangential(h, tau1, tb0, xy, cfg)
    right = _piece_to_tangential(h, tau1, tb1, xy, cfg)
    return left.inverse() * right


# ---------------------------------------------------------------------------
# The three constructors

def build_D(h, p, q, cfg=IntegratorConfig()):
    """The symbol series: I from ->(q/p) at i-infinity to ->inf at q/p, at (X,Y)=(q,p).

    D is fixed by its reciprocity function: at a reduced pair (p, q) other
    than (1, 1), D(p, q) = F(p, q) D(-q, p) E(p, q)^-1, and (-q, p) reduces
    to a pair with a smaller first entry, so the recursion ends at (1, 1)
    in O(log p) steps: the walk of ``contfrac.euclid_walk``, which
    ``bullet`` also takes.  There T^-1 and the chart S, which fixes i, give
    D(1, 1) = I(->0 at i inf, i) I(i, ->inf at 0): the end
    I(i, ->0 at i inf) read at (0, 1), inverted, times the same end read
    at (1, 0).

    D is memoized per reduced pair (``_d_reduced``) and read along the
    walk from (1, 1) up, so each pair finds D below it in the memo and no
    fill recurses deeper than one step, however long the walk.
    """
    for r in reversed(tuple(euclid_walk(*coprime(p, q, almost=True)))):
        d = _d_reduced(h, *r, cfg)
    return d


@lru_cache(maxsize=1024)
def _d_reduced(h, p, q, cfg):
    """D at the reduced pair (p, q), memoized per (assignment, p, q,
    config).  One sweep pass holds 29 entries."""
    below = None if (p, q) == (1, 1) else _d_reduced(h, *reduced(-q, p), cfg)
    return _recursion_step(h, p, q, below, cfg)


def _recursion_step(h, p, q, below, cfg):
    """D at the reduced pair (p, q) from D below it, D(-q, p)."""
    if (p, q) == (1, 1):
        return _end(h, 1j, (0, 1), (0, 1), cfg).inverse() * _end(h, 1j, (0, 1), (1, 0), cfg)
    return build_F(h, p, q, cfg) * below * build_E(h, -p, q, cfg.trunc)


def build_F(h, p, q, cfg=IntegratorConfig()):
    """The reciprocity series: I from ->(q/p) at i-infinity to ->(q/p) at 0.

    The cusp-zero chart is gamma = S, which fixes the anchor i; the
    numeric point pulls back to (p, -q).  Each end is ``_end`` at its
    direction, q/p or -p/q, as the coprime pair with the sign on the
    numerator, which is also its point (q, p) or (p, -q) up to sign.
    """
    p, q = coprime(p, q, almost=True)
    head = (q, p) if p > 0 else (-q, -p)
    tail = (-p, q) if q > 0 else (p, -q)
    return _end(h, 1j, head, head, cfg).inverse() * _end(h, 1j, tail, tail, cfg)


def build_E(h, p, q, trunc=2):
    """exp(sum_B B a_0(h(B)) / (p q)) over the assigned words B: the
    constant-term correction, from the a_0 read once when the assignment
    was built.  Every coefficient changes sign with p, so E(p, q)^-1 =
    E(-p, q).

    Where every a_0 != 0 sits on a letter, E is an exponential of letters,
    so its word A_i1 ... A_ik reads c_i1 ... c_ik / k!, c_i = a_0(h(A_i)) /
    (p q), with the product taken left to right and 1/k! as its nearest
    float: the bytes of ``exp``'s power sum, which longer words take.  A
    word with a letter whose a_0 is 0 reads 0 after the + 0j, whatever the
    signs of the zeros in its product.
    """
    p, q = coprime(p, q, almost=True)
    pq = p * q
    if h.letter_constants is None:
        return TruncSeries(h.alphabet, trunc, {w: a0 / pq for w, a0 in h.constants.items()}, COMPLEX).exp()
    c = [a0 / pq for a0 in h.letter_constants]
    level, vec = [1], [1.0 + 0j]
    for k in range(1, trunc + 1):
        level = [x * ci for x in level for ci in c]
        inv_fact = 1 / factorial(k)
        vec += [x * inv_fact + 0j for x in level]
    return TruncSeries._from_vec(h.alphabet, trunc, vec)


def symbol_fn(h, cfg=IntegratorConfig()):
    """Wrap build_D as a SymbolFn evaluator (memoized per pair)."""
    from .symbols import SymbolFn

    return SymbolFn(lambda p, q: build_D(h, p, q, cfg), h.alphabet, cfg.trunc, COMPLEX, almost=True)


def clear_caches():
    """Empty the cusp-limit, end and reduced-D memos and reset their
    counters."""
    for memo in (_cusp_series, _end, _d_reduced):
        memo.cache_clear()


def cache_info():
    """Deterministic counts, no timings, since the last ``clear_caches()``:
    the series held by the cusp-limit memo with its hits and misses, and
    the values held by the end and reduced-D memos with their hits and
    misses added up.  Every build_D reads each pair of its walk from the
    reduced-D memo, so a warm one counts one value hit per pair."""
    paths, ends, ds = _cusp_series.cache_info(), _end.cache_info(), _d_reduced.cache_info()
    return {"series": paths.currsize, "values": ends.currsize + ds.currsize,
            "hits": paths.hits, "misses": paths.misses,
            "value_hits": ends.hits + ds.hits, "value_misses": ends.misses + ds.misses}
