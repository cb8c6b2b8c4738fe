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
is computed once, for all points at once, on a monomial axis: a series
is a (words, K) complex array, K = 1 + the largest word weight in the
table, and entry k of word B is the coefficient of (X - c Y)^(w(B)-k) Y^k.
The center c is the start tau of the cusp path; with c = 0 the monomial
sums of the weight-20 words of E4/Delta cancel to three digits at points
such as (5, 3).  The connection form expands (X - Y z)^w as
sum_k C(w, k) (X - c Y)^(w-k) Y^k (c - z)^k.  A series at a point (X, Y)
is the sum of its entries times the monomials, whose powers are computed
once per point.  The cusp limit carries two more axes while it is built,
the Fourier index n and the power of s: a product with Omega(tau + s) is
a convolution along n and a shift of k and the power of s together.

One bounded memo holds the cusp limit RI(tau, i inf) per (assignment,
tau, config).  Every build_D and build_F reads only the cusp limit at i,
so a sweep over many pairs builds one series.
A second bounded memo holds series evaluated at a point:
each regularized end of reg_to_cusp, with points keyed up to sign, and
D at each reduced pair of its recursion.  A miss runs the operations
that it would run without the memo, so no output depends on what was
evaluated before.  ``clear_caches()`` empties both memos and
``cache_info()`` reports their sizes, hits and misses.

I_inf needs no quadrature either.  Its antiderivative recursion runs once
per (assignment, truncation) on a monomial axis, and the result is stored
as a polynomial array that no point, direction or center enters.
reg_to_cusp reads I_inf(tau, s) from it, in the monomials
(X - s Y)^(w-k) (X - tau Y)^k (tau - s)^n of the values of X - Y z at the
two ends.  Where build_D and build_F regularize, X - s Y = 0 (each word of
I_inf is then one monomial) or Y = 0 (both end values are X).
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, factorial, gcd, log, pi

from .errors import DomainError, NonConvergence
# form_value has no caller here: bench/tracing.py wraps eichler.form_value to count calls
from .modforms import _fourier_root, _solve_unimodular, form_value
from .series import COMPLEX, Alphabet, TruncSeries, _remember, _split_table

INF = float("inf")

# ---------------------------------------------------------------------------
# Assignments of modular forms to words

class HAssignment:
    """Map from nonempty words to level-one modular forms.

    The form attached to a word B must have weight w(B) + 2.  Assigning
    forms only to single letters gives the usual case; longer words are
    allowed and simply contribute extra terms to the connection form.
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

    @classmethod
    def letters(cls, assignments):
        """Build alphabet and assignment from {letter_name: form}; letter
        weights are inferred as form weight - 2."""
        alphabet = Alphabet((name, form.weight - 2) for name, form in assignments.items())
        return cls(alphabet, {name: form for name, form in assignments.items()})

    def constant_terms(self):
        return {w: complex(f.coeff(0)) for w, f in self.forms.items()}


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

_MonoTable = namedtuple("_MonoTable", "index exps xpow mask")


@lru_cache(maxsize=32)
def _mono_table(alphabet, trunc):
    """The word table of ``series`` for arrays with a monomial axis.

    ``exps[B, k]`` is the exponent
    w(B) - k of X in the monomial k of word B, negative where word B has no
    such monomial; its K = 1 + (largest word weight) columns are the
    monomial axis.  ``mask`` marks the monomials that exist, and ``xpow``
    is ``exps`` clipped at 0, the index of the power of X to gather."""
    import numpy as np   # in each function that builds arrays: the exact path never loads it

    tab = _split_table(alphabet, trunc)
    weights = np.array([alphabet.word_weight(w) for w in tab.words])
    exps = weights[:, None] - np.arange(weights.max() + 1)
    return _MonoTable(tab.index, exps, np.maximum(exps, 0), exps >= 0)


def _at_point(h, coef, xy, trunc, center):
    """The (words, K) series ``coef`` centered at c, at the numeric point
    xy = (X, Y): word B reads sum_k coef[B, k] (X - c Y)^(w(B)-k) Y^k.  The
    powers are repeated products, so (-X, -Y) gives the same bytes (every
    w(B) is even)."""
    import numpy as np

    mt = _mono_table(h.alphabet, trunc)
    Y = complex(xy[1])
    X = complex(xy[0]) - center * Y
    px, py = [1 + 0j], [1 + 0j]
    for _ in range(mt.exps.shape[1] - 1):
        px.append(px[-1] * X)
        py.append(py[-1] * Y)
    mono = np.where(mt.mask, np.array(px)[mt.xpow] * np.array(py), 0)
    return TruncSeries._from_vec(h.alphabet, trunc, (coef * mono).sum(axis=1).tolist())


@lru_cache(maxsize=32)
def _i_inf_paths(h, trunc):
    """I_inf(tau, s) for any two points as a polynomial array.

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
    import numpy as np

    mt = _mono_table(h.alphabet, trunc)
    weight = h.alphabet.word_weight
    a0 = {w: c for w, c in h.constant_terms().items() if len(w) <= trunc and c != 0}
    reverse = np.zeros((*mt.exps.shape, trunc + 1), dtype=complex)
    reverse[0, 0, 0] = 1.0
    for word in h.alphabet.iter_words(trunc, min_len=1):
        rhs = np.zeros(reverse.shape[1:], dtype=complex)       # -(Omega_inf J) of the word
        for k in range(1, len(word) + 1):
            if word[:k] in a0:
                shift = weight(word[:k])
                rhs[shift:] -= a0[word[:k]] * reverse[mt.index[word[k:]], :rhs.shape[0] - shift]
        row = reverse[mt.index[word]]
        for n in range(trunc):
            above = 0j
            for k in range(weight(word), -1, -1):
                above = row[k, n + 1] = (rhs[k, n] + (k + 1) * above) / (k + n + 1)
    reverse.flags.writeable = False
    return reverse


def _i_inf_at(h, tau, s, xy, trunc):
    """I_inf(tau, s) at the numeric point xy from the stored array R of
    ``_i_inf_paths``: word B reads sum_{k,n} R[B, k, n] (X - s Y)^(w-k)
    (X - tau Y)^k (tau - s)^n.  Where X - s Y = 0 each word reads one
    monomial."""
    reverse = _i_inf_paths(h, trunc)
    X, Y = complex(xy[0]), complex(xy[1])
    t = tau - s
    powers = [1 + 0j]
    for _ in range(trunc):
        powers.append(powers[-1] * t)
    return _at_point(h, reverse @ powers, (X - s * Y, X - tau * Y), trunc, 0)


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


def _cusp_series(h, tau, cfg):
    """RI(tau, i inf) as a (words, K) series centered at tau: the constant
    terms P_w(0) of the exponential polynomial G(s) = I(tau, tau + s),
    built word by word from G' = G Omega(tau + s) (see the module
    docstring).  G_w is an array over the Fourier index n <= N, the power
    j <= w(w) + |w| of s and the monomial k <= w(w)."""
    import numpy as np

    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    N = _cutoff(h, tau, cfg)
    mt = _mono_table(h.alphabet, cfg.trunc)
    up, down = _primitive_factors(N, mt.exps.shape[1] + cfg.trunc)
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
    out = np.zeros(mt.exps.shape, dtype=complex)
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
        out[mt.index[word], :wt + 1] = g[0, 0]
        G[word] = g
    return out


# One bounded memo of cusp limits RI(tau, i inf), keyed by (assignment,
# tau, config).  One sweep pass fills one entry, the cusp limit at i.
_PATHS_CAP = 256
_PATHS = {}
# One bounded memo of series evaluated at a point (TruncSeries): a
# regularized end of reg_to_cusp under (assignment, tau, direction, point,
# config), with the point keyed up to sign, and D at a reduced pair of
# build_D's recursion under (assignment, (p, q), config).  One sweep pass
# fills 113 entries: 84 ends and 29 values of D.
_VALUES_CAP = 1024
_VALUES = {}
_COUNTS = {"hits": 0, "misses": 0, "value_hits": 0, "value_misses": 0}


def _value(key, compute):
    """The evaluated series memoized under key; ``compute()`` on a miss."""
    got = _VALUES.get(key)
    if got is None:
        _COUNTS["value_misses"] += 1
        got = compute()
        _remember(_VALUES, _VALUES_CAP, key, got)
    else:
        _COUNTS["value_hits"] += 1
    return got


def _unsigned(xy):
    """The point xy = (X, Y) up to sign, as a memo key: every coefficient is
    even in (X, Y), and a series read at (-X, -Y) has the bytes it has at
    (X, Y)."""
    X, Y = complex(xy[0]), complex(xy[1])
    return (-X, -Y) if (Y.real, Y.imag, X.real, X.imag) < (0, 0, 0, 0) else (X, Y)


# ---------------------------------------------------------------------------
# Regularization at the cusp i-infinity

def _ri_limit(h, tau, cfg):
    """RI(tau, i inf) as a (words, K) series centered at tau; memoized per
    (assignment, tau, config)."""
    tau = complex(tau)
    key = (h, tau, cfg)
    got = _PATHS.get(key)
    if got is not None:
        _COUNTS["hits"] += 1
        return got
    _COUNTS["misses"] += 1
    got = _cusp_series(h, tau, cfg)
    got.flags.writeable = False
    _remember(_PATHS, _PATHS_CAP, key, got)
    return got


def reg_to_cusp(h, tau, direction, xy, cfg=IntegratorConfig()):
    """I(tau, ->direction_inf): regularized integral from tau in the upper
    half-plane to the tangential base point at i-infinity, at the numeric
    point xy: RI(tau, i inf) I_inf(tau, direction), both read at xy from
    stored polynomial arrays (the cusp limit centered at tau, I_inf in the
    values of X - Y z at tau and at the direction).  The product is
    memoized per (assignment, tau, direction, xy up to sign, config): the
    two ends of F(p, q) are those of F(-q, p)."""
    direction = Fraction(direction)
    tau = complex(tau)
    return _value((h, tau, direction, _unsigned(xy), cfg),
                  lambda: _at_point(h, _ri_limit(h, tau, cfg), xy, cfg.trunc, tau)
                  * _i_inf_at(h, tau, float(direction), xy, cfg.trunc))


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
    r, s = _solve_unimodular(loc.numerator, loc.denominator)
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

def _validate_pair(p, q):
    p, q = int(p), int(q)
    if gcd(p, q) != 1:
        raise DomainError(f"({p}, {q}) is not coprime")
    if p * q == 0:
        raise DomainError("constructors need pq != 0")
    return p, q


def _reduced(p, q):
    """(p, q) moved by the sign and translation axioms, D(p, q) = D(-p, -q) =
    D(p, p + q), to p > 0 and -p/2 <= q < p/2; at p = 1 to (1, 1) or (1, -1),
    as no translation crosses q = 0."""
    if p < 0:
        p, q = -p, -q
    if p == 1:
        return 1, 1 if q > 0 else -1
    return p, (q + p // 2) % p - p // 2


def build_D(h, p, q, cfg=IntegratorConfig()):
    """The symbol series: I from ->(q/p) at i-infinity to ->inf at q/p, at (X,Y)=(q,p).

    D is fixed by its reciprocity function: at a reduced pair (p, q) other
    than (1, 1), D(p, q) = F(p, q) D(-q, p) E(p, q)^-1, and (-q, p) reduces
    to a pair with a smaller first entry, so the recursion ends at (1, 1)
    in O(log p) steps.  There T^-1 and the chart S, which fixes i, give
    D(1, 1) = I(->0 at i inf, i) I(i, ->inf at 0): the end
    I(i, ->0 at i inf) read at (0, 1), inverted, times the same end read
    at (1, 0).

    Each reduced pair's D is memoized in the value memo.  A miss walks the
    pairs down to the first memoized one, or to (1, 1), and fills the memo
    back up, one step per pair; each step takes the products in the same
    order, so no value depends on what was memoized before.
    """
    path = [_reduced(*_validate_pair(p, q))]
    while path[-1] != (1, 1) and (h, path[-1], cfg) not in _VALUES:
        p, q = path[-1]
        path.append(_reduced(-q, p))
    acc = None
    for p, q in reversed(path):
        acc = _value((h, (p, q), cfg), lambda: _recursion_step(h, p, q, acc, cfg))
    return acc


def _recursion_step(h, p, q, below, cfg):
    """D at the reduced pair (p, q) from D below it, D(-q, p)."""
    if (p, q) == (1, 1):
        return reg_to_cusp(h, 1j, 0, (0, 1), cfg).inverse() * reg_to_cusp(h, 1j, 0, (1, 0), cfg)
    return build_F(h, p, q, cfg) * below * build_E(h, -p, q, cfg.trunc)


def build_F(h, p, q, cfg=IntegratorConfig()):
    """The reciprocity series: I from ->(q/p) at i-infinity to ->(q/p) at 0.

    The cusp-zero chart is gamma = S, which fixes the anchor i; the
    numeric point pulls back to (p, -q).
    """
    p, q = _validate_pair(p, q)
    xy = (complex(q), complex(p))
    head = reg_to_cusp(h, 1j, Fraction(q, p), xy, cfg)
    tail = reg_to_cusp(h, 1j, Fraction(-p, q), (complex(p), complex(-q)), cfg)
    return head.inverse() * tail


def build_E(h, p, q, trunc=2):
    """exp(sum_letters A_i a_0(h(A_i)) / (p q)): the constant-term correction.

    It is an exponential of letters, so its word A_i1 ... A_ik reads
    c_i1 ... c_ik / k!, c_i = a_0(h(A_i)) / (p q), with the product taken
    left to right and 1/k! as its nearest float: the bytes of ``exp``'s
    power sum.  Every c_i changes sign with p, so E(p, q)^-1 = E(-p, q).
    """
    p, q = _validate_pair(p, q)
    c = [0j] * len(h.alphabet)
    for w, a0 in h.constant_terms().items():
        if len(w) == 1:
            c[w[0]] = a0 / (p * q)
    level, vec = [1], [1.0 + 0j]
    for k in range(1, trunc + 1):
        level = [x * ci for x in level for ci in c]
        inv_fact = 1 / factorial(k)
        vec += [x * inv_fact + 0j for x in level]
    return TruncSeries._from_vec(h.alphabet, trunc, vec)


def symbol_fn(h, cfg=IntegratorConfig()):
    """Wrap build_D as a SymbolFn evaluator (memoized per pair)."""
    from .symbols import SymbolFn

    return SymbolFn(lambda p, q: build_D(h, p, q, cfg), h.alphabet, cfg.trunc,
                    COMPLEX, almost=True, name="D_h")


def clear_caches():
    """Empty the cusp-limit and value memos and reset their counters."""
    _PATHS.clear()
    _VALUES.clear()
    _COUNTS.update(dict.fromkeys(_COUNTS, 0))


def cache_info():
    """Deterministic counts, no timings: the series held by the cusp-limit
    memo, its hits and misses, and the values held by the value memo with
    its hits and misses, since the last ``clear_caches()``."""
    return {"series": len(_PATHS), "values": len(_VALUES), **_COUNTS}
