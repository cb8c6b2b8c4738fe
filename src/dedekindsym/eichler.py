"""Regularized iterated Eichler integrals of level-one modular forms.

The series-valued connection form is

    Omega_h(tau) = sum_B B h(B) (X - Y tau)^w(B) dtau,

and I(a, b) denotes its Chen series along a path from a to b, so that
I(a,b) I(b,c) = I(a,c) and d/dtau I(tau, s) = -Omega(tau) I(tau, s).
Endpoints at cusps are regularized through tangential base points: the
value at the cusp i-infinity with direction datum s is

    I(tau, s at inf) = lim_{eps -> i inf} I(tau, eps) I_inf(eps, s),

where I_inf uses the constant Fourier terms only.  The limit is computed
without catastrophic cancellation by propagating RI(tau, eps) =
I(tau, eps) I_inf(eps, tau), which satisfies the ordinary differential
equation RI' = RI * Theta with the conjugated cuspidal form

    Theta(eps) = I_inf(tau, eps) (Omega - Omega_inf)(eps) I_inf(eps, tau)

whose coefficients decay like exp(-2 pi Im eps).  Rational cusps are
reached through the unimodular change of chart gamma(inf) = cusp, which
acts on the numeric evaluation point (X, Y) linearly; bridges between
charts are decomposed into unit horizontal segments at height one so that
no quadrature ever runs near the real axis.

Quadrature works on a node axis: a series over one panel's Gauss nodes is
a (words, nodes) complex array, one row per word.  Theta is formed for
all nodes at once (I_inf's polynomials by Horner on the node array, the
cusp term, the inverse and the two products are a few array operations),
and so are the connection-form values of the bridges and the Chen
transfer of a panel.  Products, the inverse and the transfer read the
splits w = u v from the word table in ``series``, in TruncSeries row order.
Bisection batches its panels: the integrand runs once on the
concatenated nodes of an interval and its two halves (later, of the two
halves only), and each panel's transfer reads its own columns.

Cusp limits RI(tau, i inf) are memoized per (assignment, tau, point,
config): D(p, q), D(-q, p) and F(p, q) share their limits, and every
build_D shares the chart tail at (1, 0).  The unit bridge steps
I(i, i +- 1) are memoized per (assignment, direction, point, config), so
pairs whose bridges pass through the same points share them.
Coefficients have even degree in (X, Y), so (X, Y) and (-X, -Y) share one
entry of either memo.  Form values are memoized one row per (form, node
array).  ``clear_caches()`` empties the memos and ``cache_info()``
reports their sizes and the cusp-limit and bridge-step hit and miss
counts.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

import numpy as np

from .errors import DomainError, NonConvergence
from .modforms import _solve_unimodular, form_value
from .series import COMPLEX, Alphabet, TruncSeries, _split_table

INF = float("inf")

_S_MAT = (0, -1, 1, 0)
_ID_MAT = (1, 0, 0, 1)


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

    def form(self, word):
        return self.forms.get(self.alphabet.word(word))

    def constant_terms(self):
        return {w: complex(f.coeff(0)) for w, f in self.forms.items()}


@dataclass(frozen=True)
class TangentialBasePoint:
    """Tangential base point written ->base_direction: the point sits at the
    cusp ``direction`` (the subscript) and ``base`` is the rational datum
    fixing the regularization branch."""

    base: object
    direction: object

    def __post_init__(self):
        for v in (self.base, self.direction):
            if v != INF and not isinstance(v, (int, Fraction)):
                raise ValueError("tangential data must be rational or infinity")
        if self.base == self.direction:
            raise ValueError("base and direction must differ")


@dataclass(frozen=True)
class IntegratorConfig:
    trunc: int = 2
    tol: float = 1e-10          # acceptance tolerance for the height doubling
    quad_tol: float = 5e-13     # panel acceptance tolerance
    t0: float = 4.0
    t_cap: float = 64.0
    nodes: int = 16
    max_depth: int = 12
    fourier_tol: float = 1e-16


# ---------------------------------------------------------------------------
# Scalar polynomial helpers (coefficients are complex numbers)

def _poly_mul(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui == 0:
            continue
        for j, vj in enumerate(v):
            if vj == 0:
                continue
            out[i + j] = out[i + j] + ui * vj
    return out


def _poly_antideriv(u):
    return [0] + [c / (k + 1) for k, c in enumerate(u)]


def _poly_eval(u, x):
    acc = 0
    for c in reversed(u):
        acc = acc * x + c
    return acc


def _xy_factor_poly(X, Y, w):
    """(X - Y t)^w as a polynomial in t."""
    return [comb(w, k) * X ** (w - k) * (-Y) ** k if k else X ** w for k in range(w + 1)]


# ---------------------------------------------------------------------------
# Exact iterated integrals of the constant-term form

def _i_inf_polys(h, tau0, xy, trunc):
    """Per-word polynomials M_W(t) with I_inf(tau0, t) = sum M_W(t) W.

    Exact antiderivative recursion at the numeric point xy = (X, Y).
    """
    X, Y = complex(xy[0]), complex(xy[1])
    g = {}
    for w, a0 in h.constant_terms().items():
        if len(w) <= trunc and a0 != 0:
            g[w] = [a0 * c for c in _xy_factor_poly(X, Y, h.alphabet.word_weight(w))]
    polys = {(): [1.0 + 0j]}
    for word in h.alphabet.iter_words(trunc, min_len=1):
        rhs = [0]
        for k in range(1, len(word) + 1):
            tail = word[len(word) - k:]
            if tail in g and word[: len(word) - k] in polys:
                rhs = _poly_add(rhs, _poly_mul(polys[word[: len(word) - k]], g[tail]))
        prim = _poly_antideriv(rhs)
        prim[0] = prim[0] - _poly_eval(prim, tau0)
        polys[word] = prim
    return polys


def _poly_add(u, v):
    if len(u) < len(v):
        u, v = v, u
    out = list(u)
    for k, c in enumerate(v):
        out[k] = out[k] + c
    return out


def i_infinity(h, tau0, tau1, xy, trunc=2):
    """I_inf(tau0, tau1): iterated integrals of the constant-term form.

    Polynomial in the endpoints, hence valid anywhere in the plane and
    path-independent; used by the cusp regularization.
    """
    polys = _i_inf_polys(h, complex(tau0), xy, trunc)
    return TruncSeries(h.alphabet, trunc, {w: _poly_eval(p, complex(tau1)) for w, p in polys.items()},
                       COMPLEX)


# ---------------------------------------------------------------------------
# Numeric Chen transfer along straight segments

_NODE_CACHE = {}


def _node_matrices(n):
    got = _NODE_CACHE.get(n)
    if got is None:
        x, w = np.polynomial.legendre.leggauss(n)
        V = np.polynomial.legendre.legvander(x, n)
        A = V[:, :n]
        B = np.zeros((n, n))
        B[:, 0] = x + 1.0
        for k in range(1, n):
            B[:, k] = (V[:, k + 1] - V[:, k - 1]) / (2 * k + 1)
        S = 0.5 * (B @ np.linalg.inv(A))      # cumulative integral, [0,1] scale
        got = ((x + 1.0) / 2.0, w / 2.0, S)
        _NODE_CACHE[n] = got
    return got


# Bounded memos.  One sweep pass over half the 110-pair grid at trunc 2
# fills 57 cusp limits, 65 unit bridge steps and 130 form rows, so none
# of them evicts.
_FORM_ROWS_CAP = 1 << 10
_RI_LIMITS_CAP = 1 << 10
_STEPS_CAP = 1 << 10
_FORM_ROWS = {}
_RI_LIMITS = {}
_STEPS = {}
_RI_COUNTS = {"hits": 0, "misses": 0}
_STEP_COUNTS = {"hits": 0, "misses": 0}


def _remember(cache, cap, key, value):
    """Store key -> value, evicting the oldest entry once ``cap`` is reached."""
    if len(cache) >= cap:
        del cache[next(iter(cache))]
    cache[key] = value


def _memoized(cache, cap, counts, key, compute):
    """cache[key], computed by ``compute()`` on a miss; counts hits and misses."""
    got = cache.get(key)
    if got is not None:
        counts["hits"] += 1
        return got
    counts["misses"] += 1
    got = compute()
    _remember(cache, cap, key, got)
    return got


def _even_point(xy):
    """(X, Y), or (-X, -Y) when that is larger, as complex numbers.  Every
    coefficient has even degree in (X, Y), and negating the point negates
    X - Y tau exactly, so both points give the same bytes and share one
    memo entry."""
    X, Y = complex(xy[0]), complex(xy[1])
    if (X.real, X.imag, Y.real, Y.imag) >= (-X.real, -X.imag, -Y.real, -Y.imag):
        return X, Y
    return -X, -Y


def _series_scale(series):
    # panel acceptance is relative to the largest transfer coefficient
    return max(map(abs, series.vec[1:]), default=0.0) + 1.0


# ---------------------------------------------------------------------------
# Series on the node axis: one complex array per word, one column per node

def _node_mul(tab, a, b):
    """Concatenation product of two node-axis series (rows: words of tab)."""
    out = np.empty_like(a)
    out[0] = a[0] * b[0]
    for lo, hi, U, V in tab.groups:
        out[lo:hi] = a[lo:hi] * b[0] + (a[U] * b[V]).sum(axis=1)
    return out


def _node_inverse(tab, a):
    """Inverse of a node-axis series with constant term 1, word length by
    word length: (a^-1)_w = -sum over w = u v, v nonempty, of (a^-1)_u a_v."""
    out = np.empty_like(a)
    out[0] = 1.0
    for lo, hi, U, V in tab.groups:
        out[lo:hi] = -(out[U] * a[V]).sum(axis=1)
    return out


def _cmul(a, b):
    """a * b rounded like Python's complex product (numpy's complex multiply
    may fuse multiply-adds)."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _form_row(form, zs, X, Y, wt, tol, a0=0j):
    """(form(z) - a0) (X - Y z)^wt at each node z.  The form values of one
    node array are memoized as one row.

    Rounded like the scalar expression, since bridge coefficients cancel
    heavily: _cmul for the product, and np.power rather than **, whose
    fast path for squares fuses multiply-adds."""
    key = (form, tol, zs.tobytes())
    f = _FORM_ROWS.get(key)
    if f is None:
        f = np.array([form_value(form, z, tol) for z in zs.tolist()])
        _remember(_FORM_ROWS, _FORM_ROWS_CAP, key, f)
    return _cmul(f - a0, np.power(X - Y * zs, wt))


def _transfer_from_values(h, vals, cfg):
    """Chen transfer of one panel from the node-axis 1-form values.

    vals: complex array (words of ``_split_table``, nodes), already
    including the d tau / d u jacobian.  Returns the transfer as a
    TruncSeries.
    """
    _, w, S = _node_matrices(cfg.nodes)
    tab = _split_table(h.alphabet, cfg.trunc)
    M = np.empty_like(vals)
    M[0] = 1.0
    end = np.empty(len(tab.words), dtype=complex)
    end[0] = 1.0
    for lo, hi, U, V in tab.groups:
        rhs = (M[U] * vals[V]).sum(axis=1)
        # stacked matrix-vector products round like one S @ r per word
        M[lo:hi] = np.matmul(S, rhs[:, :, None])[:, :, 0]
        end[lo:hi] = np.matmul(rhs[:, None, :], w[:, None])[:, 0, 0]
    return TruncSeries._from_vec(h.alphabet, cfg.trunc, end.tolist())


def _transfers(h, vals, cfg):
    """One Chen transfer per panel from node-axis values whose columns are
    the nodes of consecutive panels, ``cfg.nodes`` columns each."""
    n = cfg.nodes
    return [_transfer_from_values(h, vals[:, k:k + n], cfg) for k in range(0, vals.shape[1], n)]


def _omega_values(h, points, xy, jac, cfg):
    """Connection-form values on the node axis: row B holds
    h(B)(z) (X - Y z)^w(B) jac at each node z (jac: a number, or one per
    node)."""
    X, Y = complex(xy[0]), complex(xy[1])
    tab = _split_table(h.alphabet, cfg.trunc)
    zs = np.asarray(points, dtype=complex)
    vals = np.zeros((len(tab.words), len(zs)), dtype=complex)
    for word, form in h.forms.items():
        if len(word) <= cfg.trunc:
            wt = h.alphabet.word_weight(word)
            vals[tab.index[word]] = _form_row(form, zs, X, Y, wt, cfg.fourier_tol) * jac
    return vals


def _adaptive(panels, a, b, cfg, whole=None, depth=0):
    """Chen transfer over [a, b], bisected until a panel agrees with the
    product of its two halves.  The batched rule ``panels(ends)`` returns
    one transfer per interval (a, b) of ``ends`` from one integrand call:
    the root evaluates itself and its halves together, and a rejected
    interval hands its halves down as the ``whole`` of the recursive
    calls, which then evaluate only their own two halves."""
    mid = (a + b) / 2
    if whole is None:
        whole, left, right = panels([(a, b), (a, mid), (mid, b)])
    else:
        left, right = panels([(a, mid), (mid, b)])
    comp = left * right
    if whole.max_abs_diff(comp) <= cfg.quad_tol * _series_scale(comp):
        return comp
    if depth >= cfg.max_depth:
        raise NonConvergence(f"panel refinement exhausted on [{a:.3g}, {b:.3g}]")
    return (_adaptive(panels, a, mid, cfg, left, depth + 1)
            * _adaptive(panels, mid, b, cfg, right, depth + 1))


def _chen_straight(h, z0, z1, xy, cfg):
    """Adaptive Chen transfer I(z0, z1) along the straight segment."""
    u, _, _ = _node_matrices(cfg.nodes)

    def panels(ends):
        zs = np.concatenate([a + (b - a) * u for a, b in ends])
        jac = np.repeat([b - a for a, b in ends], cfg.nodes)
        return _transfers(h, _omega_values(h, zs, xy, jac, cfg), cfg)

    return _adaptive(panels, z0, z1, cfg)


def omega(h, tau, xy, trunc=2):
    """The connection form coefficient at tau: word B reads h(B)(tau) (X - Y tau)^w(B)."""
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    X, Y = complex(xy[0]), complex(xy[1])
    coeffs = {}
    for word, form in h.forms.items():
        if len(word) <= trunc:
            coeffs[word] = form_value(form, tau) * (X - Y * tau) ** h.alphabet.word_weight(word)
    return TruncSeries(h.alphabet, trunc, coeffs, COMPLEX)


def omega_inf(h, tau, xy, trunc=2):
    """The constant-term variant: word B reads a_0(h(B)) (X - Y tau)^w(B)."""
    X, Y = complex(xy[0]), complex(xy[1])
    tau = complex(tau)
    coeffs = {}
    for word, a0 in h.constant_terms().items():
        if len(word) <= trunc:
            coeffs[word] = a0 * (X - Y * tau) ** h.alphabet.word_weight(word)
    return TruncSeries(h.alphabet, trunc, coeffs, COMPLEX)


def i_numeric(h, tau0, tau1, xy, cfg=IntegratorConfig()):
    """Chen series I(tau0, tau1) along the straight segment, numeric (X, Y)."""
    tau0, tau1 = complex(tau0), complex(tau1)
    if tau0.imag <= 0 or tau1.imag <= 0:
        raise ValueError("endpoints must lie in the open upper half-plane")
    if tau0 == tau1:
        return TruncSeries.one(h.alphabet, cfg.trunc, COMPLEX)
    return _chen_straight(h, tau0, tau1, xy, cfg)


# ---------------------------------------------------------------------------
# Regularization at the cusp i-infinity

def _ri_limit(h, tau, xy, cfg):
    """RI(tau, i inf) = lim I(tau, eps) I_inf(eps, tau), via the conjugated
    cuspidal form; heights double from t0 until the result is stable.
    Memoized; (X, Y) and (-X, -Y) share one entry (``_even_point``)."""
    tau = complex(tau)
    X, Y = complex(xy[0]), complex(xy[1])
    return _memoized(_RI_LIMITS, _RI_LIMITS_CAP, _RI_COUNTS, (h, tau, *_even_point(xy), cfg),
                     lambda: _ri_limit_uncached(h, tau, X, Y, cfg))


def _theta(h, tau, X, Y, cfg):
    """The conjugated cuspidal form Theta = I_inf(tau, z) (Omega - Omega_inf)(z)
    I_inf(z, tau) on the node axis: ``theta(zs, jac)`` is the (words, nodes)
    array of Theta at the points zs, times jac."""
    tab = _split_table(h.alphabet, cfg.trunc)
    polys = _i_inf_polys(h, tau, (X, Y), cfg.trunc)
    coef = np.zeros((len(tab.words), max(map(len, polys.values()))), dtype=complex)
    for w, p in polys.items():
        coef[tab.index[w], :len(p)] = p
    columns = list(coef.T[:, :, None])       # Horner runs on all words at once
    cusp_rows = [(tab.index[w], f, h.alphabet.word_weight(w), complex(f.coeff(0)))
                 for w, f in h.forms.items() if len(w) <= cfg.trunc]

    def theta(zs, jac):
        s_inf = _poly_eval(columns, zs)
        cusp = np.zeros_like(s_inf)
        for row, f, wt, a0 in cusp_rows:
            cusp[row] = _form_row(f, zs, X, Y, wt, cfg.fourier_tol, a0)
        return _node_mul(tab, _node_mul(tab, s_inf, cusp), _node_inverse(tab, s_inf)) * jac

    return theta


def _ri_limit_uncached(h, tau, X, Y, cfg):
    theta = _theta(h, tau, X, Y, cfg)
    u, _, _ = _node_matrices(cfg.nodes)

    def panels(ends):
        zs = np.concatenate([tau.real + 1j * (a + (b - a) * u) for a, b in ends])
        jac = np.repeat([1j * (b - a) for a, b in ends], cfg.nodes)
        return _transfers(h, theta(zs, jac), cfg)

    t = max(cfg.t0, 2.0 * tau.imag)
    ri = _adaptive(panels, tau.imag, t, cfg)
    while True:
        step = _adaptive(panels, t, 2.0 * t, cfg)
        nxt = ri * step
        if nxt.max_abs_diff(ri) <= cfg.tol * _series_scale(nxt):
            return nxt
        ri = nxt
        t *= 2.0
        if t > cfg.t_cap:
            raise NonConvergence(f"height doubling did not stabilize below T = {cfg.t_cap}")


def reg_to_cusp(h, tau, direction, xy, cfg=IntegratorConfig()):
    """I(tau, ->direction_inf): regularized integral from tau in the upper
    half-plane to the tangential base point at i-infinity."""
    direction = Fraction(direction)
    return _ri_limit(h, tau, xy, cfg) * i_infinity(h, tau, float(direction), xy, cfg.trunc)


# ---------------------------------------------------------------------------
# Charts at rational cusps

def _mat_mul(m, n):
    a, b, c, d = m
    e, f, g, k = n
    return (a * e + b * g, a * f + b * k, c * e + d * g, c * f + d * k)


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


def sl2_word(m):
    """Decompose an SL2(Z) matrix as T^{n1} S T^{n2} S ... T^{nk} up to sign.

    Both generators act trivially on our even-weight coefficients when
    negated, so the sign is irrelevant to the integrals.
    """
    a, b, c, d = m
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant 1")
    out = []
    while c != 0:
        n = round(Fraction(a, c))
        out.append(("T", n))
        out.append(("S", 0))
        # m = T^n S m'  =>  m' = S^{-1} T^{-n} m
        a, b, c, d = c, d, n * c - a, n * d - b
    out.append(("T", a * b))
    return out


def _bridge(h, mat, xy, cfg):
    """I(i, mat(i)) at the numeric point xy, as a product of unit horizontal
    transfers at height one (S steps fix i and cost nothing).  The unit
    steps I(i, i +- 1) at each point are memoized; (X, Y) and (-X, -Y)
    share one entry (``_even_point``)."""
    acc = TruncSeries.one(h.alphabet, cfg.trunc, COMPLEX)
    cur = _ID_MAT
    for kind, n in sl2_word(mat):
        if kind == "S":
            cur = _mat_mul(cur, _S_MAT)
            continue
        step = 1 if n > 0 else -1
        t_step = (1, step, 0, 1)
        for _ in range(abs(n)):
            v = _mat_apply_xy(_mat_inv(cur), xy)
            acc = acc * _memoized(_STEPS, _STEPS_CAP, _STEP_COUNTS, (h, step, *_even_point(v), cfg),
                                  lambda: _chen_straight(h, 1j, 1j + step, v, cfg))
            cur = _mat_mul(cur, t_step)
    return acc


def _piece_to_tangential(h, tau1, tb, xy, cfg):
    """I(tau1, tb) at the numeric point xy = (X, Y)."""
    loc = tb.direction
    if loc == INF:
        return reg_to_cusp(h, tau1, tb.base, xy, cfg)
    loc = Fraction(loc)
    gam = _gamma_for_cusp(loc.numerator, loc.denominator)
    return _piece_via_chart(h, tau1, gam, tb.base, xy, cfg)


def _gamma_for_cusp(cn, cd):
    r, s = _solve_unimodular(cn, cd)
    return (cn, r, cd, s)


def _piece_via_chart(h, tau1, gam, direction, xy, cfg):
    # I(tau1, ->direction_cusp) = I(sigma, ->u_inf) at gamma^{-1} xy, where
    # sigma = gamma^{-1} tau1 and u = gamma^{-1} direction; the leg from
    # sigma to the chart anchor i goes through the generator bridge.
    inv = _mat_inv(gam)
    u = _mat_mobius(inv, direction)
    if u == INF:
        raise DomainError("tangential direction coincides with the cusp")
    v = _mat_apply_xy(inv, (complex(xy[0]), complex(xy[1])))
    tail = reg_to_cusp(h, 1j, u, v, cfg)
    sigma = _mat_mobius(inv, complex(tau1))
    if abs(sigma - 1j) < 1e-15:
        head = TruncSeries.one(h.alphabet, cfg.trunc, COMPLEX)
    elif complex(tau1) == 1j:
        # sigma = gamma^{-1}(i): reach the anchor through generator bridges
        head = _bridge(h, inv, v, cfg).inverse()
    else:
        head = i_numeric(h, sigma, 1j, v, cfg)
    return head * tail


def full_integral(h, tb0, tb1, pair, cfg=IntegratorConfig(), tau1=1j):
    """I(tb0, tb1) between two tangential base points, at (X, Y) = (q, p)."""
    p, q = pair
    xy = (complex(q), complex(p))
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


def build_D(h, p, q, cfg=IntegratorConfig()):
    """The symbol series: I from ->(q/p) at i-infinity to ->inf at q/p, at (X,Y)=(q,p).

    The cusp-side piece is computed entirely in the chart gamma(inf) = q/p
    with gamma = [[q, r], [p, s]], where the numeric point pulls back to
    (1, 0) exactly.
    """
    p, q = _validate_pair(p, q)
    xy = (complex(q), complex(p))
    head = reg_to_cusp(h, 1j, Fraction(q, p), xy, cfg)
    r, s = _solve_unimodular(q, p)
    gam_inv = (s, -r, -p, q)
    u = Fraction(-s, p)
    chart_xy = (1.0 + 0j, 0j)
    bridge = _bridge(h, gam_inv, chart_xy, cfg)
    tail = reg_to_cusp(h, 1j, u, chart_xy, cfg)
    return head.inverse() * bridge.inverse() * tail


def build_F(h, p, q, cfg=IntegratorConfig()):
    """The reciprocity series: I from ->(q/p) at i-infinity to ->(q/p) at 0.

    The cusp-zero chart is gamma = S, which fixes the anchor i, so no
    bridge is needed; the numeric point pulls back to (p, -q).
    """
    p, q = _validate_pair(p, q)
    xy = (complex(q), complex(p))
    head = reg_to_cusp(h, 1j, Fraction(q, p), xy, cfg)
    tail = reg_to_cusp(h, 1j, Fraction(-p, q), (complex(p), complex(-q)), cfg)
    return head.inverse() * tail


def build_E(h, p, q, trunc=2):
    """exp(sum_letters A_i a_0(h(A_i)) / (p q)): the constant-term correction."""
    p, q = _validate_pair(p, q)
    coeffs = {w: a0 / (p * q) for w, a0 in h.constant_terms().items() if len(w) == 1}
    return TruncSeries(h.alphabet, trunc, coeffs, COMPLEX).exp()


def symbol_fn(h, cfg=IntegratorConfig()):
    """Wrap build_D as a SymbolFn evaluator (memoized per pair)."""
    from .symbols import SymbolFn

    return SymbolFn(lambda p, q: build_D(h, p, q, cfg), h.alphabet, cfg.trunc,
                    COMPLEX, almost=True, name="D_h")


def clear_caches():
    """Empty the form-row, cusp-limit and bridge-step memos and reset their
    counters."""
    for cache in (_FORM_ROWS, _RI_LIMITS, _STEPS):
        cache.clear()
    for counts in (_RI_COUNTS, _STEP_COUNTS):
        counts.update(hits=0, misses=0)


def cache_info():
    """Sizes of the memos and the cusp-limit and bridge-step hit/miss counts
    since the last ``clear_caches()``; deterministic, no timings."""
    return {"form_rows": len(_FORM_ROWS), "ri_limits": len(_RI_LIMITS), "steps": len(_STEPS),
            "ri_hits": _RI_COUNTS["hits"], "ri_misses": _RI_COUNTS["misses"],
            "step_hits": _STEP_COUNTS["hits"], "step_misses": _STEP_COUNTS["misses"]}
