"""(Almost) multiple Dedekind symbols and multiple reciprocity functions.

Evaluator objects map a coprime pair (p, q) to a truncated series with
constant term 1.  The two directions of the normalized-symbol bijection
are ``psi`` (D -> associated function) and ``delta`` (continued-fraction
construction of the normalized symbol); ``bullet`` is the induced product
of reciprocity functions, and ``decompose`` peels a shuffled symbol into
exponentials of scalar factors, one word at a time.  Evaluators own their
memos, so every memo goes with its evaluator.
"""

from collections import namedtuple
from fractions import Fraction
from functools import partial
from itertools import pairwise
from math import gcd

from . import contfrac
from .errors import NotShuffled
from .series import RATIONAL, TruncSeries, _exp_kernel

# ---------------------------------------------------------------------------
# Orbits of the defining relations

def orbit_key(p, q):
    """Canonical representative of the orbit of (p, q) under
    D(p,q) = D(p,p+q) and D(p,-q) = D(-p,q), respecting the almost domain.

    It is ``contfrac.reduced`` of a ``contfrac.coprime`` pair, with q taken
    modulo p for p >= 2; for p = 1 the sign of q is the only invariant (the
    translation chain cannot cross q = 0 on the almost domain), and p = 0
    gives (0, 1).
    """
    p, q = contfrac.coprime(p, q)
    if p == 0:
        return (0, 1)
    p, q = contfrac.reduced(p, q)
    return (p, q) if p == 1 else (p, q % p)


def sample_pairs(n, seed, bound=30):
    """Deterministic distinct coprime pairs with p, q != 0 and |p|, |q| <= bound."""
    import random

    available = sum(gcd(p, q) == 1 for p in range(1, bound + 1) for q in range(1, bound + 1)) * 4
    if n > available:
        raise ValueError(f"asked for {n} distinct pairs, but |p|, |q| <= {bound} holds only {available}")
    rng = random.Random(seed)
    out = []
    seen = set()
    while len(out) < n:
        p = rng.randint(-bound, bound)
        q = rng.randint(-bound, bound)
        if p == 0 or q == 0 or gcd(p, q) != 1:
            continue
        if (p, q) in seen:
            continue
        seen.add((p, q))
        out.append((p, q))
    return out


# ---------------------------------------------------------------------------
# Evaluator objects

# Values per memo, oldest evicted first.  A miss of D^(-1) stores the asked
# pair and its walk's keys: up to n for delta at a pair with n proper tails,
# at most floor(log2 |p|) + 1 for bullet's Euclid walk; over all pairs with
# |p|, |q| <= 50 of the exact benchmark (seed 1) no memo holds more than 224.
_MEMO_CAP = 1 << 12


def _remember(cache, cap, key, value):
    """Store key -> value, evicting the oldest entry once ``cap`` is reached."""
    if len(cache) >= cap:
        del cache[next(iter(cache))]
    cache[key] = value


class _SeriesFn:
    """Memoized map (p, q) -> TruncSeries with constant term 1.

    The memo is keyed by the pair itself, so that axiom verification reads
    each side of an axiom from its own pair.  It keeps at most ``_MEMO_CAP``
    values, each as the pair ``(vec, den)`` of the series, which the
    collector need not follow.  ``_walks`` holds the memos of the walks
    that fill delta of this function (see ``_symbol_fns``).

    ``__call__`` checks the pair by ``contfrac.coprime``, with pq != 0 for
    an almost function; ``_at`` skips the check, for pairs derived from one
    that was checked (the closures of ``psi``, ``delta``, ``normalize`` and
    ``bullet``).
    """

    __slots__ = ("_func", "alphabet", "trunc", "kind", "almost", "_memo", "_walks")

    def __init__(self, func, alphabet, trunc, kind=RATIONAL, almost=True):
        self._func = func
        self.alphabet = alphabet
        self.trunc = trunc
        self.kind = kind
        self.almost = almost
        self._memo = {}
        self._walks = {}

    def __call__(self, p, q):
        p, q = contfrac.coprime(p, q, self.almost)
        return self._at(p, q)

    def _at(self, p, q):
        """The value at a pair of ints in the function's domain, unchecked."""
        hit = self._memo.get((p, q))
        if hit is not None:
            return TruncSeries._packed(self.alphabet, self.trunc, self.kind, hit)
        val = self._func(p, q)
        if val.vec[0] != val.den:
            raise ValueError(f"{type(self).__name__} evaluation must have constant term 1")
        if (val.trunc != self.trunc or val.kind != self.kind
                or val.alphabet is not self.alphabet and val.alphabet != self.alphabet):
            raise ValueError(f"{type(self).__name__} evaluation must be a {self.kind} series over "
                             f"{self.alphabet!r} truncated at {self.trunc}")
        _remember(self._memo, _MEMO_CAP, (p, q), (val.vec, val.den))
        return val


class SymbolFn(_SeriesFn):
    """Multiple Dedekind symbol evaluator."""

    __slots__ = ()


class RecipFn(_SeriesFn):
    """Multiple reciprocity function evaluator."""

    __slots__ = ()


def _remap_fn(fn, cls, alphabet, index_map):
    return cls(lambda p, q: fn._at(p, q).remap(alphabet, index_map), alphabet, fn.trunc, fn.kind, fn.almost)


def _merge(f, g):
    """Embed two evaluators into the union of their alphabets."""
    if f.alphabet == g.alphabet:
        return f, g
    big, mf, mg = f.alphabet.union(g.alphabet)
    return (_remap_fn(f, type(f), big, mf), _remap_fn(g, type(g), big, mg))


# ---------------------------------------------------------------------------
# The bijection

def psi(d):
    """Associated function F(p,q) = D(p,q) D(-q,p)^(-1) of a symbol."""
    return RecipFn(lambda p, q: d._at(p, q) * d._at(-q, p).inverse(), d.alphabet, d.trunc, d.kind, d.almost)


def _walk(f, inv_memo, one, steps, p, q):
    """D^(-1)(p, q) by ``steps(p, q)``, pairs (key, factor) from (p, q) at
    its canonical sign, with D^(-1)(key) = D^(-1)(next key) F(factor) and
    D^(-1) = 1 past the last key: down to the first key in the memo, then
    back up, filling it with one product and no inverse per key."""
    path, acc = [], None
    for step in steps(p, q):
        hit = inv_memo.get(step[0])
        if hit is not None:
            acc = TruncSeries._packed(f.alphabet, f.trunc, f.kind, hit)
            break
        path.append(step)
    # acc is D^(-1) below the last key of the path, None for 1
    for key, (a, b) in reversed(path):
        acc = f._at(a, b) if acc is None else acc * f._at(a, b)
        if key != (p, q):  # the asked pair is stored by ``_SeriesFn._at``
            _remember(inv_memo, _MEMO_CAP, key, (acc.vec, acc.den))
    return one if acc is None else acc


def _canonical_steps(p, q):
    """The steps of ``delta``: (t_i, t_(i+1)) over the canonical tails of
    (p, q) with p > 0, and at p = 1 with q < 1 the one step ((1, q), (1, 1))."""
    if p < 0:
        p, q = -p, -q
    if p == 1 and q < 1:
        return (((1, q), (1, 1)),)
    return pairwise(map(tuple, contfrac.canonical_tails(p, q)))


def _euclid_steps(p, q):
    """The steps of ``bullet``: (r_i, (-q_i, p_i)) over the reduced pairs
    r_i = (p_i, q_i) of ``contfrac.euclid_walk`` but (1, 1)."""
    return ((r, (-r[1], r[0])) for r in contfrac.euclid_walk(p, q) if r != (1, 1))


def _symbol_fns(f, steps):
    """Evaluators of D = delta(F) and of D^(-1) on F's memos
    ``f._walks[steps]``: D^(-1) at the keys a miss walks by ``steps`` and
    at asked pairs, and D at asked pairs, keyed by (p, q) of either sign.
    Each walk (delta's canonical one, bullet's Euclid one) has its own
    memos, so no complex value depends on which walk filled a memo."""
    inv_memo, d_memo = f._walks.setdefault(steps, ({}, {}))
    one = TruncSeries.one(f.alphabet, f.trunc, f.kind)
    d_inv = _SeriesFn(partial(_walk, f, inv_memo, one, steps), f.alphabet, f.trunc, f.kind)
    d = SymbolFn(lambda p, q: d_inv._at(p, q).inverse(), f.alphabet, f.trunc, f.kind)
    # the walk binds F and the memo, never d or d_inv: no reference cycle
    d_inv._memo, d._memo = inv_memo, d_memo
    return d, d_inv


def delta(f):
    """Normalized almost Dedekind symbol of an almost reciprocity function.

    Uses the unique continued-fraction representation with a_i >= 2 for
    i >= 1: the value at (p, q) is the ordered product of F(p_i, q_i)^(-1)
    over the proper tails t_1, ..., t_n.  Integer values of q/p short-circuit
    to 1, and negative integers to F(1,1)^(-1) (F(1,1) = 1 is not available
    on the almost domain).

    The canonical sequence of t_i is the tail of that of (p, q), so the
    inverse D^(-1)(t_i) = D^(-1)(t_(i+1)) F(t_(i+1)), with D^(-1)(t_n) = 1.
    A memo miss walks the tails down to the first one already memoized (or
    to t_n), then fills the memo of D^(-1) back up, one product and no
    inverse per new tail, but none for D^(-1)(t_(n-1)) = F(t_n); D at an
    asked pair is one inverse of D^(-1) there.  The walk of (-p, -q) is
    that of (p, q), so it stops at once when (p, q) was asked before.
    Both memos are F's, shared by every delta of F.  Exact inverses and
    products are unique in lowest terms, so an exact value is the
    left-to-right product's, to the byte; a complex value is the inverse of
    the product of the F(t_i) and agrees with it to rounding (1e-12 of the
    largest coefficient, for psi of D for E4, E6 at trunc 2 over the signed
    9-grid).

    The walk costs the sum of the partial quotients, n - 1 products at
    (n, 1).  It stays the paper's construction, for any F: ``bullet``'s
    Euclid walk assumes that F is a reciprocity function, and under it
    psi(delta(F)) = F would hold by construction and test nothing.
    """
    return _symbol_fns(f, _canonical_steps)[0]


def delta_full(f, rep):
    """Product of F(p_i, q_i)^(-1) over the proper tails of an arbitrary
    continued-fraction representation; needs F defined on all of U."""
    acc = TruncSeries.one(f.alphabet, f.trunc, f.kind)
    for pi, qi in contfrac.tails(rep)[1:]:
        acc = acc * f(pi, qi).inverse()
    return acc


def normalize(d):
    """The unique normalized symbol with the same associated function."""
    const_inv = d(1, 1).inverse()
    return SymbolFn(lambda p, q: d._at(p, q) * const_inv, d.alphabet, d.trunc, d.kind, d.almost)


# ---------------------------------------------------------------------------
# The induced product

def bullet(f, g):
    """Product of reciprocity functions through their normalized symbols:
    (F * G)(p,q) = D(p,q) G(p,q) D^(-1)(-q,p) with D = delta(F).

    D^(-1) is read by the Euclid walk, which holds only for a reciprocity
    function F: D(p, q) = F(p, q) D(-q, p), with the sign and translation
    axioms and D(1, 1) = 1, gives D^(-1)(r_i) = D^(-1)(r_(i+1)) F(-q_i, p_i)
    over the reduced pairs r_i = (p_i, q_i) of ``contfrac.euclid_walk``, one
    product and no inverse per pair, at most floor(log2 |p|) + 1 of them.
    A memo miss walks down to the first memoized pair, or to (1, 1), and
    fills the memo back up, so no value depends on what was memoized
    before; r_0 = reduced(p, q) is also that of (-p, -q).  D is one
    inverse of D^(-1) per asked pair.  Both memos are F's, shared with
    every other bullet and bullet_inverse of F, apart from delta's.  On
    exact data the values are the canonical walk's, to the byte.  Like D,
    the product is an almost function."""
    f, g = _merge(f, g)
    d, d_inv = _symbol_fns(f, _euclid_steps)
    return RecipFn(lambda p, q: d._at(p, q) * g._at(p, q) * d_inv._at(-q, p),
                   f.alphabet, min(f.trunc, g.trunc), f.kind, almost=True)


def bullet_inverse(f):
    """Inverse under the product: D^(-1)(p,q) D(-q,p) with D = delta(F),
    both read by ``bullet``'s Euclid walk from F's memos: no inverse beyond
    the one per asked pair that D costs.  Like D, it is an almost function."""
    d, d_inv = _symbol_fns(f, _euclid_steps)
    return RecipFn(lambda p, q: d_inv._at(p, q) * d._at(-q, p),
                   f.alphabet, f.trunc, f.kind, almost=True)


def embed_exp(f, letter, alphabet, trunc, kind=RATIONAL, almost=True):
    """exp(f(p,q) * letter): the group-like one-letter embedding of a scalar
    reciprocity function.  The letter is checked once, here."""
    exp_at = _exp_kernel(alphabet, trunc, (alphabet.index(letter),), kind)
    return RecipFn(lambda p, q: exp_at(f(p, q)), alphabet, trunc, kind, almost)


def embed_exp_symbol(d, letter, alphabet, trunc, kind=RATIONAL):
    """The analogous embedding of a scalar almost Dedekind symbol."""
    exp_at = _exp_kernel(alphabet, trunc, (alphabet.index(letter),), kind)
    return SymbolFn(lambda p, q: exp_at(d(p, q)), alphabet, trunc, kind)


def from_components(fs, alphabet, trunc):
    """Bullet product of exact one-letter exponentials of scalar almost
    reciprocity functions, in alphabet order; the length-1 components of
    the result are exactly the given scalars."""
    acc = None
    for letter in alphabet.names:
        if letter not in fs:
            continue
        part = embed_exp(fs[letter], letter, alphabet, trunc)
        acc = part if acc is None else bullet(acc, part)
    if acc is None:
        raise ValueError("no components given")
    return acc


# ---------------------------------------------------------------------------
# Axiom verification

VerifyRow = namedtuple("VerifyRow", "axiom word pair violation")


class VerifyReport:
    def __init__(self, rows, exact):
        self.rows = rows
        self.exact = exact

    def worst(self):
        return max((r.violation for r in self.rows), default=0.0)

    def passed(self):
        return self.worst() == 0.0 if self.exact else self.worst() <= 1e-9

    def worst_by_axiom(self):
        out = {}
        for r in self.rows:
            if r.axiom not in out or r.violation > out[r.axiom].violation:
                out[r.axiom] = r
        return out

    def __repr__(self):
        lines = [f"{a}: worst {r.violation:.3g} at word {r.word or '1'}, pair {r.pair}"
                 for a, r in sorted(self.worst_by_axiom().items())]
        return "VerifyReport(\n  " + "\n  ".join(lines or ["empty"]) + "\n)"


def _series_rows(axiom, lhs, rhs, pair, alphabet, rows):
    for w in set(lhs.coeffs) | set(rhs.coeffs):
        diff = abs(complex(lhs.coeff(w)) - complex(rhs.coeff(w)))
        if diff:
            rows.append(VerifyRow(axiom, alphabet.word_name(w), pair, diff))


def verify_mds(d, samples):
    """Componentwise worst violations of the two symbol axioms at the samples:
    MDS1, translation D(p, q) = D(p, p + q), and MDS2, sign
    D(p, -q) = D(-p, q).

    The translation axiom is skipped at pairs with p + q = 0, where the
    almost axioms leave it undefined.
    """
    rows = []
    for p, q in samples:
        _series_rows("MDS2", d(p, -q), d(-p, q), (p, q), d.alphabet, rows)
        if p + q != 0:
            _series_rows("MDS1", d(p, q), d(p, p + q), (p, q), d.alphabet, rows)
    return VerifyReport(rows, exact=d.kind == RATIONAL)


def verify_mrf(f, samples):
    """Componentwise worst violations of the three reciprocity axioms."""
    rows = []
    for p, q in samples:
        one = TruncSeries.one(f.alphabet, f.trunc, f.kind)
        _series_rows("MRF1", f(p, -q), f(-p, q), (p, q), f.alphabet, rows)
        _series_rows("MRF2", f(p, q) * f(-q, p), one, (p, q), f.alphabet, rows)
        if p + q != 0:
            _series_rows("MRF3", f(p, p + q) * f(p + q, q), f(p, q), (p, q), f.alphabet, rows)
    return VerifyReport(rows, exact=f.kind == RATIONAL)


# ---------------------------------------------------------------------------
# Random generation (orbit-keyed, so the symbol axioms hold by construction)

def _hash_fraction(seed, key, word):
    """The seeded coefficient of (seed, key, word): the first two 4-byte
    words a, b of a SHA-256 digest give a % 19 - 9 over b % 9 + 1."""
    import hashlib   # here, so that importing the package does not load OpenSSL

    x = int.from_bytes(hashlib.sha256(f"{seed}|{key}|{word}".encode()).digest()[:8], "big")
    return Fraction((x >> 32) % 19 - 9, (x & 0xFFFFFFFF) % 9 + 1)


def random_symbol(alphabet, trunc, seed):
    """Seeded symbol with an independent rational coefficient per
    (orbit, word): the ``_hash_fraction`` of (seed, orbit key, word),
    hashed from the digest state of the shared prefix.  Every denominator
    divides 2520 = lcm(1..9), so each word writes its numerator over 2520
    and the vector is brought to lowest terms once; deterministic in the
    seed."""
    import hashlib

    words = [str(w).encode() for w in alphabet.iter_words(trunc, min_len=1)]
    by_orbit = {}

    def ev(p, q):
        key = orbit_key(p, q)
        hit = by_orbit.get(key)
        if hit is None:
            prefix = hashlib.sha256(f"{seed}|{key}|".encode())
            nums = [2520]
            for word in words:
                h = prefix.copy()
                h.update(word)
                x = int.from_bytes(h.digest()[:8], "big")
                nums.append(((x >> 32) % 19 - 9) * (2520 // ((x & 0xFFFFFFFF) % 9 + 1)))
            out = TruncSeries._from_vec(alphabet, trunc, nums, RATIONAL, 2520)
            _remember(by_orbit, _MEMO_CAP, key, (out.vec, out.den))
            return out
        return TruncSeries._packed(alphabet, trunc, RATIONAL, hit)

    return SymbolFn(ev, alphabet, trunc, RATIONAL, almost=True)


def random_scalar_symbol(seed):
    """Seeded scalar Dedekind symbol (p, q) -> Fraction, memoized per orbit."""
    by_orbit = {}

    def d(p, q):
        key = orbit_key(p, q)
        val = by_orbit.get(key)
        if val is None:
            val = _hash_fraction(seed, key, "scalar")
            _remember(by_orbit, _MEMO_CAP, key, val)
        return val

    return d


def scalar_psi(d):
    """Scalar associated function f(p,q) = d(p,q) - d(-q,p)."""
    return lambda p, q: d(p, q) - d(-q, p)


def power_difference_rf(m, c=1):
    """f(p,q) = c (p^(2m) - q^(2m)): a reciprocity function on all of U,
    used to exercise the representation-independent construction."""
    c = Fraction(c)

    def f(p, q):
        return c * (Fraction(p) ** (2 * m) - Fraction(q) ** (2 * m))

    return f


# ---------------------------------------------------------------------------
# Constructive decomposition

class Decomposition:
    """Ordered exponential factors exp(c_w(p,q) w), words of length 1..depth,
    of a symbol D, the ``target``.

    Peeling at a pair: walk the words in canonical order, set c_w to the
    gap between the target component and the running product, then right-
    multiply the running product by exp(c_w w).  The running product then
    agrees with the target on all components of length <= depth.  Each c_w
    is a function of the value D(p, q) alone, so it satisfies the symbol
    axioms that D does, normalized or not.
    """

    def __init__(self, target, depth, tol):
        if depth > target.trunc:
            raise ValueError("depth exceeds the truncation length")
        self.target = target
        self.depth = depth
        self.tol = tol
        self.words = list(target.alphabet.iter_words(depth, min_len=1))
        self._peeled = {}

    def _check_grouplike(self, series, pair):
        rep = series.is_grouplike(self.tol, relative=True)
        if not rep.ok:
            raise NotShuffled(f"input is not shuffled at {pair}: violation {rep.worst:.3g} at {rep.witness}")

    def _peel(self, p, q):
        got = self._peeled.get((p, q))
        if got is None:
            t = self.target(p, q)
            self._check_grouplike(t, (p, q))
            current = TruncSeries.one(t.alphabet, self.target.trunc, t.kind)
            cs = {}
            for w in self.words:
                c = t.coeff(w) - current.coeff(w)
                cs[w] = c
                current = current * TruncSeries.exp_term(t.alphabet, self.target.trunc, w, c, t.kind)
            got = (cs, current)
            _remember(self._peeled, _MEMO_CAP, (p, q), got)
        return got

    def coefficient(self, word, p, q):
        """The scalar factor c_w at (p, q); a Dedekind symbol in (p, q)."""
        return self._peel(p, q)[0][self.target.alphabet.word(word)]

    def scalar_fn(self, word):
        word = self.target.alphabet.word(word)
        return lambda p, q: self._peel(p, q)[0][word]

    def factors(self, p, q):
        """Ordered (word, coefficient) factors at (p, q)."""
        cs = self._peel(p, q)[0]
        return [(w, cs[w]) for w in self.words]

    def reconstruction(self, p, q):
        return self._peel(p, q)[1]

    def residual(self, p, q):
        """Largest gap between the reconstruction and the target on words of
        length <= depth."""
        return self.target(p, q).truncated(self.depth).max_abs_diff(self.reconstruction(p, q))


def decompose(d, depth, tol=1e-9):
    """Peel a shuffled Dedekind symbol D into exponential factors.

    D is peeled as given; for a reciprocity function F, pass delta(F).
    Raises NotShuffled lazily when an evaluation point fails the group-like
    test at the given tolerance.
    """
    if not isinstance(d, SymbolFn):
        raise TypeError(f"decompose expects a SymbolFn, got {type(d).__name__}; "
                        "pass delta(F) for a reciprocity function F")
    return Decomposition(d, depth, tol)
