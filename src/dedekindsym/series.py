"""Truncated non-commutative formal power series over a weighted alphabet.

Elements live in the quotient of R<<A>> by words of length > N.  The
coefficient ring R is either exact rationals or complex floats.

Every series is dense: ``vec`` is a tuple of one coefficient per word of
length <= N, in the order of the word table ``_split_table(alphabet, N)``
(by length, then lexicographic), so truncation is a prefix.  Complex
series hold Python ``complex`` values, rational series Python ``int``
numerators over one denominator ``den`` > 0 in lowest terms, so ``==`` is
value equality.  A tuple of ints or complex values holds no reference the
garbage collector must follow, so it drops out of the collector's lists at
the first collection it meets, and memos keep the pair ``(vec, den)``.
The table also carries two kernels compiled once from the splits w = u v
of every word, one straight-line sum per word: the product, through which
exp and log run, and the inverse.  ``coeffs`` is a read-only view
{word: coefficient} of the nonzero entries, with ``Fraction`` values for
rational series.

Words are plain tuples of letter indices; ``Alphabet.word`` reads an
index tuple or a string of letter names into one.  Words and coefficients
are checked only at the API boundaries: the public constructors, ``coeff``
and ``scale``.
"""

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from operator import index, sub
from types import MappingProxyType

from .errors import NotInvertible

RATIONAL = "rational"
COMPLEX = "complex"


class Alphabet:
    """Ordered set of symbols, each a one-character name carrying an even
    weight >= 2, so that a string of names spells one word."""

    __slots__ = ("names", "weights", "_index", "_hash")

    def __init__(self, symbols):
        symbols = tuple((str(n), int(w)) for n, w in symbols)
        names = tuple(n for n, _ in symbols)
        weights = tuple(w for _, w in symbols)
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol identifiers")
        for n, w in symbols:
            if len(n) != 1:
                raise ValueError(f"letter name {n!r} must be one character")
            if w < 2 or w % 2:
                raise ValueError(f"weight of {n!r} must be an even integer >= 2, got {w}")
        self.names = names
        self.weights = weights
        self._index = {n: i for i, n in enumerate(names)}
        self._hash = hash((names, weights))

    @classmethod
    def simple(cls, names, weight=2):
        """Alphabet with a common weight, e.g. ``Alphabet.simple("ab")``."""
        return cls((n, weight) for n in names)

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.names == other.names and self.weights == other.weights

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Alphabet(%s)" % ", ".join(f"{n}:{w}" for n, w in zip(self.names, self.weights))

    def index(self, name):
        return self._index[name]

    def word(self, letters):
        """Coerce an index tuple or a string of identifiers to an index tuple;
        an index that is not an integer (a float, a string) raises TypeError."""
        if isinstance(letters, str):
            try:
                return tuple(self._index[c] for c in letters)
            except KeyError as exc:
                raise ValueError(f"unknown letter {exc.args[0]!r} in word {letters!r}") from None
        letters = tuple(map(index, letters))
        for i in letters:
            if not 0 <= i < len(self.names):
                raise ValueError(f"letter index {i} out of range")
        return letters

    def word_weight(self, letters):
        return sum(self.weights[i] for i in letters)

    def word_name(self, letters):
        return "".join(self.names[i] for i in letters)

    def iter_words(self, max_len, min_len=0):
        """All index tuples with min_len <= length <= max_len, by length then lexicographic."""
        for r in range(min_len, max_len + 1):
            yield from itertools.product(range(len(self.names)), repeat=r)

    def union(self, other):
        """Merged alphabet (self's order, then other's new letters) and index maps."""
        merged = list(zip(self.names, self.weights))
        for n, w in zip(other.names, other.weights):
            if n in self._index:
                if self.weights[self._index[n]] != w:
                    raise ValueError(f"symbol {n!r} has conflicting weights")
            else:
                merged.append((n, w))
        big = Alphabet(merged)
        map_self = tuple(big.index(n) for n in self.names)
        map_other = tuple(big.index(n) for n in other.names)
        return big, map_self, map_other


def _shuffle_tuples(u, v):
    if not u:
        return [v]
    if not v:
        return [u]
    return [(u[0],) + w for w in _shuffle_tuples(u[1:], v)] + [(v[0],) + w for w in _shuffle_tuples(u, v[1:])]


def shuffle_words(u, v):
    """Multiset of the C(l(u)+l(v), l(u)) interleavings of the index tuples u and v."""
    return _shuffle_tuples(tuple(u), tuple(v))


GroupLikeness = namedtuple("GroupLikeness", "ok worst witness")

_SplitTable = namedtuple("_SplitTable", "words index mul inv")


@lru_cache(maxsize=32)
def _split_table(alphabet, trunc):
    """Words of length <= trunc in canonical order (row 0 is the empty word),
    their row numbers, and two kernels compiled from the splits w = u v of
    every word, by |u| ascending: ``mul(x, y)`` is the product vector
    sum x_u y_v, and ``inv(s, den, exact)`` is the pair (vector, denominator)
    of the inverse of the series s / den (see ``TruncSeries.inverse``).  Each
    is one straight-line sum per word that starts at the int 0, so it
    rounds, and signs its zeros, as a loop accumulating from 0 would; both
    return tuples."""
    words = tuple(alphabet.iter_words(trunc))
    index = {w: i for i, w in enumerate(words)}
    splits = tuple(tuple((index[w[:k]], index[w[k:]]) for k in range(len(w) + 1)) for w in words)

    def from_0(terms):
        return " + ".join(["0", *terms])

    products = "".join(from_0(f"x[{i}] * y[{j}]" for i, j in s) + ", " for s in splits)
    powers = "".join(f"    c{k} = c ** {k}\n" for k in range(trunc + 2))
    scaled = "".join(f"    t{j} = s[{j}] * c{len(w) - 1}\n" for j, w in enumerate(words[1:], 1))
    solve = "".join(f"    m{w} = -({from_0(f'm{i} * t{j}' for i, j in s[:-1])})\n"
                    for w, s in enumerate(splits[1:], 1))
    out = [f"m{w} * den * c{trunc - len(word)}" for w, word in enumerate(words)]
    kernels = {}
    exec(f"def mul(x, y):\n    return ({products})\n"
         f"def inv(s, den, exact):\n    c = s[0]\n{powers}{scaled}    m0 = 1\n{solve}"
         f"    if exact:\n        return ({''.join(x + ', ' for x in out)}), c{trunc + 1}\n"
         f"    return ({''.join(f'{x} / c{trunc + 1}, ' for x in out)}), 1\n", kernels)
    return _SplitTable(words, index, kernels["mul"], kernels["inv"])


@lru_cache(maxsize=32)
def _shuffle_table(alphabet, trunc):
    """The pairs (u, v) of nonempty words with u <= v and |u| + |v| <= trunc,
    in the order ``is_grouplike`` tests them: (u, v, row of u, row of v,
    rows of the shuffles of u and v in ``shuffle_words`` order)."""
    index = _split_table(alphabet, trunc).index
    words = list(alphabet.iter_words(trunc - 1, min_len=1))
    return tuple((u, v, index[u], index[v], tuple(index[w] for w in _shuffle_tuples(u, v)))
                 for u in words for v in words if u <= v and len(u) + len(v) <= trunc)


_ZERO = {RATIONAL: 0, COMPLEX: 0j}


def _coerce(kind, value):
    if kind == COMPLEX:
        return complex(value)
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"rational series needs int/Fraction coefficients, got {type(value).__name__}")
    return Fraction(value)


@lru_cache(maxsize=256)
def _exp_kernel(alphabet, trunc, word, kind):
    """The map c -> exp(c w) for a nonempty index tuple w, checked here once:
    a rational c = a/b (an int or a Fraction) gives numerators
    a^k b^(K-k) K!/k! over b^K K!; a complex c^k is taken by repeated
    products, and 1/k! is applied as its nearest float.  The rows of w^k
    and the factors are fixed here, so a call writes one vector."""
    if not word or trunc < 0 or kind not in _ZERO:
        raise ValueError(f"exp_term needs a nonempty word, trunc >= 0 and a known kind, "
                         f"got {word}, {trunc}, {kind!r}")
    K = trunc // len(word)
    index = _split_table(alphabet, trunc).index
    rows = [index[word * k] for k in range(K + 1)]
    zero = [_ZERO[kind]] * len(index)
    if kind == RATIONAL:
        fk = factorial(K)
        ratios = [fk // factorial(k) for k in range(K + 1)]

        def exp_at(c):
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"rational series needs int/Fraction coefficients, got {type(c).__name__}")
            a, b, vec = c.numerator, c.denominator, zero.copy()
            for k, row in enumerate(rows):
                vec[row] = a ** k * b ** (K - k) * ratios[k]
            return TruncSeries._from_vec(alphabet, trunc, vec, RATIONAL, b ** K * fk)
        return exp_at
    inv_fact = [float(Fraction(1, factorial(k))) for k in range(K + 1)]

    def exp_at(c):
        c, ck, vec = complex(c), 1, zero.copy()
        for row, f in zip(rows, inv_fact):
            # + 0j turns a zero part -0.0 into 0.0, as exp's sums do
            vec[row] = ck * f + 0j
            ck = ck * c
        return TruncSeries._from_vec(alphabet, trunc, vec)
    return exp_at


class TruncSeries:
    """A truncated series: the coefficient vector ``vec`` over the word table
    of (alphabet, trunc), with rational numerators over ``den``.  Instances
    are immutable by convention: no method mutates ``vec`` after construction.
    """

    __slots__ = ("alphabet", "trunc", "kind", "vec", "den")

    def __init__(self, alphabet, trunc, coeffs=None, kind=RATIONAL):
        if trunc < 0:
            raise ValueError("truncation length must be >= 0")
        if kind not in _ZERO:
            raise ValueError(f"unknown series kind {kind!r}")
        self.alphabet = alphabet
        self.trunc = int(trunc)
        self.kind = kind
        index = _split_table(alphabet, self.trunc).index
        clean = {}
        for w, c in (coeffs or {}).items():
            w = alphabet.word(w)
            if len(w) <= self.trunc:
                clean[index[w]] = _coerce(kind, c)
        # lowest terms: each Fraction is, and den is the lcm of their denominators
        self.den = lcm(*(c.denominator for c in clean.values())) if kind == RATIONAL else 1
        vec = [_ZERO[kind]] * len(index)
        for i, c in clean.items():
            vec[i] = c if kind == COMPLEX else c.numerator * self.den // c.denominator
        self.vec = tuple(vec)

    @classmethod
    def _from_vec(cls, alphabet, trunc, vec, kind=COMPLEX, den=1):
        """Series from a vector over the word table, checking nothing; rational
        numerators over ``den`` are brought to lowest terms, den > 0."""
        if kind == RATIONAL:
            g = gcd(den, *vec) if den > 0 else -gcd(den, *vec)
            if g != 1:
                vec = [n // g for n in vec]
                den //= g
        out = object.__new__(cls)
        out.alphabet, out.trunc, out.kind, out.vec, out.den = alphabet, trunc, kind, tuple(vec), den
        return out

    @classmethod
    def _packed(cls, alphabet, trunc, kind, vec, den):
        """Series from the ``(vec, den)`` of another series over the same word
        table: a tuple, rational numerators in lowest terms; nothing checked."""
        out = object.__new__(cls)
        out.alphabet, out.trunc, out.kind, out.vec, out.den = alphabet, trunc, kind, vec, den
        return out

    @classmethod
    def one(cls, alphabet, trunc, kind=RATIONAL):
        return cls(alphabet, trunc, {(): 1}, kind)

    @classmethod
    def zero(cls, alphabet, trunc, kind=RATIONAL):
        return cls(alphabet, trunc, {}, kind)

    @classmethod
    def term(cls, alphabet, trunc, word, coeff, kind=RATIONAL):
        return cls(alphabet, trunc, {word: coeff}, kind)

    @classmethod
    def exp_term(cls, alphabet, trunc, word, coeff, kind=RATIONAL):
        """exp(c w) = sum over k <= trunc // |w| of c^k / k! w^k for a nonempty
        word w, with the bytes of ``term(...).exp()`` (see ``_exp_kernel``)."""
        return _exp_kernel(alphabet, trunc, alphabet.word(word), kind)(coeff)

    def coeff(self, word):
        row = _split_table(self.alphabet, self.trunc).index.get(self.alphabet.word(word))
        c = 0 if row is None else self.vec[row]
        return Fraction(c, self.den) if self.kind == RATIONAL else complex(c)

    def items(self):
        """Nonzero (word tuple, coefficient) pairs in canonical order: by length, then lexicographic."""
        words = _split_table(self.alphabet, self.trunc).words
        values = self.vec if self.kind == COMPLEX else [Fraction(n, self.den) for n in self.vec]
        return [(w, c) for w, c in zip(words, values) if c]

    @property
    def coeffs(self):
        """Read-only map word tuple -> coefficient of the nonzero entries."""
        return MappingProxyType(dict(self.items()))

    def _common(self, other):
        """Both operands over one alphabet and one kind (complex if they differ)."""
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        if self.kind == other.kind:
            return self, other
        return tuple(s if s.kind == COMPLEX else
                     TruncSeries._from_vec(s.alphabet, s.trunc, [complex(n / s.den) for n in s.vec])
                     for s in (self, other))

    def __add__(self, other):
        a, b = self._common(other)
        trunc = min(a.trunc, b.trunc)
        if a.kind == COMPLEX:
            return TruncSeries._from_vec(a.alphabet, trunc, [x + y for x, y in zip(a.vec, b.vec)])
        den = lcm(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        return TruncSeries._from_vec(a.alphabet, trunc, [x * fa + y * fb for x, y in zip(a.vec, b.vec)],
                                     RATIONAL, den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TruncSeries._from_vec(self.alphabet, self.trunc, [-c for c in self.vec], self.kind, self.den)

    def scale(self, scalar):
        if self.kind == COMPLEX:
            return TruncSeries._from_vec(self.alphabet, self.trunc, [complex(c * scalar) for c in self.vec])
        scalar = _coerce(RATIONAL, scalar)
        return TruncSeries._from_vec(self.alphabet, self.trunc, [c * scalar.numerator for c in self.vec],
                                     RATIONAL, self.den * scalar.denominator)

    def __mul__(self, other):
        """Concatenation (Cauchy) product: (ST)^w = sum over splittings uv = w,
        by |u| ascending."""
        if not isinstance(other, TruncSeries):
            return self.scale(other)
        a, b = self._common(other)
        trunc = min(a.trunc, b.trunc)
        out = _split_table(a.alphabet, trunc).mul(a.vec, b.vec)
        return TruncSeries._from_vec(a.alphabet, trunc, out, a.kind, a.den * b.den)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def inverse(self):
        """Inverse; requires an invertible constant term.  With n_w = den S_w
        and c = n_∅, T_w = n_w c^(|w|-1) has constant term 1 and an inverse
        m, m_w = -sum over w = u v, v nonempty, of m_u T_v; then
        (S^-1)_w = m_w den c^(N-|w|) / c^(N+1).  The word table's kernel
        ``inv`` runs all of it, word length by word length, with the powers
        c^k taken as ``c ** k``; for rational series it stops before the
        division and returns the numerators over c^(N+1), all in integers."""
        if not self.vec[0]:
            raise NotInvertible("constant term is zero")
        vec, den = _split_table(self.alphabet, self.trunc).inv(self.vec, self.den, self.kind == RATIONAL)
        return TruncSeries._from_vec(self.alphabet, self.trunc, vec, self.kind, den)

    def _power_sum(self, acc, coef):
        """acc + sum over n = 1..trunc of coef(n) S^n; ``coef(n)`` is a
        Fraction, applied to a complex series as the nearest float (the
        value a complex-by-Fraction product rounds it to anyway)."""
        power = TruncSeries.one(self.alphabet, self.trunc, self.kind)
        for n in range(1, self.trunc + 1):
            power = power * self
            c = coef(n)
            acc = acc + power.scale(c if self.kind == RATIONAL else float(c))
        return acc

    def exp(self):
        """exp(S) = sum S^n / n!; requires S^∅ = 0."""
        if self.vec[0]:
            raise ValueError("exp requires zero constant term")
        return self._power_sum(TruncSeries.one(self.alphabet, self.trunc, self.kind),
                               lambda n: Fraction(1, factorial(n)))

    def log(self):
        """log(S) = sum (-1)^(n+1) (S-1)^n / n; requires S^∅ = 1."""
        if self.coeff(()) != 1:
            raise ValueError("log requires constant term 1")
        x = self - TruncSeries.one(self.alphabet, self.trunc, self.kind)
        return x._power_sum(TruncSeries.zero(self.alphabet, self.trunc, self.kind),
                            lambda n: Fraction((-1) ** (n + 1), n))

    def truncated(self, n):
        trunc = min(self.trunc, n)
        rows = len(_split_table(self.alphabet, trunc).words)
        return TruncSeries._from_vec(self.alphabet, trunc, self.vec[:rows], self.kind, self.den)

    def remap(self, alphabet, index_map):
        """Reindex letters into a superalphabet (index_map[i] = new index of letter i)."""
        index = _split_table(alphabet, self.trunc).index
        vec = [_ZERO[self.kind]] * len(index)
        for w, c in zip(_split_table(self.alphabet, self.trunc).words, self.vec):
            vec[index[tuple(index_map[i] for i in w)]] = c
        return TruncSeries._from_vec(alphabet, self.trunc, vec, self.kind, self.den)

    def max_abs_diff(self, other):
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        a, b = (s.vec if s.kind == COMPLEX else [n / s.den for n in s.vec] for s in (self, other))
        return max(map(abs, map(sub, a, b)), default=0.0)

    def is_grouplike(self, tol=0, relative=False):
        """Check S^u S^v = sum_{w in Sh(u,v)} S^w for all u, v with l(u)+l(v) <= trunc.

        Exact for rational coefficients (tol ignored); returns the worst
        violation and a witness pair of words.  With ``relative`` each
        violation is divided by the size of its terms, |S^u S^v| + sum |S^w|,
        taken at least 1.  A rational series compares numerators,
        n_u n_v = den sum n_w, and reads its violations as ``Fraction``s only
        when one of them fails.
        """
        vec, den, zero = self.vec, self.den, _ZERO[self.kind]
        if vec[0] != den:
            raise ValueError("group-like test requires constant term 1")
        table = _shuffle_table(self.alphabet, self.trunc)
        if self.kind == RATIONAL:
            for _, _, i, j, rows in table:
                if vec[i] * vec[j] != den * sum([vec[k] for k in rows]):
                    break
            else:
                return GroupLikeness(True, 0.0, None)
            vec = [Fraction(n, den) for n in vec]
        worst = 0.0
        witness = None
        for u, v, i, j, rows in table:
            lhs = vec[i] * vec[j]
            terms = [vec[k] for k in rows]
            viol = abs(complex(lhs) - complex(sum(terms, start=zero)))
            if relative:
                viol /= max(1.0, abs(lhs) + sum(abs(t) for t in terms))
            if viol > worst:
                worst = viol
                witness = (u, v)
        if self.kind == RATIONAL:
            return GroupLikeness(worst == 0, worst, witness)
        return GroupLikeness(worst <= tol, worst, witness)

    def __eq__(self, other):
        return (isinstance(other, TruncSeries) and self.alphabet == other.alphabet
                and self.trunc == other.trunc and self.kind == other.kind
                and self.den == other.den and self.vec == other.vec)

    def __repr__(self):
        terms = []
        for w, c in self.items():
            name = self.alphabet.word_name(w) or "1"
            terms.append(f"{c}*{name}" if w else f"{c}")
        body = " + ".join(terms) if terms else "0"
        return f"TruncSeries[{self.kind},N={self.trunc}]({body})"
