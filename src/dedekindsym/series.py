"""Truncated non-commutative formal power series over a weighted alphabet.

Elements live in the quotient of R<<A>> by words of length > N.  The
coefficient ring R is either exact rationals (``fractions.Fraction``) or
complex floats (Python ``complex``).

Words are plain tuples of letter indices inside a series; the ``Word``
wrapper carries the alphabet so that lengths, weights and concatenation
can be validated at API boundaries.  Words and coefficients are checked
only there: the public constructors, ``coeff`` and ``scale``.  Arithmetic
on valid series builds its coefficient dicts directly.
"""

import itertools
import json
from collections import namedtuple
from fractions import Fraction

from .errors import NotInvertible

RATIONAL = "rational"
COMPLEX = "complex"


class Alphabet:
    """Ordered set of symbols, each carrying an even weight >= 2."""

    __slots__ = ("names", "weights", "_index")

    def __init__(self, symbols):
        symbols = tuple((str(n), int(w)) for n, w in symbols)
        names = tuple(n for n, _ in symbols)
        weights = tuple(w for _, w in symbols)
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol identifiers")
        for n, w in symbols:
            if w < 2 or w % 2:
                raise ValueError(f"weight of {n!r} must be an even integer >= 2, got {w}")
        self.names = names
        self.weights = weights
        self._index = {n: i for i, n in enumerate(names)}

    @classmethod
    def simple(cls, names, weight=2):
        """Alphabet with a common weight, e.g. ``Alphabet.simple("ab")``."""
        return cls((n, weight) for n in names)

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.names == other.names and self.weights == other.weights

    def __hash__(self):
        return hash((self.names, self.weights))

    def __repr__(self):
        return "Alphabet(%s)" % ", ".join(f"{n}:{w}" for n, w in zip(self.names, self.weights))

    def index(self, name):
        return self._index[name]

    def word(self, letters):
        """Coerce a Word / index tuple / string of identifiers to an index tuple."""
        if isinstance(letters, Word):
            if letters.alphabet != self:
                raise ValueError("word belongs to a different alphabet")
            return letters.letters
        if isinstance(letters, str):
            try:
                return tuple(self._index[c] for c in letters)
            except KeyError as exc:
                raise ValueError(f"unknown letter {exc.args[0]!r} in word {letters!r}") from None
        letters = tuple(int(i) for i in letters)
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


class Word:
    """A word over an alphabet; empty word has length 0 and weight 0."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet, letters):
        self.alphabet = alphabet
        self.letters = alphabet.word(letters)

    @property
    def length(self):
        return len(self.letters)

    @property
    def weight(self):
        return self.alphabet.word_weight(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.alphabet == other.alphabet and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return "Word(%r)" % (self.alphabet.word_name(self.letters) or "∅")


def concat(u, v):
    """Concatenation uv; lengths and weights add."""
    if u.alphabet != v.alphabet:
        raise ValueError("cannot concatenate words over different alphabets")
    return Word(u.alphabet, u.letters + v.letters)


def _shuffle_tuples(u, v):
    if not u:
        return [v]
    if not v:
        return [u]
    return [(u[0],) + w for w in _shuffle_tuples(u[1:], v)] + [(v[0],) + w for w in _shuffle_tuples(u, v[1:])]


def shuffle_words(u, v):
    """Multiset of the C(l(u)+l(v), l(u)) interleavings of u and v.

    Accepts Word objects (same alphabet) and returns Word objects; plain
    index tuples are shuffled as-is.
    """
    if isinstance(u, Word) or isinstance(v, Word):
        if u.alphabet != v.alphabet:
            raise ValueError("shuffle of words over different alphabets")
        return [Word(u.alphabet, w) for w in _shuffle_tuples(u.letters, v.letters)]
    return _shuffle_tuples(tuple(u), tuple(v))


GroupLikeness = namedtuple("GroupLikeness", "ok worst witness")


_ZERO = {RATIONAL: Fraction(0), COMPLEX: 0j}


def _coerce(kind, value):
    if kind == COMPLEX:
        return complex(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"rational series needs int/Fraction coefficients, got {type(value).__name__}")


class TruncSeries:
    """Series 1-term map word -> coefficient, truncated at word length ``trunc``.

    Absent words read as zero; arithmetic drops words longer than the
    truncation and prunes exact zeros.  Instances are immutable by
    convention: no method mutates ``coeffs`` after construction.
    """

    __slots__ = ("alphabet", "trunc", "kind", "coeffs")

    def __init__(self, alphabet, trunc, coeffs=None, kind=RATIONAL):
        if trunc < 0:
            raise ValueError("truncation length must be >= 0")
        if kind not in _ZERO:
            raise ValueError(f"unknown series kind {kind!r}")
        self.alphabet = alphabet
        self.trunc = int(trunc)
        self.kind = kind
        clean = {}
        for w, c in (coeffs or {}).items():
            w = alphabet.word(w)
            if len(w) > self.trunc:
                continue
            c = _coerce(kind, c)
            if c == 0:
                continue
            clean[w] = c
        self.coeffs = clean

    @classmethod
    def _trusted(cls, alphabet, trunc, coeffs, kind):
        """Series from index-tuple words and coefficients already of ``kind``:
        drops exact zeros and words longer than ``trunc``, checks nothing."""
        out = object.__new__(cls)
        out.alphabet = alphabet
        out.trunc = trunc
        out.kind = kind
        out.coeffs = {w: c for w, c in coeffs.items() if c and len(w) <= trunc}
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

    def coeff(self, word):
        return self.coeffs.get(self.alphabet.word(word), _ZERO[self.kind])

    def items(self):
        """(word tuple, coefficient) pairs in canonical order: by length, then lexicographic."""
        return sorted(self.coeffs.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def _like(self, coeffs, trunc=None):
        return TruncSeries._trusted(self.alphabet, self.trunc if trunc is None else trunc,
                                    coeffs, self.kind)

    def _common(self, other):
        """Both operands over one alphabet and one kind (complex if they differ)."""
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        if self.kind == other.kind:
            return self, other
        if self.kind == RATIONAL:
            return self._to_complex(), other
        return self, other._to_complex()

    def _to_complex(self):
        return TruncSeries._trusted(self.alphabet, self.trunc,
                                    {w: complex(c) for w, c in self.coeffs.items()}, COMPLEX)

    def __add__(self, other):
        a, b = self._common(other)
        out = dict(a.coeffs)
        for w, c in b.coeffs.items():
            out[w] = out.get(w, 0) + c
        return a._like(out, min(a.trunc, b.trunc))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({w: -c for w, c in self.coeffs.items()})

    def scale(self, scalar):
        return TruncSeries(self.alphabet, self.trunc,
                           {w: c * scalar for w, c in self.coeffs.items()}, self.kind)

    def _scaled(self, scalar):
        return self._like({w: c * scalar for w, c in self.coeffs.items()})

    def __mul__(self, other):
        """Concatenation (Cauchy) product: (ST)^w = sum over splittings uv = w."""
        if not isinstance(other, TruncSeries):
            return self.scale(other)
        a, b = self._common(other)
        trunc = min(a.trunc, b.trunc)
        out = {}
        for u, cu in a.coeffs.items():
            if len(u) > trunc:
                continue
            for v, cv in b.coeffs.items():
                if len(u) + len(v) > trunc:
                    continue
                w = u + v
                out[w] = out.get(w, 0) + cu * cv
        return a._like(out, trunc)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def inverse(self):
        """Geometric-series inverse; requires an invertible constant term."""
        c0 = self.coeffs.get(())
        if not c0:
            raise NotInvertible("constant term is zero")
        inv0 = Fraction(1) / c0 if self.kind == RATIONAL else 1.0 / c0
        # S = c0 (1 - X) with X supported in lengths >= 1
        x = self._like({w: -c * inv0 for w, c in self.coeffs.items() if w})
        acc = power = TruncSeries.one(self.alphabet, self.trunc, self.kind)
        for _ in range(self.trunc):
            power = power * x
            if not power.coeffs:
                break
            acc = acc + power
        return acc._scaled(inv0)

    def exp(self):
        """exp(S) = sum S^n / n!; requires S^∅ = 0."""
        if () in self.coeffs:
            raise ValueError("exp requires zero constant term")
        acc = power = TruncSeries.one(self.alphabet, self.trunc, self.kind)
        fact = 1
        for n in range(1, self.trunc + 1):
            power = power * self
            fact *= n
            if not power.coeffs:
                break
            acc = acc + power._scaled(Fraction(1, fact) if self.kind == RATIONAL else 1.0 / fact)
        return acc

    def log(self):
        """log(S) = sum (-1)^(n+1) (S-1)^n / n; requires S^∅ = 1."""
        if self.coeffs.get(()) != 1:
            raise ValueError("log requires constant term 1")
        x = self._like({w: c for w, c in self.coeffs.items() if w})
        acc = TruncSeries.zero(self.alphabet, self.trunc, self.kind)
        power = TruncSeries.one(self.alphabet, self.trunc, self.kind)
        for n in range(1, self.trunc + 1):
            power = power * x
            if not power.coeffs:
                break
            coef = Fraction((-1) ** (n + 1), n) if self.kind == RATIONAL else ((-1) ** (n + 1)) / n
            acc = acc + power._scaled(coef)
        return acc

    def truncated(self, n):
        return self._like(self.coeffs, min(self.trunc, n))

    def remap(self, alphabet, index_map):
        """Reindex letters into a superalphabet (index_map[i] = new index of letter i)."""
        out = {tuple(index_map[i] for i in w): c for w, c in self.coeffs.items()}
        return TruncSeries._trusted(alphabet, self.trunc, out, self.kind)

    def max_abs_diff(self, other):
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        n = min(self.trunc, other.trunc)
        worst = 0.0
        for w in set(self.coeffs) | set(other.coeffs):
            if len(w) > n:
                continue
            worst = max(worst, abs(complex(self.coeffs.get(w, 0)) - complex(other.coeffs.get(w, 0))))
        return worst

    def is_grouplike(self, tol=0, relative=False):
        """Check S^u S^v = sum_{w in Sh(u,v)} S^w for all u, v with l(u)+l(v) <= trunc.

        Exact for rational coefficients (tol ignored); returns the worst
        violation and a witness pair of words.  With ``relative`` each
        violation is divided by the size of its terms, |S^u S^v| + sum |S^w|,
        taken at least 1.
        """
        if self.coeffs.get(()) != 1:
            raise ValueError("group-like test requires constant term 1")
        get, zero = self.coeffs.get, _ZERO[self.kind]
        worst = 0.0
        witness = None
        words = list(self.alphabet.iter_words(self.trunc - 1, min_len=1))
        for u in words:
            for v in words:
                if u > v or len(u) + len(v) > self.trunc:
                    continue
                lhs = get(u, zero) * get(v, zero)
                terms = [get(w, zero) for w in _shuffle_tuples(u, v)]
                viol = abs(complex(lhs) - complex(sum(terms, start=zero)))
                if relative:
                    viol /= max(1.0, abs(lhs) + sum(abs(t) for t in terms))
                if viol > worst:
                    worst = viol
                    witness = (u, v)
        if self.kind == RATIONAL:
            return GroupLikeness(worst == 0, worst, witness)
        return GroupLikeness(worst <= tol, worst, witness)

    def to_record(self):
        """Structured record; bit-exact for rationals, 17 significant digits for floats."""
        entries = []
        for w, c in self.items():
            word = [self.alphabet.names[i] for i in w]
            if self.kind == RATIONAL:
                entries.append({"word": word, "num": c.numerator, "den": c.denominator})
            else:
                entries.append({"word": word,
                                "re": float(f"{c.real:.17g}"),
                                "im": float(f"{c.imag:.17g}")})
        return {"alphabet": [[n, w] for n, w in zip(self.alphabet.names, self.alphabet.weights)],
                "trunc": self.trunc, "kind": self.kind, "entries": entries}

    @classmethod
    def from_record(cls, rec):
        alphabet = Alphabet(rec["alphabet"])
        kind = rec["kind"]
        coeffs = {}
        for e in rec["entries"]:
            w = tuple(alphabet.index(n) for n in e["word"])
            if kind == RATIONAL:
                coeffs[w] = Fraction(e["num"], e["den"])
            else:
                coeffs[w] = complex(e["re"], e["im"])
        return cls(alphabet, rec["trunc"], coeffs, kind)

    def dumps(self):
        return json.dumps(self.to_record(), sort_keys=True)

    @classmethod
    def loads(cls, text):
        return cls.from_record(json.loads(text))

    def __eq__(self, other):
        return (isinstance(other, TruncSeries) and self.alphabet == other.alphabet
                and self.trunc == other.trunc and self.kind == other.kind
                and self.coeffs == other.coeffs)

    def __repr__(self):
        terms = []
        for w, c in self.items():
            name = self.alphabet.word_name(w) or "1"
            terms.append(f"{c}*{name}" if w else f"{c}")
        body = " + ".join(terms) if terms else "0"
        return f"TruncSeries[{self.kind},N={self.trunc}]({body})"
