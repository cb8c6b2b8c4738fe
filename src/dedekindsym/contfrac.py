"""Minus (negative-regular) continued fractions <a0,...,an>.

<x0,...,xn> = x0 - 1/(x1 - 1/(... - 1/xn)).  The numerator/denominator
pair of a sequence is produced by the recursion

    P0(x0) = 1,  Q0(x0) = x0,
    P(n+1)(x0..x(n+1)) = Qn(x1..x(n+1)),
    Q(n+1)(x0..x(n+1)) = x0 Qn(x1..x(n+1)) - Pn(x1..x(n+1)),

so the sequence evaluates to the coprime pair (p, q) = (Pn, Qn) with
value q/p.  Every rational with positive denominator has a unique
canonical representation with a_i >= 2 for i >= 1.

The moves t1/t2/t3 (and inverses) rewrite a sequence without changing
the rational number it represents.

``coprime`` is the one check of a pair (p, q) for every function of the
package that takes one, and ``unimodular`` completes a pair to a matrix of
SL2(Z).
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd
from operator import index

from .errors import DivisionByZeroTail, DomainError

CoprimePair = namedtuple("CoprimePair", "p q")


def coprime(p, q, almost=False):
    """The pair read as integers, (p, q) as a tuple: DomainError naming the
    pair when gcd(p, q) != 1 or, for an almost function, when pq = 0; a
    float or a string raises TypeError."""
    p, q = index(p), index(q)
    if gcd(p, q) != 1 or almost and not p * q:
        raise DomainError(f"({p}, {q}) must be coprime{' with pq != 0' if almost else ''}")
    return p, q


def unimodular(p, q):
    """(r, s) with q s - p r = 1, so that (q, r; p, s) in SL2(Z) maps
    i-infinity to q/p: |r| smallest, then s >= 0, then r smallest.  r is
    the inverse of -p modulo |q|, or that less |q|; at q = 0, where p = ±1,
    it is (-p, 0)."""
    p, q = coprime(p, q)
    if q == 0:
        return -p, 0
    r = pow(-p, -1, abs(q))
    return min(((x, (1 + p * x) // q) for x in (r, r - abs(q))),
               key=lambda rs: (abs(rs[0]), rs[1] < 0, rs[0]))


class CFSeq:
    """Immutable, nonempty integer sequence a0,...,an; an entry that is not
    an integer (a float, a string) raises TypeError."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(map(index, entries))
        if not entries:
            raise ValueError("continued-fraction sequence must be nonempty")
        self.entries = entries

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        return isinstance(other, CFSeq) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"CFSeq{list(self.entries)}"

    def is_canonical(self):
        return all(a >= 2 for a in self.entries[1:])


def evaluate(s):
    """Coprime pair (p, q) with <a0,...,an> = q/p: the head of ``tails``.

    Raises DivisionByZeroTail when the nested fraction is undefined, i.e.
    when P vanishes for some tail.
    """
    return tails(s)[0]


def tails(s):
    """Pairs (p_i, q_i) with q_i/p_i = <a_i,...,a_n>, i = 0..n, of a CFSeq
    or of a raw sequence, read as a CFSeq."""
    entries = (s if isinstance(s, CFSeq) else CFSeq(s)).entries
    out = [CoprimePair(1, entries[-1])]
    for i in range(len(entries) - 2, -1, -1):
        p, q = out[-1]
        if q == 0:
            # tail <a(i+1),...,an> evaluates to 0: the enclosing 1/tail is undefined
            raise DivisionByZeroTail(f"tail at index {i + 1} of {list(entries)} evaluates to 0")
        out.append(CoprimePair(q, entries[i] * q - p))
    out.reverse()
    if out[0].p == 0:
        raise DivisionByZeroTail(f"{list(entries)} has vanishing denominator")
    return out


def canonical_tails(p, q):
    """The tails (p_i, q_i) of the canonical sequence of q/p, i = 0..n, top
    first and one at a time: tail i+1 is (a_i p_i - q_i, p_i) with
    a_i = ceil(q_i/p_i), and the last tail is the first with p_i = 1.

    Requires a ``coprime`` pair with p >= 1 (callers canonicalize the sign
    of the pair first); checked when the first tail is drawn.
    """
    p, q = coprime(p, q)
    if p <= 0:
        raise DomainError(f"canonical continued fractions need p >= 1, got ({p}, {q})")
    while True:
        yield CoprimePair(p, q)
        if p == 1:
            return
        # remainder x = 1/(a - q/p) = p/(a p - q), a value > 1
        p, q = -((-q) // p) * p - q, p


def reduced(p, q):
    """(p, q) moved by the sign and translation axioms, D(p, q) = D(-p, -q) =
    D(p, p + q), to p > 0 and -p/2 <= q < p/2; at p = 1 to (1, 1) or (1, -1),
    as no translation crosses q = 0."""
    if p < 0:
        p, q = -p, -q
    if p == 1:
        return 1, 1 if q > 0 else -1
    return p, (q + p // 2) % p - p // 2


def euclid_walk(p, q):
    """The reduced pairs r_0 = reduced(p, q), r_(i+1) = reduced(-q_i, p_i),
    top first and one at a time, down to (1, 1): the nearest-integer
    continued fraction of q/p.  Each step at least halves the first entry,
    so there are at most floor(log2 |p|) + 1 steps.  The pairs are plain
    tuples, which the collector can untrack.

    Requires a ``coprime`` pair with p != 0; checked when the first pair is
    drawn.
    """
    p, q = coprime(p, q)
    if p == 0:
        raise DomainError(f"the Euclid walk needs p != 0, got ({p}, {q})")
    r = reduced(p, q)
    while r != (1, 1):
        yield r
        r = reduced(-r[1], r[0])
    yield r


def canonical(p, q):
    """The unique sequence with evaluate -> (p, q) and a_i >= 2 for i >= 1,
    a_i = ceil(q_i/p_i) over the tails of ``canonical_tails``.  Integers q/p
    come out as the single entry [q/p].
    """
    return CFSeq(-((-qi) // pi) for pi, qi in canonical_tails(p, q))


def _checked(entries):
    seq = CFSeq(entries)
    evaluate(seq)  # moves must produce evaluable sequences
    return seq


def move_t1(s, i, eps):
    """(..., a_i, a_{i+1}, ...) -> (..., a_i + eps, eps, a_{i+1} + eps, ...), eps = ±1."""
    if eps not in (1, -1):
        raise ValueError("eps must be ±1")
    a = s.entries
    if not 0 <= i <= len(a) - 2:
        raise ValueError("t1 needs an index i in 0..n-1")
    return _checked(a[:i] + (a[i] + eps, eps, a[i + 1] + eps) + a[i + 2:])


def move_t1_inverse(s, i):
    """Remove the ±1 at position i+1, subtracting it from both neighbours."""
    a = s.entries
    if not 1 <= i + 1 <= len(a) - 2:
        raise ValueError("t1 inverse needs an interior position")
    eps = a[i + 1]
    if eps not in (1, -1):
        raise ValueError("entry to remove must be ±1")
    return _checked(a[:i] + (a[i] - eps, a[i + 2] - eps) + a[i + 3:])


def move_t2(s, i, b, c):
    """Split a_i = b + c into (..., b, 0, c, ...)."""
    a = s.entries
    if not 0 <= i <= len(a) - 1:
        raise ValueError("t2 index out of range")
    if b + c != a[i]:
        raise ValueError(f"need b + c = a_i, got {b} + {c} != {a[i]}")
    return _checked(a[:i] + (b, 0, c) + a[i + 1:])


def move_t2_inverse(s, i):
    """Collapse (..., b, 0, c, ...) with the 0 at position i+1 back to (..., b+c, ...)."""
    a = s.entries
    if not 0 <= i <= len(a) - 3 or a[i + 1] != 0:
        raise ValueError("t2 inverse needs a zero at position i+1")
    return _checked(a[:i] + (a[i] + a[i + 2],) + a[i + 3:])


def move_t3(s, eps):
    """(..., a_n) -> (..., a_n + eps, eps), eps = ±1."""
    if eps not in (1, -1):
        raise ValueError("eps must be ±1")
    a = s.entries
    return _checked(a[:-1] + (a[-1] + eps, eps))


def move_t3_inverse(s):
    a = s.entries
    if len(a) < 2 or a[-1] not in (1, -1):
        raise ValueError("t3 inverse needs a trailing ±1")
    return _checked(a[:-2] + (a[-2] - a[-1],))


def value(s):
    """The rational q/p as an exact Fraction (for move-invariance checks)."""
    p, q = evaluate(s)
    return Fraction(q, p)
