import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dedekindsym import contfrac as cf
from dedekindsym import eichler, modforms, symbols
from dedekindsym.errors import DivisionByZeroTail, DomainError
from dedekindsym.series import Alphabet, TruncSeries


def nested_value(entries):
    """Independent oracle: evaluate the nested fraction right to left."""
    val = Fraction(entries[-1])
    for a in reversed(entries[:-1]):
        if val == 0:
            raise ZeroDivisionError
        val = a - 1 / val
    return val


class TestEvaluate:
    def test_base_case(self):
        assert cf.evaluate([3]) == (1, 3)

    def test_two_entries(self):
        assert cf.evaluate([2, 3]) == (3, 5)
        assert nested_value([2, 3]) == Fraction(5, 3)

    def test_four_one(self):
        assert cf.evaluate([4, 1]) == (1, 3)

    def test_against_nested_oracle(self):
        rng = random.Random(2)
        checked = 0
        while checked < 300:
            n = rng.randint(1, 6)
            entries = [rng.randint(-5, 5) for _ in range(n)]
            try:
                want = nested_value(entries)
            except ZeroDivisionError:
                with pytest.raises(DivisionByZeroTail):
                    cf.evaluate(entries)
                continue
            try:
                p, q = cf.evaluate(entries)
            except DivisionByZeroTail:
                continue  # infinite value: the oracle cannot represent it either
            assert Fraction(q, p) == want
            assert gcd(p, q) == 1
            checked += 1

    def test_vanishing_tail(self):
        with pytest.raises(DivisionByZeroTail):
            cf.evaluate([1, 1, 1])

    def test_infinite_value(self):
        # <1, 1> = 0 is fine; <0> with a zero around it is not
        assert cf.evaluate([1, 1]) == (1, 0)
        with pytest.raises(DivisionByZeroTail):
            cf.evaluate([2, 0, 0])


class TestTails:
    def test_two_entries(self):
        assert cf.tails([2, 3]) == [(3, 5), (1, 3)]

    def test_single(self):
        assert cf.tails([3]) == [(1, 3)]

    def test_all_twos(self):
        for k in range(1, 8):
            ts = cf.tails([2] * k)
            assert ts == [(j, j + 1) for j in range(k, 0, -1)]

    def test_head_is_evaluate(self):
        rng = random.Random(4)
        for _ in range(50):
            p = rng.randint(1, 60)
            q = rng.randint(-60, 60)
            if q == 0 or gcd(p, q) != 1:
                continue
            seq = cf.canonical(p, q)
            assert cf.tails(seq)[0] == cf.evaluate(seq)


class TestEmptySequence:
    @pytest.mark.parametrize("read", [cf.evaluate, cf.tails])
    def test_empty_raises_value_error(self, read):
        # a raw sequence is read as a CFSeq, which must be nonempty
        with pytest.raises(ValueError, match="continued-fraction sequence must be nonempty"):
            read([])


class TestNonIntegerEntries:
    @pytest.mark.parametrize("read", [cf.CFSeq, cf.evaluate, cf.tails])
    @pytest.mark.parametrize("entries", [[2.5], ["3"], [2, 0.5]])
    def test_raise_type_error(self, read, entries):
        # an entry is read as an integer, never truncated or parsed
        with pytest.raises(TypeError):
            read(entries)


class TestCanonical:
    def test_examples(self):
        assert cf.canonical(3, 5) == cf.CFSeq([2, 3])
        assert cf.canonical(1, 3) == cf.CFSeq([3])
        assert cf.canonical(2, 3) == cf.CFSeq([2, 2])

    def test_negative_and_zero_targets(self):
        assert cf.canonical(1, -4) == cf.CFSeq([-4])
        assert cf.evaluate(cf.canonical(7, -9)) == (7, -9)

    def test_requires_positive_p(self):
        with pytest.raises(ValueError):
            cf.canonical(-3, 5)
        with pytest.raises(ValueError):
            cf.canonical(0, 1)

    @pytest.mark.parametrize("pair", [(5.5, 3), (5, 3.0), ("5", 3)])
    def test_pair_entries_must_be_integers(self, pair):
        # a pair is read as integers, never truncated or parsed
        with pytest.raises(TypeError):
            cf.canonical(*pair)
        with pytest.raises(TypeError):
            next(cf.canonical_tails(*pair))

    def test_round_trip_range(self):
        for p in range(1, 60):
            for q in range(-60, 61):
                if q == 0 or gcd(p, q) != 1:
                    continue
                seq = cf.canonical(p, q)
                assert seq.is_canonical()
                assert cf.evaluate(seq) == (p, q)
                assert list(cf.canonical_tails(p, q)) == cf.tails(seq)

    def test_idempotent(self):
        seq = cf.canonical(17, 53)
        p, q = cf.evaluate(seq)
        assert cf.canonical(p, q) == seq

    def test_tails_of_canonical_are_canonical(self):
        rng = random.Random(8)
        for _ in range(80):
            p = rng.randint(2, 120)
            q = rng.randint(-120, 120)
            if q == 0 or gcd(p, q) != 1:
                continue
            entries = cf.canonical(p, q).entries
            for i in range(1, len(entries)):
                assert cf.CFSeq(entries[i:]).is_canonical()


class TestEuclidWalk:
    GRID = [(p, q) for p in range(-40, 41) for q in range(-40, 41) if p and gcd(p, q) == 1]

    def test_reduced_is_in_the_orbit(self):
        # the sign and translation axioms move (p, q) to p > 0 and
        # -p/2 <= q < p/2, or to (1, +-1) at p = 1, where q = 0 is not crossed
        for p, q in self.GRID:
            rp, rq = cf.reduced(p, q)
            sp, sq = (p, q) if p > 0 else (-p, -q)
            assert rp == sp
            if rp == 1:
                assert rq == (1 if sq > 0 else -1)
            else:
                assert -rp <= 2 * rq < rp and (rq - sq) % rp == 0

    def test_steps(self):
        # r_0 = reduced(p, q), r_(i+1) = reduced(-q_i, p_i), down to (1, 1):
        # the first entry at least halves per step, so there are at most
        # floor(log2 |p|) + 1 steps
        for p, q in self.GRID + [(20000, 1), (3, -1000000007), (1234567891, 987654321), (10 ** 30 + 1, 10 ** 30)]:
            walk = list(cf.euclid_walk(p, q))
            assert walk[0] == cf.reduced(p, q) and walk[-1] == (1, 1)
            assert all(b == cf.reduced(-a[1], a[0]) for a, b in zip(walk, walk[1:]))
            assert all(type(r) is tuple for r in walk)
            assert len(walk) - 1 <= abs(p).bit_length()

    def test_examples(self):
        assert list(cf.euclid_walk(20000, 1)) == [(20000, 1), (1, -1), (1, 1)]
        assert list(cf.euclid_walk(-7, 5)) == [(7, 2), (2, -1), (1, 1)]
        assert list(cf.euclid_walk(3, 7)) == [(3, 1), (1, -1), (1, 1)]
        assert list(cf.euclid_walk(1, 9)) == [(1, 1)]

    @pytest.mark.parametrize("p, q", [(0, 1), (2, 4), (0, 0)])
    def test_refuses_pairs_off_the_domain(self, p, q):
        with pytest.raises(ValueError):
            list(cf.euclid_walk(p, q))


H = eichler.HAssignment.letters({"A": modforms.eisenstein(4)})
ONE = TruncSeries.one(Alphabet.simple("a"), 1)

# Every function of a pair, with whether it needs pq != 0 (an almost one).
PAIR_ENTRY_POINTS = {
    "build_D": (lambda p, q: eichler.build_D(H, p, q), True),
    "build_F": (lambda p, q: eichler.build_F(H, p, q), True),
    "build_E": (lambda p, q: eichler.build_E(H, p, q), True),
    "SymbolFn": (symbols.SymbolFn(lambda p, q: ONE, ONE.alphabet, 1), True),
    "RecipFn, almost": (symbols.RecipFn(lambda p, q: ONE, ONE.alphabet, 1), True),
    "RecipFn": (symbols.RecipFn(lambda p, q: ONE, ONE.alphabet, 1, almost=False), False),
    "orbit_key": (symbols.orbit_key, False),
    "canonical": (cf.canonical, False),
    "euclid_walk": (lambda p, q: next(cf.euclid_walk(p, q)), False),
    "unimodular": (cf.unimodular, False),
    "dedekind_symbol_length1": (lambda p, q: modforms.dedekind_symbol_length1(modforms.eisenstein(4), p, q), True),
    "gamma02_D": (lambda p, q: modforms.gamma02_D(4, p, q), True),
    "gamma02_F": (lambda p, q: modforms.gamma02_F(4, p, q), True),
    "gamma02_delta": (lambda p, q: modforms.gamma02_delta(4, p, q), True),
}


class TestPairDomain:
    """``coprime`` decides for every function of a pair: a pair off the
    domain raises DomainError, a ValueError too, naming the pair, and an
    entry that is not an integer raises TypeError."""

    @pytest.mark.parametrize("name", PAIR_ENTRY_POINTS)
    def test_bad_pairs(self, name):
        fn, almost = PAIR_ENTRY_POINTS[name]
        for p, q in [(2, 4), (-3, 6)] + [(1, 0), (0, -1)] * almost:
            with pytest.raises(DomainError, match=rf"\({p}, {q}\)") as exc:
                fn(p, q)
            assert isinstance(exc.value, ValueError)
        if not almost:
            fn(1, 0)

    @pytest.mark.parametrize("name", PAIR_ENTRY_POINTS)
    @pytest.mark.parametrize("pair", [(2.5, 3), ("2", 3), (3, 2.0)])
    def test_entries_must_be_integers(self, name, pair):
        with pytest.raises(TypeError):
            PAIR_ENTRY_POINTS[name][0](*pair)

    def test_coprime_returns_ints(self):
        assert cf.coprime(True, -7) == (1, -7) and type(cf.coprime(True, 2)[0]) is int
        assert cf.coprime(0, 1) == (0, 1)
        with pytest.raises(DomainError, match=r"\(0, 1\) must be coprime with pq != 0"):
            cf.coprime(0, 1, almost=True)


def solve_unimodular(q, p):
    """The extended-Euclid search that ``unimodular`` replaced, as the
    reference: (r, s) with q*s - p*r = 1, |r| minimal, ties broken toward
    s >= 0, then toward the first of three shifts."""
    old_r, r = q, p
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    sign = 1 if old_r > 0 else -1
    s0, r0 = sign * old_s, -sign * old_t  # q*s0 - p*r0 = 1
    if q == 0:
        return r0, s0
    k = round(-r0 / q)
    best = None
    for kk in (k - 1, k, k + 1):
        r1, s1 = r0 + kk * q, s0 + kk * p
        key = (abs(r1), 0 if s1 >= 0 else 1)
        if best is None or key < best[0]:
            best = (key, (r1, s1))
    return best[1]


BIG = st.integers(-10 ** 18, 10 ** 18)
SMALL_Q = st.sampled_from([0, 1, -1, 2, -2, 3, -3])


class TestUnimodular:
    def test_grid(self):
        for p in range(-30, 31):
            for q in range(-30, 31):
                if gcd(p, q) == 1:
                    r, s = cf.unimodular(p, q)
                    assert q * s - p * r == 1 and (r, s) == solve_unimodular(q, p)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.one_of(st.tuples(BIG, BIG), st.tuples(BIG, SMALL_Q), st.tuples(SMALL_Q, BIG))
           .filter(lambda pq: gcd(*pq) == 1))
    @example((1, 0))
    @example((-1, 0))
    @example((1, 2))
    @example((-1, 2))
    @example((1, -2))
    @example((10 ** 18 - 1, 10 ** 18))
    def test_matches_the_search_it_replaced(self, pq):
        p, q = pq
        r, s = cf.unimodular(p, q)
        assert q * s - p * r == 1 and (r, s) == solve_unimodular(q, p)


def random_move(rng, seq):
    """A random legal move applied to seq, or None if the draw was illegal."""
    kind = rng.choice(["t1", "t2", "t3", "t1i", "t2i", "t3i"])
    a = seq.entries
    try:
        if kind == "t1" and len(a) >= 2:
            return cf.move_t1(seq, rng.randrange(len(a) - 1), rng.choice([1, -1]))
        if kind == "t2":
            i = rng.randrange(len(a))
            b = rng.randint(-4, 4)
            return cf.move_t2(seq, i, b, a[i] - b)
        if kind == "t3":
            return cf.move_t3(seq, rng.choice([1, -1]))
        if kind == "t1i" and len(a) >= 3:
            i = rng.randrange(len(a) - 2)
            return cf.move_t1_inverse(seq, i)
        if kind == "t2i" and len(a) >= 3:
            return cf.move_t2_inverse(seq, rng.randrange(len(a) - 2))
        if kind == "t3i":
            return cf.move_t3_inverse(seq)
    except (ValueError, DivisionByZeroTail):
        return None
    return None


class TestMoves:
    def test_t3_example(self):
        out = cf.move_t3(cf.CFSeq([3]), 1)
        assert out == cf.CFSeq([4, 1])
        assert cf.evaluate(out) == (1, 3)

    def test_t2_example(self):
        out = cf.move_t2(cf.CFSeq([5]), 0, 2, 3)
        assert out == cf.CFSeq([2, 0, 3])
        assert cf.value(out) == 5

    def test_t1_round_trip(self):
        seq = cf.CFSeq([2, 3, 4])
        moved = cf.move_t1(seq, 1, -1)
        assert cf.move_t1_inverse(moved, 1) == seq

    def test_t2_round_trip(self):
        seq = cf.CFSeq([2, 3])
        moved = cf.move_t2(seq, 1, 5, -2)
        assert cf.move_t2_inverse(moved, 1) == seq

    def test_t3_round_trip(self):
        seq = cf.CFSeq([2, 3])
        assert cf.move_t3_inverse(cf.move_t3(seq, -1)) == seq

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            cf.move_t2(cf.CFSeq([5]), 0, 2, 2)

    def test_invariance_random(self):
        rng = random.Random(11)
        done = 0
        while done < 200:
            p = rng.randint(1, 40)
            q = rng.randint(-40, 40)
            if q == 0 or gcd(p, q) != 1:
                continue
            seq = cf.canonical(p, q)
            for _ in range(rng.randint(1, 4)):
                nxt = random_move(rng, seq)
                if nxt is None:
                    continue
                assert cf.value(nxt) == cf.value(seq)
                seq = nxt
                done += 1
