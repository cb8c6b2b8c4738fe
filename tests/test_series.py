import random
from fractions import Fraction
from math import comb, factorial, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dedekindsym import symbols as sy
from dedekindsym.errors import NotInvertible
from dedekindsym.series import COMPLEX, RATIONAL, Alphabet, TruncSeries, _remember, _split_table, shuffle_words
from node_axis import node_groups

AB = Alphabet.simple("ab")


def rand_series(rng, alphabet=AB, trunc=3, unit=True):
    coeffs = {(): Fraction(1) if unit else Fraction(rng.randint(1, 5))}
    for w in alphabet.iter_words(trunc, min_len=1):
        coeffs[w] = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    return TruncSeries(alphabet, trunc, coeffs)


def brute_mul(s, t):
    """Independent convolution oracle: loop over target words and splittings."""
    trunc = min(s.trunc, t.trunc)
    out = {}
    for w in s.alphabet.iter_words(trunc):
        acc = Fraction(0)
        for k in range(len(w) + 1):
            acc += s.coeff(w[:k]) * t.coeff(w[k:])
        if acc:
            out[w] = acc
    return out


class TestAlphabetWord:
    def test_alphabet_validation(self):
        with pytest.raises(ValueError):
            Alphabet([("a", 2), ("a", 4)])
        with pytest.raises(ValueError):
            Alphabet([("a", 3)])
        with pytest.raises(ValueError):
            Alphabet([("a", 0)])

    def test_word_length_weight(self):
        ab = Alphabet([("a", 2), ("b", 4)])
        assert ab.word("ab") == (0, 1) and ab.word_weight(ab.word("ab")) == 6
        assert ab.word(()) == () and ab.word_weight(()) == 0

    def test_unknown_letter_names_the_letter(self):
        with pytest.raises(ValueError, match="'z'"):
            TruncSeries.term(AB, 3, "z", 1)
        s = TruncSeries(AB, 2, {"ab": 1})
        with pytest.raises(ValueError, match="'z'"):
            s.coeff("az")
        with pytest.raises(ValueError, match="out of range"):
            s.coeff((0, 2))

    @pytest.mark.parametrize("letters", [(0.9, 1.2), ["1"], (1.5,), (True, 0.0)])
    def test_letter_indices_must_be_integers(self, letters):
        # an index that is not an integer is refused, not truncated to one
        with pytest.raises(TypeError):
            AB.word(letters)
        with pytest.raises(TypeError):
            TruncSeries.one(AB, 2).coeff(letters)
        assert AB.word([1, 0]) == (1, 0)


class TestMul:
    def test_one_plus_a_times_one_plus_b(self):
        s = TruncSeries(AB, 3, {(): 1, "a": 1})
        t = TruncSeries(AB, 3, {(): 1, "b": 1})
        assert (s * t).coeffs == {(): 1, (0,): 1, (1,): 1, (0, 1): 1}

    def test_difference_of_squares_truncated(self):
        s = TruncSeries(AB, 2, {(): 1, "a": 1})
        t = TruncSeries(AB, 2, {(): 1, "a": -1})
        assert (s * t).coeffs == {(): 1, (0, 0): -1}

    def test_against_brute_force(self):
        rng = random.Random(5)
        for _ in range(25):
            s, t = rand_series(rng, trunc=4), rand_series(rng, trunc=4)
            assert (s * t).coeffs == brute_mul(s, t)

    def test_associativity_random(self):
        rng = random.Random(17)
        for _ in range(100):
            s, t, u = (rand_series(rng, trunc=4) for _ in range(3))
            assert ((s * t) * u).coeffs == (s * (t * u)).coeffs

    def test_min_truncation(self):
        s = rand_series(random.Random(0), trunc=4)
        t = rand_series(random.Random(1), trunc=2)
        assert (s * t).trunc == 2


class TestInverse:
    def test_geometric(self):
        s = TruncSeries(AB, 3, {(): 1, "a": 1})
        assert s.inverse().coeffs == {(): 1, (0,): -1, (0, 0): 1, (0, 0, 0): -1}

    def test_inverse_of_one(self):
        one = TruncSeries.one(AB, 3)
        assert one.inverse() == one

    def test_solved_by_lengths(self):
        s = TruncSeries(AB, 2, {(): 1, "a": 1, "ab": 1})
        inv = s.inverse()
        assert inv.coeffs == {(): 1, (0,): -1, (0, 0): 1, (0, 1): -1}
        assert (s * inv) == TruncSeries.one(AB, 2)

    def test_round_trip_random(self):
        rng = random.Random(3)
        for _ in range(30):
            s = rand_series(rng)
            assert (s * s.inverse()) == TruncSeries.one(AB, 3)

    def test_scalar_constant_term(self):
        s = TruncSeries(AB, 2, {(): Fraction(2), "a": 1})
        assert (s * s.inverse()) == TruncSeries.one(AB, 2)

    def test_zero_constant_term(self):
        with pytest.raises(NotInvertible):
            TruncSeries(AB, 2, {"a": 1}).inverse()


def loop_tables(alphabet, trunc):
    """Rows of the word table and the splits of each word, by |u| ascending."""
    words = list(alphabet.iter_words(trunc))
    index = {w: i for i, w in enumerate(words)}
    return words, [[(index[w[:k]], index[w[k:]]) for k in range(len(w) + 1)] for w in words]


def lowest_terms(alphabet, trunc, vec, kind, den):
    """The series of (vec, den), rational numerators brought to lowest terms
    through Fraction rather than ``TruncSeries._from_vec``: the denominator
    is the lcm of the entries' reduced denominators, so it is positive
    whatever the sign of den."""
    if kind == RATIONAL:
        entries = [Fraction(n, den) for n in vec]
        den = lcm(*(x.denominator for x in entries))
        vec = [x.numerator * (den // x.denominator) for x in entries]
    return TruncSeries._packed(alphabet, trunc, kind, tuple(vec), den)


def loop_mul(s, t):
    """The product by nested split loops, each sum accumulated from 0."""
    trunc = min(s.trunc, t.trunc)
    out = []
    for splits in loop_tables(s.alphabet, trunc)[1]:
        acc = 0
        for i, j in splits:
            acc += s.vec[i] * t.vec[j]
        out.append(acc)
    return lowest_terms(s.alphabet, trunc, out, s.kind, s.den * t.den)


def loop_inverse_vector(s):
    """The inverse's (vector, denominator) before reduction: the word-length
    solve as nested split loops, scaled by list comprehensions."""
    words, table = loop_tables(s.alphabet, s.trunc)
    c = s.vec[0]
    powers = [c ** k for k in range(s.trunc + 2)]
    t = [n * powers[len(w) - 1] for w, n in zip(words, s.vec)]
    m = [1]
    for splits in table[1:]:
        acc = 0
        for i, j in splits[:-1]:
            acc += m[i] * t[j]
        m.append(-acc)
    vec = [x * s.den * powers[s.trunc - len(w)] for w, x in zip(words, m)]
    if s.kind == COMPLEX:
        return [x / powers[-1] for x in vec], 1
    return vec, powers[-1]


def loop_inverse(s):
    """``TruncSeries.inverse`` with its word-length solve as nested split loops."""
    vec, den = loop_inverse_vector(s)
    return lowest_terms(s.alphabet, s.trunc, vec, s.kind, den)


def kernel_series(rng, alphabet, trunc, kind):
    """A series whose entries include zeros: exact ones, and complex 0.0
    and -0.0 in either part; the constant term is nonzero."""
    if kind == RATIONAL:
        pick = lambda: Fraction(rng.randint(-6, 6) * (rng.random() < 2 / 3), rng.randint(1, 6))
    else:
        zeros = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
        pick = lambda: (rng.choice(zeros) if rng.random() < 0.3 else
                        complex(rng.uniform(-9, 9), rng.choice([rng.uniform(-9, 9), 0.0, -0.0])))
    coeffs = {w: pick() for w in alphabet.iter_words(trunc, min_len=1)}
    coeffs[()] = rng.choice([Fraction(-3, 2), Fraction(1), Fraction(2, 3)]) if kind == RATIONAL else \
        complex(rng.uniform(0.5, 2) * rng.choice([1, -1]), rng.choice([0.0, -0.0, rng.uniform(-1, 1)]))
    return TruncSeries(alphabet, trunc, coeffs, kind)


class TestKernels:
    """The word table's compiled product and inverse against the split loops,
    byte for byte (``repr`` of the vector, so signed zeros count)."""

    @pytest.mark.parametrize("letters", [1, 2, 3])
    @pytest.mark.parametrize("trunc", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("kind", [RATIONAL, COMPLEX])
    def test_product_and_inverse_match_the_split_loops(self, letters, trunc, kind):
        rng = random.Random(100 * letters + trunc)
        ab = Alphabet.simple("abc"[:letters])
        for _ in range(12):
            s, t = (kernel_series(rng, ab, trunc, kind) for _ in range(2))
            for got, want in ((s * t, loop_mul(s, t)), (s.inverse(), loop_inverse(s))):
                assert repr(got.vec) == repr(want.vec) and got.den == want.den

    @pytest.mark.parametrize("letters", [1, 2, 3])
    @pytest.mark.parametrize("kind", [RATIONAL, COMPLEX])
    def test_inverse_kernel_scales_as_the_list_comprehensions(self, letters, kind):
        # the kernel scales by c^(|w|-1) before the solve and by den c^(N-|w|)
        # (and, complex, / c^(N+1)) after it, in the list comprehensions' order
        rng = random.Random(10 * letters + (kind == COMPLEX))
        ab = Alphabet.simple("abc"[:letters])
        for trunc in range(5):
            tab = _split_table(ab, trunc)
            for _ in range(6):
                s = kernel_series(rng, ab, trunc, kind)
                vec, den = tab.inv(s.vec, s.den, kind == RATIONAL)
                want, want_den = loop_inverse_vector(s)
                assert type(vec) is tuple and repr(list(vec)) == repr(want) and den == want_den

    def test_product_and_inverse_over_equal_alphabets(self):
        # two equal but distinct alphabets take the general product path
        rng = random.Random(11)
        ab, ab2 = Alphabet.simple("ab"), Alphabet.simple("ab")
        for kind in (RATIONAL, COMPLEX):
            for trunc in range(4):
                s, t = kernel_series(rng, ab, trunc, kind), kernel_series(rng, ab2, trunc, kind)
                st, want = s * t, loop_mul(s, t)
                assert st.alphabet == ab and repr(st.vec) == repr(want.vec) and st.den == want.den
                assert repr(st.inverse().vec) == repr(loop_inverse(st).vec)

    def test_product_of_mixed_kinds(self):
        # a rational operand enters a complex product as the floats of its
        # coefficients
        rng = random.Random(12)
        ab = Alphabet.simple("ab")
        for trunc in range(4):
            r, c = kernel_series(rng, ab, trunc, RATIONAL), kernel_series(rng, ab, trunc, COMPLEX)
            rc = TruncSeries(ab, trunc, dict(r.items()), COMPLEX)
            for got, want in ((r * c, loop_mul(rc, c)), (c * r, loop_mul(c, rc))):
                assert got.kind == COMPLEX and repr(got.vec) == repr(want.vec)

    @pytest.mark.parametrize("other", [Alphabet.simple("ac"), Alphabet.simple("ab", 4), Alphabet.simple("abc")])
    def test_product_over_another_alphabet_raises(self, other):
        s = TruncSeries.one(Alphabet.simple("ab"), 2)
        with pytest.raises(ValueError, match="alphabet mismatch"):
            s * TruncSeries.one(other, 2)

    def test_product_over_two_truncations(self):
        rng = random.Random(7)
        ab = Alphabet.simple("ab")
        for kind in (RATIONAL, COMPLEX):
            s, t = kernel_series(rng, ab, 4, kind), kernel_series(rng, ab, 2, kind)
            for got, want in ((s * t, loop_mul(s, t)), (t * s, loop_mul(t, s))):
                assert got.trunc == 2 and repr(got.vec) == repr(want.vec)

    @pytest.mark.parametrize("letters", [2, 3])
    @pytest.mark.parametrize("trunc", [1, 2, 3])
    def test_split_table_lists_every_split_once(self, letters, trunc):
        ab = Alphabet.simple("abc"[:letters])
        tab = _split_table(ab, trunc)
        assert tab.words == tuple(ab.iter_words(trunc)) and tab.words[0] == ()
        assert all(tab.index[w] == i for i, w in enumerate(tab.words))
        listed = []
        for lo, hi, U, V in node_groups(ab, trunc):
            for row, us, vs in zip(range(lo, hi), U.tolist(), V.tolist()):
                listed += [(tab.words[row], tab.words[u], tab.words[v]) for u, v in zip(us, vs)]
        want = [(w, w[:k], w[k:]) for w in tab.words for k in range(len(w))]
        assert sorted(listed) == sorted(want) and len(set(listed)) == len(listed)
        assert all(len(w) <= trunc and u + v == w and v for w, u, v in listed)


class TestShuffle:
    def test_two_letters(self):
        out = shuffle_words((0,), (1,))
        assert sorted(out) == [(0, 1), (1, 0)]

    def test_a_with_bc(self):
        out = shuffle_words((0,), (1, 2))
        assert sorted(out) == [(0, 1, 2), (1, 0, 2), (1, 2, 0)]

    def test_cardinality(self):
        abc = Alphabet.simple("abc")
        rng = random.Random(9)
        for _ in range(40):
            lu, lv = rng.randint(0, 3), rng.randint(0, 3)
            u = tuple(rng.randrange(3) for _ in range(lu))
            v = tuple(rng.randrange(3) for _ in range(lv))
            assert len(shuffle_words(u, v)) == comb(lu + lv, lu)


class TestGroupLike:
    def test_exponential_is_grouplike(self):
        a = Alphabet.simple("a")
        s = TruncSeries(a, 4, {"a": Fraction(2, 3)}).exp()
        assert s.coeff("aa") == Fraction(2, 9)  # x^2/2
        assert s.is_grouplike().ok

    def test_missing_cross_terms(self):
        s = TruncSeries(AB, 2, {(): 1, "a": 1, "b": 1})
        rep = s.is_grouplike()
        assert not rep.ok and rep.worst == 1
        # the (a, b) pair violates: S^a S^b = 1 but S^{ab} + S^{ba} = 0
        assert s.coeff("a") * s.coeff("b") == 1
        assert s.coeff("ab") + s.coeff("ba") == 0

    def test_relative_violation_divides_by_term_size(self):
        s = TruncSeries(AB, 2, {(): 1, "a": 10, "b": 1, "ab": 4, "ba": 5}, COMPLEX)
        assert s.is_grouplike().worst == 100
        # (a, b): |10 - 9| / (10 + 4 + 5); (a, a): |100 - 0| / 100
        rep = s.is_grouplike(1e-3, relative=True)
        assert not rep.ok and rep.worst == 1 and rep.witness == ((0,), (0,))
        small = TruncSeries(AB, 2, {(): 1, "a": 0.5, "aa": 0.125 + 1e-9}, COMPLEX)
        assert small.is_grouplike(relative=True).worst == pytest.approx(2e-9)

    def test_matches_the_coefficient_loop(self):
        # the report, witness and worst included, against the loop over the
        # coefficient map and the shuffles of each pair, rational and complex
        def loop_report(s, relative):
            get, zero = s.coeffs.get, 0 if s.kind == RATIONAL else 0j
            worst, witness = 0.0, None
            words = list(s.alphabet.iter_words(s.trunc - 1, min_len=1))
            for u in words:
                for v in words:
                    if u > v or len(u) + len(v) > s.trunc:
                        continue
                    lhs = get(u, zero) * get(v, zero)
                    terms = [get(w, zero) for w in shuffle_words(u, v)]
                    viol = abs(complex(lhs) - complex(sum(terms, start=zero)))
                    if relative:
                        viol /= max(1.0, abs(lhs) + sum(abs(t) for t in terms))
                    if viol > worst:
                        worst, witness = viol, (u, v)
            return worst, witness

        rng = random.Random(32)
        for kind in (RATIONAL, COMPLEX):
            for trunc in (1, 2, 3, 4):
                for _ in range(8):
                    gen = {w: Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for w in ("a", "b", "ab")}
                    s = TruncSeries(AB, trunc, gen, kind).exp()
                    if rng.random() < 0.7:
                        w = rng.choice(list(AB.iter_words(trunc, min_len=1)))
                        s = s + TruncSeries.term(AB, trunc, w, Fraction(rng.randint(1, 5), 7), kind)
                    for relative in (False, True):
                        rep = s.is_grouplike(1e-12, relative=relative)
                        assert (rep.worst, rep.witness) == loop_report(s, relative)

    def test_product_and_inverse_closure(self):
        rng = random.Random(31)
        for _ in range(10):
            s = TruncSeries(AB, 3, {"a": Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                                    "b": Fraction(rng.randint(-4, 4), rng.randint(1, 4))}).exp()
            t = TruncSeries(AB, 3, {"a": Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                                    "b": Fraction(rng.randint(-4, 4), rng.randint(1, 4))}).exp()
            assert s.is_grouplike().ok and t.is_grouplike().ok
            assert (s * t).is_grouplike().ok
            assert s.inverse().is_grouplike().ok


class TestExpLog:
    def test_exp_coefficients(self):
        a = Alphabet.simple("a")
        x = Fraction(3, 5)
        s = TruncSeries(a, 4, {"a": x}).exp()
        fact = 1
        for n in range(1, 5):
            fact *= n
            assert s.coeff((0,) * n) == x ** n / fact

    def test_log_one_plus_a(self):
        a = Alphabet.simple("a")
        s = TruncSeries(a, 3, {(): 1, "a": 1})
        assert s.log().coeffs == {(0,): Fraction(1), (0, 0): Fraction(-1, 2),
                                  (0, 0, 0): Fraction(1, 3)}

    def test_round_trips(self):
        rng = random.Random(7)
        for _ in range(20):
            s = rand_series(rng)
            body = TruncSeries(AB, 3, {w: c for w, c in s.coeffs.items() if w})
            assert body.exp().log() == body
            assert s.log().exp() == s

    def test_log_exp_letters(self):
        s = TruncSeries(AB, 3, {"a": Fraction(2), "b": Fraction(-1, 3)})
        out = s.exp().log()
        assert out.coeff("a") == 2 and out.coeff("b") == Fraction(-1, 3)

    def test_exp_term_bytes_match_exp(self):
        # exp_term builds exp(c w) in closed form; scaling c^k by the float
        # nearest 1/k!, as exp does, is what keeps complex bytes equal
        # (c**k / k! is not), and real c < 0 gives c^2 an imaginary part -0.0
        rng = random.Random(19)
        xy = Alphabet((("x", 2), ("y", 4)))
        for trunc in range(1, 5):
            words = list(xy.iter_words(trunc, min_len=1))
            for _ in range(60):
                w = rng.choice(words)
                r = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
                z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
                for c, kind in ((r, RATIONAL), (z, COMPLEX), (complex(-abs(z)), COMPLEX),
                                (complex(0, z.imag), COMPLEX)):
                    want = TruncSeries.term(xy, trunc, w, c, kind).exp()
                    got = [TruncSeries.exp_term(xy, trunc, w, c, kind)]
                    if len(w) == 1:
                        # the one-letter embeddings of a scalar function
                        letter = xy.names[w[0]]
                        got += [embed(lambda p, q: c, letter, xy, trunc, kind)(2, 3)
                                for embed in (sy.embed_exp, sy.embed_exp_symbol)]
                    assert all(repr(g.vec) == repr(want.vec) and g == want for g in got)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            TruncSeries.exp_term(AB, 2, (), 1)
        with pytest.raises(ValueError):
            TruncSeries.one(AB, 2).exp()
        with pytest.raises(ValueError):
            TruncSeries.zero(AB, 2).log()


class TestKinds:
    def test_rational_times_complex_is_complex(self):
        r = TruncSeries(AB, 2, {(): 1, "a": Fraction(1, 3), "ab": 2})
        c = TruncSeries(AB, 2, {(): 1, "b": 0.5 - 1j}, kind=COMPLEX)
        for out in (r * c, c * r, r + c, c - r):
            assert out.kind == COMPLEX and out.coeffs
            assert all(type(v) is complex for v in out.coeffs.values())
        assert (r * c).coeff("ab") == complex(2) + complex(Fraction(1, 3)) * (0.5 - 1j)
        assert (r * c).coeff("a") == complex(Fraction(1, 3))

    def test_complex_stores_python_complex(self):
        import numpy as np

        s = TruncSeries(AB, 2, {(): np.complex128(1), "a": np.float64(0.5)}, kind=COMPLEX)
        assert all(type(v) is complex for v in s.coeffs.values())
        assert all(type(v) is complex for v in s.scale(np.float64(2.0)).coeffs.values())

    def test_rational_scale_rejects_floats(self):
        r = TruncSeries(AB, 2, {(): 1, "a": 1})
        with pytest.raises(TypeError):
            r.scale(1.5)
        with pytest.raises(TypeError):
            TruncSeries(AB, 2, {"a": 0.5})
        assert r.scale(Fraction(3, 2)).coeff("a") == Fraction(3, 2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TruncSeries(AB, 2, {}, kind="poly")

    def test_arithmetic_drops_zeros_and_long_words(self):
        s = TruncSeries(AB, 3, {(): 1, "a": 1, "aaa": 1})
        t = TruncSeries(AB, 2, {(): 1, "a": -1})
        assert (s + t).coeffs == {(): 2}
        assert (s - s).coeffs == {}
        assert s.truncated(1).coeffs == {(): 1, (0,): 1}


class TestRemember:
    def test_remember_evicts_oldest(self):
        cache = {}
        for k in range(5):
            _remember(cache, 3, k, -k)
        assert cache == {2: -2, 3: -3, 4: -4}


class TestRemapUnion:
    def test_union_orders_letters_and_maps_indices(self):
        x, y = Alphabet([("a", 2), ("c", 4)]), Alphabet([("b", 2), ("c", 4)])
        big, mx, my = x.union(y)
        assert big == Alphabet([("a", 2), ("c", 4), ("b", 2)])
        assert mx == (0, 1) and my == (2, 1)

    def test_union_conflicting_weight_raises(self):
        with pytest.raises(ValueError, match="conflicting weights"):
            Alphabet([("a", 2)]).union(Alphabet([("b", 2), ("a", 4)]))

    @pytest.mark.parametrize("kind", [RATIONAL, COMPLEX])
    def test_remap_moves_each_coefficient_to_the_mapped_word(self, kind):
        y = Alphabet([("b", 2), ("c", 4)])
        big, _, my = Alphabet([("a", 2), ("c", 4)]).union(y)
        s = TruncSeries(y, 2, {(): 1, "b": Fraction(1, 3), "bc": -2, "cc": Fraction(5, 7)}, kind)
        moved = s.remap(big, my)
        assert moved.alphabet == big and moved.trunc == 2 and moved.kind == kind
        assert moved.coeffs == {tuple(my[i] for i in w): c for w, c in s.items()}
        assert moved.coeffs == {(): 1, (2,): s.coeff("b"), (2, 1): s.coeff("bc"),
                                (1, 1): s.coeff("cc")}


# Property tests: random rational series over 1-3 letters at truncation 0-4,
# with constant terms other than 1, negative ones included.

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
CONSTANT = st.fractions(-4, 4, max_denominator=4).filter(bool)


@st.composite
def rational_series(draw, count, constant=CONSTANT, max_trunc=4):
    """``count`` rational series over one drawn alphabet and truncation; a
    third of the coefficients of nonempty words are zero."""
    alphabet = Alphabet.simple("abc"[:draw(st.integers(1, 3))])
    trunc = draw(st.integers(0, max_trunc))
    rng = draw(st.randoms(use_true_random=False))
    out = []
    for _ in range(count):
        coeffs = {w: Fraction(rng.randint(-6, 6) * (rng.random() < 2 / 3), rng.randint(1, 6))
                  for w in alphabet.iter_words(trunc, min_len=1)}
        coeffs[()] = draw(constant)
        out.append(TruncSeries(alphabet, trunc, coeffs))
    return out


def canonical(s):
    return s.den > 0 and gcd(s.den, *s.vec) == 1


class TestProperties:
    @PROPERTY
    @given(rational_series(2))
    def test_product_matches_brute_force(self, pair):
        s, t = pair
        assert (s * t).coeffs == brute_mul(s, t) and canonical(s * t)

    @PROPERTY
    @given(rational_series(3, max_trunc=3))
    def test_product_is_associative(self, triple):
        s, t, u = triple
        assert (s * t) * u == s * (t * u)

    @PROPERTY
    @given(rational_series(1))
    def test_inverse_both_sides(self, single):
        s, = single
        one = TruncSeries.one(s.alphabet, s.trunc)
        inv = s.inverse()
        assert canonical(inv) and s * inv == inv * s == one

    @PROPERTY
    @given(rational_series(1, constant=st.just(Fraction(0))))
    def test_exp_log_round_trip(self, single):
        body, = single
        group = body.exp()
        assert group.log() == body and group.log().exp() == group

    @PROPERTY
    @given(rational_series(2), st.integers(0, 4))
    def test_truncation_commutes_with_product(self, pair, n):
        s, t = pair
        assert (s * t).truncated(n) == s.truncated(n) * t.truncated(n)

    @PROPERTY
    @given(rational_series(2))
    def test_one_value_two_ways_is_equal(self, pair):
        s, t = pair
        back = (s + t) - t
        assert back == s and canonical(back)
        assert TruncSeries(s.alphabet, s.trunc, dict(s.coeffs)) == s
        assert s.scale(Fraction(3, 2)).scale(Fraction(2, 3)) == s

    @PROPERTY
    @given(st.integers(1, 3), st.integers(0, 2), st.randoms(use_true_random=False))
    def test_complex_product_rounds_like_the_scalar_loop(self, letters, trunc, rng):
        ab = Alphabet.simple("abc"[:letters])

        def value():
            return complex(rng.uniform(-9, 9), rng.uniform(-9, 9)) if rng.random() < 0.8 else 0j

        s, t = (TruncSeries(ab, trunc, {w: value() for w in ab.iter_words(trunc)}, COMPLEX)
                for _ in range(2))
        want = {}
        for w in ab.iter_words(trunc):
            acc = 0
            for k in range(len(w) + 1):
                acc += s.coeff(w[:k]) * t.coeff(w[k:])
            want[w] = acc
        assert repr((s * t).vec) == repr(TruncSeries(ab, trunc, want, COMPLEX).vec)

    @PROPERTY
    @given(st.integers(1, 3), st.integers(0, 3), st.randoms(use_true_random=False))
    def test_complex_exp_log_round_like_fraction_scaling(self, letters, trunc, rng):
        # exp and log scale a complex series by the float nearest 1/n! and
        # (-1)^(n+1)/n; the reference loop scales by the Fraction itself, and
        # the bytes (signed zeros included) must agree
        ab = Alphabet.simple("abc"[:letters])

        def value():
            return complex(rng.uniform(-9, 9), rng.uniform(-9, 9)) if rng.random() < 0.8 else 0j

        def power_sum(x, acc, coef):
            power = TruncSeries.one(ab, trunc, COMPLEX)
            for n in range(1, trunc + 1):
                power = power * x
                acc = acc + TruncSeries(ab, trunc, {w: c * coef(n) for w, c in
                                                    zip(ab.iter_words(trunc), power.vec)}, COMPLEX)
            return acc

        body = TruncSeries(ab, trunc, {w: value() for w in ab.iter_words(trunc, min_len=1)}, COMPLEX)
        one = TruncSeries.one(ab, trunc, COMPLEX)
        group = one + body
        want_exp = power_sum(body, one, lambda n: Fraction(1, factorial(n)))
        want_log = power_sum(group - one, TruncSeries.zero(ab, trunc, COMPLEX),
                             lambda n: Fraction((-1) ** (n + 1), n))
        assert repr(body.exp().vec) == repr(want_exp.vec)
        assert repr(group.log().vec) == repr(want_log.vec)
