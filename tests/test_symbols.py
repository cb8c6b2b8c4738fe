import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dedekindsym import contfrac as cf
from dedekindsym import eichler as ei
from dedekindsym import modforms as mf
from dedekindsym import symbols as sy
from dedekindsym.errors import DomainError, NotShuffled
from dedekindsym.series import RATIONAL, Alphabet, TruncSeries

AB = Alphabet.simple("ab")


def one(trunc=3):
    return TruncSeries.one(AB, trunc)


class TestOrbitKey:
    def test_sign_fold(self):
        assert sy.orbit_key(3, 5) == sy.orbit_key(-3, -5)
        assert sy.orbit_key(1, 4) == (1, 1)
        assert sy.orbit_key(1, -4) == (1, -1)
        assert sy.orbit_key(5, 13) == (5, 3)

    def test_mds_relations(self):
        # MDS2 as a relation: (p, -q) and (-p, q) share a key
        rng = random.Random(6)
        for _ in range(200):
            p, q = rng.randint(-40, 40), rng.randint(-40, 40)
            if p == 0 or q == 0 or gcd(p, q) != 1:
                continue
            assert sy.orbit_key(p, -q) == sy.orbit_key(-p, q)

    def test_random_relation_walk(self):
        rng = random.Random(7)
        for _ in range(100):
            p, q = rng.randint(-30, 30), rng.randint(-30, 30)
            if p == 0 or q == 0 or gcd(p, q) != 1:
                continue
            key = sy.orbit_key(p, q)
            for _ in range(12):
                move = rng.choice(["up", "down", "neg"])
                if move == "neg":
                    p, q = -p, -q
                elif move == "up" and p != 0 and q + p != 0:
                    q = q + p
                elif move == "down" and p != 0 and q - p != 0:
                    q = q - p
                assert sy.orbit_key(p, q) == key


class TestSamplePairs:
    def test_distinct_coprime_in_the_box(self):
        pairs = sy.sample_pairs(92, seed=3, bound=6)
        assert len(set(pairs)) == 92
        assert all(gcd(p, q) == 1 and 0 < abs(p) <= 6 and 0 < abs(q) <= 6 for p, q in pairs)

    @pytest.mark.parametrize("n, bound, available", [(93, 6, 92), (3000, 30, 2220)])
    def test_more_than_the_box_holds_raises(self, n, bound, available):
        with pytest.raises(ValueError, match=f"only {available}"):
            sy.sample_pairs(n, seed=0, bound=bound)


def fraction_random_symbol(alphabet, trunc, seed, key):
    """random_symbol's value on the orbit ``key`` as one hashed Fraction per
    word, through the public constructor."""
    coeffs = {(): Fraction(1)}
    for w in alphabet.iter_words(trunc, min_len=1):
        h = hashlib.sha256(f"{seed}|{key}|{w}".encode()).digest()
        coeffs[w] = Fraction(int.from_bytes(h[:4], "big") % 19 - 9, int.from_bytes(h[4:8], "big") % 9 + 1)
    return TruncSeries(alphabet, trunc, coeffs, RATIONAL)


SIGNED_12 = [(p, q) for p in range(-12, 13) for q in range(-12, 13) if p and q and gcd(p, q) == 1]


class TestRandomSymbol:
    @pytest.mark.parametrize("letters", ["a", "ab", "abc"])
    @pytest.mark.parametrize("trunc", [2, 3, 4])
    def test_matches_one_fraction_per_word(self, letters, trunc):
        alphabet = Alphabet.simple(letters)
        for seed in (0, 9, 123456789):
            d, want = sy.random_symbol(alphabet, trunc, seed), {}
            for p, q in SIGNED_12:
                key = sy.orbit_key(p, q)
                if key not in want:
                    want[key] = fraction_random_symbol(alphabet, trunc, seed, key)
                got = d(p, q)
                assert repr(list(got.vec)) == repr(list(want[key].vec)) and got.den == want[key].den

    @pytest.mark.parametrize("pair", [(2.9, 3), (2, 3.0), ("2", 3)])
    def test_pair_entries_must_be_integers(self, pair):
        # a pair is read as integers, never truncated or parsed
        with pytest.raises(TypeError):
            sy.random_symbol(AB, 3, seed=9)(*pair)

    def test_deterministic(self):
        d1 = sy.random_symbol(AB, 3, seed=9)
        d2 = sy.random_symbol(AB, 3, seed=9)
        assert d1(3, 5) == d2(3, 5)
        assert d1(7, -4) == d2(7, -4)

    def test_axioms_by_construction(self):
        d = sy.random_symbol(AB, 3, seed=1)
        rep = sy.verify_mds(d, sy.sample_pairs(30, seed=2))
        assert rep.passed() and rep.exact

    def test_negation_invariance(self):
        d = sy.random_symbol(AB, 3, seed=3)
        for p, q in sy.sample_pairs(50, seed=4, bound=60):
            assert d(p, q) == d(-p, -q)

    def test_almost_domain(self):
        d = sy.random_symbol(AB, 3, seed=5)
        with pytest.raises(DomainError):
            d(1, 0)
        with pytest.raises(DomainError):
            d(2, 4)

    def test_importing_the_package_leaves_hashlib_unloaded(self):
        # only the seeded coefficients hash; OpenSSL's _hashlib costs a
        # process that never hashes about 3.5 MB of memory.  Only the
        # integrator builds arrays, so the exact path, cfrac and the
        # bijection suite never load numpy (about 13 MB and 0.13 s), nor
        # dataclasses or concurrent.futures
        code = textwrap.dedent("""
            import json, sys
            watched = ("_hashlib", "numpy", "dataclasses", "concurrent.futures")
            seen = {}

            def note(step):
                seen[step] = [m for m in watched if m in sys.modules]

            import dedekindsym
            note("import")
            from dedekindsym import cli, eichler, modforms, symbols as sy
            from dedekindsym.series import Alphabet
            ab = Alphabet.simple("ab")
            d = sy.random_symbol(ab, 3, seed=1)
            assert sy.delta(sy.psi(d))(5, 7) == sy.normalize(d)(5, 7)
            note("bijection")
            f = [sy.scalar_psi(sy.random_scalar_symbol(seed)) for seed in (1, 2, 3)]
            assert sy.delta(sy.from_components({"a": f[0], "b": f[1]}, ab, 3))(5, 7).is_grouplike().ok
            note("shuffle")
            a, b, c = (sy.embed_exp(g, letter, ab, 3) for g, letter in zip(f, "aba"))
            assert sy.bullet(sy.bullet(a, b), c)(5, 7) == sy.bullet(a, sy.bullet(b, c))(5, 7)
            note("bullet")
            assert cli.main(["cfrac", "--pq=89,144"]) == 0
            note("cfrac")
            assert cli.main(["verify", "--suite", "bijection"]) == 0
            note("verify")
            h = eichler.HAssignment.letters({"A": modforms.eisenstein(4)})
            eichler.build_D(h, 5, 7, eichler.IntegratorConfig(trunc=1))
            note("build_D")
            print(json.dumps(seen))
        """)
        src = str(Path(sy.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 0, run.stderr
        seen = json.loads(run.stdout.splitlines()[-1])
        assert seen.pop("import") == [], "importing the package loaded them"
        assert "numpy" in seen.pop("build_D")
        assert seen == dict.fromkeys(("bijection", "shuffle", "bullet", "cfrac", "verify"), ["_hashlib"])


class TestPsi:
    def test_constant_one(self):
        d = sy.SymbolFn(lambda p, q: one(), AB, 3)
        f = sy.psi(d)
        assert f(3, 5) == one()

    def test_scalar_exponential(self):
        a = Alphabet.simple("a")
        dscalar = sy.random_scalar_symbol(21)
        d = sy.embed_exp_symbol(dscalar, "a", a, 3)
        f = sy.psi(d)
        fscalar = sy.scalar_psi(dscalar)
        for p, q in sy.sample_pairs(10, seed=22):
            want = TruncSeries.term(a, 3, "a", fscalar(p, q)).exp()
            assert f(p, q) == want

    def test_image_satisfies_mrf(self):
        f = sy.psi(sy.random_symbol(AB, 3, seed=23))
        rep = sy.verify_mrf(f, sy.sample_pairs(15, seed=24))
        assert rep.passed() and rep.exact

    def test_constant_over_pq_is_reciprocity(self):
        # f = c/(pq): the translation axiom reduces to
        # 1/(p(p+q)) + 1/((p+q)q) = 1/(pq)
        a = Alphabet.simple("a")
        f = sy.embed_exp(lambda p, q: Fraction(3) / (p * q), "a", a, 3)
        rep = sy.verify_mrf(f, sy.sample_pairs(20, seed=27))
        assert rep.passed() and rep.exact

    def test_psi_consistency_mds1_form(self):
        # D(q, -p) = D(-q, p), so both forms of the associated function agree
        d = sy.random_symbol(AB, 3, seed=25)
        for p, q in sy.sample_pairs(20, seed=26):
            assert d(q, -p) == d(-q, p)
            lhs = d(p, q) * d(-q, p).inverse()
            rhs = d(p, q) * d(q, -p).inverse()
            assert lhs == rhs


class TestDelta:
    def setup_method(self):
        self.d = sy.random_symbol(AB, 3, seed=31)
        self.f = sy.psi(self.d)
        self.dd = sy.delta(self.f)

    def test_positive_integer(self):
        assert self.dd(1, 7) == one()
        assert self.dd(1, 1) == one()

    def test_negative_integer(self):
        assert self.dd(-1, 7) == self.f(1, 1).inverse()
        assert self.dd(1, -3) == self.f(1, 1).inverse()

    def test_single_tail(self):
        # canonical(3, 5) = [2, 3] has the one proper tail (1, 3)
        assert self.dd(3, 5) == self.f(1, 3).inverse()

    def test_normalized(self):
        assert self.dd(1, 1) == one()

    def test_bijection_round_trips(self):
        dn = sy.normalize(self.d)
        ff = sy.psi(self.dd)
        for p, q in sy.sample_pairs(20, seed=32, bound=50):
            assert self.dd(p, q) == dn(p, q)
            assert ff(p, q) == self.f(p, q)

    def test_domain(self):
        with pytest.raises(DomainError):
            self.dd(0, 1)


class TestDeltaFull:
    def setup_method(self):
        a = Alphabet.simple("a")
        f = sy.power_difference_rf(1, Fraction(2, 3))
        self.fr = sy.embed_exp(f, "a", a, 3, almost=False)

    def test_single_entry_is_empty_product(self):
        a = self.fr.alphabet
        assert sy.delta_full(self.fr, cf.CFSeq([3])) == TruncSeries.one(a, 3)

    def test_moves_preserve_value(self):
        rng = random.Random(42)
        done = 0
        while done < 200:
            p = rng.randint(1, 25)
            q = rng.randint(-25, 25)
            if q == 0 or gcd(p, q) != 1:
                continue
            seq = cf.canonical(p, q)
            base = sy.delta_full(self.fr, seq)
            for builder in (lambda s: cf.move_t1(s, rng.randrange(max(1, len(s.entries) - 1)), rng.choice([1, -1])),
                            lambda s: cf.move_t2(s, rng.randrange(len(s.entries)), 1, s.entries[rng.randrange(len(s.entries))] - 1),
                            lambda s: cf.move_t3(s, rng.choice([1, -1]))):
                try:
                    i = rng.randrange(len(seq.entries))
                    moved = builder(seq)
                except Exception:
                    continue
                assert sy.delta_full(self.fr, moved) == base
                done += 1

    def test_all_twos_product(self):
        # tails of k copies of 2 are (k, k+1), ..., (1, 2)
        k = 5
        seq = cf.CFSeq([2] * k)
        want = TruncSeries.one(self.fr.alphabet, 3)
        for j in range(k - 1, 0, -1):
            want = want * self.fr(j, j + 1).inverse()
        assert sy.delta_full(self.fr, seq) == want


def scalar_rf(seed):
    return sy.scalar_psi(sy.random_scalar_symbol(seed))


def corrupted_rf(seed):
    """A shuffled function plus the word ab: not a reciprocity function."""
    base = sy.from_components({"a": scalar_rf(seed), "b": scalar_rf(seed + 1)}, AB, 3)
    return sy.RecipFn(lambda p, q: base(p, q) + TruncSeries.term(AB, 3, "ab", 1), AB, 3)


WALKS = {"canonical": sy._canonical_steps, "euclid": sy._euclid_steps}


def symbol_fns(f, walk):
    """D = delta(F) and D^(-1) by the canonical walk of delta or the Euclid
    walk of bullet, on that walk's memos of F."""
    return sy._symbol_fns(f, WALKS[walk])


class TestDeltaTails:
    """delta by its tail recursion against the left-to-right product."""

    PAIRS = ([(p, q) for p in range(2, 14) for q in range(-20, 21) if gcd(p, q) == 1]
             + [(50, 1), (50, 49), (34, 55), (49, -50), (37, -8)])

    @staticmethod
    def functions():
        return {"psi": sy.psi(sy.random_symbol(AB, 3, seed=121)),
                "shuffled": sy.from_components({"a": scalar_rf(122), "b": scalar_rf(123)}, AB, 3),
                "corrupted": corrupted_rf(124)}

    @pytest.mark.parametrize("name", ["psi", "shuffled", "corrupted"])
    def test_matches_left_to_right_product(self, name):
        # D and D^(-1) at both signs of each pair, in a shuffled order, by
        # delta's canonical walk and by bullet's Euclid walk, which assumes
        # a reciprocity function and gives another D for the corrupted control
        f = self.functions()[name]
        want = {}
        for pq in self.PAIRS:
            d = sy.delta_full(f, cf.canonical(*pq))
            want[pq] = (repr(d.vec), repr(d.inverse().vec))
        signed = [(s * p, s * q) for p, q in self.PAIRS for s in (1, -1)]
        for walk in ("canonical",) if name == "corrupted" else ("canonical", "euclid"):
            for seed in (125, 126):
                random.Random(seed).shuffle(signed)
                warm = symbol_fns(f, walk)
                for i, (p, q) in enumerate(signed):
                    ref = want[(abs(p), q if p > 0 else -q)]
                    assert tuple(repr(g(p, q).vec) for g in warm) == ref
                    if i % 5 == 0:
                        # the walks of f share f's memos, so a cold walk needs
                        # a fresh function: the same one, built again from its
                        # seeds; D first, then D^(-1) first
                        cold = symbol_fns(self.functions()[name], walk)
                        assert tuple(repr(g(p, q).vec) for g in cold) == ref
                        cold = symbol_fns(self.functions()[name], walk)
                        assert tuple(repr(g(p, q).vec) for g in reversed(cold)) == ref[::-1]

    @pytest.mark.parametrize("walk", ["canonical", "euclid"])
    def test_negated_pair_asks_f_nothing(self, monkeypatch, walk):
        # each walk starts at the pair moved to the canonical sign, so a cold
        # D^(-1) at (-p, -q), after one at (p, q), finds that pair in the
        # memo, and so does D there
        f = sy.psi(sy.random_symbol(AB, 3, seed=137))
        asked = []
        at = sy.RecipFn._at

        def counted_at(self, p, q):
            if self is f:
                asked.append((p, q))
            return at(self, p, q)

        monkeypatch.setattr(sy.RecipFn, "_at", counted_at)
        d, d_inv = symbol_fns(f, walk)
        for p, q in self.PAIRS[::4] + [(1, -3), (1, 4)]:
            d_inv(p, q)
            held = len(asked)
            assert (-p, -q) not in d_inv._memo
            d_inv(-p, -q)
            d(-p, -q)
            assert len(asked) == held, (p, q)
            assert d_inv(-p, -q) == d_inv(p, q) and d(-p, -q) == d(p, q)
        assert asked

    @pytest.mark.parametrize("walk", sorted(WALKS))
    def test_a_miss_stores_each_key_once(self, monkeypatch, walk):
        # the walk leaves the asked pair to _SeriesFn._at, so a full memo
        # evicts no value for a second store of the same key
        d_inv = symbol_fns(sy.psi(sy.random_symbol(AB, 3, seed=139)), walk)[1]
        stored = []
        remember = sy._remember

        def counted(cache, cap, key, value):
            if cache is d_inv._memo:
                stored.append(key)
            remember(cache, cap, key, value)

        monkeypatch.setattr(sy, "_remember", counted)
        for pq in self.PAIRS[::3] + [(-37, 8), (1, -3), (1, 4)]:
            held = len(stored)
            d_inv(*pq)
            assert len(stored) - held == len(set(stored[held:])), pq
        assert stored

    def test_complex_matches_left_to_right_product(self):
        # complex F takes the tail recursion too, whose products associate
        # from the right, and the Euclid walk of bullet, whose products
        # differ: psi of D for E4, E6 at trunc 2 over the signed grid.
        # Bound fixed beforehand: 1e-12 of max(1, largest coefficient)
        h = ei.HAssignment.letters({"A": mf.eisenstein(4), "B": mf.eisenstein(6)})
        f = sy.psi(ei.symbol_fn(h, ei.IntegratorConfig(trunc=2)))
        d, euclid = sy.delta(f), symbol_fns(f, "euclid")[0]
        grid = [(p, q) for p in range(-9, 10) for q in range(-9, 10) if abs(p) > 1 and q and gcd(p, q) == 1]
        for p, q in grid:
            want = sy.delta_full(f, cf.canonical(*((p, q) if p > 0 else (-p, -q))))
            for got in (d(p, q), euclid(p, q)):
                assert got.max_abs_diff(want) <= 1e-12 * max(1.0, max(map(abs, want.vec))), (p, q)

    def test_memo_cap_of_one_gives_the_same_values(self, monkeypatch):
        def values():
            f = corrupted_rf(127)
            fns = (sy.delta(f), sy.bullet(f, sy.embed_exp(scalar_rf(129), "b", AB, 3)),
                   sy.bullet_inverse(f))
            return [repr(g(p, q).vec) for p, q in self.PAIRS[::9] for g in fns], fns

        want, _ = values()
        monkeypatch.setattr(sy, "_MEMO_CAP", 1)
        got, fns = values()
        assert got == want
        assert all(len(g._memo) == 1 for g in fns)

    def test_one_product_per_new_tail(self, monkeypatch):
        a = Alphabet.simple("a")
        f = sy.RecipFn(lambda p, q: TruncSeries.exp_term(a, 2, "a", Fraction(p, q)), a, 2)
        asked, counts = [], {"mul": 0, "inverse": 0}
        at, mul, inverse = sy.RecipFn._at, TruncSeries.__mul__, TruncSeries.inverse

        # the walk asks F for its tails on the unchecked path
        def counted_at(self, p, q):
            asked.append((p, q))
            return at(self, p, q)

        def counted_mul(self, other):
            counts["mul"] += 1
            return mul(self, other)

        def counted_inverse(self):
            counts["inverse"] += 1
            return inverse(self)

        monkeypatch.setattr(sy.RecipFn, "_at", counted_at)
        monkeypatch.setattr(TruncSeries, "__mul__", counted_mul)
        monkeypatch.setattr(TruncSeries, "inverse", counted_inverse)
        d = sy.delta(f)
        # 1/3000 = <1, 2, ..., 2>: proper tails (2999, 3000), ..., (1, 2), far
        # deeper than the recursion limit; D^(-1) takes one product per tail
        # but the last, as D^(-1) at the one before it is F(1, 2), and D one
        # inverse, at the asked pair only
        d(3000, 1)
        assert sorted(asked) == [(j, j + 1) for j in range(1, 3000)]
        assert counts == {"mul": 2998, "inverse": 1}
        inv_memo, d_memo = f._walks[sy._canonical_steps]
        assert len(inv_memo) == 2999 and d._memo is d_memo and len(d_memo) == 1
        # <5, 3, 2, ..., 2> joins those tails at <2, ..., 2> = (2990, 2991):
        # D^(-1) at the pair and at its first tail, then one inverse
        asked.clear()
        counts.update(mul=0, inverse=0)
        p, q = cf.evaluate([5, 3] + [2] * 2990)
        got = d(p, q)
        assert asked == [(2990, 2991), cf.evaluate([3] + [2] * 2990)]
        assert counts == {"mul": 2, "inverse": 1}
        monkeypatch.undo()
        assert got == sy.delta_full(f, cf.canonical(p, q))

    def test_one_walk_per_function(self, monkeypatch):
        # each of F's two walks is shared by everything that reads it, and
        # neither reads the other's memo.  Two deltas share the canonical
        # walk: F is asked once per tail t_i (i < n) of the pairs they
        # evaluate, for the value D^(-1)(t_i) = D^(-1)(t_(i+1)) F(t_(i+1)).
        # Two bullets and a bullet inverse share the Euclid walk: F is asked
        # once at (-q_i, p_i) per reduced pair r_i = (p_i, q_i) other than
        # (1, 1) on the walks of the points they evaluate, (p, q) and
        # (-q, p), for D^(-1)(r_i) = D^(-1)(r_(i+1)) F(-q_i, p_i)
        f = sy.psi(sy.random_symbol(AB, 3, seed=130))
        asked = []
        at = sy.RecipFn._at

        def counted_at(self, p, q):
            if self is f:
                asked.append((p, q))
            return at(self, p, q)

        monkeypatch.setattr(sy.RecipFn, "_at", counted_at)
        pairs = self.PAIRS[::7]
        for g in (sy.delta(f), sy.delta(f)):
            for p, q in pairs:
                g(p, q)
        tails = {t for p, q in pairs for t in cf.canonical_tails(p, q) if t.p > 1}
        assert len(asked) == len(tails)
        asked.clear()
        fns = (sy.bullet(f, sy.embed_exp(scalar_rf(131), "b", AB, 3)),
               sy.bullet(f, sy.embed_exp(scalar_rf(136), "a", AB, 3)), sy.bullet_inverse(f))
        for p, q in pairs:
            for g in fns:
                g(p, q)
        reduced = {r for p, q in pairs for pq in ((p, q), (-q, p)) for r in cf.euclid_walk(*pq) if r != (1, 1)}
        assert sorted(asked) == sorted((-q, p) for p, q in reduced)

    def test_no_reference_cycle(self):
        f = sy.psi(sy.random_symbol(AB, 3, seed=128))
        gc.collect()
        gc.disable()
        try:
            d = sy.delta(f)
            d(50, 1)
            del d
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_memo_entries_are_untracked(self):
        # in the memos of both walks, as in every other memo, keys are (p, q)
        # tuples and values (vec, den) tuples of ints, so the collector drops
        # them from its lists; a tuple goes only after its items have, hence
        # a second collection for the nested pair
        f = sy.psi(sy.random_symbol(AB, 3, seed=133))
        g = sy.embed_exp(scalar_rf(134), "b", AB, 3)
        r = sy.random_symbol(AB, 3, seed=135)
        fns = (sy.delta(f), sy.bullet(f, g), sy.bullet_inverse(f))
        for p, q in self.PAIRS[::5]:
            r(p, q)
            for fn in fns:
                fn(p, q)
        by_orbit = r._func.__closure__[r._func.__code__.co_freevars.index("by_orbit")].cell_contents
        memos = [*(m for pair in f._walks.values() for m in pair), *(fn._memo for fn in fns), r._memo, by_orbit]
        assert all(memos) and any(len(m) > 100 for m in memos)
        gc.collect()
        gc.collect()
        tracked = [x for m in memos for key, value in m.items()
                   for x in (key, value, value[0]) if gc.is_tracked(x)]
        assert tracked == []

    def test_memos_go_with_the_function(self):
        # F holds the memos of its two walks, and once F and its evaluators
        # are gone nothing but this test holds them: no module-level table
        gc.collect()
        gc.disable()
        try:
            f = sy.psi(sy.random_symbol(AB, 3, seed=132))
            fns = (sy.delta(f), sy.bullet(f, f), sy.bullet_inverse(f))
            for g in fns:
                g(50, 1)
            walks = f._walks
            memos = [m for pair in walks.values() for m in pair]
            assert set(walks) == set(WALKS.values()) and len(memos) == 4 and all(memos)
            del f, fns, g
            # one reference from the test's own name, one from the argument
            assert sys.getrefcount(walks) == 2
            # one from the list, one from walks' value tuple, one from the argument
            assert all(sys.getrefcount(memos[i]) == 3 for i in range(len(memos)))
        finally:
            gc.enable()


class TestNormalize:
    def test_already_normalized(self):
        d = sy.delta(sy.psi(sy.random_symbol(AB, 3, seed=51)))
        dn = sy.normalize(d)
        for p, q in sy.sample_pairs(8, seed=52):
            assert dn(p, q) == d(p, q)

    def test_constant_becomes_one(self):
        c = sy.random_symbol(AB, 3, seed=53)(2, 3)
        d = sy.SymbolFn(lambda p, q: c, AB, 3)
        dn = sy.normalize(d)
        assert dn(3, 5) == one()

    def test_preserves_psi(self):
        d = sy.random_symbol(AB, 3, seed=54)
        f, fn = sy.psi(d), sy.psi(sy.normalize(d))
        for p, q in sy.sample_pairs(10, seed=55):
            assert f(p, q) == fn(p, q)


class TestBullet:
    def setup_method(self):
        self.F = sy.embed_exp(scalar_rf(61), "a", AB, 3)
        self.G = sy.embed_exp(scalar_rf(62), "b", AB, 3)
        self.H = sy.embed_exp(scalar_rf(63), "a", AB, 3)
        self.pairs = sy.sample_pairs(8, seed=64, bound=20)

    def test_unit(self):
        unit = sy.RecipFn(lambda p, q: one(), AB, 3)
        left = sy.bullet(unit, self.F)
        right = sy.bullet(self.F, unit)
        for p, q in self.pairs:
            assert left(p, q) == self.F(p, q) == right(p, q)

    def test_length_two_component_formula(self):
        fg = sy.bullet(self.F, self.G)
        d = sy.delta(self.F)
        for p, q in self.pairs[:4]:
            for u, v in (((0,), (1,)), ((1,), (0,)), ((0,), (0,))):
                want = (self.F(p, q).coeff(u + v) + self.G(p, q).coeff(u + v)
                        + d(p, q).coeff(u) * self.G(p, q).coeff(v)
                        - self.G(p, q).coeff(u) * d(-q, p).coeff(v))
                assert fg(p, q).coeff(u + v) == want

    def test_length_one_additive(self):
        fg = sy.bullet(self.F, self.G)
        for p, q in self.pairs:
            for w in ((0,), (1,)):
                assert fg(p, q).coeff(w) == self.F(p, q).coeff(w) + self.G(p, q).coeff(w)

    def test_associativity(self):
        lhs = sy.bullet(sy.bullet(self.F, self.G), self.H)
        rhs = sy.bullet(self.F, sy.bullet(self.G, self.H))
        for p, q in self.pairs:
            assert lhs(p, q) == rhs(p, q)

    def test_inverse(self):
        fi = sy.bullet_inverse(self.F)
        for p, q in self.pairs:
            assert sy.bullet(self.F, fi)(p, q) == one()
            assert sy.bullet(fi, self.F)(p, q) == one()

    def test_inverse_of_exponential_negates(self):
        f = scalar_rf(65)
        fi = sy.bullet_inverse(sy.embed_exp(f, "a", AB, 3))
        for p, q in self.pairs:
            assert fi(p, q) == TruncSeries.term(AB, 3, "a", -f(p, q)).exp()

    def test_product_of_functions_on_all_of_u_is_almost(self):
        # D = delta(F) is undefined at pq = 0, so the product is too, and its
        # own check raises before the unchecked path sees the pair
        a = Alphabet.simple("a")
        f, g = (sy.embed_exp(sy.power_difference_rf(m), "a", a, 3, almost=False) for m in (1, 2))
        for fn in (sy.bullet(f, g), sy.bullet_inverse(f)):
            assert fn.almost
            for pq in ((1, 0), (0, 1)):
                with pytest.raises(DomainError):
                    fn(*pq)

    def test_alphabet_union(self):
        xa = Alphabet.simple("a")
        xb = Alphabet.simple("b")
        fa = sy.embed_exp(scalar_rf(66), "a", xa, 3)
        fb = sy.embed_exp(scalar_rf(67), "b", xb, 3)
        fg = sy.bullet(fa, fb)
        assert fg.alphabet.names == ("a", "b")
        p, q = 3, 5
        assert fg(p, q).coeff((0,)) == fa(p, q).coeff((0,))

    def test_merged_alphabets_match_the_union_alphabet(self):
        # operands over "a" and "b" are remapped into "ab" before the product
        f, g = scalar_rf(66), scalar_rf(67)
        merged = sy.bullet(sy.embed_exp(f, "a", Alphabet.simple("a"), 3),
                           sy.embed_exp(g, "b", Alphabet.simple("b"), 3))
        direct = sy.bullet(sy.embed_exp(f, "a", AB, 3), sy.embed_exp(g, "b", AB, 3))
        assert merged.alphabet == AB
        for p, q in sy.sample_pairs(10, seed=66):
            assert merged(p, q) == direct(p, q)

    def test_mrf_closure(self):
        fg = sy.bullet(self.F, self.G)
        rep = sy.verify_mrf(fg, self.pairs)
        assert rep.passed()

    def test_minimal_length_additivity(self):
        # F supported from length 2, G from length 3: the product vanishes
        # below length 2 and its length-2 parts are the sums
        c2 = sy.random_scalar_symbol(68)
        c3 = sy.random_scalar_symbol(69)

        def sym_from(word, c):
            return sy.SymbolFn(lambda p, q: TruncSeries.term(AB, 4, word, c(p, q)).exp(), AB, 4)

        f = sy.psi(sym_from("ab", c2))
        g = sy.psi(sym_from("aba", c3))
        fg = sy.bullet(f, g)
        for p, q in self.pairs[:4]:
            val = fg(p, q)
            assert all(val.coeff(w) == 0 for w in AB.iter_words(1, min_len=1))
            for w in AB.iter_words(2, min_len=2):
                assert val.coeff(w) == f(p, q).coeff(w) + g(p, q).coeff(w)


# Property tests: the bullet algebra on one-letter exponentials over ab at
# trunc 3, at random coprime pairs.  The minus continued fraction of
# (p, p - 1) has p tails, so |p|, |q| stay small enough to walk quickly.

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
PAIR = (st.tuples(st.integers(-500, 500), st.integers(-500, 500))
        .filter(lambda pq: pq[0] * pq[1] != 0 and gcd(*pq) == 1))
SEED = st.integers(0, 10 ** 6)
LETTER = st.sampled_from("ab")


def exponential(seed, letter):
    return sy.embed_exp(scalar_rf(seed), letter, AB, 3)


class TestBulletProperties:
    @PROPERTY
    @given(st.lists(st.tuples(SEED, LETTER), min_size=3, max_size=3), PAIR)
    def test_associative(self, factors, pq):
        f, g, h = (exponential(*x) for x in factors)
        assert sy.bullet(sy.bullet(f, g), h)(*pq) == sy.bullet(f, sy.bullet(g, h))(*pq)

    @PROPERTY
    @given(SEED, LETTER, PAIR)
    def test_unit_on_both_sides(self, seed, letter, pq):
        f = exponential(seed, letter)
        unit = sy.RecipFn(lambda p, q: one(), AB, 3)
        assert sy.bullet(unit, f)(*pq) == f(*pq) == sy.bullet(f, unit)(*pq)

    @PROPERTY
    @given(SEED, LETTER, PAIR)
    def test_inverse_on_both_sides(self, seed, letter, pq):
        f = exponential(seed, letter)
        fi = sy.bullet_inverse(f)
        assert sy.bullet(f, fi)(*pq) == one() == sy.bullet(fi, f)(*pq)

    @PROPERTY
    @given(SEED, PAIR)
    def test_delta_of_psi_is_normalize(self, seed, pq):
        d = sy.random_symbol(AB, 3, seed)
        assert sy.delta(sy.psi(d))(*pq) == sy.normalize(d)(*pq)


def reciprocity_fn(how, seed):
    """A rational reciprocity function over ab at trunc 3, built by psi,
    bullet or from_components."""
    if how == "psi":
        return sy.psi(sy.random_symbol(AB, 3, seed))
    if how == "bullet":
        return sy.bullet(reciprocity_fn("psi", seed), reciprocity_fn("components", seed + 1))
    return sy.from_components({"a": scalar_rf(seed), "b": scalar_rf(seed + 1)}, AB, 3)


WIDE_PAIR = (st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000))
             .filter(lambda pq: pq[0] * pq[1] != 0 and gcd(*pq) == 1))


class TestEuclidWalk:
    """bullet and bullet_inverse read D = delta(F) by the Euclid walk, in
    O(log |p| + log |q|) steps, where the canonical walk of delta takes the
    sum of the partial quotients."""

    WIDE = [(3, -1000000007), (1234567891, 987654321)]

    @PROPERTY
    @given(st.sampled_from(("psi", "bullet", "components")), SEED, WIDE_PAIR)
    def test_walks_agree_to_the_byte(self, how, seed, pq):
        f = reciprocity_fn(how, seed)
        for canonical, euclid in zip(symbol_fns(f, "canonical"), symbol_fns(f, "euclid")):
            a, b = canonical(*pq), euclid(*pq)
            assert (repr(a.vec), a.den) == (repr(b.vec), b.den)

    @pytest.mark.parametrize("p, q", WIDE)
    def test_algebra_at_wide_pairs(self, p, q):
        f, g, h = reciprocity_fn("psi", 141), reciprocity_fn("components", 143), reciprocity_fn("bullet", 145)
        unit = sy.RecipFn(lambda p, q: one(), AB, 3)
        fi = sy.bullet_inverse(f)
        assert sy.bullet(sy.bullet(f, g), h)(p, q) == sy.bullet(f, sy.bullet(g, h))(p, q)
        assert sy.bullet(unit, f)(p, q) == f(p, q) == sy.bullet(f, unit)(p, q)
        assert sy.bullet(f, fi)(p, q) == one() == sy.bullet(fi, f)(p, q)

    @pytest.mark.parametrize("p, q", WIDE)
    def test_matches_the_normalized_symbol_at_wide_pairs(self, p, q):
        # F = psi(D) has delta(F) = normalize(D), which a seeded symbol
        # reads at any pair in one step
        d = sy.random_symbol(AB, 3, seed=147)
        n, g = sy.normalize(d), reciprocity_fn("components", 148)
        assert sy.bullet(sy.psi(d), g)(p, q) == n(p, q) * g(p, q) * n(-q, p).inverse()
        assert sy.bullet_inverse(sy.psi(d))(p, q) == n(p, q).inverse() * n(-q, p)

    @pytest.mark.parametrize("p, q", [(20000, 1)] + WIDE)
    def test_cold_bullet_asks_f_once_per_step(self, monkeypatch, p, q):
        # the walks from (p, q) and (-q, p) take at most floor(log2 |p|) + 1
        # and floor(log2 |q|) + 1 steps, one value of F each: at (20000, 1)
        # that is floor(log2 p) + 2, where the canonical walk asks 19,999
        f = reciprocity_fn("psi", 149)
        g = reciprocity_fn("components", 150)
        asked = []
        at = sy.RecipFn._at

        def counted_at(self, p, q):
            if self is f:
                asked.append((p, q))
            return at(self, p, q)

        monkeypatch.setattr(sy.RecipFn, "_at", counted_at)
        sy.bullet(f, g)(p, q)
        assert len(asked) <= abs(p).bit_length() + abs(q).bit_length()


class TestFromComponents:
    def test_single_entry_is_embed(self):
        f = scalar_rf(71)
        fc = sy.from_components({"a": f}, AB, 3)
        fe = sy.embed_exp(f, "a", AB, 3)
        for p, q in sy.sample_pairs(6, seed=72):
            assert fc(p, q) == fe(p, q)

    def test_length_one_components(self):
        f1, f2 = scalar_rf(73), scalar_rf(74)
        fc = sy.from_components({"a": f1, "b": f2}, AB, 3)
        for p, q in sy.sample_pairs(8, seed=75):
            assert fc(p, q).coeff((0,)) == f1(p, q)
            assert fc(p, q).coeff((1,)) == f2(p, q)

    def test_passes_mrf(self):
        fc = sy.from_components({"a": scalar_rf(76), "b": scalar_rf(77)}, AB, 3)
        rep = sy.verify_mrf(fc, sy.sample_pairs(10, seed=78))
        assert rep.passed()

    def test_delta_is_grouplike(self):
        fc = sy.from_components({"a": scalar_rf(79), "b": scalar_rf(80)}, AB, 3)
        d = sy.delta(fc)
        for p, q in sy.sample_pairs(15, seed=81):
            assert d(p, q).is_grouplike().ok

    def test_corruption_breaks_grouplike(self):
        fc = sy.from_components({"a": scalar_rf(82), "b": scalar_rf(83)}, AB, 3)
        bad = sy.RecipFn(lambda p, q: fc(p, q) + TruncSeries.term(AB, 3, "ab", 1), AB, 3)
        d = sy.delta(bad)
        assert any(not d(p, q).is_grouplike().ok for p, q in sy.sample_pairs(15, seed=84))


class TestVerifyReports:
    def test_negative_control(self):
        d = sy.random_symbol(AB, 3, seed=91)
        bad = sy.SymbolFn(lambda p, q: d(p, q) + TruncSeries.term(AB, 3, "a", Fraction(1, 2) * p),
                          AB, 3)
        rep = sy.verify_mds(bad, sy.sample_pairs(10, seed=92))
        assert not rep.passed()
        axioms = {r.axiom for r in rep.rows}
        assert "MDS1" in axioms or "MDS2" in axioms

    def test_report_records(self):
        d = sy.random_symbol(AB, 3, seed=93)
        rep = sy.verify_mds(d, sy.sample_pairs(5, seed=94))
        assert rep.rows == []
        rep2 = sy.verify_mrf(sy.psi(d), sy.sample_pairs(5, seed=95))
        assert rep2.passed()


class TestDecompose:
    def test_single_exponential(self):
        f = scalar_rf(101)
        fr = sy.embed_exp(f, "a", AB, 3)
        dec = sy.decompose(sy.delta(fr), 2)
        for p, q in sy.sample_pairs(6, seed=102):
            assert dec.residual(p, q) == 0.0
            # the letter factor recovers the normalized scalar symbol
            assert dec.coefficient("a", p, q) == sy.delta(fr)(p, q).coeff((0,))
            assert dec.coefficient("b", p, q) == 0

    def test_two_disjoint_exponentials(self):
        fc = sy.from_components({"a": scalar_rf(103), "b": scalar_rf(104)}, AB, 3)
        dec = sy.decompose(sy.delta(fc), 3)
        for p, q in sy.sample_pairs(6, seed=105):
            assert dec.residual(p, q) == 0.0

    def test_factor_words_ordered_by_length(self):
        fc = sy.from_components({"a": scalar_rf(106), "b": scalar_rf(107)}, AB, 2)
        dec = sy.decompose(sy.delta(fc), 2)
        lengths = [len(w) for w in dec.words]
        assert lengths == sorted(lengths)

    def test_factors_are_symbols(self):
        fc = sy.from_components({"a": scalar_rf(108), "b": scalar_rf(109)}, AB, 3)
        dec = sy.decompose(sy.delta(fc), 2)
        pairs = sy.sample_pairs(8, seed=110)
        for w in dec.words:
            fn = dec.scalar_fn(w)
            for p, q in pairs:
                assert fn(p, -q) == fn(-p, q)
                if p + q:
                    assert fn(p, q) == fn(p, p + q)

    def test_not_shuffled_raises(self):
        fc = sy.from_components({"a": scalar_rf(111), "b": scalar_rf(112)}, AB, 3)
        bad = sy.RecipFn(lambda p, q: fc(p, q) + TruncSeries.term(AB, 3, "ab", 1), AB, 3)
        dec = sy.decompose(sy.delta(bad), 2)
        with pytest.raises(NotShuffled):
            for p, q in sy.sample_pairs(10, seed=113):
                dec.residual(p, q)

    def test_peel_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(sy, "_MEMO_CAP", 2)
        fc = sy.from_components({"a": scalar_rf(115), "b": scalar_rf(116)}, AB, 3)
        dec = sy.decompose(sy.delta(fc), 2)
        pairs = sy.sample_pairs(5, seed=117)
        first = {pq: (repr(dec.reconstruction(*pq).vec), dec.factors(*pq)) for pq in pairs}
        assert len(dec._peeled) <= 2 and pairs[0] not in dec._peeled
        assert (repr(dec.reconstruction(*pairs[0]).vec), dec.factors(*pairs[0])) == first[pairs[0]]

    def test_depth_validation(self):
        fr = sy.embed_exp(scalar_rf(114), "a", AB, 2)
        with pytest.raises(ValueError):
            sy.decompose(sy.delta(fr), 3)

    def test_peels_the_symbol_it_is_given(self):
        # a reciprocity function is refused, with the conversion to pass; an
        # unnormalized exact symbol, group-like with D(1, 1) != 1, is peeled
        # as it is, and its factors are symbols
        fc = sy.from_components({"a": scalar_rf(118), "b": scalar_rf(119)}, AB, 3)
        with pytest.raises(TypeError, match=r"delta\(F\)"):
            sy.decompose(fc, 2)
        c = TruncSeries.exp_term(AB, 3, "b", Fraction(2, 7))
        dn = sy.delta(fc)
        d = sy.SymbolFn(lambda p, q: c * dn._at(p, q), AB, 3)
        assert d(1, 1) == c
        dec = sy.decompose(d, 3)
        pairs = sy.sample_pairs(8, seed=120)
        for p, q in pairs:
            assert dec.residual(p, q) == 0
        assert dec.coefficient("b", 1, 1) == Fraction(2, 7)
        for w in dec.words:
            fn = dec.scalar_fn(w)
            for p, q in pairs:
                assert fn(p, -q) == fn(-p, q)
                if p + q:
                    assert fn(p, q) == fn(p, p + q)
