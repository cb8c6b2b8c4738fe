import cmath
import functools
import itertools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dedekindsym import contfrac as cf
from dedekindsym import eichler as ei
from dedekindsym import modforms as mf
from dedekindsym import symbols as sy
from dedekindsym.errors import DomainError, NonConvergence
from dedekindsym.series import COMPLEX, Alphabet, TruncSeries
from node_axis import node_groups

CFG = ei.IntegratorConfig(trunc=2)
INF = ei.INF
S_MAT = (0, -1, 1, 0)
T_MAT = (1, 1, 0, 1)


def h_pair():
    return ei.HAssignment.letters({"A": mf.eisenstein(4), "B": mf.eisenstein(6)})


def h_e4():
    return ei.HAssignment.letters({"A": mf.eisenstein(4)})


def h_e4_delta():
    return ei.HAssignment.letters({"A": mf.eisenstein(4), "B": mf.delta_form()})


def h_delta():
    return ei.HAssignment.letters({"A": mf.delta_form()})


def h_three():
    return ei.HAssignment.letters({"A": mf.eisenstein(4), "B": mf.eisenstein(6), "C": mf.delta_form()})


def h_word():
    # a form on the word AB and none on the letter B
    return ei.HAssignment(Alphabet([("A", 2), ("B", 4)]), {"A": mf.eisenstein(4), "AB": mf.eisenstein(8)})


class TestHAssignment:
    def test_letters_weights(self):
        h = h_pair()
        assert h.alphabet.weights == (2, 4)

    def test_weight_mismatch(self):
        ab = Alphabet([("A", 4)])
        with pytest.raises(ValueError):
            ei.HAssignment(ab, {"A": mf.eisenstein(4)})  # needs weight 6

    def test_level_two_rejected(self):
        ab = Alphabet([("A", 2)])
        with pytest.raises(ValueError):
            ei.HAssignment(ab, {"A": mf.eisenstein_gamma02(4)})

    def test_word_assignment(self):
        h = h_word()
        ab = h.alphabet
        assert h.forms[ab.word("AB")].weight == 8
        assert ab.word("BA") not in h.forms
        assert h.letter_constants == (complex(mf.eisenstein(4).coeff(0)), 0j)


class TestOmega:
    @staticmethod
    def connection_form(h, tau, xy):
        # word B reads h(B)(tau) (X - Y tau)^w(B)
        X, Y = xy
        coeffs = {word: mf.form_value(form, tau) * (X - Y * tau) ** h.alphabet.word_weight(word)
                  for word, form in h.forms.items()}
        return TruncSeries(h.alphabet, 2, coeffs, COMPLEX)

    def test_gamma_invariance_at_S(self):
        # Omega(S tau) d(S tau) at xy equals Omega(tau) d tau at S^-1 xy
        h = h_pair()
        tau = 0.4 + 0.9j
        xy = (2.0, 3.0)
        moved = self.connection_form(h, -1 / tau, xy).scale(1 / tau ** 2)
        here = self.connection_form(h, tau, ei._mat_apply_xy(ei._mat_inv(S_MAT), xy))
        assert set(moved.coeffs) == set(here.coeffs) == {(0,), (1,)}
        assert moved.max_abs_diff(here) < 1e-10


class TestTangentialBasePoint:
    def test_validation(self):
        ei.TangentialBasePoint(Fraction(1, 2), INF)
        with pytest.raises(ValueError):
            ei.TangentialBasePoint(INF, INF)
        with pytest.raises(ValueError):
            ei.TangentialBasePoint(0.5, INF)


class TestIInfinity:
    """I_inf(tau0, tau1), the iterated integrals of the constant-term form,
    read from the stored array at any two endpoints."""

    def test_equal_endpoints(self):
        h = h_pair()
        assert ei._i_inf_at(h, 1j, 1j, (2.0, 1.0), 2) == TruncSeries.one(h.alphabet, 2, COMPLEX)

    def test_composition_exact(self):
        h = h_pair()
        xy = (3.0, 2.0)
        a, b, c = 1j, 2.5 + 0.5j, -1 + 4j
        lhs = ei._i_inf_at(h, a, b, xy, 2) * ei._i_inf_at(h, b, c, xy, 2)
        rhs = ei._i_inf_at(h, a, c, xy, 2)
        assert lhs.max_abs_diff(rhs) < 1e-13

    def test_length_one_antiderivative(self):
        h = h_e4()
        X, Y, w = 5.0, 3.0, 2
        a0 = 1 / 240
        t0, t1 = 1j, 2 + 3j
        got = ei._i_inf_at(h, t0, t1, (X, Y), 1).coeff((0,))
        want = a0 * ((X - Y * t1) ** (w + 1) - (X - Y * t0) ** (w + 1)) / (-(w + 1) * Y)
        assert abs(got - want) < 1e-13

    def test_cusp_forms_contribute_nothing(self):
        h = h_delta()
        out = ei._i_inf_at(h, 1j, 5j, (2.0, 1.0), 2)
        assert out == TruncSeries.one(h.alphabet, 2, COMPLEX)


class TestINumeric:
    def test_equal_endpoints(self):
        h = h_e4()
        assert ei.i_numeric(h, 1j, 1j, (2.0, 1.0), CFG) == TruncSeries.one(h.alphabet, 2, COMPLEX)

    def test_composition(self):
        h = h_e4()
        xy = (2.0, 1.0)
        a, b, c = 0.3 + 0.9j, -0.2 + 1.7j, 0.5 + 2.5j
        lhs = ei.i_numeric(h, a, b, xy, CFG) * ei.i_numeric(h, b, c, xy, CFG)
        rhs = ei.i_numeric(h, a, c, xy, CFG)
        assert lhs.max_abs_diff(rhs) < 1e-10

    def test_inverse_path(self):
        h = h_pair()
        xy = (2.0, 1.0)
        fwd = ei.i_numeric(h, 0.5j, 1 + 2j, xy, CFG)
        back = ei.i_numeric(h, 1 + 2j, 0.5j, xy, CFG)
        assert (fwd * back).max_abs_diff(TruncSeries.one(h.alphabet, 2, COMPLEX)) < 1e-10

    def test_grouplike(self):
        h = h_pair()
        out = ei.i_numeric(h, 0.5j, 1 + 2j, (2.0, 1.0), CFG)
        assert out.is_grouplike(1e-10).ok

    def test_coefficients_are_python_complex(self):
        h = h_pair()
        for out in (ei.i_numeric(h, 0.5j, 1 + 2j, (2.0, 1.0), CFG),
                    ei.build_D(h, 3, 2, CFG)):
            assert out.kind == COMPLEX and out.coeffs
            assert all(type(c) is complex for c in out.coeffs.values())

    def test_rejects_lower_half_plane(self):
        h = h_e4()
        with pytest.raises(ValueError):
            ei.i_numeric(h, 1j, 1 - 1j, (2.0, 1.0), CFG)


class TestRegToCusp:
    def test_length_zero_is_one(self):
        out = ei.reg_to_cusp(h_pair(), 1j, Fraction(0), (2.0, 1.0), CFG)
        assert out.coeff(()) == 1

    def test_cusp_form_termwise_oracle(self):
        # a0 = 0 so I_inf = 1 and the value is the plain improper integral,
        # computed independently by termwise closed-form antiderivatives
        h = h_delta()
        cfg = ei.IntegratorConfig(trunc=1)
        X, Y, w = 3.0, 2.0, 10
        tau0 = 1j
        got = ei.reg_to_cusp(h, tau0, Fraction(0), (X, Y), cfg).coeff((0,))
        pre = [math.comb(w, j) * (X - Y * tau0) ** (w - j) * (-1j * Y) ** j * math.factorial(j)
               for j in range(w + 1)]
        want = 0j
        for n in range(1, 60):
            an = mf.delta_coeff(n)
            c = 2 * math.pi * n
            want += an * cmath.exp(2j * math.pi * n * tau0) * sum(pre[j] / c ** (j + 1) for j in range(w + 1))
        want *= 1j
        assert abs(got - want) < 1e-11

    def test_doubling_decay_rate(self):
        # truncated-at-T values converge like exp(-2 pi T)
        h = h_delta()
        cfg = ei.IntegratorConfig(trunc=1)
        xy = (2.0, 1.0)

        def partial(t):
            return ei.i_numeric(h, 1j, t * 1j, xy, cfg)

        d1 = partial(2.0).max_abs_diff(partial(4.0))
        d2 = partial(4.0).max_abs_diff(partial(8.0))
        # exp(-2 pi T) decay, against the polynomial growth of (X - Y t)^(w+1)
        assert d2 < d1 * math.exp(-2 * math.pi * 2) * 2 ** 12

    def test_direction_enters_only_through_i_inf(self):
        h = h_pair()
        xy = (2.0, 1.0)
        r0 = ei.reg_to_cusp(h, 1j, Fraction(0), xy, CFG)
        r1 = ei.reg_to_cusp(h, 1j, Fraction(1, 2), xy, CFG)
        bridge = ei._i_inf_at(h, 0j, 0.5 + 0j, xy, 2)
        assert (r0 * bridge).max_abs_diff(r1) < 1e-11


def poly_eval(u, x):
    acc = 0
    for c in reversed(u):
        acc = acc * x + c
    return acc


def i_inf_polys_at(h, tau0, xy, trunc):
    """I_inf(tau0, t) at the numeric point xy, one polynomial in t per word
    in word-table order: the antiderivative recursion of I' = I Omega_inf
    run at the point, as the cusp limit ran it before I_inf
    was stored."""
    X, Y = complex(xy[0]), complex(xy[1])
    steps = {}
    for w, form in h.forms.items():
        a0 = complex(form.coeff(0))
        if len(w) <= trunc and a0 != 0:
            wt = h.alphabet.word_weight(w)
            steps[w] = [a0 * (math.comb(wt, j) * X ** (wt - j) * (-Y) ** j if j else X ** wt)
                        for j in range(wt + 1)]
    polys = {(): [1.0 + 0j]}
    for word in h.alphabet.iter_words(trunc, min_len=1):
        rhs = [0]
        for k in range(1, len(word) + 1):
            if word[-k:] in steps:
                u, v = polys[word[:-k]], steps[word[-k:]]
                rhs += [0] * (len(u) + len(v) - 1 - len(rhs))
                for j, c in enumerate(u):
                    for m, d in enumerate(v):
                        if c != 0 and d != 0:
                            rhs[j + m] = rhs[j + m] + c * d
        prim = [0] + [c / (j + 1) for j, c in enumerate(rhs)]
        prim[0] = -poly_eval(prim, complex(tau0))
        polys[word] = prim
    return polys


def i_inf_per_point(h, tau0, tau1, xy, trunc):
    """I_inf(tau0, tau1) at xy from the per-point recursion."""
    polys = i_inf_polys_at(h, tau0, xy, trunc)
    return TruncSeries._from_vec(h.alphabet, trunc, [poly_eval(p, complex(tau1)) for p in polys.values()])


def numpy_at_point(h, coef, xy, trunc, center):
    """The (words, K) array ``coef`` centered at c, at the numeric point
    xy = (X, Y), read as eichler read its series in numpy before it
    compiled a kernel for it: the powers of X - c Y gathered per word and
    monomial, a mask of the monomials that exist, and numpy's sum over the
    monomial axis, so word B reads sum_k coef[B, k] (X - c Y)^(w(B)-k) Y^k."""
    weights = np.array([h.alphabet.word_weight(w) for w in ei._split_table(h.alphabet, trunc).words])
    exps = weights[:, None] - np.arange(weights.max() + 1)
    Y = complex(xy[1])
    X = complex(xy[0]) - center * Y
    px, py = [1 + 0j], [1 + 0j]
    for _ in range(exps.shape[1] - 1):
        px.append(px[-1] * X)
        py.append(py[-1] * Y)
    mono = np.where(exps >= 0, np.array(px)[np.maximum(exps, 0)] * np.array(py), 0)
    return TruncSeries._from_vec(h.alphabet, trunc, (coef * mono).sum(axis=1).tolist())


def cusp_general(h, tau, xy, cfg):
    """RI(tau, i inf) at xy: the stored cusp limit read by ``numpy_at_point``."""
    coef = np.reshape(ei._ri_limit(h, tau, cfg), (len(ei._split_table(h.alphabet, cfg.trunc).words), -1))
    return numpy_at_point(h, coef, xy, cfg.trunc, tau)


@functools.lru_cache(maxsize=32)
def i_inf_array(h, trunc):
    """The flat tuple that ``_i_inf_paths`` stores as its (words, K, trunc + 1) array."""
    return np.reshape(ei._i_inf_paths(h, trunc)[0], (len(ei._split_table(h.alphabet, trunc).words), -1, trunc + 1))


def i_inf_general(h, tau, s, xy, trunc):
    """I_inf(tau, s) at xy as eichler read it in numpy off the line
    X - s Y = 0: the product of the stored array with the powers of
    t = tau - s, read by ``numpy_at_point`` in the two end values."""
    X, Y = complex(xy[0]), complex(xy[1])
    powers = [1 + 0j]
    for _ in range(trunc):
        powers.append(powers[-1] * (tau - s))
    return numpy_at_point(h, i_inf_array(h, trunc) @ powers, (X - s * Y, X - tau * Y), trunc, 0)


def i_inf_mpmath(h, tau, s, xy, trunc, dps=30):
    """I_inf(tau, s) at the numeric point xy to ``dps`` digits, as the list of
    its coefficients over the word table: the forward antiderivative
    recursion of I' = I Omega_inf in the variable of the path, started at
    tau, with the point, the constant terms and s exact."""
    with mpmath.workdps(dps):
        X, Y, tau = mpmath.mpc(xy[0]), mpmath.mpc(xy[1]), mpmath.mpc(tau)
        s = mpmath.mpf(s.numerator) / s.denominator

        def value(u, z):
            acc = mpmath.mpc(0)
            for c in reversed(u):
                acc = acc * z + c
            return acc

        steps = {}
        for w, form in h.forms.items():
            a0, wt = form.coeff(0), h.alphabet.word_weight(w)
            if a0 and len(w) <= trunc:
                a0 = mpmath.mpf(a0.numerator) / a0.denominator
                steps[w] = [a0 * math.comb(wt, j) * X ** (wt - j) * (-Y) ** j for j in range(wt + 1)]
        polys, out = {(): [mpmath.mpc(1)]}, [1 + 0j]
        for word in h.alphabet.iter_words(trunc, min_len=1):
            rhs = []
            for k in range(1, len(word) + 1):
                if word[-k:] in steps:
                    u, v = polys[word[:-k]], steps[word[-k:]]
                    prod = [mpmath.fsum(u[i] * v[j - i] for i in range(len(u)) if 0 <= j - i < len(v))
                            for j in range(len(u) + len(v) - 1)]
                    rhs = [a + b for a, b in itertools.zip_longest(rhs, prod, fillvalue=0)]
            prim = [mpmath.mpc(0)] + [c / (j + 1) for j, c in enumerate(rhs)]
            prim[0] = -value(prim, tau)
            polys[word] = prim
            out.append(complex(value(prim, s)))
    return out


SIGNED_GRID = [(p, q) for p in range(-9, 10) for q in range(-9, 10) if p and q and math.gcd(p, q) == 1]
# pairs with large or many continued-fraction entries
WIDE_PAIRS = [(1, 100), (1, 1000), (-2, 51), (89, 144), (3, -28), (377, 610), (9973, 10007),
              (7, 16), (1, 9), (1, 7)]


class TestIInfPaths:
    """I_inf(tau, s) from the stored reversed constant-term path, the factor
    that reg_to_cusp multiplies the cusp limit by."""

    ASSIGNMENTS = {"E4,E6": h_pair,
                   "A=E4,AA=E6": lambda: ei.HAssignment(Alphabet([("A", 2)]),
                                                        {"A": mf.eisenstein(4), "AA": mf.eisenstein(6)}),
                   "E4,E6,Delta": lambda: ei.HAssignment.letters(
                       {"A": mf.eisenstein(4), "B": mf.eisenstein(6), "C": mf.delta_form()})}

    @staticmethod
    def build_points(h, monkeypatch):
        """Every (tau, direction, xy) at which build_D and build_F evaluate a
        regularized end (``_reg_end``, direction as (num, den)) over the
        signed grid (the points do not depend on the truncation)."""
        seen = {}

        def record(h, tau, direction, xy, cfg):
            seen[complex(tau), Fraction(*direction), tuple(map(complex, xy))] = None
            return TruncSeries.one(h.alphabet, cfg.trunc, COMPLEX)

        with monkeypatch.context() as m:
            m.setattr(ei, "_reg_end", record)
            cfg = ei.IntegratorConfig(trunc=1)
            for p, q in SIGNED_GRID:
                ei.build_D(h, p, q, cfg)
                ei.build_F(h, p, q, cfg)
        return list(seen)

    @pytest.mark.parametrize("name", ["E4,E6", "A=E4,AA=E6"])
    def test_build_points_match_mpmath(self, name, monkeypatch):
        # at each point X - s Y = 0 (the heads and the F tails) or Y = 0 (the
        # D tails).  Bound fixed beforehand: 1e-14 of max(1, largest
        # coefficient); the per-point recursion (i_inf_per_point) reaches
        # 7.9e-14 at trunc 2 and 1.5e-12 at trunc 3
        h = self.ASSIGNMENTS[name]()
        points = self.build_points(h, monkeypatch)
        assert len(points) > len(SIGNED_GRID)
        for tau, s, xy in points:
            X, Y = (Fraction(int(v.real)) for v in xy)
            assert xy == (X, Y) and (X - s * Y == 0 or Y == 0)
            want = i_inf_mpmath(h, tau, s, xy, 3)
            for trunc in (1, 2, 3):
                got = ei._i_inf_at(h, tau, float(s), xy, trunc)
                ref = TruncSeries._from_vec(h.alphabet, trunc, want[:len(got.vec)])
                assert relative_gap(got, ref) <= 1e-14, (tau, s, xy, trunc)

    @pytest.mark.parametrize("name", sorted(ASSIGNMENTS))
    def test_generic_points(self, name):
        # points where neither endpoint form X - s Y, X - tau Y vanishes.
        # Bounds fixed beforehand, of max(1, largest coefficient): 1e-13
        # against mpmath, 1e-12 against the per-point recursion
        h = self.ASSIGNMENTS[name]()
        for tau, s, xy in itertools.product(
                [1j, 0.3 + 1.1j, -0.7 + 2j], [Fraction(0), Fraction(1, 3), Fraction(-5, 2), Fraction(7)],
                [(3, 2), (-5, 7), (1.5 - 0.5j, 2 + 1j), (1, 0)]):
            want = i_inf_mpmath(h, tau, s, xy, 3)
            for trunc in (1, 2, 3):
                got = ei._i_inf_at(h, tau, float(s), xy, trunc)
                ref = TruncSeries._from_vec(h.alphabet, trunc, want[:len(got.vec)])
                assert relative_gap(got, ref) <= 1e-13, (tau, s, xy, trunc)
                per_point = i_inf_per_point(h, tau, float(s), xy, trunc)
                assert relative_gap(got, per_point) <= 1e-12, (tau, s, xy, trunc)

    @pytest.mark.parametrize("trunc", [1, 2, 3])
    def test_reverse_entries_share_sign(self, trunc):
        # for letters only, each (word, power of t) slice of the stored
        # reversed path is real and of one sign: its sums cancel only as
        # much as the two end values X - s Y, X - tau Y make them
        reverse = i_inf_array(h_pair(), trunc)
        assert np.all(reverse.imag == 0)
        for row in np.moveaxis(reverse.real, 2, 1).reshape(-1, reverse.shape[1]):
            assert np.all(row >= 0) or np.all(row <= 0)

    def test_signed_grid_grouplike_and_mds(self):
        # A=E4, B=E6 at trunc 2 over every coprime pair in [-9, 9]^2: relative
        # group-likeness and the MDS1 (D(p, q) = D(p, p + q)) and MDS2
        # (D(p, q) = D(-p, -q)) gaps of max(1, largest coefficient), bounds
        # fixed beforehand at 1e-12.  With I_inf rebuilt at each point the
        # worst were 7.7e-12 and 3.4e-12; from the stored path, 2.1e-13 and 1.3e-13
        h = h_pair()
        d = {pq: ei.build_D(h, *pq, CFG) for pq in SIGNED_GRID}
        assert max(s.is_grouplike(relative=True).worst for s in d.values()) <= 1e-12
        assert max(relative_gap(d[p, q], d[p, p + q]) for p, q in SIGNED_GRID if (p, p + q) in d) <= 1e-12
        assert max(relative_gap(d[p, q], d[-p, -q]) for p, q in SIGNED_GRID) <= 1e-12


class TestOnLineClosedForm:
    """Regularized ends read by the compiled kernel against eichler's former
    numpy reading: where the float X - s Y is 0 (the ends of build_F, bar
    float residues, and the (0, 1) end of D(1, 1)) each word of I_inf reads
    its top monomial; elsewhere the kernel sums every monomial."""

    SETTINGS = {"E4,E6": h_pair, "Delta": h_delta, "E4,Delta": h_e4_delta}
    GRID = [(p, q) for p in range(-60, 61) for q in range(-60, 61) if p and q and math.gcd(p, q) == 1]

    @pytest.mark.parametrize("name", sorted(SETTINGS))
    def test_matches_general_evaluation(self, name):
        # the heads of F over the signed 60-grid, every end of build_F up
        # to sign; the kernel reads one monomial per word where the float
        # X - s Y is 0.  Bound fixed beforehand: 1e-15 of max(1, largest
        # coefficient)
        h = self.SETTINGS[name]()
        on_line = [(q / p, (complex(q), complex(p))) for p, q in self.GRID if complex(q) - q / p * complex(p) == 0]
        assert len(on_line) > 0.9 * len(self.GRID)
        for trunc in (1, 2, 3):
            for s, xy in on_line:
                got = ei._i_inf_at(h, 1j, s, xy, trunc)
                assert relative_gap(got, i_inf_general(h, 1j, s, xy, trunc)) <= 1e-15, (s, xy, trunc)

    @staticmethod
    def off_line_ends(h, monkeypatch):
        """The (tau, s, xy) of every regularized end that the (1, 0) end of
        D(1, 1), full_integral and i_numeric read off the line X - s Y = 0."""
        ends = {}
        read = ei._reg_end

        def record(h, tau, direction, xy, cfg):
            ends[tau, direction[0] / direction[1], tuple(map(complex, xy))] = None
            return read(h, tau, direction, xy, cfg)

        monkeypatch.setattr(ei, "_reg_end", record)
        cfg = ei.IntegratorConfig(trunc=1)
        ei.build_D(h, 1, 1, cfg)
        for p, q in [(7, 5), (-5, 7), (1, 9), (3, -8)]:
            tb0, tb1 = ei.TangentialBasePoint(Fraction(q, p), INF), ei.TangentialBasePoint(INF, Fraction(q, p))
            ei.full_integral(h, tb0, tb1, (p, q), cfg)
        for xy in [(3, 2), (-5, 7), (1.5 - 0.5j, 2 + 1j)]:
            ei.i_numeric(h, 0.3 + 1.1j, -0.4 + 0.9j, xy, cfg)
        monkeypatch.undo()
        ei.clear_caches()
        off_line = [(tau, s, xy) for tau, s, xy in ends if xy[0] - s * xy[1] != 0]
        assert len(off_line) >= 10 and (1j, 0.0, (1 + 0j, 0j)) in off_line
        return off_line

    @pytest.mark.parametrize("name", sorted(SETTINGS))
    def test_off_line_ends_match_general_evaluation(self, name, monkeypatch):
        # I_inf where the kernel sums every monomial.  Bound fixed
        # beforehand: 1e-15 of max(1, largest coefficient)
        h = self.SETTINGS[name]()
        for tau, s, xy in self.off_line_ends(h, monkeypatch):
            for trunc in (1, 2, 3):
                got = ei._i_inf_at(h, tau, s, xy, trunc)
                assert relative_gap(got, i_inf_general(h, tau, s, xy, trunc)) <= 1e-15, (tau, s, xy, trunc)

    @pytest.mark.parametrize("name", sorted(SETTINGS))
    def test_cusp_half_within_rounding(self, name, monkeypatch):
        # the stored cusp limit read by the kernel against the same stored
        # coefficients read in 50-digit arithmetic, at a sample of the heads
        # of F and at the off-line ends.  Bound fixed beforehand from a
        # first-order error analysis: x = X - tau Y, the w - 1 products of
        # a monomial, one product with the coefficient (each complex
        # product within sqrt(5) u) and w sums give at most 4 (w + 1) u
        # times size, the sum of the terms' absolute values; the bound
        # doubles that.  A 1e-15 gap to numpy's reading cannot hold: for
        # Delta at trunc 3 the two readings differ by 1.8e-15 of the
        # largest coefficient, and each is 2.9e-15 from the exact reading
        h = self.SETTINGS[name]()
        heads = [(1j, (complex(q), complex(p))) for p, q in self.GRID[::97]]
        points = heads + [(tau, xy) for tau, _, xy in self.off_line_ends(h, monkeypatch)]
        u = 2.0 ** -53
        for trunc in (1, 2, 3):
            cfg = ei.IntegratorConfig(trunc=trunc)
            words = ei._split_table(h.alphabet, trunc).words
            for tau, xy in points:
                coef = ei._ri_limit(h, tau, cfg)
                got = ei._at_point(h, coef, xy, trunc, tau)
                K = len(coef) // len(words)
                with mpmath.workdps(50):
                    X, Y = mpmath.mpc(xy[0]), mpmath.mpc(xy[1])
                    x = X - mpmath.mpc(tau) * Y
                    for i, w in enumerate(words):
                        wt = h.alphabet.word_weight(w)
                        terms = [mpmath.mpc(coef[i * K + k]) * x ** (wt - k) * Y ** k for k in range(wt + 1)]
                        size = mpmath.fsum(map(abs, terms))
                        assert abs(got.vec[i] - mpmath.fsum(terms)) <= 8 * (wt + 1) * u * size, (tau, xy, trunc, w)
        ei.clear_caches()

    def test_negated_point_same_bytes(self):
        # the kernel's branch on x and its powers are even in (X, Y), so
        # either sign fills an end's memo key with the same bytes
        h = h_pair()
        cfg = ei.IntegratorConfig(trunc=3)
        assert 7 - 7 / 5 * 5 == 0
        ei.clear_caches()
        here = repr(ei.build_F(h, 5, 7, cfg).vec), repr(ei._i_inf_at(h, 1j, 7 / 5, (7 + 0j, 5 + 0j), 3).vec)
        ei.clear_caches()
        there = repr(ei.build_F(h, -5, -7, cfg).vec), repr(ei._i_inf_at(h, 1j, 7 / 5, (-7 + 0j, -5 + 0j), 3).vec)
        assert here == there
        ei.clear_caches()

    def test_both_branches_in_one_F(self):
        # the head of F(7, 29) has a float residue, so the kernel sums every
        # monomial of its I_inf; its tail is on its line and reads the top
        # monomials.  Bounds fixed beforehand: group-like within 1e-13, and
        # 1e-15 of max(1, largest coefficient) from F with both ends read by
        # numpy as before the kernel
        h = h_pair()
        cfg = ei.IntegratorConfig(trunc=3)
        assert 29 - 29 / 7 * 7 != 0 and 7 - (-7 / 29) * -29 == 0
        ei.clear_caches()
        got = ei.build_F(h, 7, 29, cfg)

        def general_end(s, xy):
            return cusp_general(h, 1j, xy, cfg) * i_inf_general(h, 1j, s, xy, 3)

        want = general_end(29 / 7, (29 + 0j, 7 + 0j)).inverse() * general_end(-7 / 29, (7 + 0j, -29 + 0j))
        assert got.is_grouplike(relative=True).worst <= 1e-13
        assert relative_gap(got, want) <= 1e-15
        ei.clear_caches()


class TestPullback:
    # The chart rule that full_integral's charts rely on:
    # I(gamma a, gamma b) at xy equals I(a, b) at gamma^-1 xy.
    A, B = 0.3 + 1.1j, -0.4 + 0.9j
    XY = (2.0, 3.0)

    def moved_and_pulled_back(self, mat):
        h = h_pair()
        moved = ei.i_numeric(h, ei._mat_mobius(mat, self.A), ei._mat_mobius(mat, self.B),
                             self.XY, CFG)
        pulled = ei.i_numeric(h, self.A, self.B, ei._mat_apply_xy(ei._mat_inv(mat), self.XY), CFG)
        return moved, pulled

    def test_identity(self):
        moved, pulled = self.moved_and_pulled_back((1, 0, 0, 1))
        assert moved == pulled

    def test_S_swaps(self):
        moved, pulled = self.moved_and_pulled_back(S_MAT)
        assert len(moved.coeffs) == 7
        assert moved.max_abs_diff(pulled) < 1e-12

    def test_T_translates(self):
        moved, pulled = self.moved_and_pulled_back(T_MAT)
        assert len(moved.coeffs) == 7
        assert moved.max_abs_diff(pulled) < 1e-12


class TestFullIntegral:
    def test_matches_build_D(self):
        # the integral through the chart at q/p, two regularized ends at
        # height 1/|p|, against D by its recursion from D(1, 1), over the
        # signed grid at trunc 2.
        # Bound fixed beforehand: 1e-12 of max(1, largest coefficient)
        h = h_pair()
        for p, q in SIGNED_GRID:
            tb0 = ei.TangentialBasePoint(Fraction(q, p), INF)
            tb1 = ei.TangentialBasePoint(INF, Fraction(q, p))
            fi = ei.full_integral(h, tb0, tb1, (p, q), CFG)
            assert relative_gap(fi, ei.build_D(h, p, q, CFG)) <= 1e-12, (p, q)

    def test_matches_build_F_through_cusp_zero_chart(self):
        h = h_pair()
        p, q = 3, 2
        tb0 = ei.TangentialBasePoint(Fraction(q, p), INF)
        tb1 = ei.TangentialBasePoint(Fraction(q, p), Fraction(0))
        fi = ei.full_integral(h, tb0, tb1, (p, q), CFG)
        assert fi.max_abs_diff(ei.build_F(h, p, q, CFG)) < 1e-12

    def test_reverse_composes_to_one(self):
        h = h_pair()
        p, q = 3, 2
        tb0 = ei.TangentialBasePoint(Fraction(q, p), INF)
        tb1 = ei.TangentialBasePoint(INF, Fraction(q, p))
        fwd = ei.full_integral(h, tb0, tb1, (p, q), CFG)
        back = ei.full_integral(h, tb1, tb0, (p, q), CFG)
        assert (fwd * back).max_abs_diff(TruncSeries.one(h.alphabet, 2, COMPLEX)) < 1e-12

    def test_tau1_independence(self):
        h = h_pair()
        p, q = 3, 2
        tb0 = ei.TangentialBasePoint(Fraction(q, p), INF)
        tb1 = ei.TangentialBasePoint(INF, Fraction(q, p))
        base = ei.full_integral(h, tb0, tb1, (p, q), CFG)
        for tau1 in (1.5j, 0.4 + 1.2j):
            alt = ei.full_integral(h, tb0, tb1, (p, q), CFG, tau1=tau1)
            assert base.max_abs_diff(alt) < 1e-9

    def test_modular_property_at_T(self):
        # I(T tau, ->T(s) at T(inf)) slashed by T equals I(tau, ->s at inf)
        h = h_pair()
        X, Y = 2.0, 3.0
        lhs = ei.reg_to_cusp(h, 0.3 + 1.1j, Fraction(1, 3), (X + Y, Y), CFG)
        rhs = ei.reg_to_cusp(h, -0.7 + 1.1j, Fraction(-2, 3), (X, Y), CFG)
        assert lhs.max_abs_diff(rhs) < 1e-9


class TestBuilders:
    def test_E_components(self):
        h = h_pair()
        p, q = 3, 5
        e = ei.build_E(h, p, q, 2)
        a1 = 1 / 240
        a2 = -1 / 504
        assert abs(e.coeff((0,)) - a1 / (p * q)) < 1e-15
        assert abs(e.coeff((1,)) - a2 / (p * q)) < 1e-15
        assert abs(e.coeff((0, 1)) - a1 * a2 / (2 * (p * q) ** 2)) < 1e-16
        assert abs(e.coeff((0, 0)) - a1 ** 2 / (2 * (p * q) ** 2)) < 1e-16

    def test_cusp_only_E_is_one(self):
        h = h_delta()
        assert ei.build_E(h, 3, 5, 2) == TruncSeries.one(h.alphabet, 2, COMPLEX)

    def test_cusp_only_F_is_psi_of_D(self):
        h = h_delta()
        cfg = ei.IntegratorConfig(trunc=1)
        p, q = 2, 3
        f = ei.build_F(h, p, q, cfg)
        want = ei.build_D(h, p, q, cfg) * ei.build_D(h, -q, p, cfg).inverse()
        assert f.max_abs_diff(want) < 1e-10

    def test_delta_length1_orientation(self):
        # build_D runs from i-infinity down to the cusp; the closed form runs
        # up from the cusp, so the two agree after the orientation constant -1.
        # The wide pairs need the closed form's Fourier cap of 20000; at
        # (9973, 10007) it does not converge.  Bound fixed beforehand: 1e-12
        # of max(1, |closed form|)
        h = h_delta()
        cfg = ei.IntegratorConfig(trunc=1)
        for p, q in [(2, 3), (3, 2), (1, 2)] + [pq for pq in WIDE_PAIRS if pq != (9973, 10007)]:
            b = ei.build_D(h, p, q, cfg).coeff((0,))
            c = mf.dedekind_symbol_length1(mf.delta_form(), p, q)
            assert abs(-b - c) <= 1e-12 * max(1.0, abs(c)), (p, q)

    def test_domain_errors(self):
        h = h_pair()
        with pytest.raises(DomainError):
            ei.build_D(h, 1, 0, CFG)
        with pytest.raises(DomainError):
            ei.build_E(h, 2, 4, 2)

    @pytest.mark.parametrize("build", [ei.build_D, ei.build_F, ei.build_E])
    @pytest.mark.parametrize("pair", [(2.7, 3), (2, 3.0), ("2", 3)])
    def test_pair_entries_must_be_integers(self, build, pair):
        # a pair is read as integers, never truncated or parsed
        with pytest.raises(TypeError):
            build(h_pair(), *pair)

    def test_F_length1_laurent_structure(self):
        # length-1 components fit Laurent polynomials over the degree box:
        # the associated function psi(D) carries the extra a_0/(pq) term,
        # which the E factor cancels exactly inside F
        from math import gcd

        h = h_e4()
        cfg = ei.IntegratorConfig(trunc=1)
        f_samples, m_samples = [], []
        for p in range(1, 7):
            n = 0
            for q in range(-6, 7):
                if q and gcd(p, q) == 1 and n < 6:
                    f_samples.append(((p, q), ei.build_F(h, p, q, cfg).coeff((0,))))
                    m = (ei.build_D(h, p, q, cfg) * ei.build_D(h, -q, p, cfg).inverse())
                    m_samples.append(((p, q), m.coeff((0,))))
                    n += 1
        homogeneous = {(-1, 3), (0, 2), (1, 1), (2, 0), (3, -1)}
        fit, residual = mf.laurent_fit(f_samples, ((-1, 3), (-1, 3)))
        assert residual < 1e-8
        assert set(fit.prune(1e-8).coeffs) == homogeneous
        fit_m, residual_m = mf.laurent_fit(m_samples, ((-1, 3), (-1, 3)))
        assert residual_m < 1e-8
        survivors_m = fit_m.prune(1e-8).coeffs
        assert set(survivors_m) == homogeneous | {(-1, -1)}
        assert abs(survivors_m[(-1, -1)] + 1 / 240) < 1e-8  # -a_0(E4): orientation -1


def power_sum_E(h, p, q, trunc):
    """E(p, q) as the power sum of ``exp`` over the letters' a_0 / (p q)."""
    coeffs = {w: complex(f.coeff(0)) / (p * q) for w, f in h.forms.items() if len(w) == 1}
    return TruncSeries(h.alphabet, trunc, coeffs, COMPLEX).exp()


class TestClosedFormE:
    """build_E word by word, and E(p, q)^-1 = E(-p, q) in the recursion of D."""

    SETTINGS = [(h_pair, 1), (h_pair, 2), (h_pair, 3), (h_e4_delta, 2), (h_delta, 3)]

    @pytest.mark.parametrize("make", [h_pair, h_e4_delta, h_word, h_three])
    def test_bytes_of_the_power_sum(self, make):
        h = make()
        for trunc in range(1, 6):
            for p, q in SIGNED_GRID:
                assert repr(ei.build_E(h, p, q, trunc).vec) == repr(power_sum_E(h, p, q, trunc).vec)

    def test_reads_no_coefficient_per_call(self, monkeypatch):
        # the letters' constant terms are read when the assignment is built
        h = h_three()
        want = [repr(power_sum_E(h, p, q, trunc).vec) for trunc in (1, 3) for p, q in SIGNED_GRID]

        def refuse(form, n):
            raise AssertionError(f"coefficient {n} of a form read after the assignment was built")

        monkeypatch.setattr(mf.ModularFormSpec, "coeff", refuse)
        assert [repr(ei.build_E(h, p, q, trunc).vec) for trunc in (1, 3) for p, q in SIGNED_GRID] == want

    def test_E_of_minus_p_is_the_inverse(self):
        h = h_three()
        for trunc in (2, 4):
            one = TruncSeries.one(h.alphabet, trunc, COMPLEX)
            for p, q in SIGNED_GRID:
                e, e_inv = ei.build_E(h, p, q, trunc), ei.build_E(h, -p, q, trunc)
                assert max((e_inv * e).max_abs_diff(one), (e * e_inv).max_abs_diff(one)) <= 1e-15

    def test_D_keeps_the_bytes_of_the_inverted_power_sum(self, monkeypatch):
        # the recursion step as it was, with E^-1 the inverse of exp's power
        # sum, on the signed 9-grid and four wide pairs: no byte of D moves
        def inverted_power_sum_step(h, p, q, below, cfg):
            if (p, q) == (1, 1):
                return ei.reg_to_cusp(h, 1j, 0, (0, 1), cfg).inverse() * ei.reg_to_cusp(h, 1j, 0, (1, 0), cfg)
            return ei.build_F(h, p, q, cfg) * below * power_sum_E(h, p, q, cfg.trunc).inverse()

        pairs = SIGNED_GRID + [(-2, 51), (89, 144), (1, 1000), (34, 55)]
        for make, trunc in self.SETTINGS:
            h, cfg = make(), ei.IntegratorConfig(trunc=trunc)
            ei.clear_caches()
            got = [repr(ei.build_D(h, p, q, cfg).vec) for p, q in pairs]
            with monkeypatch.context() as m:
                m.setattr(ei, "_recursion_step", inverted_power_sum_step)
                ei.clear_caches()
                want = [repr(ei.build_D(h, p, q, cfg).vec) for p, q in pairs]
            assert got == want
        ei.clear_caches()


class TestTruncationThree:
    def test_reciprocity_identity_at_length_three(self):
        h = h_pair()
        cfg = ei.IntegratorConfig(trunc=3)
        p, q = 3, 2
        d = ei.build_D(h, p, q, cfg)
        assert d.is_grouplike(1e-9).ok
        lhs = d * ei.build_E(h, p, q, 3) * ei.build_D(h, -q, p, cfg).inverse()
        assert lhs.max_abs_diff(ei.build_F(h, p, q, cfg)) < 1e-9

    def test_grid_converges_grouplike_and_mds1(self):
        # every D over the 110-pair grid: no NonConvergence, group-like
        # relative to term size, and D(p, q) = D(p, p + q) (MDS1) where both
        # pairs lie in the grid
        h = h_pair()
        cfg = ei.IntegratorConfig(trunc=3)
        grid = [(p, q) for p in range(1, 10) for q in range(-9, 10) if q and math.gcd(p, q) == 1]
        assert len(grid) == 110
        d = {pq: ei.build_D(h, *pq, cfg) for pq in grid}
        worst_group = max(s.is_grouplike(relative=True).worst for s in d.values())
        worst_mds1 = max(relative_gap(d[p, q], d[p, p + q]) for p, q in grid if (p, p + q) in d)
        assert worst_group <= 1e-8 and worst_mds1 <= 1e-8


def gauss_legendre(n):
    """Nodes u and weights w of the n-point Gauss-Legendre rule on [0, 1], and
    the spectral matrix S that maps values at the nodes to the integrals
    from 0 to each node."""
    x, w = np.polynomial.legendre.leggauss(n)
    V = np.polynomial.legendre.legvander(x, n)
    B = np.zeros((n, n))
    B[:, 0] = x + 1.0
    for k in range(1, n):
        B[:, k] = (V[:, k + 1] - V[:, k - 1]) / (2 * k + 1)
    return (x + 1.0) / 2.0, w / 2.0, 0.5 * (B @ np.linalg.inv(V[:, :n]))


class ScalarPointPath:
    """The cusp limit and the unit steps I(i, i +- 1) computed at one
    numeric point (X, Y) by quadrature on a (words, nodes) node axis, with
    the cusp term taken as form_value - a0: Gauss-Legendre panels of NODES
    nodes, bisected to depth MAX_DEPTH until a panel agrees with its halves
    to QUAD_TOL, and the cusp limit by the conjugated cuspidal form with
    heights doubling from T0 to T_CAP until two values agree to TOL.
    Test-only reference for the Fourier sums."""

    NODES, QUAD_TOL, MAX_DEPTH = 16, 5e-13, 12
    T0, T_CAP, TOL = 4.0, 64.0, 1e-10

    def __init__(self, h, xy, cfg):
        self.h, self.cfg = h, cfg
        self.X, self.Y = complex(xy[0]), complex(xy[1])
        self.tab = ei._split_table(h.alphabet, cfg.trunc)
        self.groups = node_groups(h.alphabet, cfg.trunc)
        self.u, self.w, self.S = gauss_legendre(self.NODES)

    def mul(self, a, b):
        out = np.empty_like(a)
        out[0] = a[0] * b[0]
        for lo, hi, U, V in self.groups:
            out[lo:hi] = a[lo:hi] * b[0] + (a[U] * b[V]).sum(axis=1)
        return out

    def inverse(self, a):
        out = np.empty_like(a)
        out[0] = 1.0
        for lo, hi, U, V in self.groups:
            out[lo:hi] = -(out[U] * a[V]).sum(axis=1)
        return out

    def rows(self, zs, value):
        vals = np.zeros((len(self.tab.words), len(zs)), dtype=complex)
        for word, form in self.h.forms.items():
            if len(word) <= self.cfg.trunc:
                wt = self.h.alphabet.word_weight(word)
                f = np.array([value(form, z) for z in zs.tolist()])
                vals[self.tab.index[word]] = f * (self.X - self.Y * zs) ** wt
        return vals

    def transfer(self, vals):
        M = np.empty_like(vals)
        M[0] = 1.0
        end = np.empty(len(self.tab.words), dtype=complex)
        end[0] = 1.0
        for lo, hi, U, V in self.groups:
            rhs = (M[U] * vals[V]).sum(axis=1)
            M[lo:hi] = rhs @ self.S.T
            end[lo:hi] = rhs @ self.w
        return TruncSeries._from_vec(self.h.alphabet, self.cfg.trunc, end.tolist())

    def adaptive(self, panel, a, b, depth=0):
        whole, mid = panel(a, b), (a + b) / 2
        comp = panel(a, mid) * panel(mid, b)
        if whole.max_abs_diff(comp) <= self.QUAD_TOL * (max(map(abs, comp.vec[1:])) + 1.0):
            return comp
        if depth >= self.MAX_DEPTH:
            raise NonConvergence("panel refinement exhausted")
        return self.adaptive(panel, a, mid, depth + 1) * self.adaptive(panel, mid, b, depth + 1)

    def unit_step(self, step):
        def panel(a, b):
            return self.transfer(self.rows(a + (b - a) * self.u, mf.form_value) * (b - a))

        return self.adaptive(panel, 1j, 1j + step)

    def cusp_limit(self, tau):
        h, cfg = self.h, self.cfg
        polys = i_inf_polys_at(h, tau, (self.X, self.Y), cfg.trunc)
        coef = np.zeros((len(self.tab.words), max(map(len, polys.values()))), dtype=complex)
        for w, p in polys.items():
            coef[self.tab.index[w], :len(p)] = p

        def cusp_value(form, z):
            return mf.form_value(form, z) - complex(form.coeff(0))

        def panel(a, b):
            zs = tau.real + 1j * (a + (b - a) * self.u)
            s_inf = 0
            for col in coef.T[::-1]:
                s_inf = s_inf * zs + col[:, None]
            theta = self.mul(self.mul(s_inf, self.rows(zs, cusp_value)), self.inverse(s_inf))
            return self.transfer(theta * 1j * (b - a))

        t = max(self.T0, 2.0 * tau.imag)
        ri = self.adaptive(panel, tau.imag, t)
        while True:
            nxt = ri * self.adaptive(panel, t, 2.0 * t)
            if nxt.max_abs_diff(ri) <= self.TOL * (max(map(abs, nxt.vec[1:])) + 1.0):
                return nxt
            ri, t = nxt, 2.0 * t
            if t > self.T_CAP:
                raise NonConvergence("height doubling did not stabilize")


def relative_gap(got, want):
    """max |got - want| over the words, relative to max(1, largest |want|)."""
    return got.max_abs_diff(want) / max(1.0, max(map(abs, want.vec)))


def stored_series(h, cfg):
    """The cusp limit at i, read from its stored series, and the unit steps
    I(i, i +- 1) from i_numeric, each as a function of the numeric point."""
    coef = ei._ri_limit(h, 1j, cfg)
    return {"cusp": lambda xy: ei._at_point(h, coef, xy, cfg.trunc, 1j),
            "+1": lambda xy: ei.i_numeric(h, 1j, 1 + 1j, xy, cfg),
            "-1": lambda xy: ei.i_numeric(h, 1j, -1 + 1j, xy, cfg)}


class TestPathSeries:
    POINTS = [(1, 0), (3, 2), (51, -2), (-5, 7)]
    CASES = [("E4,E6", 1), ("E4,E6", 2), ("E4,E6", 3), ("E4,Delta", 1), ("E4,Delta", 2)]
    ASSIGNMENTS = {"E4,E6": h_pair,
                   "E4,Delta": lambda: ei.HAssignment.letters({"A": mf.eisenstein(4),
                                                               "B": mf.delta_form()})}

    @pytest.mark.parametrize("name, trunc", CASES)
    def test_matches_scalar_point_reference(self, name, trunc):
        # tolerance fixed before the comparison was run: 1e-11 of max(1, largest coefficient)
        h = self.ASSIGNMENTS[name]()
        cfg = ei.IntegratorConfig(trunc=trunc)
        stored = stored_series(h, cfg)
        compared = 0
        for xy in self.POINTS:
            ref = ScalarPointPath(h, xy, cfg)
            for label, old in (("cusp", lambda: ref.cusp_limit(1j)), ("+1", lambda: ref.unit_step(1)),
                               ("-1", lambda: ref.unit_step(-1))):
                try:
                    want = old()
                except NonConvergence:
                    continue        # the scalar-point path stalls at some trunc-3 points
                assert relative_gap(stored[label](xy), want) <= 1e-11, (xy, label)
                compared += 1
        assert compared >= 10

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(CASES[:2] + CASES[3:]), st.integers(-60, 60), st.integers(-60, 60),
           st.sampled_from([2.0, -3.0, 0.5, 1.5 - 0.5j]))
    def test_homogeneous_in_the_point(self, case, X, Y, lam):
        # word B at (lam X, lam Y) is lam^w(B) times word B at (X, Y), to
        # rounding of the terms' absolute values; at lam = -1 the bytes agree.
        # The stored cusp limits at i and at i +- 1, which the unit steps read
        name, trunc = case
        h = self.ASSIGNMENTS[name]()
        cfg = ei.IntegratorConfig(trunc=trunc)
        weights = [h.alphabet.word_weight(w) for w in ei._split_table(h.alphabet, trunc).words]
        for c in (1j, 1 + 1j, -1 + 1j):
            coef = ei._ri_limit(h, c, cfg)
            here = ei._at_point(h, coef, (X, Y), trunc, c)
            assert repr(ei._at_point(h, coef, (-X, -Y), trunc, c).vec) == repr(here.vec)
            there = ei._at_point(h, coef, (lam * X, lam * Y), trunc, c)
            size = ei._at_point(h, tuple(map(abs, coef)), (abs(lam * (X - c * Y)), abs(lam * Y)), trunc, 0)
            for w, a, b, s in zip(weights, here.vec, there.vec, size.vec):
                assert abs(b - lam ** w * a) <= 1e-13 * s.real


    def test_delta_pairs_grouplike_and_mds1(self):
        # E4/Delta at trunc 2, where the weight-20 word BB gives the monomial
        # sums the most room to cancel.  Bounds fixed beforehand: relative
        # group-likeness <= 1e-11 and MDS1 gap <= 2e-8 of max(1, largest
        # coefficient); the per-point quadrature gave at worst 3.0e-12 and
        # 7.9e-9, uncentered series 1.4e-10 and 1.5e-7, all at (3, 5)
        h = self.ASSIGNMENTS["E4,Delta"]()
        cfg = ei.IntegratorConfig(trunc=2)
        for p, q in [(1, 3), (3, 5), (5, 8), (-5, 3), (7, -2)]:
            d = ei.build_D(h, p, q, cfg)
            assert d.is_grouplike(relative=True).worst <= 1e-11, (p, q)
            assert relative_gap(d, ei.build_D(h, p, p + q, cfg)) <= 2e-8, (p, q)


def cusp_limit_mpmath(h, tau, xy, trunc, N=24, dps=30):
    """RI(tau, i inf) at the numeric point xy to ``dps`` digits, as the list
    of its coefficients over the word table.  G(s) = I(tau, tau + s) is
    built word by word, from G' = G Omega(tau + s), as sums over n <= N of
    polynomials in s times e^(2 pi i n s), held as {(n, j): coefficient of
    s^j e^(2 pi i n s)}, with closed-form primitives; the limit of word w
    is the constant term of its n = 0 polynomial."""
    with mpmath.workdps(dps):
        X, Y, tau = mpmath.mpc(xy[0]), mpmath.mpc(xy[1]), mpmath.mpc(tau)
        steps = {}
        for w, form in h.forms.items():
            if len(w) <= trunc:
                wt = h.alphabet.word_weight(w)
                fourier = [mpmath.mpf(form.coeff(n).numerator) / form.coeff(n).denominator
                           * mpmath.exp(2j * mpmath.pi * n * tau) for n in range(N + 1)]
                binomial = [math.comb(wt, j) * (X - Y * tau) ** (wt - j) * (-Y) ** j for j in range(wt + 1)]
                steps[w] = fourier, binomial
        G, out = {(): {(0, 0): mpmath.mpc(1)}}, [1 + 0j]
        for word in h.alphabet.iter_words(trunc, min_len=1):
            rhs = {}
            for k in range(1, len(word) + 1):
                if word[-k:] not in steps:
                    continue
                fourier, binomial = steps[word[-k:]]
                for (n, j), c in G[word[:-k]].items():
                    for m in range(N + 1 - n):
                        cm = c * fourier[m]
                        for i, b in enumerate(binomial):
                            rhs[n + m, j + i] = rhs.get((n + m, j + i), 0) + cm * b
            g = {}
            for (n, j), c in rhs.items():
                if n == 0:
                    g[0, j + 1] = g.get((0, j + 1), 0) + c / (j + 1)
                    continue
                # e^(cs) sum_m (-1)^m j!/(j-m)! s^(j-m)/c^(m+1), zero at i inf
                cn = 2j * mpmath.pi * n
                term = c / cn
                for i in range(j, -1, -1):
                    g[n, i] = g.get((n, i), 0) + term
                    term *= -i / cn
            g[0, 0] = -mpmath.fsum(c for (n, j), c in g.items() if j == 0 and n > 0)
            G[word] = g
            out.append(complex(g[0, 0]))
    return out


class TestCuspFourierSum:
    """The cusp limit RI(tau, i inf) as a finite Fourier sum."""

    POINTS = [(1, 0), (3, 2), (51, -2), (-5, 7)]
    SETTINGS = {"E4,E6-1": (h_pair, 1), "E4,E6-2": (h_pair, 2), "E4,E6-3": (h_pair, 3),
                "E4,Delta-2": (TestPathSeries.ASSIGNMENTS["E4,Delta"], 2), "Delta-3": (h_delta, 3)}

    @pytest.mark.parametrize("setting", sorted(SETTINGS))
    def test_matches_mpmath(self, setting):
        # the stored series at i, read at each point, against the same sums
        # at the point to 30 digits with N = 24.  Bound fixed beforehand:
        # 1e-14 of max(1, largest coefficient); trunc 3 at (1, 0) and (51, -2)
        make, trunc = self.SETTINGS[setting]
        h, cfg = make(), ei.IntegratorConfig(trunc=trunc)
        coef = ei._ri_limit(h, 1j, cfg)
        for xy in self.POINTS[::2] if trunc == 3 else self.POINTS:
            got = ei._at_point(h, coef, xy, trunc, 1j)
            want = TruncSeries._from_vec(h.alphabet, trunc, cusp_limit_mpmath(h, 1j, xy, trunc))
            assert relative_gap(got, want) <= 1e-14, xy

    @pytest.mark.parametrize("tau", [1j, 0.3 + 1.1j, 0.5j])
    @pytest.mark.parametrize("setting", ["E4,E6-3", "E4,Delta-2", "Delta-3"])
    def test_cutoff_converged(self, setting, tau, monkeypatch):
        # eight more Fourier terms than the a priori cutoff change no word
        # by more than 1e-15 of max(1, largest coefficient), at each point
        make, trunc = self.SETTINGS[setting]
        h, cfg = make(), ei.IntegratorConfig(trunc=trunc)
        cutoff = ei._cutoff
        base = ei._cusp_series(h, tau, cfg)
        monkeypatch.setattr(ei, "_cutoff", lambda *args: cutoff(*args) + 8)
        more = ei._cusp_series(h, tau, cfg)
        for xy in self.POINTS:
            want = ei._at_point(h, more, xy, trunc, tau)
            assert relative_gap(ei._at_point(h, base, xy, trunc, tau), want) <= 1e-15, xy

    def test_trunc3_grid_grouplike(self):
        # E4/E6 at trunc 3 over the signed grid and three wide pairs.
        # Bound fixed beforehand: relative group-likeness 1e-13
        h, cfg = h_pair(), ei.IntegratorConfig(trunc=3)
        for p, q in SIGNED_GRID + [(-2, 51), (89, 144), (1, 1000)]:
            assert ei.build_D(h, p, q, cfg).is_grouplike(relative=True).worst <= 1e-13, (p, q)

    def test_cutoff_over_cap_raises(self):
        h = h_pair()
        with pytest.raises(NonConvergence, match=r"Im tau = 0\.005 needs N = \d+ "):
            ei.reg_to_cusp(h, 0.3 + 0.005j, Fraction(0), (2, 1), CFG)
        with pytest.raises(ValueError):
            ei.reg_to_cusp(h, 0.3 - 1j, Fraction(0), (2, 1), CFG)


class TestCuspLimitMemo:
    PAIRS = [(7, 5), (-5, 7), (1, 9), (5, -1)]

    @staticmethod
    def builders(h, cfg):
        def full(p, q):
            tb0 = ei.TangentialBasePoint(Fraction(q, p), INF)
            tb1 = ei.TangentialBasePoint(INF, Fraction(q, p))
            return ei.full_integral(h, tb0, tb1, (p, q), cfg)

        return [lambda p, q: ei.build_D(h, p, q, cfg), lambda p, q: ei.build_F(h, p, q, cfg), full]

    @pytest.mark.parametrize("trunc", [1, 2])
    def test_warm_equals_cold(self, trunc):
        builders = self.builders(h_pair(), ei.IntegratorConfig(trunc=trunc))
        cold = {}
        for pq in self.PAIRS:
            for build in builders:
                ei.clear_caches()
                cold.setdefault(pq, []).append(repr(build(*pq).vec))
        ei.clear_caches()
        for _ in range(2):
            warm = {pq: [repr(build(*pq).vec) for build in builders] for pq in self.PAIRS}
            assert warm == cold
        assert ei.cache_info()["hits"] > ei.cache_info()["misses"]

    @pytest.mark.parametrize("tau, xy", [(1j, (3 + 0j, 2 + 0j)), (1j, (1 + 0j, 0j)),
                                         (0.3 + 1.1j, (-2 + 0j, 5 + 0j))])
    def test_negated_point_same_bytes(self, tau, xy):
        # coefficients have even degree in (X, Y): one stored series gives
        # the same bytes at (X, Y) and (-X, -Y).  The value memo is emptied
        # in between, else its entry for the point up to sign would answer
        h = h_pair()
        ei.clear_caches()
        here = repr(ei.reg_to_cusp(h, tau, Fraction(1, 3), xy, CFG).vec)
        ei._VALUES.clear()
        there = repr(ei.reg_to_cusp(h, tau, Fraction(1, 3), (-xy[0], -xy[1]), CFG).vec)
        assert here == there
        info = ei.cache_info()
        assert (info["misses"], info["hits"], info["series"]) == (1, 1, 1)

    def test_config_change_misses(self):
        h = h_pair()
        ei.clear_caches()
        ei._ri_limit(h, 1j, CFG)
        ei._ri_limit(h, 1j, ei.IntegratorConfig(trunc=1))
        ei._ri_limit(h, 1j, ei.IntegratorConfig(trunc=3))
        assert ei.cache_info()["misses"] == 3 and ei.cache_info()["hits"] == 0
        ei._ri_limit(h, 1j, ei.IntegratorConfig(trunc=1))
        assert ei.cache_info()["hits"] == 1

    def test_clear_caches_resets(self):
        h = h_pair()
        ei.build_D(h, 3, 2, CFG)
        ei.build_D(h, 3, 2, CFG)
        assert all(ei.cache_info().values())
        ei.clear_caches()
        assert ei.cache_info() == {"series": 0, "hits": 0, "misses": 0,
                                   "values": 0, "value_hits": 0, "value_misses": 0}

    def test_reciprocity_triple_shares_one_series(self):
        # D(p, q), D(-q, p) and F(p, q) evaluate one cusp-limit series: F at
        # (q, p) and (p, -q), D through F at its reduced pairs and through
        # the two ends of D(1, 1) at (0, 1) and (1, 0)
        h = h_pair()
        p, q = 3, 2
        ei.clear_caches()
        ei.build_D(h, p, q, CFG)
        ei.build_D(h, -q, p, CFG)
        ei.build_F(h, p, q, CFG)
        assert {key[1] for key in ei._PATHS} == {1j}
        info = ei.cache_info()
        assert (info["misses"], info["series"]) == (1, 1) and info["hits"] > 3

    def test_caches_within_capacity(self, monkeypatch):
        # D and F read the cusp limit at i, full_integral the cusp limits at
        # its anchor and at the anchor in the chart of q/p, so at capacity one
        # every builder evicts the other's series
        h = h_pair()
        cfg = ei.IntegratorConfig(trunc=1)
        builders = self.builders(h, cfg)
        ei.clear_caches()
        want = [repr(build(p, q).vec) for p, q in self.PAIRS for build in builders]
        assert 1 < ei.cache_info()["series"] <= ei._PATHS_CAP
        monkeypatch.setattr(ei, "_PATHS_CAP", 1)
        ei.clear_caches()
        got = [repr(build(p, q).vec) for p, q in self.PAIRS for build in builders]
        assert got == want
        assert ei.cache_info()["series"] == 1
        ei.clear_caches()

    def test_remember_evicts_oldest(self):
        cache = {}
        for k in range(5):
            ei._remember(cache, 3, k, -k)
        assert cache == {2: -2, 3: -3, 4: -4}


class TestBridgeSteps:
    """The unit steps I(i, i +- 1) from i_numeric's two regularized ends, and
    the memo counts of one sweep pass of D by its recursion."""

    def test_warm_equals_cold(self):
        h = h_pair()
        pairs = [(7, 5), (-5, 7), (1, 9), (1, 8), (8, -9), (3, -7)]
        cold = {}
        for pq in pairs:
            ei.clear_caches()
            cold[pq] = repr(ei.build_D(h, *pq, CFG).vec)
        ei.clear_caches()
        for _ in range(2):
            assert {pq: repr(ei.build_D(h, *pq, CFG).vec) for pq in pairs} == cold
        assert ei.cache_info()["hits"] > ei.cache_info()["misses"]

    @pytest.mark.parametrize("step", [1, -1])
    @pytest.mark.parametrize("xy", [(1 + 0j, 0j), (3 + 0j, -2 + 0j), (-4 + 0j, 7 + 0j)])
    def test_negated_point_same_bytes(self, step, xy):
        # two stored cusp limits, at i and at i + step; the two ends read at
        # (X, Y) are the value memo's entries for (-X, -Y)
        h = h_pair()
        ei.clear_caches()
        here = ei.i_numeric(h, 1j, 1j + step, xy, CFG)
        there = ei.i_numeric(h, 1j, 1j + step, (-xy[0], -xy[1]), CFG)
        assert repr(here.vec) == repr(there.vec)
        assert relative_gap(here, ScalarPointPath(h, xy, CFG).unit_step(step)) <= 1e-11
        info = ei.cache_info()
        assert (info["misses"], info["hits"], info["series"]) == (2, 0, 2)
        assert (info["value_misses"], info["value_hits"], info["values"]) == (2, 2, 2)

    @staticmethod
    def sweep_pass(h):
        """One pass of the benchmark's sweep from cleared caches: the couples
        (p, q), (q, -p) of the grid 1 <= p <= 9, 1 <= |q| <= 9 with p <= q,
        each op computing D(p, q) and D(-q, p) through the memoized
        evaluator, F and E."""
        grid = [(p, q) for p in range(1, 10) for q in range(1, 10) if p <= q and math.gcd(p, q) == 1]
        ei.clear_caches()
        dh = ei.symbol_fn(h, CFG)
        for p, q in [pq for p, q in grid for pq in ((p, q), (q, -p))]:
            dh(p, q), dh(-q, p), ei.build_F(h, p, q, CFG), ei.build_E(h, p, q, CFG.trunc)

    def test_sweep_pass_counts(self, monkeypatch):
        # one sweep pass builds one series, the cusp limit at i, with no
        # form_value call.  It evaluates 84 distinct regularized ends (the
        # ends of F(p, q) are those of F(-q, p)) and D at the 29 reduced
        # pairs with p <= 9.
        calls = []
        monkeypatch.setattr(ei, "form_value", lambda *args: calls.append(args) or mf.form_value(*args))
        self.sweep_pass(h_pair())
        info = ei.cache_info()
        assert {key[1] for key in ei._PATHS} == {1j}
        assert (info["misses"], info["series"]) == (1, 1)
        assert calls == []
        assert (info["values"], info["value_misses"]) == (113, 113)
        ends = [key for key in ei._VALUES if len(key) == 5]     # (h, tau, (num, den), point, cfg)
        assert len(ends) == 84
        assert all(type(num) is int and type(den) is int and den > 0 and math.gcd(num, den) == 1
                   for _, _, (num, den), _, _ in ends)
        reduced = {cf.reduced(p, q) for p in range(1, 10) for q in range(-9, 10) if q and math.gcd(p, q) == 1}
        assert {key[1] for key in ei._VALUES if len(key) == 3} == reduced   # (h, (p, q), cfg)
        assert len(reduced) == 29
        ei.clear_caches()

    def test_sweep_pass_at_point_calls(self, monkeypatch):
        # each of the 84 ends reads its cusp half and its I_inf half once,
        # through the kernel; the memo holds the cusp limit as one flat tuple
        # and counts as it did when it held an array
        calls = []
        for name in ("_at_point", "_i_inf_at"):
            read = getattr(ei, name)
            monkeypatch.setattr(ei, name, lambda *args, name=name, read=read: calls.append(name) or read(*args))
        self.sweep_pass(h_pair())
        assert (calls.count("_at_point"), calls.count("_i_inf_at")) == (84, 84)
        assert [type(series) for series in ei._PATHS.values()] == [tuple]
        info = ei.cache_info()
        assert (info["hits"], info["misses"], info["value_hits"], info["value_misses"]) == (83, 1, 169, 113)
        ei.clear_caches()

    def test_sweep_pass_builds_no_fraction(self, monkeypatch):
        # every end is keyed by the integer pair of its direction: no
        # Fraction is built, hashed or converted on the build_D/build_F path
        h = h_pair()
        self.sweep_pass(h)      # the forms cache their exact Fourier coefficients once per process
        built = []
        new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw))
        self.sweep_pass(h)
        monkeypatch.undo()
        assert built == []
        ei.clear_caches()

    @pytest.mark.parametrize("p, q", [(3, 5), (-3, 5), (5, -3), (-7, -2), (1, 9), (9, 1)])
    def test_reg_to_cusp_hits_the_ends_of_F(self, p, q):
        # reg_to_cusp reads a rational direction as the pair build_F keys
        # its ends by: after F(p, q) both of its ends are value-memo hits,
        # with the bytes of a cold evaluation
        h = h_pair()
        ends = [(Fraction(q, p), (q, p)), (Fraction(-p, q), (p, -q))]
        ei.clear_caches()
        ei.build_F(h, p, q, CFG)
        before = ei.cache_info()
        warm = [repr(ei.reg_to_cusp(h, 1j, s, xy, CFG).vec) for s, xy in ends]
        info = ei.cache_info()
        assert info["value_hits"] == before["value_hits"] + 2
        assert info["value_misses"] == before["value_misses"]
        cold = []
        for s, xy in ends:
            ei.clear_caches()
            cold.append(repr(ei.reg_to_cusp(h, 1j, s, xy, CFG).vec))
        assert warm == cold
        ei.clear_caches()


class TestValueMemo:
    """The memo of evaluated series (regularized ends and D at reduced
    pairs) changes no bytes: not the order of the pairs, not a cold start,
    not eviction."""

    CONFIGS = {"E4,E6": h_pair,
               "E4,Delta": lambda: ei.HAssignment.letters({"A": mf.eisenstein(4), "B": mf.delta_form()})}

    @staticmethod
    def grid_bytes(h, cfg, order, clear=lambda: None):
        build = TestCuspLimitMemo.builders(h, cfg)
        out = {}
        for pq in order:
            clear()
            out[pq] = [repr(b(*pq).vec) for b in build]
        return out

    @pytest.mark.parametrize("name, trunc", [("E4,E6", 1), ("E4,E6", 2), ("E4,E6", 3), ("E4,Delta", 2)])
    def test_signed_grid_order_and_cold_start(self, name, trunc):
        # D, F and full_integral over the signed grid: two shuffled orders from
        # cleared caches, every pair with the value memo emptied before it, and
        # every 11th pair with both memos emptied give the same bytes
        h, cfg = self.CONFIGS[name](), ei.IntegratorConfig(trunc=trunc)
        orders = [random.Random(seed).sample(SIGNED_GRID, len(SIGNED_GRID)) for seed in (1, 2)]
        ei.clear_caches()
        first = self.grid_bytes(h, cfg, orders[0])
        ei.clear_caches()
        assert self.grid_bytes(h, cfg, orders[1]) == first
        assert self.grid_bytes(h, cfg, SIGNED_GRID, ei._VALUES.clear) == first
        cold = self.grid_bytes(h, cfg, SIGNED_GRID[::11], ei.clear_caches)
        assert cold == {pq: first[pq] for pq in SIGNED_GRID[::11]}
        ei.clear_caches()

    def test_capacity_one_same_bytes(self, monkeypatch):
        h, cfg = h_pair(), CFG
        ei.clear_caches()
        want = self.grid_bytes(h, cfg, SIGNED_GRID)
        assert 1 < ei.cache_info()["values"] <= ei._VALUES_CAP
        monkeypatch.setattr(ei, "_VALUES_CAP", 1)
        ei.clear_caches()
        assert self.grid_bytes(h, cfg, SIGNED_GRID) == want
        assert ei.cache_info()["values"] == 1
        ei.clear_caches()

    def test_point_keyed_up_to_sign(self):
        # D(-2, 3) reduces to (2, -1) and reads F(2, -1), whose head is the
        # end at (-1, 2) toward -1/2; that end at (1, -2) is the same entry,
        # and D at every pair that reduces to (2, -1) is one entry
        h = h_pair()
        ei.clear_caches()
        ei.build_D(h, -2, 3, CFG)
        misses = ei.cache_info()["value_misses"]
        ei.reg_to_cusp(h, 1j, Fraction(-1, 2), (-1, 2), CFG)
        ei.reg_to_cusp(h, 1j, Fraction(-1, 2), (1, -2), CFG)
        for p, q in [(2, -1), (-2, 1), (2, 1), (-2, -3), (2, 9)]:
            ei.build_D(h, p, q, CFG)
        assert ei.cache_info()["value_misses"] == misses
        ei.clear_caches()


class TestWidePairs:
    """D at the wide pairs, in five settings of forms and truncation."""

    SETTINGS = {"E4,E6-2": (h_pair, 2), "E4,E6-3": (h_pair, 3),
                "E4,Delta-2": (TestPathSeries.ASSIGNMENTS["E4,Delta"], 2),
                "Delta-3": (h_delta, 3),
                "E6-3": (lambda: ei.HAssignment.letters({"A": mf.eisenstein(6)}), 3)}

    @pytest.mark.parametrize("setting", sorted(SETTINGS))
    def test_grouplike(self, setting):
        # bound fixed beforehand: relative group-likeness 1e-10
        make, trunc = self.SETTINGS[setting]
        h, cfg = make(), ei.IntegratorConfig(trunc=trunc)
        for p, q in WIDE_PAIRS:
            assert ei.build_D(h, p, q, cfg).is_grouplike(relative=True).worst <= 1e-10, (p, q)

    FULL_PAIRS = [(1, 9), (-1, 9), (2, 9), (5, 7), (9, 4), (-2, 51), (1, 100), (1, 1000)]

    @pytest.mark.parametrize("setting", sorted(SETTINGS))
    def test_full_integral_matches_build_D(self, setting):
        # the integral through the chart at q/p, from two regularized ends at
        # height 1/|p|, against D by its recursion.  Bound fixed beforehand:
        # 1e-12 of max(1, largest coefficient).  (89, 144) needs N = 1,679
        # Fourier terms for E4/E6 at length 2; E4/Delta there (N = 2,033)
        # takes seconds and is left out
        make, trunc = self.SETTINGS[setting]
        h, cfg = make(), ei.IntegratorConfig(trunc=trunc)
        for p, q in self.FULL_PAIRS + [(89, 144)] * (setting == "E4,E6-2"):
            tb0 = ei.TangentialBasePoint(Fraction(q, p), INF)
            tb1 = ei.TangentialBasePoint(INF, Fraction(q, p))
            fi = ei.full_integral(h, tb0, tb1, (p, q), cfg)
            assert relative_gap(fi, ei.build_D(h, p, q, cfg)) <= 1e-12, (p, q)
