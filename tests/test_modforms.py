import cmath
import math
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from dedekindsym import eichler as ei
from dedekindsym import modforms as mf
from dedekindsym.errors import DomainError, NonConvergence


class TestBernoulli:
    def test_small_values(self):
        assert mf.bernoulli(0) == 1
        assert mf.bernoulli(1) == Fraction(-1, 2)
        assert mf.bernoulli(2) == Fraction(1, 6)
        assert mf.bernoulli(4) == Fraction(-1, 30)
        assert mf.bernoulli(12) == Fraction(-691, 2730)

    def test_odd_vanish(self):
        for n in (3, 5, 7, 9, 11):
            assert mf.bernoulli(n) == 0


class TestCoefficients:
    def test_sigma(self):
        assert mf.sigma(3, 2) == 9
        assert mf.sigma(1, 6) == 12
        assert mf.sigma(5, 4) == 1 + 32 + 1024

    def test_eisenstein(self):
        assert mf.eisenstein_coeff(4, 0) == Fraction(1, 240)
        assert mf.eisenstein_coeff(4, 2) == 9
        assert mf.eisenstein_coeff(6, 0) == Fraction(-1, 504)

    def test_tau(self):
        assert mf.delta_coeff(1) == 1
        assert mf.delta_coeff(2) == -24
        assert mf.delta_coeff(3) == 252
        assert mf.delta_coeff(6) == mf.delta_coeff(2) * mf.delta_coeff(3)
        assert mf.delta_coeff(10) == mf.delta_coeff(2) * mf.delta_coeff(5)

    def test_eta24_matches_dense_product(self):
        # the power recurrence against prod (1 - q^m)^24 expanded factor by
        # factor and raised to the 24th power by dense products, to q^400
        n_max = 400
        e = [1] + [0] * n_max
        for m in range(1, n_max + 1):
            for n in range(n_max, m - 1, -1):
                e[n] -= e[n - m]

        def mul(u, v):
            out = [0] * (n_max + 1)
            for i, a in enumerate(u):
                for j, b in enumerate(v[:n_max + 1 - i]):
                    out[i + j] += a * b
            return out

        e2 = mul(e, e)
        e8 = mul(mul(e2, e2), mul(e2, e2))
        assert mf._eta24(n_max) == mul(mul(e8, e8), e8)

    def test_tau_congruence_mod_691(self):
        # Ramanujan: tau(n) = sigma_11(n) (mod 691)
        assert all((mf.delta_coeff(n) - mf.sigma(11, n)) % 691 == 0 for n in range(1, 3001))

    def test_tau_at_prime_squares(self):
        # Hecke: tau(p^2) = tau(p)^2 - p^11
        for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]:
            assert mf.delta_coeff(p * p) == mf.delta_coeff(p) ** 2 - p ** 11

    @pytest.mark.parametrize("name, kind, weight, level", [
        ("E4", "eisenstein", 4, 1), ("E16", "eisenstein", 16, 1),
        ("E6,2", "eisenstein_gamma02", 6, 2), ("Delta", "cusp_delta", 12, 1)])
    def test_form_by_name(self, name, kind, weight, level):
        form = mf.form_by_name(name)
        assert (form.kind, form.weight, form.level, form.name) == (kind, weight, level, name)

    @pytest.mark.parametrize("name, match", [("Foo", "unknown modular form name 'Foo'"),
                                             ("E3", "weight must be an even integer >= 4")])
    def test_form_by_name_rejects(self, name, match):
        with pytest.raises(ValueError, match=match):
            mf.form_by_name(name)

    def test_gamma02_coeffs(self):
        f = mf.eisenstein_gamma02(4)
        assert f.coeff(0) == Fraction(1, 240)
        assert f.coeff(1) == 0 and f.coeff(3) == 0
        assert f.coeff(2) == 1 and f.coeff(4) == 9


class TestZeta:
    def test_even(self):
        assert abs(mf.zeta(2) - math.pi ** 2 / 6) < 1e-15
        assert abs(mf.zeta(4) - math.pi ** 4 / 90) < 1e-15

    def test_odd_reference(self):
        assert abs(mf.zeta(3) - 1.2020569031595942854) < 1e-13
        assert abs(mf.zeta(5) - 1.0369277551433699263) < 1e-13

    def test_nonpositive(self):
        assert mf.zeta(0) == -0.5
        assert mf.zeta(-1) == pytest.approx(-1 / 12)
        assert mf.zeta(-2) == 0.0

    def test_pole(self):
        with pytest.raises(DomainError):
            mf.zeta(1)

    def test_hurwitz_reduces_to_zeta(self):
        # the Euler-Maclaurin sum behind zeta at a = 1
        for s in (2, 3, 5.5):
            assert abs(mf._hurwitz_em(float(s), 1.0) - mf.zeta(s)) < 1e-13

    def test_hurwitz_shift(self):
        # zeta(s, a) - zeta(s, a+1) = a^(-s)
        assert abs(mf._hurwitz_em(3.0, 0.25) - mf._hurwitz_em(3.0, 1.25) - 4.0 ** 3) < 1e-10


class TestPolylog:
    def test_zero(self):
        assert mf.polylog(5, 0) == 0

    def test_minus_one_against_direct_summation(self):
        # independent alternating-sum oracle with explicit remainder bound
        direct = sum((-1) ** n / n ** 3 for n in range(1, 4_000_001))
        assert abs(mf.polylog(3, -1) - direct) < 1e-12
        assert abs(mf.polylog(3, -1) + 0.75 * mf.zeta(3)) < 1e-12

    def test_at_one(self):
        for s in (2, 3, 6):
            assert abs(mf.polylog(s, 1) - mf.zeta(s)) < 1e-13

    def test_interior(self):
        # Li_2(1/2) = pi^2/12 - log(2)^2/2
        want = math.pi ** 2 / 12 - math.log(2) ** 2 / 2
        assert abs(mf.polylog(2, 0.5) - want) < 1e-12

    def test_root_of_unity_multiplication(self):
        # sum over all p-th roots of unity is p^(1-s) zeta(s)
        p, s = 7, 4
        tot = sum(mf.polylog(s, cmath.exp(2j * math.pi * l / p)) for l in range(1, p))
        assert abs(tot + mf.zeta(s) - p ** (1 - s) * mf.zeta(s)) < 1e-11

    def test_invalid(self):
        with pytest.raises(ValueError):
            mf.polylog(1, 0.5)
        with pytest.raises(ValueError):
            mf.polylog(3, 1.5)


PAIRS = [(3, 5), (2, 7), (5, 3), (1, 4), (4, -9), (-3, 8), (5, 2), (5, -6), (2, -3), (1, -5)]


class TestLengthOneSymbol:
    @pytest.mark.parametrize("pair", [(2.5, 3), (2, 3.0), (2, "3")])
    def test_pair_entries_must_be_integers(self, pair):
        # a pair is read as integers, never truncated or parsed
        with pytest.raises(TypeError):
            mf.dedekind_symbol_length1(mf.eisenstein(4), *pair)

    def test_tau0_independence(self):
        a = mf.dedekind_symbol_length1(mf.eisenstein(4), 3, 5, height=1.0)
        b = mf.dedekind_symbol_length1(mf.eisenstein(4), 3, 5, height=0.4)
        assert abs(a - b) < 1e-9

    def test_mds_axioms_50_pairs(self):
        import random

        rng = random.Random(77)
        pairs = []
        while len(pairs) < 50:
            p, q = rng.randint(-6, 6), rng.randint(-8, 8)
            if p and q and gcd(p, q) == 1:
                pairs.append((p, q))
        for form in (mf.eisenstein(4), mf.eisenstein(6), mf.delta_form()):
            for p, q in pairs:
                d1 = abs(mf.dedekind_symbol_length1(form, p, -q) - mf.dedekind_symbol_length1(form, -p, q))
                assert d1 < 1e-9
                if p + q:
                    d2 = abs(mf.dedekind_symbol_length1(form, p, q) - mf.dedekind_symbol_length1(form, p, p + q))
                    assert d2 < 1e-9

    def test_delta_psi_antisymmetry_50_pairs(self):
        import random

        rng = random.Random(78)
        seen = set()
        while len(seen) < 50:
            p, q = rng.randint(-6, 6), rng.randint(-6, 6)
            if p and q and gcd(p, q) == 1:
                seen.add((p, q))
        for p, q in seen:
            assert abs(mf.psi_length1(mf.delta_form(), p, q)
                       + mf.psi_length1(mf.delta_form(), -q, p)) < 1e-8

    def test_psi_reciprocity_axioms(self):
        small = [(p, q) for p, q in PAIRS if max(abs(p), abs(q)) <= 6]
        for form in (mf.eisenstein(4), mf.delta_form()):
            for p, q in small:
                f = mf.psi_length1(form, p, q)
                assert abs(mf.psi_length1(form, p, -q) - mf.psi_length1(form, -p, q)) < 1e-8
                assert abs(f + mf.psi_length1(form, -q, p)) < 1e-8
                if p + q:
                    assert abs(mf.psi_length1(form, p, p + q) + mf.psi_length1(form, p + q, q) - f) < 1e-8

    def test_wide_pairs_converge_at_the_defaults(self):
        # the Fourier cutoff is solved from the height (a fixed cap of 400
        # raised at both pairs); checked against an explicit cap of 20000
        # and against build_D at trunc 1, an independent path (orientation
        # constant -1).  Bound fixed beforehand: 1e-12 of max(1, |value|)
        form = mf.eisenstein(4)
        h = ei.HAssignment.letters({"A": form})
        for p, q in ((55, 89), (89, 144)):
            got = mf.dedekind_symbol_length1(form, p, q)
            scale = max(1.0, abs(got))
            assert abs(got - mf.dedekind_symbol_length1(form, p, q, cap=20000)) <= 1e-12 * scale
            b = ei.build_D(h, p, q, ei.IntegratorConfig(trunc=1)).coeff((0,))
            assert abs(got + b) <= 1e-12 * scale, (p, q)

    @pytest.mark.parametrize("form", [mf.eisenstein(4), mf.eisenstein(12), mf.delta_form()])
    def test_cutoff_is_the_first_index_with_a_small_tail(self, form):
        # the tail bound rises to its peak and then falls; solving past the
        # peak gives the first n of a scan from 1 at every height tried
        bound_exp = 6.5 if form.is_cusp else form.weight - 1
        for height in [1 / p for p in range(1, 61)] + [0.37, 0.866, 2.5]:
            decay = math.exp(-2 * math.pi * height)
            n = 1
            while 2.0 * (n + 1) ** bound_exp * decay ** (n + 1) / (1.0 - decay) >= 1e-15:
                n += 1
            assert mf.fourier_cutoff(form, height, 1e-15) == n, height

    def test_cutoff_above_the_cap_raises(self):
        with pytest.raises(NonConvergence, match=r"n = \d+ above the cap 20000 at height 0.0001"):
            mf.fourier_cutoff(mf.delta_form(), 1e-4, 1e-15)
        with pytest.raises(NonConvergence, match="above the cap 400"):
            mf.dedekind_symbol_length1(mf.eisenstein(4), 89, 144, cap=400)

    def test_domain(self):
        with pytest.raises(DomainError):
            mf.dedekind_symbol_length1(mf.eisenstein(4), 1, 0)
        with pytest.raises(ValueError):
            mf.dedekind_symbol_length1(mf.eisenstein_gamma02(4), 2, 1)


class TestReciprocityLaw:
    def test_weight4_p2(self):
        chk = mf.reciprocity_law_check(4, 2)
        assert abs(chk.lhs - mf.polylog(3, -1)) < 1e-12
        assert abs(chk.lhs + 0.75 * mf.zeta(3)) < 1e-11
        assert chk.diff < 1e-9

    def test_small_sweep(self):
        for k2 in (4, 6):
            for p in (2, 3, 5):
                assert mf.reciprocity_law_check(k2, p).diff < 1e-9


class TestEisensteinL:
    def test_pole_guard(self):
        with pytest.raises(DomainError):
            mf.eisenstein_L(4, 4)

    def test_factorization_vs_direct_sum(self):
        # sigma-series oracle: sieve partial sums with Richardson in the 1/N tail
        def partial(n_max):
            sig = np.zeros(n_max + 1)
            for d in range(1, n_max + 1):
                sig[d::d] += d ** 3
            n = np.arange(1, n_max + 1, dtype=float)
            return float(np.sum(sig[1:] / n ** 5))

        direct = 2 * partial(200_000) - partial(100_000)
        assert abs(mf.eisenstein_L(4, 5) - direct) < 1e-9
        assert abs(mf.eisenstein_L(4, 5) - mf.zeta(5) * mf.zeta(2)) < 1e-14

    def test_level_two_ratio(self):
        for s in (2, 3, 5):
            assert abs(mf.eisenstein_L(4, s, level=2) / mf.eisenstein_L(4, s) - 2.0 ** (-s)) < 1e-14

    def test_value_at_one_is_zeta_prime(self):
        # lim ζ(s)ζ(s-3) at s=1 equals ζ'(-2) = -ζ(3)/(4 pi^2)
        assert abs(mf.eisenstein_L(4, 1) + mf.zeta(3) / (4 * math.pi ** 2)) < 1e-13


class TestGamma02:
    def test_delta_even_odd(self):
        assert abs(mf.gamma02_delta(4, 2, 1) - 2 * mf.zeta(3)) < 1e-13
        assert abs(mf.gamma02_delta(4, 3, 1) - mf.zeta(3) / 9) < 1e-13
        assert abs(mf.gamma02_delta(6, 4, 1) - 2 ** 5 * mf.zeta(5) / 4 ** 4) < 1e-13

    def test_delta_against_polylog_sum(self):
        for p, q in [(2, 1), (3, 1), (5, 2), (4, 3)]:
            series = sum(mf.polylog(3, cmath.exp(4j * math.pi * l * q / p)) for l in range(1, p)) + mf.zeta(3)
            assert abs(series - mf.gamma02_delta(4, p, q)) < 1e-11

    def test_symmetry(self):
        for k2 in (4, 6):
            for p, q in PAIRS:
                assert abs(mf.gamma02_D(k2, p, q) - mf.gamma02_D(k2, -p, -q)) < 1e-9
                assert abs(mf.gamma02_F(k2, p, q) - mf.gamma02_F(k2, -p, -q)) < 1e-9

    def test_translation_invariance(self):
        for p, q in [(3, 1), (5, 2), (7, 3)]:
            assert abs(mf.gamma02_D(4, p, q) - mf.gamma02_D(4, p, p + q)) < 1e-11

    @pytest.mark.parametrize("k2", [0, 2, 3, 5])
    @pytest.mark.parametrize("closed_form", [mf.gamma02_D, mf.gamma02_F, mf.gamma02_delta])
    def test_weight_without_a_form_raises(self, closed_form, k2):
        with pytest.raises(ValueError, match="weight must be an even integer >= 4"):
            closed_form(k2, 3, 2)

    @pytest.mark.parametrize("closed_form", [mf.gamma02_D, mf.gamma02_F, mf.gamma02_delta])
    def test_pair_domain(self, closed_form):
        for p, q in [(2, 4), (3, 0)]:
            with pytest.raises(DomainError, match="coprime with pq != 0"):
                closed_form(4, p, q)


class TestLaurentFit:
    def _samples(self, fn, pmax=8, per_p=6):
        out = []
        for p in range(1, pmax):
            n = 0
            for q in range(-9, 10):
                if q and gcd(p, q) == 1 and n < per_p:
                    out.append(((p, q), fn(p, q)))
                    n += 1
        return out

    def test_single_monomial(self):
        fit, res = mf.laurent_fit(self._samples(lambda p, q: 0.75 / (p * q)), ((-1, 1), (-1, 1)))
        assert res < 1e-12
        survivors = fit.prune(1e-10).coeffs
        assert set(survivors) == {(-1, -1)}
        assert abs(survivors[(-1, -1)] - 0.75) < 1e-12

    def test_homogeneous_exact(self):
        fit, res = mf.laurent_fit(self._samples(lambda p, q: 2.0 * p * p - 3.0 * p * q + q * q),
                                  ((0, 2), (0, 2)))
        assert res < 1e-10
        assert fit.prune(1e-8).homogeneous_degrees() == [2]

    def test_rank_deficiency_names_monomials(self):
        samples = [((p, 1), float(p)) for p in range(1, 12)]  # q constant: q-powers entangled
        with pytest.raises(ValueError, match="monomial"):
            mf.laurent_fit(samples, ((0, 1), (0, 1)))

    def test_eisenstein_psi_structure(self):
        # degree 2k-2 homogeneous Laurent monomials plus the extra 1/(pq) term
        fit, res = mf.laurent_fit(self._samples(lambda p, q: mf.psi_length1(mf.eisenstein(4), p, q)),
                                  ((-1, 3), (-1, 3)))
        assert res < 1e-8
        survivors = fit.prune(1e-8)
        assert set(survivors.coeffs) == {(-1, 3), (0, 2), (1, 1), (2, 0), (3, -1), (-1, -1)}
        assert sorted({i + j for (i, j) in survivors.coeffs}) == [-2, 2]
        # the 1/(pq) coefficient is the Fourier constant term of E4
        assert abs(survivors.coeffs[(-1, -1)] - 1 / 240) < 1e-8


class TestFormValue:
    def test_sl2_reduction_invariance(self):
        # a level-one form of weight k is modular: f(-1/tau) = tau^k f(tau)
        for f, tau in [(mf.eisenstein(4), 0.37 + 0.21j), (mf.eisenstein(6), 0.4 + 0.9j),
                       (mf.delta_form(), 0.4 + 0.9j)]:
            lhs = mf.form_value(f, -1 / tau)
            rhs = tau ** f.weight * mf.form_value(f, tau)
            assert abs(lhs - rhs) < 1e-10 * abs(rhs), f

    def test_gamma02_is_level1_at_2tau(self):
        f2 = mf.eisenstein_gamma02(6)
        tau = 0.3 + 0.8j
        assert abs(mf.form_value(f2, tau) - mf.form_value(mf.eisenstein(6), 2 * tau)) < 1e-12
