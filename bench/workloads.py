"""The three benchmark workloads: their seeded inputs, their ops and the
check that gates every op's output.

An op is a zero-argument callable.  It returns the worst violation of its
check (a float compared against the workload's ``tolerance``, or ``None``
when the op has no numeric check), raises ``WrongOutput`` when the output
is wrong in a way no tolerance covers, and raises ``OpFailed`` (or lets
``NonConvergence`` escape) when the program could not answer.  Wrong
outputs fail the benchmark; failed ops are counted.

Workloads:

sweep   library sweep of D(p,q), D(-q,p), F(p,q), E(p,q) for (A=E4, B=E6)
        at truncation 2 over half the grid 1 <= p <= 9, 1 <= |q| <= 9, with
        the reciprocity identity D E D^-1(-q,p) = F and the symbol axioms
        checked; caches fill across the pairs of one pass.
exact   exact rational algebra over the alphabet ab at truncation 3:
        bijection, shuffle and bullet-algebra checks at seeded pairs.
cli     one-shot requests through the command-line entry point with every
        cache cleared before each request.
"""

import contextlib
import io
import itertools
import json
import math
import random
from fractions import Fraction
from functools import partial
from math import gcd

from dedekindsym import cli, eichler, modforms, symbols
from dedekindsym.series import Alphabet, TruncSeries

# The acceptance bound of criterion 6 (length-2 symbol axioms, reciprocity
# identity and shuffle for (E4, E6)); the sweep gates every op on it.
ACCEPT_TOL = 1e-8


class OpFailed(Exception):
    """The program could not answer the op (exit code 3: non-convergence);
    counted as a failed op."""


class WrongOutput(Exception):
    """The program answered, but the answer is wrong."""


def coprime_pair(rng, bound):
    """Seeded coprime pair with 1 <= |p|, |q| <= bound and random signs."""
    while True:
        p = rng.randint(1, bound) * rng.choice((1, -1))
        q = rng.randint(1, bound) * rng.choice((1, -1))
        if gcd(p, q) == 1:
            return p, q


def exact_gap(a, b):
    """0 when two exact series are equal, else a positive violation."""
    if a == b:
        return 0.0
    return a.max_abs_diff(b) or math.inf


# ---------------------------------------------------------------------------
# sweep

class Sweep:
    """One HAssignment (A=E4, B=E6) at truncation 2 over the Baseline grid.

    The ops of (p, q) and (q, -p), q > 0, share D(p, q) through the memo,
    so they run as a couple, (p, q) first: which op pays for the shared
    value does not depend on the seed.  A pass of all 110 pairs of the grid
    takes about a minute, so a pass holds half of them: the couples of
    (p, q) with p <= q, 56 ops, in seeded order.  The pairs with 8 or 9 in
    them cost 5-10 times the others, so a run measures whole passes
    (``block``): every run then holds the same ops, and the seed moves only
    the work that the caches share between them.  Each pass starts from
    cleared caches and a fresh memoized symbol evaluator; caches then fill
    across the pass, as in a library sweep.
    """

    name = "sweep"
    tolerance = ACCEPT_TOL
    grid = [(p, q) for p in range(1, 10) for q in range(-9, 10) if q and gcd(p, q) == 1]
    block = 56

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.h = eichler.HAssignment.letters({"A": modforms.eisenstein(4),
                                              "B": modforms.eisenstein(6)})
        self.cfg = eichler.IntegratorConfig(trunc=2)
        self.dh = None
        self.computed = {}

    def pass_order(self):
        couples = [((p, q), (q, -p)) for p, q in self.grid if 0 < p <= q]
        self.rng.shuffle(couples)
        return [pq for couple in couples for pq in couple]

    def start_pass(self):
        eichler.clear_caches()
        self.dh = eichler.symbol_fn(self.h, self.cfg)
        self.computed = {}

    def ops(self):
        while True:
            order = self.pass_order()
            self.start_pass()
            for p, q in order:
                yield f"sweep({p},{q})", partial(self.op, p, q)

    def op(self, p, q):
        d = self.dh(p, q)
        dm = self.dh(-q, p)
        f = eichler.build_F(self.h, p, q, self.cfg)
        e = eichler.build_E(self.h, p, q, self.cfg.trunc)
        worst = (d * e * dm.inverse()).max_abs_diff(f)
        for key, val in (((p, q), d), ((-q, p), dm)):
            worst = max(worst, self.mds_violation(key, val))
            self.computed[key] = val
        return worst

    def mds_violation(self, key, val):
        """MDS1 D(p,q) = D(p,p+q) and MDS2 D(p,q) = D(-p,-q) against every
        partner value this pass has already computed."""
        a, b = key
        worst = 0.0
        for partner in ((a, b + a), (a, b - a), (-a, -b)):
            other = self.computed.get(partner)
            if other is not None:
                worst = max(worst, val.max_abs_diff(other))
        return worst


# ---------------------------------------------------------------------------
# exact

AB = Alphabet.simple("ab")
EXACT_TRUNC = 3
EXACT_PAIRS_PER_FUNCTION = 8
EXACT_STRIDE = 24


def _scalar_rf(seed):
    return symbols.scalar_psi(symbols.random_scalar_symbol(seed))


class BijectionCheck:
    """delta(psi(D)) == normalize(D) and psi(delta(F)) == F for a random symbol D."""

    kind = "bijection"

    def __init__(self, d):
        self.f = symbols.psi(d)
        self.dn = symbols.normalize(d)
        self.dd = symbols.delta(self.f)
        self.ff = symbols.psi(self.dd)

    @classmethod
    def seeded(cls, seed):
        return cls(symbols.random_symbol(AB, EXACT_TRUNC, seed))

    def __call__(self, p, q):
        return max(exact_gap(self.dd(p, q), self.dn(p, q)),
                   exact_gap(self.ff(p, q), self.f(p, q)))


class ShuffleCheck:
    """delta(F) is exactly group-like for a shuffled reciprocity function F."""

    kind = "shuffle"

    def __init__(self, fr):
        self.d = symbols.delta(fr)

    @classmethod
    def seeded(cls, seed):
        return cls(symbols.from_components({"a": _scalar_rf(seed), "b": _scalar_rf(seed + 1)},
                                           AB, EXACT_TRUNC))

    def __call__(self, p, q):
        rep = self.d(p, q).is_grouplike()
        return 0.0 if rep.ok else (rep.worst or math.inf)


class BulletCheck:
    """Associativity, unit and inverse of the bullet product on one-letter
    exponentials."""

    kind = "bullet"

    def __init__(self, f, g, h):
        self.one = TruncSeries.one(AB, EXACT_TRUNC)
        unit = symbols.RecipFn(lambda p, q: self.one, AB, EXACT_TRUNC)
        self.f = f
        self.lhs = symbols.bullet(symbols.bullet(f, g), h)
        self.rhs = symbols.bullet(f, symbols.bullet(g, h))
        self.right_unit = symbols.bullet(f, unit)
        self.left_unit = symbols.bullet(unit, f)
        fi = symbols.bullet_inverse(f)
        self.right_inv = symbols.bullet(f, fi)
        self.left_inv = symbols.bullet(fi, f)

    @classmethod
    def seeded(cls, seed):
        return cls(*(symbols.embed_exp(_scalar_rf(seed + i), letter, AB, EXACT_TRUNC)
                     for i, letter in enumerate("aba")))

    def __call__(self, p, q):
        fpq = self.f(p, q)
        return max(exact_gap(self.lhs(p, q), self.rhs(p, q)),
                   exact_gap(self.right_unit(p, q), fpq),
                   exact_gap(self.left_unit(p, q), fpq),
                   exact_gap(self.right_inv(p, q), self.one),
                   exact_gap(self.left_inv(p, q), self.one))


def cf_length(p, q):
    """Number of entries of the canonical minus continued fraction of q/p."""
    if p < 0:
        p, q = -p, -q
    n = 0
    while True:
        a = -(-q // p)
        n += 1
        if a * p == q:
            return n
        p, q = a * p - q, p


def cf_lengths(p, q):
    """(the longer, the first) of the continued fractions of q/p and -p/q."""
    first = cf_length(p, q)
    return max(first, cf_length(-q, p)), first


class Exact:
    """Exact rational checks; never calls eichler or modforms.

    One op is one (function, pair) check.  A fresh function of each of
    the three check kinds is drawn for every window of up to
    EXACT_PAIRS_PER_FUNCTION pairs, and the three are checked side by side
    at each pair, sharing each function's memo across its pairs.  The
    pairs are the coprime pairs with |p|, |q| <= 50, ranked by
    ``cf_lengths``, in seeded order among equal lengths.  An op's cost
    grows with the lengths its check walks (the bullet check walks both,
    the shuffle check q/p), and long ones are rare, so pass k is a
    systematic sample of the ranking: every EXACT_STRIDE-th rank from rank
    k.  Pass k holds the same lengths for every seed, down to the rare long
    ones that set the latency tail; the seed draws the pairs of each
    length, their order and the functions.  Each function checks one pair
    from each stretch of the pass's ranking, so no two long pairs share a
    function's memo by chance.  A run measures whole passes (``block``).
    """

    name = "exact"
    tolerance = 0.0
    checks = (BijectionCheck, ShuffleCheck, BulletCheck)

    def __init__(self, seed):
        self.rng = random.Random(seed)
        pairs = [(p, q) for p in range(-50, 51) for q in range(-50, 51)
                 if p and q and gcd(p, q) == 1]
        self.rng.shuffle(pairs)
        # Longest first, so that cutting every pass to one size drops a short one.
        pairs.sort(key=lambda pq: cf_lengths(*pq), reverse=True)
        self.ranked = pairs
        self.pass_pairs = len(pairs) // EXACT_STRIDE
        self.block = len(self.checks) * self.pass_pairs

    def windows(self):
        """The pairs of pass after pass, as one window of pairs per function."""
        for k in itertools.count():
            sample = self.ranked[k % EXACT_STRIDE::EXACT_STRIDE][:self.pass_pairs]
            n = -(-len(sample) // EXACT_PAIRS_PER_FUNCTION)
            windows = [sample[w::n] for w in range(n)]
            self.rng.shuffle(windows)
            for window in windows:
                self.rng.shuffle(window)
                yield window

    def ops(self):
        for i, window in enumerate(self.windows()):
            checks = [cls.seeded(self.rng.randrange(10 ** 9)) for cls in self.checks]
            for p, q in window:
                for check in checks:
                    yield f"{check.kind}[{i}]({p},{q})", partial(check, p, q)


# ---------------------------------------------------------------------------
# cli

CLI_FORMS = ("A=E4", "A=E6", "A=Delta", "A=E4,B=E6", "A=E4,B=Delta")
CLI_OTHER = ("table", "verify", "decompose", "cfrac")
CLI_SUITES = ("reciprocity-law", "eichler", "bijection", "shuffle")
CLI_TOL = 1e-8


class Cli:
    """One-shot requests through ``cli.main(argv)`` in-process, every cache
    cold.

    The mix comes in blocks of eleven requests in seeded order: one
    ``symbol`` request for each form set and each of D and F (length 1 or
    2, 3 on about one in eight, coprime pairs with |p|, |q| <= 60), plus
    one other command, rotating through table, verify (rotating through
    the suites), decompose and cfrac.  The fixed block composition keeps
    the mix the same from seed to seed; the seed draws every parameter.
    """

    name = "cli"
    tolerance = CLI_TOL
    block = len(CLI_FORMS) * 2 + 1

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def symbol_argv(self, forms, which):
        p, q = coprime_pair(self.rng, 60)
        length = 3 if self.rng.random() < 1 / 8 else self.rng.choice((1, 2))
        return ["symbol", "--forms", forms, f"--pq={p},{q}", "--length", str(length),
                "--which", which, "--tol", repr(CLI_TOL)]

    def other_argv(self, block):
        kind = CLI_OTHER[block % len(CLI_OTHER)]
        rng = self.rng
        if kind == "table":
            return ["table", "--forms", rng.choice(CLI_FORMS), "--pmax", str(rng.randint(10, 30)),
                    "--jobs", "1"]
        if kind == "verify":
            suite = CLI_SUITES[(block // len(CLI_OTHER)) % len(CLI_SUITES)]
            return ["verify", "--suite", suite, "--seed", str(rng.randrange(10 ** 6)),
                    "--tol", repr(CLI_TOL)]
        if kind == "decompose":
            return ["decompose", "--forms", rng.choice(CLI_FORMS), "--depth", "2",
                    "--seed", str(rng.randrange(10 ** 6)), "--tol", repr(CLI_TOL)]
        p, q = coprime_pair(rng, 60)
        return ["cfrac", f"--pq={p},{q}"]

    def ops(self):
        for block in itertools.count():
            reqs = [self.symbol_argv(forms, which) for forms in CLI_FORMS for which in "DF"]
            reqs.append(self.other_argv(block))
            self.rng.shuffle(reqs)
            for argv in reqs:
                yield " ".join(argv), partial(self.request, argv)

    def request(self, argv):
        eichler.clear_caches()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        if rc == 3:
            raise OpFailed("exit 3: " + err.getvalue().strip())
        if rc != 0:
            raise WrongOutput(f"exit {rc}: {err.getvalue().strip()}")
        try:
            doc = json.loads(out.getvalue())
        except json.JSONDecodeError as exc:
            raise WrongOutput(f"unparsable output: {exc}") from None
        return getattr(self, "check_" + argv[0])(argv, doc)

    @staticmethod
    def _arg(argv, flag):
        for i, a in enumerate(argv):
            if a == flag:
                return argv[i + 1]
            if a.startswith(flag + "="):
                return a.split("=", 1)[1]
        raise KeyError(flag)

    def check_symbol(self, argv, doc):
        """The output parses into a series that is group-like at --tol."""
        forms = [part.split("=") for part in self._arg(argv, "--forms").split(",")]
        names = [letter for letter, _ in forms]
        trunc = int(self._arg(argv, "--length"))
        p, q = (int(x) for x in self._arg(argv, "--pq").split(","))
        coeffs = {}
        for row in doc["rows"]:
            if (row["p"], row["q"]) != (p, q):
                raise WrongOutput(f"row for ({row['p']}, {row['q']}), asked ({p}, {q})")
            word = row["word"]
            if not 1 <= len(word) <= trunc or word in coeffs or set(word) - set(names):
                raise WrongOutput(f"unexpected word {word!r}")
            coeffs[word] = complex(row["re"], row["im"])
        return grouplike_violation(coeffs, names, trunc)

    def check_table(self, argv, doc):
        nforms = len(self._arg(argv, "--forms").split(","))
        pmax = int(self._arg(argv, "--pmax"))
        ncells = sum(1 for p in range(1, pmax + 1) for q in range(1, p + 1) if gcd(p, q) == 1)
        rows = doc["rows"]
        if len(rows) != nforms * ncells:
            raise WrongOutput(f"table has {len(rows)} rows, expected {nforms * ncells}")
        if not all(math.isfinite(r["re"]) and math.isfinite(r["im"]) for r in rows):
            raise WrongOutput("non-finite table entry")
        return None

    def check_rows(self, argv, doc):
        """Every row of a verify or decompose report passed."""
        if not doc["rows"] or not all(r["pass"] for r in doc["rows"]):
            raise WrongOutput("a verification row did not pass")
        return None

    check_verify = check_decompose = check_rows

    def check_cfrac(self, argv, doc):
        """Recompute <a0,...,an> and every tail independently of contfrac."""
        p, q = (int(x) for x in self._arg(argv, "--pq").split(","))
        if p < 0:
            p, q = -p, -q
        row, = doc["rows"]
        entries, tails = row["entries"], row["tails"]
        if any(a < 2 for a in entries[1:]) or len(tails) != len(entries):
            raise WrongOutput(f"not canonical: {entries}")
        value = Fraction(entries[-1])
        for i in range(len(entries) - 1, -1, -1):
            if i < len(entries) - 1:
                value = entries[i] - 1 / value
            tp, tq = tails[i]
            if Fraction(tq, tp) != value:
                raise WrongOutput(f"tail {i} of {entries} is {tq}/{tp}, expected {value}")
        if value != Fraction(q, p):
            raise WrongOutput(f"{entries} evaluates to {value}, expected {q}/{p}")
        return None


def _shuffles(u, v):
    if not u or not v:
        return [u + v]
    return [u[0] + w for w in _shuffles(u[1:], v)] + [v[0] + w for w in _shuffles(u, v[1:])]


def grouplike_violation(coeffs, letters, trunc):
    """Worst |S^u S^v - sum over shuffles w of u and v of S^w| over words
    with l(u) + l(v) <= trunc, relative to the size of the terms (at least
    1), as the integrator's own tolerance is.  Words are strings of
    one-character letters; absent words read as zero."""
    worst = 0.0
    words = ["".join(w) for n in range(1, trunc) for w in itertools.product(letters, repeat=n)]
    for u in words:
        for v in words:
            if u > v or len(u) + len(v) > trunc:
                continue
            lhs = coeffs.get(u, 0) * coeffs.get(v, 0)
            terms = [coeffs.get(w, 0) for w in _shuffles(u, v)]
            scale = max(1.0, abs(lhs) + sum(abs(t) for t in terms))
            worst = max(worst, abs(lhs - sum(terms)) / scale)
    return worst


WORKLOADS = {w.name: w for w in (Sweep, Exact, Cli)}
