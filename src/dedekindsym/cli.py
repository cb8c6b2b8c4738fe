"""Command-line front door.

Subcommands compute symbol/reciprocity tables from modular forms, run the
verification suites, peel decompositions, print the Gamma_0(2) closed
forms and tabulate length-one symbols over a coprime grid.  Output is a
deterministic structured-text (JSON) document or CSV; floats are printed
with 17 significant digits so identical flags give identical bytes.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
non-convergence.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from math import gcd

from . import __version__ as VERSION
from . import contfrac, eichler, modforms, symbols
from .errors import DedekindSymError, DomainError, NonConvergence, NotShuffled
from .series import Alphabet, TruncSeries


# ---------------------------------------------------------------------------
# Deterministic writers

def _json_dump(obj):
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise ValueError("non-finite float in output")
        return format(obj, ".17g")
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, str)) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_json_dump(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_json_dump(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _document(command, rows, seed=None, tolerance=None, extra=None):
    meta = {"command": command, "version": VERSION}
    if seed is not None:
        meta["seed"] = seed
    if tolerance is not None:
        meta["tolerance"] = float(tolerance)
    if extra:
        meta.update(extra)
    return {"meta": meta, "rows": rows}


def _emit(args, doc, csv_columns=None):
    fmt = getattr(args, "format", "json")
    if fmt == "csv":
        cols = csv_columns or sorted({k for r in doc["rows"] for k in r})
        lines = [",".join(cols)]
        for r in doc["rows"]:
            cells = []
            for c in cols:
                v = r.get(c, "")
                cells.append(format(v, ".17g") if isinstance(v, float) else str(v))
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    else:
        text = _json_dump(doc) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Argument helpers

def _parse_forms(text):
    out = {}
    for part in text.split(","):
        if "=" not in part:
            raise DomainError(f"malformed form assignment {part!r}, expected LETTER=NAME")
        letter, name = part.split("=", 1)
        letter = letter.strip()
        if not letter:
            raise DomainError("empty letter name")
        if letter in out:
            raise DomainError(f"letter {letter!r} is assigned twice")
        out[letter] = modforms.form_by_name(name.strip())
    return out


def _parse_pq(text):
    try:
        p_str, q_str = text.split(",")
        p, q = int(p_str), int(q_str)
    except ValueError as exc:
        raise DomainError(f"malformed --pq {text!r}, expected P,Q") from exc
    return contfrac.coprime(p, q)


def _series_rows(series, p, q):
    rows = []
    for w, c in series.items():
        if not w:
            continue
        c = complex(c)
        rows.append({"word": series.alphabet.word_name(w), "p": p, "q": q,
                     "re": c.real, "im": c.imag})
    return rows


# ---------------------------------------------------------------------------
# Subcommands

def cmd_symbol(args):
    h = eichler.HAssignment.letters(_parse_forms(args.forms))
    p, q = _parse_pq(args.pq)
    if args.length < 0:
        raise DomainError(f"--length must be at least 0, got {args.length}")
    cfg = eichler.IntegratorConfig(trunc=args.length)
    if args.which == "D":
        series = eichler.build_D(h, p, q, cfg)
    elif args.which == "F":
        series = eichler.build_F(h, p, q, cfg)
    else:
        series = eichler.build_E(h, p, q, args.length)
    # every D, F and E is group-like and nothing in their computation
    # enforces it, so a gap exposes rounding or a defect: refuse to print it
    gap = series.is_grouplike(relative=True)
    if gap.worst > args.tol:
        u, v = (h.alphabet.word_name(w) for w in gap.witness)
        raise NonConvergence(f"{args.which}({p}, {q}) is not group-like within {args.tol:g}: "
                             f"relative gap {gap.worst:.3g} at ({u}, {v})")
    doc = _document("symbol", _series_rows(series, p, q), tolerance=args.tol,
                    extra={"which": args.which, "forms": args.forms})
    _emit(args, doc, csv_columns=["word", "p", "q", "re", "im"])
    return 0


def _suite_bijection(args):
    ab = Alphabet.simple("ab")
    rows = []
    pairs = symbols.sample_pairs(5, seed=args.seed + 1, bound=50)
    for i in range(args.samples):
        d = symbols.random_symbol(ab, 3, seed=args.seed + 10 * i)
        f = symbols.psi(d)
        dn = symbols.normalize(d)
        dd = symbols.delta(f)
        ff = symbols.psi(dd)
        worst = 0.0
        for p, q in pairs:
            worst = max(worst, dd(p, q).max_abs_diff(dn(p, q)), ff(p, q).max_abs_diff(f(p, q)))
        rows.append({"check": f"bijection[{i}]", "worst": worst, "pass": worst == 0.0})
    return rows


def _suite_shuffle(args):
    ab = Alphabet.simple("ab")
    rows = []
    pairs = symbols.sample_pairs(10, seed=args.seed + 2, bound=30)
    for i in range(args.samples):
        f1 = symbols.scalar_psi(symbols.random_scalar_symbol(args.seed + 100 + i))
        f2 = symbols.scalar_psi(symbols.random_scalar_symbol(args.seed + 200 + i))
        if args.corrupt and i == 0:
            base = symbols.from_components({"a": f1, "b": f2}, ab, 3)
            fr = symbols.RecipFn(
                lambda p, q: base(p, q) + TruncSeries.term(ab, 3, "ab", 1),
                ab, 3)
        else:
            fr = symbols.from_components({"a": f1, "b": f2}, ab, 3)
        d = symbols.delta(fr)
        worst = 0.0
        for p, q in pairs:
            rep = d(p, q).is_grouplike()
            worst = max(worst, rep.worst)
        rows.append({"check": f"shuffle[{i}]", "worst": worst, "pass": worst == 0.0})
    return rows


def _suite_axioms(args):
    ab = Alphabet.simple("ab")
    rows = []
    pairs = symbols.sample_pairs(args.samples, seed=args.seed + 3, bound=30)
    d = symbols.random_symbol(ab, 3, seed=args.seed)
    rep = symbols.verify_mds(d, pairs)
    rows.append({"check": "mds", "worst": rep.worst(), "pass": rep.passed()})
    rep = symbols.verify_mrf(symbols.psi(d), pairs)
    rows.append({"check": "mrf", "worst": rep.worst(), "pass": rep.passed()})
    return rows


def _suite_reciprocity(args):
    if args.pmax < 2:
        raise DomainError(f"--pmax must be at least 2, got {args.pmax}")
    rows = []
    for k2 in args.weights:
        worst = 0.0
        for p in range(2, args.pmax + 1):
            worst = max(worst, modforms.reciprocity_law_check(k2, p).diff)
        rows.append({"check": f"reciprocity-law[{k2}]", "worst": worst, "pass": worst < args.tol})
    return rows


# ``verify --suite eichler``: three settings of forms and length, at small
# pairs and at pairs with a large partial quotient or a wide q
_EICHLER_SETTINGS = (("A=E4,B=E6", 2), ("A=E4,B=Delta", 2), ("A=Delta", 3))
_EICHLER_PAIRS = ((3, 2), (2, 3), (5, 2), (1, 9), (-1, 9), (-2, 51), (1, 100))


def _relative_gap(got, want):
    """max |got - want| over the words, relative to max(1, largest |want|)."""
    return got.max_abs_diff(want) / max(1.0, max(map(abs, want.vec)))


def _suite_eichler(args):
    worst = dict.fromkeys(("full-integral", "reciprocity-identity", "grouplike"), 0.0)
    for forms, trunc in _EICHLER_SETTINGS:
        h = eichler.HAssignment.letters(_parse_forms(forms))
        cfg = eichler.IntegratorConfig(trunc=trunc)
        for p, q in _EICHLER_PAIRS:
            d = eichler.build_D(h, p, q, cfg)
            # build_D runs the reciprocity recursion; full_integral integrates
            # through the chart at q/p instead
            tb0 = eichler.TangentialBasePoint(Fraction(q, p), eichler.INF)
            tb1 = eichler.TangentialBasePoint(eichler.INF, Fraction(q, p))
            full = eichler.full_integral(h, tb0, tb1, (p, q), cfg)
            lhs = d * eichler.build_E(h, p, q, trunc) * eichler.build_D(h, -q, p, cfg).inverse()
            for name, gap in [("full-integral", _relative_gap(full, d)),
                              ("reciprocity-identity", _relative_gap(lhs, eichler.build_F(h, p, q, cfg))),
                              ("grouplike", d.is_grouplike(relative=True).worst)]:
                worst[name] = max(worst[name], gap)
    return [{"check": f"eichler[{name}]", "worst": w, "pass": w < args.tol} for name, w in worst.items()]


_SUITES = {"bijection": _suite_bijection, "shuffle": _suite_shuffle, "axioms": _suite_axioms,
           "reciprocity-law": _suite_reciprocity, "eichler": _suite_eichler}

# The flags of ``verify`` that only some suites read, with their defaults,
# and the suites that read each; --seed and --tol are read by every suite.
_SUITE_FLAGS = {"samples": (20, ("bijection", "shuffle", "axioms")),
                "weights": ([4, 6, 8], ("reciprocity-law",)),
                "pmax": (13, ("reciprocity-law",))}


def cmd_verify(args):
    if args.corrupt and args.suite != "shuffle":
        raise DomainError(f"--corrupt has a control only in --suite shuffle, not --suite {args.suite}")
    for flag, (default, suites) in _SUITE_FLAGS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif args.suite not in suites:
            raise DomainError(f"--{flag} is not read by --suite {args.suite}")
    if args.samples < 1:
        raise DomainError(f"--samples must be at least 1, got {args.samples}")
    rows = _SUITES[args.suite](args)
    doc = _document("verify", rows, seed=args.seed, tolerance=args.tol,
                    extra={"suite": args.suite})
    _emit(args, doc, csv_columns=["check", "worst", "pass"])
    return 0 if all(r["pass"] for r in rows) else 1


def cmd_decompose(args):
    if args.pq_samples < 1:
        raise DomainError(f"--pq-samples must be at least 1, got {args.pq_samples}")
    if args.depth < 1:
        raise DomainError(f"--depth must be at least 1, got {args.depth}")
    h = eichler.HAssignment.letters(_parse_forms(args.forms))
    cfg = eichler.IntegratorConfig(trunc=args.depth)
    dn = symbols.delta(symbols.psi(eichler.symbol_fn(h, cfg)))
    dec = symbols.decompose(dn, args.depth, tol=args.tol)
    pairs = symbols.sample_pairs(args.pq_samples, seed=args.seed, bound=6)
    try:
        worst = max(dec.residual(p, q) for p, q in pairs)
        rows = [{"check": "reconstruction-residual", "worst": worst, "pass": worst < args.tol}]
        for w in dec.words:
            fn = dec.scalar_fn(w)
            viol = 0.0
            for p, q in pairs:
                viol = max(viol, abs(fn(p, -q) - fn(-p, q)))
                if p + q != 0:
                    viol = max(viol, abs(fn(p, q) - fn(p, p + q)))
            rows.append({"check": f"factor-mds[{h.alphabet.word_name(w)}]", "worst": viol,
                         "pass": viol < args.tol})
    except NotShuffled as exc:
        # D is the integrator's float series, group-like in exact arithmetic:
        # a gap above --tol is rounding, not a bad request
        raise NonConvergence(str(exc)) from exc
    ok = all(r["pass"] for r in rows)
    doc = _document("decompose", rows, seed=args.seed, tolerance=args.tol,
                    extra={"forms": args.forms, "depth": args.depth})
    _emit(args, doc, csv_columns=["check", "worst", "pass"])
    return 0 if ok else 1


def cmd_gamma02(args):
    p, q = _parse_pq(args.pq)
    k2 = args.weight
    dval = modforms.gamma02_D(k2, p, q)
    fval = modforms.gamma02_F(k2, p, q)
    delt = modforms.gamma02_delta(k2, p, q)
    rows = [
        {"name": "D", "p": p, "q": q, "re": dval.real, "im": dval.imag},
        {"name": "F", "p": p, "q": q, "re": fval.real, "im": fval.imag},
        {"name": "delta", "p": p, "q": q, "re": float(delt), "im": 0.0},
    ]
    doc = _document("gamma02", rows, extra={"weight": k2})
    _emit(args, doc, csv_columns=["name", "p", "q", "re", "im"])
    return 0


def cmd_table(args):
    from concurrent.futures import ThreadPoolExecutor

    if args.pmax < 1:
        raise DomainError(f"--pmax must be at least 1, got {args.pmax}")
    if args.jobs < 1:
        raise DomainError(f"--jobs must be at least 1, got {args.jobs}")
    forms = _parse_forms(args.forms)
    grid = []
    for p in range(1, args.pmax + 1):
        for q in range(1, p + 1):
            if gcd(p, q) == 1:
                grid.append((p, q))

    def cell(job):
        letter, form, p, q = job
        val = modforms.dedekind_symbol_length1(form, p, q)
        return {"form": letter, "p": p, "q": q, "re": val.real, "im": val.imag}

    jobs = [(letter, form, p, q) for letter, form in sorted(forms.items()) for p, q in grid]
    with ThreadPoolExecutor(max_workers=min(args.jobs, os.cpu_count() or 1)) as pool:
        rows = list(pool.map(cell, jobs))
    doc = _document("table", rows, extra={"forms": args.forms, "pmax": args.pmax})
    _emit(args, doc, csv_columns=["form", "p", "q", "re", "im"])
    return 0


def cmd_cfrac(args):
    p, q = _parse_pq(args.pq)
    if p < 0:
        p, q = -p, -q
    seq = contfrac.canonical(p, q)
    rows = [{"entries": list(seq.entries),
             "tails": [[pi, qi] for pi, qi in contfrac.tails(seq)]}]
    _emit(args, _document("cfrac", rows, extra={"p": p, "q": q}))
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(prog="dedekindsym",
                                 description="Multiple Dedekind symbols and reciprocity functions")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, tol=False):
        sp.add_argument("--out", help="write output to a file instead of stdout")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        if tol:
            sp.add_argument("--tol", type=float, default=1e-8)

    sp = sub.add_parser("symbol", help="evaluate the symbol/reciprocity series of modular forms")
    sp.add_argument("--forms", required=True, help="letter assignments, e.g. A=E4,B=E6")
    sp.add_argument("--pq", required=True, help="coprime pair P,Q")
    sp.add_argument("--length", type=int, default=2, help="truncation length")
    sp.add_argument("--which", choices=("D", "F", "E"), default="D")
    common(sp, tol=True)
    sp.set_defaults(func=cmd_symbol)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", choices=sorted(_SUITES), required=True)
    # --samples, --weights and --pmax default through _SUITE_FLAGS
    sp.add_argument("--samples", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--weights", type=lambda s: [int(x) for x in s.split(",")])
    sp.add_argument("--pmax", type=int)
    sp.add_argument("--corrupt", action="store_true",
                    help="negative control of --suite shuffle: corrupt one fixture and expect failure")
    common(sp, tol=True)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("decompose", help="peel a reciprocity function into exponential factors")
    sp.add_argument("--forms", required=True)
    sp.add_argument("--depth", type=int, default=2)
    sp.add_argument("--pq-samples", dest="pq_samples", type=int, default=8)
    sp.add_argument("--seed", type=int, default=0)
    common(sp, tol=True)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("gamma02", help="closed forms for the second Gamma_0(2) Eisenstein series")
    sp.add_argument("--weight", type=int, required=True)
    sp.add_argument("--pq", required=True)
    common(sp)
    sp.set_defaults(func=cmd_gamma02)

    sp = sub.add_parser("table", help="tabulate length-one symbols over a coprime grid")
    sp.add_argument("--forms", required=True)
    sp.add_argument("--pmax", type=int, default=6)
    sp.add_argument("--jobs", type=int, default=4)
    common(sp)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("cfrac", help="debug: canonical continued fraction of a pair")
    sp.add_argument("--pq", required=True)
    # no --format: a row holds lists, which a CSV cell cannot
    sp.add_argument("--out", help="write output to a file instead of stdout")
    sp.set_defaults(func=cmd_cfrac)

    return ap


def main(argv=None):
    # the integrator's arrays hold a few hundred entries: a threaded BLAS
    # only costs numpy's import its thread pool.  A value already set wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if not 0 <= getattr(args, "tol", 0) < float("inf"):
            raise DomainError(f"--tol must be finite and at least 0, got {args.tol}")
        return args.func(args)
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DedekindSymError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
