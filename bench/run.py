"""Benchmark of dedekindsym: one workload, one process, one thread, closed loop.

    python3 bench/run.py --workload sweep|exact|cli --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the repository root.  The package is imported from ``src/`` of
the checkout.  The loop sends the next op only after the previous one
returns, for ``--seconds`` seconds and then to the end of the workload's
pass, and checks every op's output.  Times are reported at a reference
speed (see ``at_reference_speed``).  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The full result, with provenance (and,
traced, the spans), is written under ``.bench_build/dedekindsym-bench/``.
Exit status: 0 when every output was correct, 1 on a wrong output, 2 when
the package is missing.

``--workload all`` runs the three workloads one after another, each in
its own process, and prints one table.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "dedekindsym-bench"
WORKLOAD_NAMES = ("sweep", "exact", "cli")

# Set-up is timed in this many fresh interpreters; the median is reported.
SETUP_TRIALS = 7
# The traced run reports its per-layer metrics over this many first ops,
# so that every count repeats exactly on one commit and one seed.
TRACE_WINDOW = {"sweep": 20, "exact": 300, "cli": 22}
TAIL_BEYOND = 10
EXACT_DIGITS = 17.0

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s",
                    "latency_tail_s": "s", "success_ratio": "ratio",
                    "accuracy_digits": "digits", "peak_rss_mb": "MB"}


class MissingPackage(Exception):
    pass


def _check_package():
    if not (SRC / "dedekindsym" / "__init__.py").is_file():
        raise MissingPackage(f"no package source at {SRC / 'dedekindsym'}")


def _import_package():
    """Import dedekindsym from this checkout's src/ only."""
    _check_package()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dedekindsym

    if Path(dedekindsym.__file__).resolve().parent != SRC / "dedekindsym":
        raise MissingPackage(f"imported dedekindsym from {dedekindsym.__file__}, not {SRC}")


def setup_workload(name, seed):
    """Import the package and build the workload's inputs; the timed set-up."""
    _import_package()
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    return wl, wl.ops()


def measure_setup(name, seed):
    """Median set-up time at the reference speed over fresh interpreters,
    each timed from inside; also each trial's (wall, scaled) times."""
    trials = []
    for _ in range(SETUP_TRIALS):
        out = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                              "--setup-only"], capture_output=True, text=True, timeout=120,
                             cwd=ROOT, check=True)
        trials.append([float(x) for x in out.stdout.split()[-2:]])
    return statistics.median(scaled for _, scaled in trials), trials


# ---------------------------------------------------------------------------
# Provenance

def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _src_digest():
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "dedekindsym").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args):
    import numpy

    return {"git_sha": _git_sha(), "src_sha256": _src_digest(), "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__}


# ---------------------------------------------------------------------------
# Reference speed
#
# The speed of a shared host drifts: on a 2-vCPU VM the same ops took
# up to 1.6x as long from one minute to the next, all alike, which no run
# length averages out.  So every op's wall time is scaled to a reference
# speed, read off a fixed probe of pure-Python work that shares no code with
# the package and is timed between the ops: an op's time at the reference
# speed is its wall time x REF_PROBE_S / (the probe's time around it).  A
# change to the package moves the scaled times as much as the wall times.

# The probe's wall time at the reference speed: its median on a quiet 2-vCPU
# Intel Xeon VM with Python 3.11.7.
REF_PROBE_S = 0.027
PROBE_EVERY_S = 0.5


def probe():
    """Wall time of a fixed mix of the interpreter work the package does:
    Fraction and complex arithmetic, tuple-keyed dicts and sorting."""
    from fractions import Fraction

    t0 = time.perf_counter()
    for _ in range(3):
        acc, z, d = Fraction(0), 0j, {}
        for i in range(1, 61):
            acc += Fraction(i, i * i + 1)
            for k in range(40):
                z = z * (0.5 + 0.25j) + complex(k, i)
                d[(i, k)] = z
            sorted(d.values(), key=abs)
    return time.perf_counter() - t0


def at_reference_speed(times, probes):
    """Scale ``times`` to the reference speed.  ``probes`` holds (number of
    ops before the probe, probe time), the first before op 0 and the last
    after the final op.  The ops between two probes take the median of
    those two probes and their outer neighbours, so that one disturbed
    probe moves nothing."""
    out = []
    for k in range(len(probes) - 1):
        near = [p for _, p in probes[max(0, k - 1):k + 3]]
        scale = REF_PROBE_S / statistics.median(near)
        out.extend(t * scale for t in times[probes[k][0]:probes[k + 1][0]])
    return out


# ---------------------------------------------------------------------------
# The closed loop

def tail_latency(latencies):
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, samples beyond, sample count)."""
    xs = sorted(latencies)
    n = len(xs)
    beyond = min(TAIL_BEYOND, n - 1)
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond, n


def closed_loop(wl, ops, seconds, tracer=None, window=0, block=1):
    """Run ops one after another until ``seconds`` have passed, at least
    ``window`` ops are done and the op count is a multiple of ``block``;
    with a tracer, snapshot the per-layer metrics when op number ``window``
    completes.  The speed probe runs before the first op, after every
    PROBE_EVERY_S of op time and after the last op."""
    import workloads
    from dedekindsym.errors import NonConvergence

    lat, labels, wrong, fail_reasons = [], [], [], {}
    probes = [(0, probe())]
    attempted = failed = 0
    since_probe = 0.0
    worst = layer = None
    end = time.perf_counter() + seconds
    while True:
        label, op = next(ops)
        t0 = time.perf_counter()
        try:
            violation = tracer.run_op(attempted, op) if tracer else op()
        except (workloads.OpFailed, NonConvergence) as exc:
            failed += 1
            reason = str(exc).split(":")[0] if isinstance(exc, workloads.OpFailed) else type(exc).__name__
            fail_reasons[reason] = fail_reasons.get(reason, 0) + 1
        except workloads.WrongOutput as exc:
            wrong.append(f"{label}: {exc}")
        else:
            if violation is not None:
                if not violation <= wl.tolerance:
                    wrong.append(f"{label}: violation {violation:.3g} > {wl.tolerance:g}")
                else:
                    worst = violation if worst is None else max(worst, violation)
        now = time.perf_counter()
        lat.append(now - t0)
        labels.append(label)
        attempted += 1
        if attempted == window and tracer:
            layer = tracer.snapshot()
        done = now >= end and attempted >= window and attempted % block == 0
        since_probe += lat[-1]
        if done or since_probe >= PROBE_EVERY_S:
            probes.append((attempted, probe()))
            since_probe = 0.0
        if done:
            break
    return {"attempted": attempted, "failed": failed, "latencies": lat,
            "ref_latencies": at_reference_speed(lat, probes), "probes": probes,
            "labels": labels, "wrong": wrong, "worst_violation": worst,
            "fail_reasons": fail_reasons, "layer": layer}


def accuracy_digits(worst):
    if worst is None or worst == 0.0:
        return EXACT_DIGITS
    return min(EXACT_DIGITS, -math.log10(worst))


def run_untraced(args):
    setup_s, setup_trials = measure_setup(args.workload, args.seed)
    wl, ops = setup_workload(args.workload, args.seed)
    res = closed_loop(wl, ops, args.seconds, block=wl.block)
    ref = res["ref_latencies"]
    tail, pct, beyond, n = tail_latency(ref)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": res["attempted"] / sum(ref),
        "latency_p50_s": statistics.median(ref),
        "latency_tail_s": tail,
        "success_ratio": 1.0 - res["failed"] / res["attempted"],
        "accuracy_digits": accuracy_digits(res["worst_violation"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = res["latencies"]
    extra = {"setup_trials_wall_scaled_s": setup_trials, "latency_tail_percentile": pct,
             "latency_tail_samples_beyond": beyond, "ops": n,
             "fail_ratio": res["failed"] / res["attempted"], "fail_reasons": res["fail_reasons"],
             "worst_violation": res["worst_violation"],
             "wall": {"ops_per_s": n / sum(wall), "latency_p50_s": statistics.median(wall),
                      "latency_tail_s": tail_latency(wall)[0]},
             "probes": res["probes"],
             "op_latencies_s": list(zip(res["labels"], wall, ref))}
    units = END_TO_END_UNITS
    return res, metrics, units, extra


def run_traced(args):
    """Traced run.  The first TRACE_WINDOW ops run untraced on a fresh
    workload first; the traced run over the same ops then gives the
    tracing overhead on identical work."""
    window = TRACE_WINDOW[args.workload]
    wl, ops = setup_workload(args.workload, args.seed)
    import tracing

    ref = closed_loop(wl, ops, 0.0, window=window)
    wl, ops = setup_workload(args.workload, args.seed)
    with tracing.Tracer() as tracer:
        res = closed_loop(wl, ops, args.seconds, tracer, window)
    res["wrong"] = ref["wrong"] + res["wrong"]
    traced_s, untraced_s = sum(res["ref_latencies"][:window]), sum(ref["ref_latencies"])
    metrics = dict(res["layer"])
    metrics["trace.ops_per_s"] = window / traced_s
    metrics["trace.untraced_ops_per_s"] = window / untraced_s
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    units = dict(tracing.layer_metric_names(), **{"trace.ops_per_s": "1/s",
                                                    "trace.untraced_ops_per_s": "1/s",
                                                    "trace.overhead_ratio": "ratio"})
    extra = {"window_ops": window, "ops": res["attempted"], "by_parent": tracer.by_parent(),
             "spans": tracer.spans}
    return res, metrics, units, extra


def report(args, res, metrics, units, extra):
    """Print the human-readable lines, write the full result, print the JSON line."""
    correct = not res["wrong"]
    for msg in res["wrong"][:20]:
        print(f"WRONG {msg}")
    prov = provenance(args)
    for name, value in metrics.items():
        note = ""
        if name == "latency_tail_s":
            note = (f"  (p{extra['latency_tail_percentile']:.1f}: {extra['latency_tail_samples_beyond']}"
                    f" of {extra['ops']} samples beyond)")
        print(f"{args.workload:6s} {name:42s} {value:>14.6g} {units[name]}{note}")
    if not args.trace:
        print(f"{args.workload:6s} {'fail_ratio':42s} {extra['fail_ratio']:>14.6g} ratio  "
              f"{extra['fail_reasons']}")
        for name, value in extra["wall"].items():
            print(f"{args.workload:6s} {'wall.' + name:42s} {value:>14.6g} {units[name]}"
                  "  (unscaled)")
    print("provenance " + json.dumps(prov))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    full = {"provenance": prov, "correct": correct, "attempted": res["attempted"],
            "failed": res["failed"], "wrong": res["wrong"], "metrics": metrics, "units": units,
            **extra}
    path.write_text(json.dumps(full))
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process, one after another; one table."""
    status = 0
    rows = {}
    for name in WORKLOAD_NAMES:
        child = subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                                str(args.seed), "--seconds", str(args.seconds), "--trace",
                                str(args.trace)], capture_output=True, text=True, timeout=600,
                               cwd=ROOT)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, child.returncode)
        rows[name] = json.loads(lines[-1]) if lines else None
    print(json.dumps(rows))
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.environ.pop("DEDEKINDSYM_CACHE_DIR", None)  # the CLI would read and write there
    try:
        _check_package()
    except MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        t0 = time.perf_counter()
        setup_workload(args.workload, args.seed)
        elapsed = time.perf_counter() - t0
        print(elapsed, elapsed * REF_PROBE_S / statistics.median(probe() for _ in range(3)))
        return 0
    res, metrics, units, extra = (run_traced if args.trace else run_untraced)(args)
    return report(args, res, metrics, units, extra)


if __name__ == "__main__":
    sys.exit(main())
