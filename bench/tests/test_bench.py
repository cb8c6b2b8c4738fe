"""Tests of the benchmark itself: the correctness gates fire on wrong
outputs, traced counts repeat exactly, and the result line has the agreed
shape.

    python3 -m pytest bench/tests -q
"""

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dedekindsym import symbols  # noqa: E402
from dedekindsym.series import COMPLEX, TruncSeries  # noqa: E402


def test_exact_gate_passes_and_corrupted_reciprocity_function_fails():
    # The corrupted control of acceptance criterion 3: a shuffled function
    # plus the word ab, whose delta is no longer group-like.
    good = workloads.ShuffleCheck.seeded(3300)
    base = symbols.from_components({"a": workloads._scalar_rf(3300),
                                    "b": workloads._scalar_rf(3301)}, workloads.AB, 3)
    bad = workloads.ShuffleCheck(symbols.RecipFn(
        lambda p, q: base(p, q) + TruncSeries.term(workloads.AB, 3, "ab", 1), workloads.AB, 3))
    pairs = [(7, 5), (3, -8), (13, 21), (-4, 9), (50, 49)]
    assert all(good(p, q) == 0.0 for p, q in pairs)
    assert any(bad(p, q) > 0.0 for p, q in pairs)


def test_exact_checks_pass_at_seeded_pairs():
    wl = workloads.Exact(5)
    ops = wl.ops()
    for _ in range(3 * workloads.EXACT_PAIRS_PER_FUNCTION):
        _, op = next(ops)
        assert op() == 0.0


def test_sweep_gate_passes_and_perturbed_D_fails():
    wl = workloads.Sweep(1)
    wl.start_pass()
    assert wl.op(2, 3) <= wl.tolerance
    # D perturbed by 1e-6 on one letter breaks the reciprocity identity.
    exact_d = wl.dh
    bump = TruncSeries.term(wl.h.alphabet, 2, (0,), 1e-6, COMPLEX)
    wl.dh = symbols.SymbolFn(lambda p, q: exact_d(p, q) + bump, wl.h.alphabet, 2, COMPLEX)
    assert wl.op(3, 2) > wl.tolerance


def test_sweep_pass_visits_half_the_grid_in_couples():
    order = workloads.Sweep(4).pass_order()
    assert len(order) == len(set(order)) == workloads.Sweep.block
    assert set(order) <= set(workloads.Sweep.grid)
    assert all(order[i + 1] == (order[i][1], -order[i][0]) for i in range(0, len(order), 2))
    assert sorted(order) == sorted(workloads.Sweep(5).pass_order())


def test_loop_ends_on_a_whole_block():
    class Counting:
        tolerance = 0.0

        def ops(self):
            for i in itertools.count():
                yield f"op{i}", lambda: 0.0

    wl = Counting()
    res = run.closed_loop(wl, wl.ops(), 0.0, block=5)
    assert res["attempted"] == 5 and not res["wrong"]
    assert len(res["ref_latencies"]) == 5
    assert res["probes"][0][0] == 0 and res["probes"][-1][0] == 5


def test_exact_passes_hold_the_same_continued_fraction_lengths():
    def lengths(seed):
        wl = workloads.Exact(seed)
        windows = wl.windows()
        sample = []
        while len(sample) < wl.pass_pairs:
            window = next(windows)
            assert len(window) <= workloads.EXACT_PAIRS_PER_FUNCTION
            # At most one of the pass's longest pairs per function.
            assert sum(workloads.cf_lengths(p, q)[0] >= 26 for p, q in window) <= 1
            sample += window
        return sorted(workloads.cf_lengths(p, q) for p, q in sample)

    a, b = lengths(1), lengths(2)
    assert a == b and len(a) == workloads.Exact(1).block // 3
    assert sum(x >= 26 for x, _ in a) >= 8


def test_reference_speed_scales_by_the_probes_around_each_op():
    ref = run.REF_PROBE_S
    probes = [(0, ref), (2, 2 * ref), (3, 2 * ref), (4, 2 * ref)]
    # ops 0-1 take median(ref, 2ref, 2ref) = 2ref; one slow probe alone moves nothing.
    assert run.at_reference_speed([1.0, 1.0, 1.0, 1.0], probes) == [0.5, 0.5, 0.5, 0.5]
    probes = [(0, ref), (1, ref), (2, 5 * ref), (3, ref), (4, ref)]
    assert run.at_reference_speed([1.0, 1.0, 1.0, 1.0], probes) == [1.0, 1.0, 1.0, 1.0]


def test_cli_gates():
    wl = workloads.Cli(0)
    assert wl.request(["cfrac", "--pq=-7,12"]) is None
    good = wl.request(["symbol", "--forms", "A=E4,B=E6", "--pq=3,5", "--length", "2"])
    assert good <= workloads.CLI_TOL
    # Non-group-like coefficients and a wrong continued fraction are caught.
    assert workloads.grouplike_violation({"A": 1.0, "AA": 0.1}, "A", 2) > 0.1
    with pytest.raises(workloads.WrongOutput):
        wl.check_cfrac(["cfrac", "--pq=5,7"],
                       {"rows": [{"entries": [2, 2, 2], "tails": [[5, 7], [4, 3], [1, 2]]}]})
    with pytest.raises(workloads.WrongOutput):
        wl.request(["verify", "--suite", "shuffle", "--samples", "2", "--corrupt"])


def test_cli_nonconvergence_is_a_counted_failure():
    wl = workloads.Cli(0)
    with pytest.raises(workloads.OpFailed):
        wl.request(["symbol", "--forms", "A=E4,B=E6", "--pq=89,144", "--length", "1"])


def _traced_counts(name, seed, nops):
    wl = workloads.WORKLOADS[name](seed)
    with tracing.Tracer() as tracer:
        res = run.closed_loop(wl, wl.ops(), 0.0, tracer, nops)
    assert not res["wrong"]
    return {k: v for k, v in res["layer"].items() if not k.endswith("_s")}


@pytest.mark.parametrize("name,nops", [("exact", 12), ("sweep", 2), ("cli", 3)])
def test_traced_counts_repeat_exactly(name, nops):
    first = _traced_counts(name, 7, nops)
    assert first == _traced_counts(name, 7, nops)
    assert sum(first.values()) > 0


def test_tracer_uninstall_restores_the_package():
    before = TruncSeries.__mul__
    with tracing.Tracer():
        assert TruncSeries.__mul__ is not before
    assert TruncSeries.__mul__ is before


def test_tail_latency_keeps_ten_samples_beyond():
    value, pct, beyond, n = run.tail_latency([float(i) for i in range(100)])
    assert (value, pct, beyond, n) == (89.0, 90.0, 10, 100)


def test_result_line_and_missing_package(tmp_path):
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "exact",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}

    # A checkout holding only the benchmark exits non-zero without a result.
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert out.returncode != 0 and not out.stdout.strip()
