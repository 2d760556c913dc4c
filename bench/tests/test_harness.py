"""Tests of the benchmark harness itself (not of rallystats).

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from harness import checks  # noqa: E402
from harness.metrics import END_TO_END, ImportProbe, gated_end_to_end, per_layer, per_layer_spec  # noqa: E402
from harness.ops import CheckFailed, Op, Recorder, require_finite  # noqa: E402
from harness.sampler import INTERVAL_S, REFERENCE_S, Sampler  # noqa: E402
from harness.stats import tail  # noqa: E402
from harness.tracing import NullTracer, Span, Tracer, self_times  # noqa: E402
from harness.workloads import WORKLOADS, sweep_shard  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match_benchmark_json():
    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    assert declared == END_TO_END


def test_per_layer_metrics_match_benchmark_json():
    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert declared == per_layer_spec()


def test_workloads_and_command_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]


def test_traced_run_reports_every_per_layer_metric_even_for_unused_layers():
    out = per_layer([], [ImportProbe(0.9, 0.7, True, 0.8)], 1.02)
    assert set(out) == set(per_layer_spec())
    assert out["import.scipy_loaded"] == 1.0
    assert out["duration.quantile.calls"] == 0.0
    assert out["trace.overhead_ratio"] == 1.02


def test_each_operation_is_scaled_by_the_host_speed_sampled_while_it_ran():
    sampler = Sampler()
    rec = Recorder(sampler)

    def op(slowdown, ticks):
        def call(tr):
            for _ in range(ticks):  # the timer firing during the call
                t = time.perf_counter()
                sampler.samples.append((t, slowdown * REFERENCE_S))
                sampler.stolen += 0.001
            time.sleep(0.002)

        return Op("op", call)

    rec.run(op(2.0, 3), NullTracer())
    time.sleep(3 * INTERVAL_S)  # out of reach of the next operation's samples
    rec.run(op(4.0, 1), NullTracer())
    rec.scale()
    first, second = rec.samples
    assert first.end - first.start - first.seconds == pytest.approx(0.003)  # kernel time taken out
    assert (first.factor, second.factor) == (pytest.approx(2.0), pytest.approx(4.0))
    assert first.scaled == pytest.approx(first.seconds / 2.0)


def test_an_operation_without_samples_takes_the_nearest_one():
    sampler = Sampler()
    sampler.samples = [(0.0, 3.0 * REFERENCE_S), (10.0, 5.0 * REFERENCE_S)]
    assert sampler.factor(8.0, 8.5) == pytest.approx(5.0)
    assert sampler.factor(0.02, 10.0) == pytest.approx(4.0)  # both within reach


def test_sampler_timer_runs_the_kernel_until_stopped():
    sampler = Sampler()
    sampler.start()
    try:
        end = time.perf_counter() + 6 * INTERVAL_S
        while time.perf_counter() < end:
            pass
        with sampler.paused():
            paused_at = len(sampler.samples)
            time.sleep(3 * INTERVAL_S)
            assert len(sampler.samples) == paused_at
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 3
    assert sampler.stolen == pytest.approx(sum(dt for _, dt in sampler.samples))


def test_gated_metrics_come_in_benchmark_json_order():
    out = gated_end_to_end(0.8, 0.4, 200.0, 160.0)
    assert list(out) == [m["name"] for m in SPEC["end_to_end"]]


def test_sweep_shards_cover_the_paper_grid_once():
    ps = sorted(p for j in range(8) for p in sweep_shard(j)[1])
    assert len(ps) == 1999
    assert ps == pytest.approx([0.0005 * (i + 1) for i in range(1999)], abs=1e-12)
    args, shard = sweep_shard(3)
    start, stop, step = (float(x) for x in args[-1].split(":"))
    assert int(round((stop - start) / step)) + 1 == len(shard) == 250


class _FakeContext:
    def __init__(self, seed, work):
        self.rng = random.Random(seed)
        self.seed = seed
        self.work = work

    def run_cli(self, args, tracer):
        raise AssertionError("plans are built without running anything")


@pytest.mark.parametrize(
    "workload, seconds, operations",
    [
        ("cli-session", 15, 13),
        ("cli-session", 30, 26),
        ("paper-sweep", 1, 1),
        ("paper-sweep", 15, 3),
        ("paper-sweep", 60, 11),  # more shards than the grid has: they repeat
        ("mc-study", 15, 2 + 138),
        ("duration-tail", 15, 17),
    ],
)
def test_a_plan_depends_only_on_the_seed_and_the_run_length(tmp_path, workload, seconds, operations):
    sys.path.insert(0, str(ROOT / "src"))

    def plan(seed):
        rounds = WORKLOADS[workload](_FakeContext(seed, tmp_path)).plan(seconds)
        return [(kind, [(op.name, op.work) for op in ops]) for kind, ops in rounds]

    assert plan(5) == plan(5)
    assert sum(len(ops) for _, ops in plan(5)) == operations


@pytest.mark.parametrize(
    "n, value, percentile",
    [(100, 90, 90.0), (20, 10, 50.0), (11, 1, 100 / 11), (50, 40, 80.0)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, value, percentile):
    xs = list(range(1, n + 1))
    random.Random(n).shuffle(xs)
    got = tail(xs)
    assert got == (value, pytest.approx(percentile), n)
    assert sum(x > got[0] for x in xs) == 10


def test_tail_is_undefined_below_eleven_samples():
    assert tail(range(10)) is None


def test_injected_failures_raise_fail_ratio():
    def bad_output(_):
        raise CheckFailed("wrong table")

    rec = Recorder()
    rec.run(Op("good", lambda tr: 1.0, lambda r: require_finite(r)), NullTracer())
    assert (rec.attempted, rec.failed) == (1, 0)
    rec.run(Op("raises", lambda tr: 1 / 0), NullTracer())
    rec.run(Op("nan", lambda tr: math.nan, lambda r: require_finite(r)), NullTracer())
    rec.run(Op("wrong", lambda tr: 1.0, bad_output), NullTracer())
    assert (rec.attempted, rec.failed) == (4, 3)
    assert [s.ok for s in rec.samples] == [True, False, False, False]
    assert [s.wrong for s in rec.samples] == [False, False, True, True]


def test_self_time_subtracts_the_union_of_children_inside_the_parent():
    spans = [
        Span(0, "parent", 0.0, 10.0),
        Span(1, "a", 1.0, 3.0, parent=0),
        Span(2, "b", 2.0, 5.0, parent=0),  # overlaps a: union [1, 5]
        Span(3, "c", 8.0, 12.0, parent=0),  # runs past the parent: counts [8, 10]
        Span(4, "grandchild", 1.5, 2.5, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_tracer_nests_spans_marks_failures_and_adopts_child_spans():
    tracer = Tracer({"f": lambda r: {"value": r}})
    tracer.op = 7
    with tracer.span("outer") as outer:
        assert tracer.call("f", lambda x: x + 1, 1) == 2
        with pytest.raises(ZeroDivisionError):
            tracer.call("g", lambda: 1 / 0)
    names = {s.name: s for s in tracer.spans}
    assert names["f"].parent == outer.id and names["f"].attrs == {"value": 2}
    assert names["g"].failed and not names["f"].failed
    assert all(s.op == 7 for s in tracer.spans)

    child = [
        {"id": 0, "name": "import.module", "start": 1.0, "end": 2.0},
        {"id": 1, "name": "h", "start": 2.0, "end": 3.0, "parent": None},
        {"id": 2, "name": "k", "start": 2.1, "end": 2.2, "parent": 1},
    ]
    tracer.adopt(child, outer)
    adopted = tracer.spans[-3:]
    assert [s.parent for s in adopted] == [outer.id, outer.id, adopted[1].id]
    assert all(s.op == 7 for s in adopted)


def test_traced_cli_records_the_calls_the_cli_makes(tmp_path):
    spans_file = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "traced_cli.py"), str(spans_file),
         "duration", "--n", "9", "--pa", "0.6", "--pb", "0.5", "--stat", "quantiles"],
        cwd=ROOT, capture_output=True, text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    names = [s["name"] for s in json.loads(spans_file.read_text())]
    assert names[0] == "import.module"
    assert "duration.duration_pmf_unconditional" in names
    assert names.count("duration.quantile") == 7


def test_table_parser_rejects_a_wrong_header_and_ragged_rows():
    with pytest.raises(CheckFailed):
        checks.parse_table("a,b\n1,2\n", ["a", "c"])
    with pytest.raises(CheckFailed):
        checks.parse_table("a,b\n1\n", ["a", "b"])
    assert checks.parse_table("a,b\n1,2\n", ["a", "b"]) == [{"a": "1", "b": "2"}]


def test_sum_check_allows_only_the_twelve_digit_print_rounding():
    checks.check_total([0.333333333333, 0.666666666667], 1.0, 1e-12, "pair")
    with pytest.raises(CheckFailed):
        checks.check_total([0.3333333333, 0.6666666666], 1.0, 1e-12, "pair")


def test_mpmath_references_agree_with_the_engine():
    sys.path.insert(0, str(ROOT / "src"))
    from rallystats import GameConfig, Player, RallyProbs, ScoringSystem, rallypoint, sideout

    for p in (0.0085, 0.3, 0.6, 0.97):
        probs = RallyProbs.no_server(p)
        so = sideout.game_win_prob(Player.A, Player.A, probs, GameConfig(n=15))
        rp = rallypoint.game_win_prob(
            Player.A, Player.A, probs, GameConfig(n=21, system=ScoringSystem.RALLY_POINT)
        )
        assert checks.rel_err(so, checks.sideout_win_a_mp(p, 15)) < 1e-12
        assert checks.rel_err(rp, checks.rallypoint_win_a_mp(p, 21)) < 1e-12
