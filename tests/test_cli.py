import csv
import io
import json

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner

from rallystats import GameConfig, Player, RallyProbs, ScoringSystem, TerminalScore
from rallystats import duration, matchlevel, sideout
from rallystats.cli import main

A, B = Player.A, Player.B


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result.output


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, text
    return rows


class TestScoreDist:
    def test_rows_sum_to_one_and_reproduce_win_prob(self, runner):
        out = run_ok(runner, [
            "score-dist", "--system", "sideout", "--n", "15",
            "--pa", ".5", "--pb", ".5", "--server", "A",
        ])
        rows = parse_csv(out)
        assert len(rows) == 30
        total = sum(float(r["probability"]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-12)
        win_a = sum(float(r["probability"]) for r in rows if r["winner"] == "A")
        assert win_a == pytest.approx(0.53, abs=0.005)

    def test_certain_server_single_nonzero_row(self, runner):
        out = run_ok(runner, [
            "score-dist", "--system", "sideout", "--n", "15",
            "--pa", "1", "--pb", ".5", "--server", "A",
        ])
        rows = parse_csv(out)
        nonzero = [r for r in rows if float(r["probability"]) > 0]
        assert len(nonzero) == 1
        assert (nonzero[0]["alpha"], nonzero[0]["beta"]) == ("15", "0")
        assert float(nonzero[0]["probability"]) == pytest.approx(1.0, abs=1e-12)

    def test_tiebreak_scores_present(self, runner):
        out = run_ok(runner, [
            "score-dist", "--n", "9", "--pa", ".5", "--pb", ".5",
            "--server", "A", "--tiebreak", "2",
        ])
        rows = parse_csv(out)
        assert any(r["alpha"] == "10" and r["beta"] == "9" for r in rows)
        total = sum(float(r["probability"]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_json_round_trip(self, runner):
        out = run_ok(runner, [
            "score-dist", "--n", "5", "--pa", ".6", "--pb", ".5",
            "--server", "A", "--format", "json",
        ])
        payload = json.loads(out)
        assert payload["columns"] == ["alpha", "beta", "winner", "probability"]
        assert len(payload["rows"]) == 10
        total = sum(row[3] for row in payload["rows"])
        assert total == pytest.approx(1.0, abs=1e-9)


class TestDuration:
    def test_unconditional_moments_match_published(self, runner):
        out = run_ok(runner, [
            "duration", "--n", "15", "--pa", ".6", "--pb", ".5",
            "--server", "A", "--stat", "moments",
        ])
        rows = {r["conditioning"]: r for r in parse_csv(out)}
        assert float(rows["unconditional"]["mean"]) == pytest.approx(41.6, abs=0.05)
        assert float(rows["unconditional"]["sd"]) == pytest.approx(9.5, abs=0.05)

    def test_pmf_parity_and_truncation_column(self, runner):
        out = run_ok(runner, [
            "duration", "--n", "9", "--pa", ".6", "--pb", ".5", "--server", "A",
            "--stat", "pmf", "--winner", "A", "--epsilon", "1e-10",
        ])
        rows = parse_csv(out)
        assert "truncation_bound" in rows[0]
        by_d = {int(r["rallies"]): float(r["probability"]) for r in rows}
        # first server A and A wins: only even offsets from 9 + k carry mass
        for d, mass in by_d.items():
            if mass > 0:
                assert any((d - (9 + k)) % 2 == 0 for k in range(9))
        assert sum(by_d.values()) == pytest.approx(1.0, abs=1e-9)

    def test_score_conditional_moments(self, runner):
        out = run_ok(runner, [
            "duration", "--n", "15", "--pa", ".7", "--pb", ".5",
            "--server", "A", "--stat", "moments", "--score", "0,15",
        ])
        rows = parse_csv(out)
        assert float(rows[0]["mean"]) == pytest.approx(21.29, abs=0.01)

    def test_score_conditional_moments_near_q_one(self, runner):
        # taken from q alone, 1 - q cancels here and the mean was 9e-10 off
        pa, pb = 1e-9, 1e-7
        out = run_ok(runner, [
            "duration", "--n", "15", "--pa", str(pa), "--pb", str(pb),
            "--server", "A", "--stat", "moments", "--score", "15,0",
        ])
        row = parse_csv(out)[0]
        with mpmath.workdps(40):
            q = (1 - mpmath.mpf(pa)) * (1 - mpmath.mpf(pb))
            exact = {"mean": 15 * (1 + q) / (1 - q), "variance": 60 * q / (1 - q) ** 2}
        for col, value in exact.items():
            # the table prints 12 significant digits; round the reference alike
            assert float(row[col]) == pytest.approx(float(f"{float(value):.12g}"), rel=1e-12)

    def test_impossible_winner_prints_empty_cells(self, runner):
        # a server with p_a = 1 never loses its A-game: the winner=B row has
        # no moments, while the other rows do
        out = run_ok(runner, [
            "duration", "--n", "15", "--pa", "1", "--pb", ".5",
            "--server", "A", "--stat", "moments",
        ])
        assert out == (
            "conditioning,mean,sd,variance\n"
            "winner=A,15,0,0\n"
            "winner=B,,,\n"
            "unconditional,15,0,0\n"
        )

    def test_score_conditioning_needs_fixed_server(self, runner):
        result = runner.invoke(main, [
            "duration", "--n", "15", "--pa", ".6", "--pb", ".5", "--sa", ".5",
            "--stat", "pmf", "--score", "15,3",
        ])
        assert result.exit_code == 2

    def test_quantiles_ordered(self, runner):
        out = run_ok(runner, [
            "duration", "--n", "15", "--pa", ".6", "--pb", ".5", "--server", "A",
            "--stat", "quantiles", "--levels", "0.25,0.5,0.75",
            "--quantile-mode", "interpolated",
        ])
        values = [float(r["rallies"]) for r in parse_csv(out)]
        assert values == sorted(values)


class TestCompare:
    def test_grid_and_limit_rows(self, runner):
        out = run_ok(runner, ["compare", "--p-grid", "0.2:0.8:0.2"])
        rows = parse_csv(out)
        grid_rows = [r for r in rows if r["kind"] == "grid"]
        limit_rows = [r for r in rows if r["kind"] == "limit"]
        assert len(grid_rows) == 4
        assert len(limit_rows) == 2
        lim0 = next(r for r in limit_rows if float(r["p"]) == 0.0)
        lim1 = next(r for r in limit_rows if float(r["p"]) == 1.0)
        assert float(lim0["sideout_e"]) == pytest.approx(16.0)
        assert float(lim1["sideout_e"]) == pytest.approx(15.0)
        for r in grid_rows:
            assert float(r["rallypoint_sd"]) <= float(r["sideout_sd"])

    def test_columns_are_documented_order(self, runner):
        out = run_ok(runner, ["compare", "--p-grid", "0.5:0.5:0.1"])
        header = out.splitlines()[0].split(",")
        assert header[:5] == ["kind", "p", "sideout_win_a", "rallypoint_win_a", "win_ratio"]


class TestSimulateAndEstimate:
    def test_deterministic_output_for_seed(self, runner):
        args = [
            "simulate", "--n", "15", "--pa", ".6", "--pb", ".5", "--server", "A",
            "--replications", "2000", "--seed", "11",
        ]
        assert run_ok(runner, args) == run_ok(runner, args)

    def test_stream_changes_output(self, runner):
        base = [
            "simulate", "--n", "15", "--pa", ".6", "--pb", ".5", "--server", "A",
            "--replications", "2000", "--seed", "11",
        ]
        assert run_ok(runner, base) != run_ok(runner, base + ["--stream", "1"])

    def test_records_round_trip_and_estimate(self, runner, tmp_path):
        records = tmp_path / "games.jsonl"
        run_ok(runner, [
            "simulate", "--n", "15", "--pa", ".6", "--pb", ".5", "--sa", ".5",
            "--replications", "200", "--seed", "7", "--records-out", str(records),
        ])
        lines = records.read_text().strip().splitlines()
        assert len(lines) == 200
        first = json.loads(lines[0])
        assert set(first) == {"first_server", "alpha", "beta", "last_scorer", "duration"}
        out = run_ok(runner, ["estimate", "--input", str(records)])
        row = parse_csv(out)[0]
        assert float(row["p_a_hat"]) == pytest.approx(0.6, abs=0.03)
        assert float(row["p_b_hat"]) == pytest.approx(0.5, abs=0.03)
        assert row["converged"] == "true"

    def test_estimate_reports_bad_record_index(self, runner, tmp_path):
        records = tmp_path / "bad.jsonl"
        records.write_text(
            '{"first_server": "A", "alpha": 15, "beta": 3, "last_scorer": "A", "duration": 40}\n'
            '{"first_server": "A", "alpha": 15, "beta": 3, "last_scorer": "A", "duration": 41}\n'
        )
        result = runner.invoke(main, ["estimate", "--input", str(records)])
        assert result.exit_code == 3
        assert "record 1" in result.output

    @pytest.mark.parametrize("bad", ['{"first_server": "A", "alpha": null, "beta": 3, "last_scorer": "A"}', "[1, 2]"])
    def test_estimate_malformed_record_exits_3(self, runner, tmp_path, bad):
        records = tmp_path / "bad.jsonl"
        records.write_text(bad + "\n")
        result = runner.invoke(main, ["estimate", "--input", str(records)])
        assert result.exit_code == 3
        assert "record 0" in result.output


class TestMatchAndPlan:
    def test_match_values_match_library(self, runner):
        out = run_ok(runner, [
            "match", "--n", "15", "--pa", ".6", "--pb", ".5", "--server", "A",
            "--games-to-win", "2",
        ])
        row = parse_csv(out)[0]
        pr = RallyProbs(0.6, 0.5)
        cfg = GameConfig(n=15, s_a=1.0)
        expect = matchlevel.match_win_prob(pr, cfg, matchlevel.MatchConfig(2))
        assert float(row["match_win_a"]) == pytest.approx(expect, rel=1e-10)

    def test_match_win_b_does_not_cancel(self, runner):
        # A is a heavy favourite: 1 - match_win_a would lose B's digits
        out = run_ok(runner, [
            "match", "--n", "21", "--pa", ".7423", "--pb", ".3564", "-m", "3",
            "--server", "B", "--server-rule", "alternate",
        ])
        row = parse_csv(out)[0]
        mc = matchlevel.MatchConfig(3, matchlevel.ServerRule.ALTERNATE)
        expect = matchlevel.match_win_prob(RallyProbs(0.7423, 0.3564), GameConfig(n=21, s_a=0.0), mc, B)
        assert row["match_win_b"] == cell(expect) == "3.24067138364e-10"

    def test_plan_single_match_median_is_match_median(self, runner):
        out = run_ok(runner, [
            "plan", "--n", "15", "--pa", ".6", "--pb", ".5", "--server", "A",
            "--games-to-win", "2", "--matches", "1", "--quantile-levels", "0.5",
        ])
        row = parse_csv(out)[0]
        pr = RallyProbs(0.6, 0.5)
        cfg = GameConfig(n=15, s_a=1.0)
        pmf = matchlevel.match_duration_pmf(pr, cfg, matchlevel.MatchConfig(2), epsilon=1e-12)
        assert float(row["rallies"]) == duration.quantile(pmf, 0.5)

    def test_plan_scales_with_matches(self, runner):
        def median(matches):
            out = run_ok(runner, [
                "plan", "--n", "15", "--pa", ".6", "--pb", ".5", "--server", "A",
                "--games-to-win", "2", "--matches", str(matches),
                "--quantile-levels", "0.5",
            ])
            return float(parse_csv(out)[0]["rallies"])

        assert median(4) > 3 * median(1)


def cell(value):
    """A float as the CSV tables print it."""
    return f"{float(value):.12g}"


class TestRallyPoint:
    """The rally-point paths of the game-level commands, row by row against
    the engine functions they call."""

    PROBS = RallyProbs(0.6, 0.45)
    ARGS = ["--system", "rallypoint", "--n", "11", "--pa", ".6", "--pb", ".45"]

    @staticmethod
    def config(server):
        return GameConfig(n=11, system=ScoringSystem.RALLY_POINT, s_a=1.0 if server == "A" else 0.0)

    @pytest.mark.parametrize("server", ["A", "B"])
    def test_score_dist(self, runner, server):
        rows = parse_csv(run_ok(runner, ["score-dist", *self.ARGS, "--server", server]))
        dist = sideout.score_distribution(self.PROBS, self.config(server), server=Player(server))
        assert len(rows) == 22
        for r in rows:
            score = TerminalScore(int(r["alpha"]), int(r["beta"]), Player(r["winner"]))
            assert r["probability"] == cell(dist.entries[score])

    @pytest.mark.parametrize("server", ["A", "B"])
    @pytest.mark.parametrize("winner", [None, "A"])
    @pytest.mark.parametrize("stat", ["moments", "pmf", "quantiles"])
    def test_duration(self, runner, stat, winner, server):
        args = ["duration", *self.ARGS, "--server", server, "--stat", stat]
        rows = parse_csv(run_ok(runner, args + (["--winner", winner] if winner else [])))
        config, sv = self.config(server), Player(server)
        if stat == "moments":
            agg = duration.aggregate_moments(self.PROBS, config)
            expected = [agg.by_server_winner[(sv, A)], agg.by_server_winner[(sv, B)], agg.by_server[sv]]
            assert [r["conditioning"] for r in rows] == ["winner=A", "winner=B", "unconditional"]
            for r, m in zip(rows, expected):
                assert [r["mean"], r["sd"], r["variance"]] == [cell(m.mean), cell(m.sd), cell(m.variance)]
            return
        if winner is None:
            pmf = duration.duration_pmf_unconditional(self.PROBS, config, server=sv)
        else:
            pmf = duration.duration_pmf_winner(self.PROBS, config, Player(winner), server=sv)
        if stat == "pmf":
            assert [int(r["rallies"]) for r in rows] == list(pmf.offset + np.arange(len(pmf.masses)))
            assert [r["probability"] for r in rows] == [cell(m) for m in pmf.masses]
            assert {r["truncation_bound"] for r in rows} == {"0"}
        else:
            for r in rows:
                assert r["rallies"] == cell(duration.quantile(pmf, float(r["level"])))

    def test_match(self, runner):
        row = parse_csv(run_ok(runner, ["match", *self.ARGS, "--server", "A", "-m", "3"]))[0]
        mc = matchlevel.MatchConfig(3)
        win_a = matchlevel.match_win_prob(self.PROBS, self.config("A"), mc)
        moments = matchlevel.match_duration_pmf(self.PROBS, self.config("A"), mc).moments()
        assert [row["match_win_a"], row["e_rallies"], row["sd_rallies"]] == [
            cell(win_a), cell(moments.mean), cell(moments.sd)
        ]
        assert row["truncation_bound"] == "0"

    def test_plan(self, runner):
        rows = parse_csv(run_ok(runner, ["plan", *self.ARGS, "--server", "A", "-m", "2", "--matches", "4"]))
        single = matchlevel.match_duration_pmf(self.PROBS, self.config("A"), matchlevel.MatchConfig(2))
        masses = single.masses
        for _ in range(3):
            masses = np.convolve(masses, single.masses)
        total = duration.DurationPMF(4 * single.offset, masses, 0.0)
        for r in rows:
            assert r["rallies"] == cell(duration.quantile(total, float(r["level"])))

    def test_degenerate_pmf_stops_at_last_nonzero_row(self, runner):
        # a certain server wins 15-0: one row, as under side-out scoring
        out = run_ok(runner, [
            "duration", "--system", "rallypoint", "--n", "15", "--pa", "1", "--pb", "0",
            "--server", "A", "--stat", "pmf",
        ])
        assert out == "rallies,probability,truncation_bound\n15,1,0\n"


class TestExitCodes:
    def test_usage_error_is_2(self, runner):
        result = runner.invoke(main, ["score-dist", "--n", "15", "--pa", ".5"])
        assert result.exit_code == 2

    def test_domain_error_is_3(self, runner):
        result = runner.invoke(main, [
            "score-dist", "--n", "15", "--pa", "1.2", "--pb", ".5", "--server", "A",
        ])
        assert result.exit_code == 3
        assert "error" in result.output

    @pytest.mark.parametrize(
        "flags",
        [["-j", "0", "--seed", "1"], ["-j", "3", "--seed", "-1"], ["-j", "3", "--seed", "1", "--stream", "-1"]],
    )
    def test_bad_simulator_inputs_are_3(self, runner, flags):
        result = runner.invoke(main, ["simulate", "--n", "5", "--pa", ".5", "--pb", ".5", *flags])
        assert result.exit_code == 3
        assert result.output.startswith("error: ") and result.output.count("\n") == 1, result.output

    def test_io_error_is_4(self, runner):
        result = runner.invoke(main, ["estimate", "--input", "/nonexistent/path.jsonl"])
        assert result.exit_code == 4

    def test_out_file_written(self, runner, tmp_path):
        target = tmp_path / "table.csv"
        run_ok(runner, [
            "score-dist", "--n", "3", "--pa", ".6", "--pb", ".5", "--server", "A",
            "--out", str(target),
        ])
        assert target.read_text().startswith("alpha,beta,winner,probability")
