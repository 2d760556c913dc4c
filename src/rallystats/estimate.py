"""Likelihood evaluation and maximum-likelihood estimation of (p_a, p_b)
from observed side-out games.

Two likelihoods are offered: score-only (the final tally of each game) and
score-plus-duration (tally times the conditional probability of the
observed rally count).  The joint score/duration probability collapses to
p_a^alpha p_b^beta q_a^delta q^m H(m) with a parameter-free combinatorial
count H(m), so adding durations removes the awkward q-polynomial of the
score-only likelihood.  Estimation is numeric either way: bounded L-BFGS-B
from a small multistart grid, which is deterministic given the data.

Duration information enters the conditional duration law only through q,
so in the two-parameter server model the duration term mostly sharpens q;
identification of the pair still rests on the score component.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.optimize import minimize

from .core import (
    DomainError,
    GammaBounds,
    InfeasibleData,
    NonConvergence,
    Player,
    RallyProbs,
    TerminalScore,
)
from .sideout import game_win_prob

_BOUND_DELTA = 1e-9
_PARAM_TOL = 1e-7
_EVAL_BUDGET = 10_000
_STARTS_1D = (0.25, 0.5, 0.75)


class FitMode(enum.Enum):
    SCORE_ONLY = "score"
    SCORE_DURATION = "score-duration"


class FitModel(enum.Enum):
    SERVER = "server"
    NO_SERVER = "no-server"


@dataclass(frozen=True)
class GameRecord:
    """One observed game: who served first, the final tally, and
    optionally how many rallies it took."""

    first_server: Player
    score: TerminalScore
    duration: int | None = None

    def to_dict(self) -> dict:
        out = {
            "first_server": self.first_server.value,
            "alpha": self.score.alpha,
            "beta": self.score.beta,
            "last_scorer": self.score.last_scorer.value,
        }
        if self.duration is not None:
            out["duration"] = self.duration
        return out

    @staticmethod
    def from_dict(d: dict) -> "GameRecord":
        return GameRecord(
            first_server=Player(d["first_server"]),
            score=TerminalScore(int(d["alpha"]), int(d["beta"]), Player(d["last_scorer"])),
            duration=int(d["duration"]) if d.get("duration") is not None else None,
        )


def records_to_json_lines(records) -> str:
    return "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in records)


def records_from_json_lines(lines) -> list[GameRecord]:
    out = []
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(GameRecord.from_dict(json.loads(line)))
        except (KeyError, ValueError) as exc:
            raise InfeasibleData(f"record {i}: cannot parse ({exc})") from exc
    return out


def records_from_sample(sample) -> list[GameRecord]:
    """Convert a simulate.GameSample batch into GameRecords."""
    out = []
    for server_a, alpha, beta, winner_a, dur in zip(
        sample.first_server_a, sample.alpha, sample.beta, sample.winner_a, sample.duration
    ):
        winner = Player.A if winner_a else Player.B
        out.append(
            GameRecord(
                first_server=Player.A if server_a else Player.B,
                score=TerminalScore(int(alpha), int(beta), winner),
                duration=int(dur),
            )
        )
    return out


def _comb_conv(m: int, k: int) -> int:
    # binomial with the binom(-1,-1) := 1 convention, exact integers
    if m == -1 and k == -1:
        return 1
    if k < 0 or m < 0 or k > m:
        return 0
    return comb(m, k)


def _h_count(a: int, b: int, last: Player, m: int) -> int:
    """Number-weight of trajectories with m extra rally pairs beyond the
    a+b scored points: convolution of the exchange and interruption
    placement counts."""
    g = GammaBounds.for_score(a, b)
    total = 0
    if last is Player.A:
        lo = max(0, m - g.gamma1)
        for l in range(lo, m + 1):
            total += _comb_conv(a + b + l - 1, l) * _comb_conv(a, m - l) * _comb_conv(b - 1, m - l - 1)
    else:
        lo = max(0, m - g.gamma2)
        for l in range(lo, m + 1):
            total += _comb_conv(a + b + l - 1, l) * _comb_conv(a, m - l) * _comb_conv(b - 1, m - l)
    return total


@dataclass(frozen=True)
class _Compiled:
    """Per-record constants, in A-game coordinates (swap = server was B)."""

    swap: bool
    a: int
    b: int
    delta: int  # 1 when the receiving side scored last
    q_coeffs: np.ndarray  # score-only: coefficients of q^(k) in the r-sum
    m: int | None  # extra rally pairs implied by the observed duration
    log_h: float | None


def _compile_record(index: int, rec: GameRecord, need_duration: bool) -> _Compiled:
    swap = rec.first_server is Player.B
    if not swap:
        a, b, last = rec.score.alpha, rec.score.beta, rec.score.last_scorer
    else:
        a, b, last = rec.score.beta, rec.score.alpha, rec.score.last_scorer.other
    win_pts = a if last is Player.A else b
    lose_pts = b if last is Player.A else a
    if win_pts <= lose_pts:
        raise InfeasibleData(
            f"record {index}: last scorer of a completed game must hold the higher tally "
            f"({rec.score.alpha}, {rec.score.beta})"
        )
    g = GammaBounds.for_score(a, b)
    delta = 1 if last is Player.B else 0
    if last is Player.A:
        coeffs = np.array(
            [float(_comb_conv(a, r) * _comb_conv(b - 1, r - 1)) for r in range(g.gamma0, g.gamma1 + 1)]
        )
        degree0 = g.gamma0
    else:
        coeffs = np.array(
            [float(_comb_conv(a, r - 1) * _comb_conv(b - 1, r - 1)) for r in range(1, g.gamma2 + 2)]
        )
        degree0 = 0
    poly = np.zeros(degree0 + len(coeffs))
    poly[degree0:] = coeffs
    m = None
    log_h = None
    if need_duration:
        if rec.duration is None:
            raise InfeasibleData(f"record {index}: duration required for score-and-duration fit")
        span = rec.duration - a - b - delta
        if span < 0 or span % 2 != 0:
            raise InfeasibleData(
                f"record {index}: duration {rec.duration} infeasible for tally "
                f"({rec.score.alpha}, {rec.score.beta}) with first server "
                f"{rec.first_server.value} (wrong parity or too short)"
            )
        m = span // 2
        h = _h_count(a, b, last, m)
        if h == 0:
            raise InfeasibleData(
                f"record {index}: duration {rec.duration} carries zero probability"
            )
        log_h = math.log(h)
    return _Compiled(swap, a, b, delta, poly, m, log_h)


class _Likelihood:
    """Vectorized log-likelihood over a compiled record batch."""

    def __init__(self, records, mode: FitMode):
        if not records:
            raise InfeasibleData("no records")
        need_dur = mode is FitMode.SCORE_DURATION
        comp = [_compile_record(i, r, need_dur) for i, r in enumerate(records)]
        self.mode = mode
        # exponent totals per swap group: ps = server-side prob, pr = receiver
        self.e_ps = [0.0, 0.0]
        self.e_pr = [0.0, 0.0]
        self.e_qs = [0.0, 0.0]
        self.m_total = 0.0
        self.log_h_total = 0.0
        self.points_total = 0.0
        polys = []
        for c in comp:
            grp = 1 if c.swap else 0
            self.e_ps[grp] += c.a
            self.e_pr[grp] += c.b
            self.e_qs[grp] += c.delta
            if need_dur:
                self.m_total += c.m
                self.log_h_total += c.log_h
            else:
                self.points_total += c.a + c.b
                polys.append(c.q_coeffs)
        if not need_dur:
            width = max(len(p) for p in polys)
            self.poly = np.zeros((len(polys), width))
            for i, p in enumerate(polys):
                self.poly[i, : len(p)] = p
        else:
            self.poly = None

    def __call__(self, p_a: float, p_b: float) -> float:
        if not (0.0 < p_a < 1.0 and 0.0 < p_b < 1.0):
            return -np.inf
        q = (1.0 - p_a) * (1.0 - p_b)
        lpa, lpb = math.log(p_a), math.log(p_b)
        lqa, lqb = math.log(1.0 - p_a), math.log(1.0 - p_b)
        out = (
            self.e_ps[0] * lpa
            + self.e_pr[0] * lpb
            + self.e_qs[0] * lqa
            + self.e_ps[1] * lpb
            + self.e_pr[1] * lpa
            + self.e_qs[1] * lqb
        )
        if self.mode is FitMode.SCORE_DURATION:
            return out + self.m_total * math.log(q) + self.log_h_total
        out -= self.points_total * math.log(1.0 - q)
        qpow = q ** np.arange(self.poly.shape[1])
        sums = self.poly @ qpow
        if np.any(sums <= 0.0):
            return -np.inf
        return out + float(np.log(sums).sum())


def loglik_score(records, p_a: float, p_b: float) -> float:
    """Log-likelihood of the final tallies alone."""
    return _Likelihood(records, FitMode.SCORE_ONLY)(p_a, p_b)


def loglik_score_duration(records, p_a: float, p_b: float) -> float:
    """Joint log-likelihood of tallies and observed rally counts."""
    return _Likelihood(records, FitMode.SCORE_DURATION)(p_a, p_b)


@dataclass(frozen=True)
class FitResult:
    p_a: float
    p_b: float
    log_likelihood: float
    converged: bool
    boundary: bool
    mode: FitMode
    model: FitModel

    @property
    def p(self) -> float:
        """No-server parameter (meaningful when model is NO_SERVER)."""
        return self.p_a


def fit(records, mode: FitMode = FitMode.SCORE_DURATION, model: FitModel = FitModel.SERVER) -> FitResult:
    """Maximize the selected log-likelihood over [delta, 1-delta]^2 (or the
    no-server diagonal p_a = 1 - p_b), multistarted to dodge local maxima.
    Deterministic given the data."""
    lik = _Likelihood(records, mode)
    lo, hi = _BOUND_DELTA, 1.0 - _BOUND_DELTA
    if model is FitModel.SERVER:
        starts = [np.array([x, y]) for x in _STARTS_1D for y in _STARTS_1D]
        bounds = [(lo, hi), (lo, hi)]

        def nll(x):
            return -lik(x[0], x[1])

    else:
        starts = [np.array([x]) for x in _STARTS_1D]
        bounds = [(lo, hi)]

        def nll(x):
            return -lik(x[0], 1.0 - x[0])

    budget = _EVAL_BUDGET // len(starts)
    best = None
    best_converged = False
    any_converged = False
    for x0 in starts:
        res = minimize(
            nll,
            x0,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxfun": budget, "ftol": 1e-13, "gtol": 1e-9},
        )
        any_converged = any_converged or bool(res.success)
        if best is None or res.fun < best.fun:
            best = res
            best_converged = bool(res.success)
    if not any_converged:
        raise NonConvergence(f"no start converged within {_EVAL_BUDGET} evaluations")
    x = best.x
    if model is FitModel.SERVER:
        p_a, p_b = float(x[0]), float(x[1])
    else:
        p_a = float(x[0])
        p_b = 1.0 - p_a
    boundary = any(min(v - lo, hi - v) <= _PARAM_TOL for v in x)
    return FitResult(
        p_a=p_a,
        p_b=p_b,
        log_likelihood=-float(best.fun),
        converged=best_converged,
        boundary=boundary,
        mode=mode,
        model=model,
    )


class RallyWinProbMLE:
    """Estimator with the familiar fit/get_params surface.

    Parameters are the fit mode and model; after `fit(records)` the
    estimates are available as `p_a_`, `p_b_` and `result_`.
    """

    def __init__(self, mode: FitMode = FitMode.SCORE_DURATION, model: FitModel = FitModel.SERVER):
        self.mode = mode
        self.model = model

    def get_params(self, deep: bool = True) -> dict:
        return {"mode": self.mode, "model": self.model}

    def set_params(self, **params) -> "RallyWinProbMLE":
        for key, value in params.items():
            if key not in ("mode", "model"):
                raise ValueError(f"unknown parameter {key!r}")
            setattr(self, key, value)
        return self

    def fit(self, records, y=None) -> "RallyWinProbMLE":
        result = fit(records, self.mode, self.model)
        self.result_ = result
        self.p_a_ = result.p_a
        self.p_b_ = result.p_b
        self.log_likelihood_ = result.log_likelihood
        return self

    def predict_win_prob(self, config, server: Player = Player.A, winner: Player = Player.A) -> float:
        """Game-winning probability at the fitted parameters, under
        `config.system`."""
        if not hasattr(self, "result_"):
            raise DomainError("estimator is not fitted")
        return game_win_prob(winner, server, RallyProbs(self.p_a_, self.p_b_), config)
