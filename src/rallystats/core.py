"""Shared domain types and parameter validation.

Everything here is an immutable value or a pure function, so the whole
package is safe to use from concurrent callers.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

# The most points a side of a tally may hold: the coefficient table of m
# points is (m + 1)^2 doubles, 32 MiB at this bound, and the score
# distribution of a game to 2000 already peaks near 400 MB
_MAX_POINTS = 2048


class DomainError(ValueError):
    """A parameter violates a model invariant (probability range, q=1, ...)."""


class ConfigError(ValueError):
    """A game/match configuration is inconsistent with the requested operation."""


class ConditioningError(ArithmeticError):
    """The conditioning event has numerically vanished (probability underflow)."""


class InfeasibleData(ValueError):
    """An observed record has probability zero for every parameter value."""


class NonConvergence(RuntimeError):
    """A fit did not converge within its iteration cap."""


def expect(value, kind: type, name: str, error: type[ValueError] = DomainError):
    """`value`, if it is an instance of `kind`; else raise `error`.  A
    string is not read as the enum member of that value, nor a bool as an
    integer."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise error(f"{name}={value!r} must be {'an integer' if kind is numbers.Integral else 'a ' + kind.__name__}")
    return value


def expect_count(value, name: str, least: int) -> None:
    """Raise ConfigError unless `value` is an integer (not a bool) of at
    least `least`."""
    expect(value, numbers.Integral, name, ConfigError)
    if value < least:
        raise ConfigError(f"{name}={value} must be >= {least}")


def expect_points(m: int) -> None:
    """Raise DomainError if a side of a tally holds more than `_MAX_POINTS`
    points, the most the exact engines' coefficient table holds."""
    if m > _MAX_POINTS:
        raise DomainError(f"a tally of {m} points is more than the {_MAX_POINTS} the coefficient table holds")


class Player(enum.Enum):
    A = "A"
    B = "B"

    @property
    def other(self) -> "Player":
        return Player.B if self is Player.A else Player.A

    def __str__(self) -> str:
        return self.value


class ScoringSystem(enum.Enum):
    SIDE_OUT = "sideout"
    RALLY_POINT = "rallypoint"


class ServerRule(enum.Enum):
    """Who serves first in each game of a match after the first."""

    WINNER_SERVES_NEXT = "winner-serves-next"
    ALTERNATE = "alternate"
    COIN_FLIP_EACH = "coin-flip-each"


@dataclass(frozen=True)
class RallyProbs:
    """Rally-winning probabilities on serve for players A and B.

    The complements and the exchange probability are derived on access,
    never stored, so they cannot go stale.
    """

    p_a: float
    p_b: float

    def __post_init__(self):
        if not (0.0 <= expect(self.p_a, numbers.Real, "p_a") <= 1.0):
            raise DomainError(f"p_a={self.p_a} outside [0, 1]")
        if not (0.0 <= expect(self.p_b, numbers.Real, "p_b") <= 1.0):
            raise DomainError(f"p_b={self.p_b} outside [0, 1]")

    @property
    def q_a(self) -> float:
        return 1.0 - self.p_a

    @property
    def q_b(self) -> float:
        return 1.0 - self.p_b

    @property
    def q(self) -> float:
        """Probability of an exchange: serve gained and immediately lost."""
        return self.q_a * self.q_b

    @staticmethod
    def no_server(p: float) -> "RallyProbs":
        """Sub-model in which serving confers no advantage: p_a = p = 1 - p_b."""
        return RallyProbs(p, 1.0 - p)


@dataclass(frozen=True)
class GameConfig:
    """Target score, scoring system, optional tie-break extension and
    distribution of the first server (s_a = P[first server is A])."""

    n: int
    system: ScoringSystem = ScoringSystem.SIDE_OUT
    tiebreak: int | None = None
    s_a: float = 1.0

    def __post_init__(self):
        expect_count(self.n, "target score n", 1)
        expect(self.system, ScoringSystem, "system", ConfigError)
        if self.tiebreak is not None:
            expect_count(self.tiebreak, "tie-break extension l", 2)
            if self.n < 2:
                raise ConfigError("tie-break requires n >= 2: a game to 1 has no n-1 all to extend")
            if self.system is not ScoringSystem.SIDE_OUT:
                raise ConfigError("tie-break extension only applies to side-out scoring")
        if not (0.0 <= expect(self.s_a, numbers.Real, "s_a", ConfigError) <= 1.0):
            raise ConfigError(f"s_a={self.s_a} outside [0, 1]")

    @property
    def s_b(self) -> float:
        return 1.0 - self.s_a


@dataclass(frozen=True)
class TerminalScore:
    """Final point tally (alpha for A, beta for B) plus who scored last."""

    alpha: int
    beta: int
    last_scorer: Player

    def __post_init__(self):
        if not (isinstance(self.alpha, numbers.Integral) and isinstance(self.beta, numbers.Integral)):
            raise DomainError(f"non-integer score ({self.alpha!r}, {self.beta!r})")
        expect(self.last_scorer, Player, "last_scorer")
        if self.alpha < 0 or self.beta < 0:
            raise DomainError(f"negative score ({self.alpha}, {self.beta})")
        if self.last_scorer is Player.A and self.alpha < 1:
            raise DomainError("last scorer A requires alpha >= 1")
        if self.last_scorer is Player.B and self.beta < 1:
            raise DomainError("last scorer B requires beta >= 1")

    @property
    def winner(self) -> Player:
        """In a completed game, the player scoring the last point wins it."""
        return self.last_scorer

    def points(self, player: Player) -> int:
        return self.alpha if player is Player.A else self.beta


def validate(probs: RallyProbs, config: GameConfig) -> None:
    """Check the invariants the engines rely on beyond those `RallyProbs`
    and `GameConfig` enforce on construction; raise DomainError otherwise.

    It requires `probs` to be a `RallyProbs` with q < 1: with q = 1 no
    rally ever scores and the game never terminates.  It requires `config`
    to be a `GameConfig` whose n and tie-break l pass `expect_points`, so
    the exact engines and the simulator accept the same games.  Public
    engine functions call this once, never per terminal score.
    """
    expect(probs, RallyProbs, "probs")
    expect(config, GameConfig, "config")
    if probs.q >= 1.0:
        raise DomainError("q=1, game never terminates (p_a=0 and p_b=0)")
    expect_points(max(config.n, config.tiebreak or 0))
