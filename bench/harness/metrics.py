"""Metric names and units, and the per-layer metrics computed from spans.

The names here must match BENCHMARK.json; a test checks that they do.
"""

from __future__ import annotations

from dataclasses import dataclass

from .stats import median
from .tracing import Span, self_times

# Reported by every workload with tracing off, each timed operation scaled
# by the host speed sampled while it ran (harness/sampler.py).  What an
# "operation" and a "unit of work" are differs per workload; see
# bench/README.md.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_p50_s": ("s", "lower"),
    "work_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def gated_end_to_end(setup_s, op_p50_s, work_per_s, peak_rss_mb) -> dict[str, float]:
    """The gated metrics, in the order of BENCHMARK.json; the timings are
    already scaled to the reference host speed."""
    return {"setup_s": setup_s, "op_p50_s": op_p50_s, "work_per_s": work_per_s, "peak_rss_mb": peak_rss_mb}


CLI_COMMANDS = ("score-dist", "duration", "match", "plan", "simulate", "estimate", "compare")

# Span names of the public functions the benchmark (or the CLI, under
# bench/traced_cli.py) calls; estimate.fit gets one name per mode.
TRACED_FUNCTIONS = (
    "core.validate",
    "sideout.score_distribution",
    "rallypoint.score_distribution",
    "duration.aggregate_moments",
    "rallypoint.aggregate_moments",
    "asymptotics.limit_moments",
    "simulate.sample_games",
    "simulate.run_experiment",
    "estimate.records_from_sample",
    "estimate.fit-score",
    "estimate.fit-score-duration",
    "duration.duration_pmf_unconditional",
    "duration.duration_pmf_winner",
    "duration.quantile",
    "matchlevel.match_duration_pmf",
    "matchlevel.match_win_prob",
)


def _pmf_notes(pmf) -> dict:
    return {"bins": len(pmf.masses), "truncation_bound": pmf.truncation_bound}


def _fit_notes(result) -> dict:
    return {"converged": bool(result.converged and not result.boundary)}


NOTES = {
    "simulate.sample_games": lambda sample: {"rallies": int(sample.duration.sum())},
    "estimate.fit-score": _fit_notes,
    "estimate.fit-score-duration": _fit_notes,
    "duration.duration_pmf_unconditional": _pmf_notes,
    "duration.duration_pmf_winner": _pmf_notes,
    "matchlevel.match_duration_pmf": _pmf_notes,
}

_EXTRA = {
    "simulate.sample_games.rallies_per_s": ("1/s", "higher"),
    "estimate.fit.converged_ratio": ("ratio", "higher"),
    "duration.duration_pmf_unconditional.bins": ("count", "lower"),
    "duration.duration_pmf_unconditional.truncation_bound": ("prob", "lower"),
    "duration.duration_pmf_winner.bins": ("count", "lower"),
    "duration.duration_pmf_winner.truncation_bound": ("prob", "lower"),
    "matchlevel.match_duration_pmf.bins": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def per_layer_spec() -> dict[str, tuple[str, str]]:
    spec = {
        "import.wall_s": ("s", "lower"),
        "import.module_s": ("s", "lower"),
        "import.scipy_loaded": ("bool", "lower"),
    }
    for cmd in CLI_COMMANDS:
        spec[f"cli.{cmd}.wall_s"] = ("s", "lower")
        spec[f"cli.{cmd}.self_s"] = ("s", "lower")
    for fn in TRACED_FUNCTIONS:
        spec[f"{fn}.calls"] = ("count", "higher")
        spec[f"{fn}.busy_s"] = ("s", "lower")
        spec[f"{fn}.fail"] = ("count", "lower")
    spec.update(_EXTRA)
    return spec


@dataclass
class ImportProbe:
    """One fresh interpreter that imports rallystats.cli."""

    wall_s: float  # process start to exit, timed by the benchmark
    module_s: float  # the import statement alone, timed inside the process
    scipy_loaded: bool  # scipy.optimize in sys.modules after the import
    scaled_s: float  # wall_s at the reference host speed


def per_layer(spans: list[Span], probes: list[ImportProbe], overhead_ratio: float) -> dict[str, float]:
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def attr_max(name, key):
        return float(max((sp.attrs.get(key, 0) for sp in by_name.get(name, [])), default=0))

    out = {
        "import.wall_s": median([p.wall_s for p in probes]),
        "import.module_s": median([p.module_s for p in probes]),
        "import.scipy_loaded": float(any(p.scipy_loaded for p in probes)),
    }
    for cmd in CLI_COMMANDS:
        group = by_name.get(f"cli.{cmd}", [])
        out[f"cli.{cmd}.wall_s"] = median([sp.duration for sp in group]) if group else 0.0
        out[f"cli.{cmd}.self_s"] = median([selfs[sp.id] for sp in group]) if group else 0.0
    for fn in TRACED_FUNCTIONS:
        group = by_name.get(fn, [])
        out[f"{fn}.calls"] = float(len(group))
        out[f"{fn}.busy_s"] = float(sum(sp.duration for sp in group))
        out[f"{fn}.fail"] = float(sum(sp.failed for sp in group))

    games = by_name.get("simulate.sample_games", [])
    busy = sum(sp.duration for sp in games)
    out["simulate.sample_games.rallies_per_s"] = (
        sum(sp.attrs.get("rallies", 0) for sp in games) / busy if busy > 0 else 0.0
    )
    fits = [sp for sp in spans if sp.name.startswith("estimate.fit-") and not sp.failed]
    out["estimate.fit.converged_ratio"] = (
        sum(sp.attrs.get("converged", False) for sp in fits) / len(fits) if fits else 0.0
    )
    for name in ("duration.duration_pmf_unconditional", "duration.duration_pmf_winner"):
        out[f"{name}.bins"] = attr_max(name, "bins")
        out[f"{name}.truncation_bound"] = attr_max(name, "truncation_bound")
    out["matchlevel.match_duration_pmf.bins"] = attr_max("matchlevel.match_duration_pmf", "bins")
    out["trace.overhead_ratio"] = overhead_ratio
    return out
