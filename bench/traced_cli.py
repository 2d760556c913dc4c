"""Run the rallystats CLI with a span around each call it makes into the
other package modules, then write the spans as JSON.

Usage: python bench/traced_cli.py SPANS_JSON <rallystats arguments>

The spans are recorded from outside the package, by replacing module
attributes after import; nothing in src/ is changed.
"""

import importlib
import sys

from harness.metrics import NOTES, TRACED_FUNCTIONS
from harness.tracing import Tracer


def _fit_name(args, kwargs):
    from rallystats.estimate import FitMode

    mode = args[1] if len(args) > 1 else kwargs.get("mode", FitMode.SCORE_DURATION)
    return f"estimate.fit-{mode.value}"


def _patch(tracer: Tracer) -> None:
    for name in TRACED_FUNCTIONS:
        module, func = name.split(".")
        if func.startswith("fit-"):
            continue
        mod = importlib.import_module(f"rallystats.{module}")
        setattr(mod, func, tracer.wrap(lambda args, kwargs, name=name: name, getattr(mod, func)))
    estimate = importlib.import_module("rallystats.estimate")
    estimate.fit = tracer.wrap(_fit_name, estimate.fit)


def main() -> None:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(NOTES)
    try:
        with tracer.span("import.module"):
            from rallystats import cli
        _patch(tracer)
        cli.main.main(args=argv, prog_name="rallystats")
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    main()
