"""Run the rallystats CLI with the host-speed sampler on, then write the
samples as JSON.

Usage: python bench/sampled_cli.py SAMPLES_JSON [rallystats arguments]

With no rallystats arguments it only imports rallystats.cli and prints the
seconds the import took and whether scipy.optimize was loaded by it.
"""

import json
import sys
import time

from harness.sampler import Sampler


def main() -> None:
    samples_path, argv = sys.argv[1], sys.argv[2:]
    sampler = Sampler()
    sampler.start()
    try:
        t0 = time.perf_counter()
        from rallystats import cli

        if not argv:
            print(time.perf_counter() - t0, "scipy.optimize" in sys.modules)
            return
        cli.main.main(args=argv, prog_name="rallystats")
    finally:
        sampler.stop()
        with open(samples_path, "w", encoding="utf-8") as fh:
            json.dump(sampler.record(), fh)


if __name__ == "__main__":
    main()
