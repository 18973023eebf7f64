"""`python -m multlat.cli` with the speed sampler, and the tracer if asked.

    python perfbench/cli_shim.py OUT.json T_SPAWN TRACE ARGS...

The sampler (speed.py) starts before the package is imported, so the CLI
samples its own speed from start-up on. T_SPAWN is the parent's monotonic
clock just before it started this interpreter; the time from then until
`multlat.cli` is imported is the invocation's start-up time. With TRACE 1
the span tracer is installed before the command runs. After the command
finishes, the start-up time, the scale over this process's life and the
span aggregate (if traced) go to OUT.json, and the command's exit code is
returned unchanged.
"""

import sys
import time

from speed import SpeedSampler

sampler = SpeedSampler().start()
t_start = time.perf_counter()

import multlat.cli  # noqa: E402

startup_s = time.monotonic() - float(sys.argv[2])

import json  # noqa: E402


def main() -> int:
    tracer = None
    if sys.argv[3] == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        return multlat.cli.main(sys.argv[4:])
    finally:
        sys.stdout.flush()
        sampler.stop()
        out = {"startup_s": startup_s,
               "scale": sampler.scale(t_start, time.perf_counter())}
        if tracer is not None:
            out["trace"] = tracer.aggregate()
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump(out, fh)


if __name__ == "__main__":
    sys.exit(main())
