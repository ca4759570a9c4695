"""Child process of the benchmark: one pass of one workload, or one set-up.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``):

    python3 bench/worker.py setup
    python3 bench/worker.py compute --t0 T [--trace FILE]
    python3 bench/worker.py factor --t0 T [--trace FILE] < ops.json
    python3 bench/worker.py cli --t0 T --trace FILE -- <multicover arguments>

``--t0`` is the parent's ``perf_counter`` reading just before it spawned
this process; ``perf_counter`` is CLOCK_MONOTONIC on Linux, shared by all
processes, so ``ready - t0`` is the time from spawn to a usable library.
With ``--trace`` the layers are wrapped by ``spans.install`` before the
public entry is called, and the spans are written to FILE at exit.
``compute`` and ``factor`` print one JSON object on stdout; ``cli`` leaves
stdout to the command it runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from time import perf_counter

COMPUTE_DEGREES = tuple(range(2, 11))


def _tracer(path):
    if not path:
        return None
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    return tracer


def _setup(args) -> int:
    import multicover
    from multicover.cli import load_reference_table

    rows = load_reference_table().rows
    print(json.dumps({"module": multicover.__file__, "table_degrees": sorted(rows)}))
    return 0


def _compute(args) -> int:
    from multicover import localize

    tracer = _tracer(args.trace)
    ready = perf_counter()
    ops = []
    for d in COMPUTE_DEGREES:
        start = perf_counter()
        value = localize.multiple_cover_invariant(d)
        ops.append([d, perf_counter() - start, value.numerator, value.denominator])
    if tracer:
        tracer.dump(args.trace)
    print(json.dumps({"start_s": ready - args.t0, "ops": ops}))
    return 0


def _factor(args) -> int:
    from multicover import exact

    tracer = _tracer(args.trace)
    ready = perf_counter()
    results = []
    for label, num, den in json.load(sys.stdin):
        start = perf_counter()
        text = exact.format_factored(Fraction(num, den))
        back = exact.parse_factored(text)
        results.append(
            [label, perf_counter() - start, text, back.numerator, back.denominator]
        )
    if tracer:
        tracer.dump(args.trace)
    print(json.dumps({"start_s": ready - args.t0, "ops": results}))
    return 0


def _cli(args) -> int:
    from multicover import cli

    tracer = _tracer(args.trace)
    main_start = perf_counter()
    code = cli.main(args.argv)
    sys.stdout.flush()
    dump_start = perf_counter()
    if tracer:
        tracer.dump(args.trace)
    # timings go to stderr, after everything the command printed there
    timings = {"start_s": main_start - args.t0, "dump_s": perf_counter() - dump_start}
    print("bench:" + json.dumps(timings), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup")
    for mode in ("compute", "factor", "cli"):
        p = sub.add_parser(mode)
        p.add_argument("--t0", type=float, required=True)
        p.add_argument("--trace", default=None)
        if mode == "cli":
            p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    handler = {"setup": _setup, "compute": _compute, "factor": _factor, "cli": _cli}
    return handler[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
