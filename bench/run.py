"""Benchmark for the multicover engine and command line.

Run from the root of a checkout:

    python3 bench/run.py --workload compute --seed 1 --seconds 35 --trace 0

Workloads (see README.md in this directory for why each was chosen):

* ``compute``: ``multiple_cover_invariant(d)`` for d = 2..10, each pass in a
  fresh interpreter so every call is cold.
* ``factor``: ``format_factored`` then ``parse_factored`` on the invariants
  for d = 2..13 and on a seeded batch of random rationals of known
  factorization.
* ``cli``: the commands a user runs, each in a fresh process.

One client, closed loop: passes over a workload's op list run back to back,
one process at a time, until ``--seconds`` is used up, so a slow period on
the host hits every op alike.  Each op's times are aggregated over the
passes with an interquartile mean, and the metrics are built from those.
Every output is checked; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 1``
alternates untraced and traced passes and reports per-layer metrics
instead.  ``--self-check`` corrupts one expected value, so the run must
report a failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import spans  # noqa: E402
from worker import COMPUTE_DEGREES  # noqa: E402

WORKER = os.path.join(BENCH_DIR, "worker.py")
FROZEN = os.path.join(BENCH_DIR, "data", "frozen.txt")
TABLE = os.path.join("src", "multicover", "data", "reference_table.txt")
OUT_DIR = ".bench_out"

SETUPS_PER_PASS = 3
CHILD_TIMEOUT_S = 120.0

FACTOR_DEGREES = tuple(range(2, 14))
TABLE_DEGREES = set(range(2, 10))
RANDOM_COUNT = 600
BREAKDOWN_DEGREE = 5
BREAKDOWN_RECORDS = 1369  # 37 chains per side at d = 5

CLI_OPS = (
    ("verify", ("verify",)),
    ("compute 10 --factored", ("compute", "10", "--factored")),
    ("compute 5 --breakdown", ("compute", "5", "--breakdown")),
    ("compute 2", ("compute", "2")),
    ("compute 1", ("compute", "1")),
)

GROWTH_DEGREES = (8, 9, 10)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "fixedpoints.busy_s": "s",
    "fixedpoints.calls": "count",
    "fixedpoints.chains": "count",
    "fixedpoints.candidates": "count",
    "fixedpoints.kept_ratio": "ratio",
    "contributions.busy_s": "s",
    "contributions.calls": "count",
    "contributions.distinct_args": "count",
    "contributions.reuse_x": "x",
    "localize.busy_s": "s",
    "localize.chain_factors_calls": "count",
    "localize.configurations": "count",
    "exact.busy_s": "s",
    "exact.factorize_busy_s": "s",
    "exact.factorize_calls": "count",
    "exact.is_prime_calls": "count",
    "exact.format_busy_s": "s",
    "exact.parse_busy_s": "s",
    "exact.max_factor_bits": "bits",
    "cli.start_s": "s",
    "cli.busy_s": "s",
    "cli.output_bytes": "bytes",
    "other.busy_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_x": "x",
}

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113)
LARGE_PRIMES = (1009, 65537, 1000003, 1000000007, 122439620123,
                49789008475889939)


# ---------------------------------------------------------------------------
# expected values, parsed without the library under test
# ---------------------------------------------------------------------------

def _product_value(text: str) -> int:
    out = 1
    if text == "1":
        return out
    for token in text.split("*"):
        base, _, exp = token.partition("^")
        out *= int(base) ** int(exp or "1")
    return out


def factored_value(text: str) -> Fraction:
    """Value of a factored-rational string such as ``-(3^2*5)/(7)``."""
    sign = -1 if text.startswith("-") else 1
    num, _, den = text.lstrip("-").partition("/")
    return Fraction(sign * _product_value(num.strip("()")),
                    _product_value(den.strip("()")) if den else 1)


def load_expected(root: str) -> dict:
    """{degree: (value, factored text)} from the shipped table (d <= 9)
    and the benchmark's frozen engine values (d = 10..13)."""
    expected = {}
    with open(os.path.join(root, TABLE), encoding="utf-8") as handle:
        for line in handle:
            if line.strip() and not line.startswith("#"):
                d, text = line.rstrip("\n").split("\t")
                expected[int(d)] = (factored_value(text), text)
    with open(FROZEN, encoding="utf-8") as handle:
        for line in handle:
            if line.strip() and not line.startswith("#"):
                d, value, text = line.rstrip("\n").split("\t")
                if factored_value(text) != Fraction(value):
                    raise ValueError(f"{FROZEN}: d={d} text and value disagree")
                expected[int(d)] = (Fraction(value), text)
    return expected


def corrupt(expected: dict) -> None:
    """The self-check: change the expected d = 2 value, which every
    workload checks, so that a working gate must report a failure."""
    value, text = expected[2]
    expected[2] = (value * 2, "corrupted-" + text)


def _side(rng) -> dict:
    """One side of a random rational as {prime: exponent}, drawn the way
    ``_random_tractable_rational`` in tests/test_acceptance.py (acceptance
    criterion 7) draws it, call for call: up to four small primes with
    exponents up to 5, a large prime one time in ten and a power-of-two
    shift three times in ten, all below 2**256."""
    cap = 1 << 256
    factors, value = {}, 1
    for p in rng.sample(SMALL_PRIMES, rng.randrange(0, 5)):
        if value * p**5 < cap:
            factors[p] = rng.randrange(1, 6)
            value *= p ** factors[p]
    if rng.random() < 0.1:
        p = rng.choice(LARGE_PRIMES)
        if value * p < cap:
            factors[p] = 1
            value *= p
    if rng.random() < 0.3:
        shift = rng.randrange(0, 255 - value.bit_length())
        if shift:
            factors[2] = factors.get(2, 0) + shift
    return factors


def _text(factors) -> str:
    return "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in factors) or "1"


def random_rational(rng):
    """A random rational drawn as in acceptance criterion 7, returned with
    the canonical factored text the library must print for it."""
    sign = rng.choice((1, -1))
    num, den = _side(rng), _side(rng)
    for p in set(num) & set(den):
        common = min(num[p], den[p])
        num[p] -= common
        den[p] -= common
    num = sorted((p, e) for p, e in num.items() if e)
    den = sorted((p, e) for p, e in den.items() if e)
    value = Fraction(sign * math.prod(p**e for p, e in num),
                     math.prod(p**e for p, e in den))
    text = _text(num)
    if den:
        if len(num) > 1:
            text = f"({text})"
        text += f"/({_text(den)})"
    return value, ("-" if sign < 0 else "") + text


def factor_inputs(seed: int, expected: dict) -> list:
    """Op list of one factor pass: each invariant followed by an equal
    share of ``RANDOM_COUNT`` random rationals drawn from ``seed``."""
    rng = random.Random(seed)
    batch = [("random", *random_rational(rng)) for _ in range(RANDOM_COUNT)]
    ops = []
    share = -(-len(batch) // len(FACTOR_DEGREES))
    for i, d in enumerate(FACTOR_DEGREES):
        value, text = expected[d]
        ops.append((f"d={d}", value, text))
        ops.extend(batch[i * share:(i + 1) * share])
    return ops


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

@dataclass
class Proc:
    code: int
    out: bytes
    err: str
    seconds: float
    rss_mb: float


def spawn(root: str, make_cmd, stdin: bytes = b"") -> Proc:
    """Run one child to completion; time it from spawn to exit and read its
    peak resident set size from ``wait4``.  ``make_cmd(t0)`` builds the
    command from the spawn time."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    err_path = os.path.join(root, OUT_DIR, "stderr.txt")
    with open(err_path, "w+", encoding="utf-8") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            make_cmd(t0),
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=err,
            cwd=root,
            env=env,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill, (proc.pid,))
        timer.start()
        try:
            if stdin:
                proc.stdin.write(stdin)
                proc.stdin.close()
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = perf_counter() - t0
        finally:
            timer.cancel()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Proc(code, out, err.read(), seconds, usage.ru_maxrss / 1024)


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    ops: dict = field(default_factory=dict)  # label -> seconds
    attempted: int = 0
    failures: list = field(default_factory=list)
    failed: int = 0
    rss_mb: float = 0.0
    start_s: float = 0.0
    extra: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)

    def fail(self, message: str, ops: int = 1) -> None:
        self.failures.append(message)
        self.failed += ops


def _trace_args(trace_path):
    return ["--trace", trace_path] if trace_path else []


def _trace_layers(trace_path, wall_s: float) -> dict:
    return spans.layer_report([spans.load(trace_path)], wall_s)


def compute_pass(ctx, traced: bool) -> Pass:
    p = Pass(attempted=len(COMPUTE_DEGREES))
    trace_path = ctx.trace_path if traced else None
    proc = spawn(ctx.root, lambda t0: [
        sys.executable, WORKER, "compute", "--t0", repr(t0), *_trace_args(trace_path)])
    p.rss_mb = proc.rss_mb
    if proc.code != 0:
        p.fail(f"compute worker exited {proc.code}: {proc.err.strip()[-500:]}", p.attempted)
        return p
    data = json.loads(proc.out)
    p.start_s = data["start_s"]
    for d, seconds, num, den in data["ops"]:
        p.ops[f"d={d}"] = seconds
        if Fraction(num, den) != ctx.expected[d][0]:
            p.fail(f"compute d={d}: got {num}/{den}")
    p.extra["growth_x"] = growth_x(p.ops)
    if traced:
        p.layers = _trace_layers(trace_path, sum(p.ops.values()))
    return p


def factor_pass(ctx, traced: bool) -> Pass:
    p = Pass(attempted=len(ctx.factor_ops))
    trace_path = ctx.trace_path if traced else None
    payload = json.dumps(
        [[label, v.numerator, v.denominator] for label, v, _ in ctx.factor_ops]
    ).encode()
    proc = spawn(ctx.root, lambda t0: [
        sys.executable, WORKER, "factor", "--t0", repr(t0),
        *_trace_args(trace_path)], stdin=payload)
    p.rss_mb = proc.rss_mb
    if proc.code != 0:
        p.fail(f"factor worker exited {proc.code}: {proc.err.strip()[-500:]}", p.attempted)
        return p
    data = json.loads(proc.out)
    p.start_s = data["start_s"]
    roundtrips = []
    for (label, value, text), result in zip(ctx.factor_ops, data["ops"]):
        _, seconds, got_text, num, den = result
        p.ops[label] = p.ops.get(label, 0.0) + seconds
        if label == "random":
            roundtrips.append(seconds)
        if got_text != text:
            p.fail(f"factor {label}: formatted {got_text!r}, expected {text!r}")
        elif Fraction(num, den) != value:
            p.fail(f"factor {label}: parse(format(q)) = {num}/{den} != q")
    p.extra["roundtrip_us"] = 1e6 * statistics.fmean(roundtrips)
    if traced:
        p.layers = _trace_layers(trace_path, sum(p.ops.values()))
    return p


def _check_cli(label: str, proc: Proc, expected: dict):
    """Failure message for one command's output, or None."""
    out = proc.out.decode()
    if label == "compute 1":
        if proc.code != 2 or out or "degree must be at least 2" not in proc.err:
            return f"exit {proc.code}, stderr {proc.err.strip()[:200]!r}"
        return None
    if proc.code != 0:
        return f"exit {proc.code}: {proc.err.strip()[-300:]}"
    if label == "verify":
        want = "".join(f"d={d} PASS\n" for d in range(2, 10))
        return None if out == want else f"printed {out[:300]!r}"
    if label == "compute 2":
        want = f"{expected[2][0]}\n"
        return None if out == want else f"printed {out!r}, expected {want!r}"
    if label.endswith("--factored"):
        want = expected[int(label.split()[1])][1] + "\n"
        return None if out == want else f"printed {out[:300]!r}"
    # breakdown: record count, the sum= line and the records' own total
    value = expected[BREAKDOWN_DEGREE][0]
    records = out.count("config=")
    lines = out.rstrip("\n").split("\n")
    total = sum(Fraction(line[6:]) for line in lines if line.startswith("total="))
    if records != BREAKDOWN_RECORDS:
        return f"{records} records, expected {BREAKDOWN_RECORDS}"
    if lines[-1] != f"sum={value}" or total != value:
        return f"last line {lines[-1]!r}, records sum to {total}"
    return None


def cli_pass(ctx, traced: bool) -> Pass:
    p = Pass(attempted=len(CLI_OPS))
    traces, starts, output_bytes, traced_wall = [], [], 0, 0.0
    for label, argv in CLI_OPS:
        if traced:
            proc = spawn(ctx.root, lambda t0: [
                sys.executable, WORKER, "cli", "--t0", repr(t0),
                "--trace", ctx.trace_path, "--", *argv])
            proc.err, found, tail = proc.err.rpartition("bench:")
            if not found:
                p.fail(f"cli {label}: launcher exited {proc.code}: {tail.strip()[-300:]}")
                continue
            timings = json.loads(tail)
            starts.append(timings["start_s"])
            # writing the trace out is the tracer's cost, not the command's
            traced_wall += proc.seconds - timings["dump_s"]
            traces.append(spans.load(ctx.trace_path))
        else:
            proc = spawn(ctx.root, lambda t0: [sys.executable, "-m", "multicover.cli", *argv])
        p.ops[label] = proc.seconds
        p.rss_mb = max(p.rss_mb, proc.rss_mb)
        output_bytes += len(proc.out)
        problem = _check_cli(label, proc, ctx.expected)
        if problem:
            p.fail(f"cli {label}: {problem}")
    p.start_s = p.ops.get("compute 2", 0.0)
    p.extra["verify_s"] = p.ops.get("verify", 0.0)
    p.extra["breakdown_s"] = p.ops.get(f"compute {BREAKDOWN_DEGREE} --breakdown", 0.0)
    if traced and traces:
        p.layers = spans.layer_report(traces, traced_wall)
        p.layers["cli.start_s"] = statistics.fmean(starts)
        p.layers["cli.output_bytes"] = output_bytes
    return p


def check_trace(p: Pass) -> None:
    """The spans of a traced pass must fit in the wall time they are
    charged to, so the time no span covers may not be negative.  (That the
    layer self times and ``other.busy_s`` add up to the wall time holds by
    construction; this is the part that can fail.)"""
    if p.layers and p.layers["other.busy_s"] < 0:
        p.fail(f"trace: spans exceed the traced wall time "
               f"{p.layers['trace.wall_s']:.6f} s by {-p.layers['other.busy_s']:.6f} s")


PASSES = {"compute": compute_pass, "factor": factor_pass, "cli": cli_pass}


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def iqm(values) -> float:
    """Interquartile mean: the mean after dropping the lowest and highest
    quarter, so one pass caught in a slow period on the host does not
    move the result."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def op_means(passes) -> dict:
    """Each op's interquartile mean time over the passes."""
    labels = {label for p in passes for label in p.ops}
    return {label: iqm(p.ops[label] for p in passes) for label in sorted(labels)}


def growth_x(ops: dict) -> float:
    """Mean ratio of consecutive degrees' times over ``GROWTH_DEGREES`` in
    one pass; taken within a pass, a slow period on the host cancels out."""
    times = [ops[f"d={d}"] for d in GROWTH_DEGREES]
    return statistics.fmean(hi / lo for lo, hi in zip(times, times[1:]))


def pass_wall(p: Pass) -> float:
    return sum(p.ops.values())


def end_to_end(passes, set_up: Pass) -> dict:
    return {
        "setup_s": statistics.median(set_up.ops.values()),
        "wall_s": sum(op_means(passes).values()),
        "peak_rss_mb": iqm(p.rss_mb for p in passes),
    }


def per_layer(traced, untraced) -> dict:
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    for name in traced[0].layers:
        out[name] = statistics.fmean(p.layers[name] for p in traced)
    out["trace.overhead_x"] = out["trace.wall_s"] / statistics.fmean(
        pass_wall(p) for p in untraced
    )
    return out


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

@dataclass
class Context:
    root: str
    expected: dict
    factor_ops: list
    trace_path: str


def run_context(root: str) -> dict:
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(root, "src"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".txt")):
                with open(os.path.join(base, name), "rb") as handle:
                    digest.update(name.encode() + b"\0" + handle.read())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


def setup(ctx, p: Pass, count: int) -> None:
    """Time ``count`` set-ups of the program -- fresh interpreter, import,
    shipped table loaded -- into ``p``, stopping at the first failure.
    Each is checked: the library comes from the checkout's ``src`` and the
    table holds at least the degrees the gate reads from it."""
    src = os.path.join(ctx.root, "src") + os.sep
    for _ in range(count):
        proc = spawn(ctx.root, lambda t0: [sys.executable, WORKER, "setup"])
        p.attempted += 1
        try:
            info = json.loads(proc.out) if proc.code == 0 else {}
        except ValueError:
            info = {}
        if (not str(info.get("module", "")).startswith(src)
                or not TABLE_DEGREES <= set(info.get("table_degrees", ()))):
            p.fail(f"set-up: exit {proc.code}, printed {proc.out[:300]!r}, "
                   f"stderr {proc.err.strip()[-300:]!r}")
            return
        p.ops[f"setup {len(p.ops) + 1}"] = proc.seconds


def run(workload: str, seed: int, seconds: float, trace: bool,
        self_check: bool, root: str) -> dict:
    context = run_context(root)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    expected = load_expected(root)
    if self_check:
        corrupt(expected)
    ctx = Context(
        root, expected,
        factor_inputs(seed, expected) if workload == "factor" else [],
        os.path.join(root, OUT_DIR, f"trace-{workload}.json"),
    )
    set_up = Pass()
    setup(ctx, set_up, 1)
    set_up.ops.clear()  # the first set-up warms the file cache; not timed
    run_pass = PASSES[workload]
    plain, traced = [], []
    start = perf_counter()
    last = 0.0
    while not set_up.failures and (
            not plain or perf_counter() - start + last / 2 < seconds):
        t = perf_counter()
        # set-ups are spread over the run like the passes, so that a slow
        # period on the host weighs on both alike
        setup(ctx, set_up, SETUPS_PER_PASS)
        if set_up.failures:
            break
        plain.append(run_pass(ctx, False))
        if trace:
            traced.append(run_pass(ctx, True))
        last = perf_counter() - t
    for p in traced:
        check_trace(p)
    everything = [set_up] + plain + traced
    failures = [f for p in everything for f in p.failures]
    attempted = sum(p.attempted for p in everything)
    detail = {}
    if failures:
        metrics = {}
    elif trace:
        metrics = per_layer(traced, plain)
        detail["traced_passes"] = len(traced)
    else:
        metrics = end_to_end(plain, set_up)
        detail = {
            "passes": len(plain),
            "setup_times_s": list(set_up.ops.values()),
            "pass_wall_s": [pass_wall(p) for p in plain],
            "start_s": iqm(p.start_s for p in plain),
            "op_iqm_s": op_means(plain),
        }
        for key in sorted({k for p in plain for k in p.extra}):
            detail[key] = iqm(p.extra[key] for p in plain)
    context["loadavg_end"] = os.getloadavg()
    context["measured_s"] = perf_counter() - start
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "context": context,
        "detail": detail,
        "failures": failures[:20],
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": sum(p.failed for p in everything),
            "metrics": {
                name: {"value": metrics[name], "unit": units[name]} for name in metrics
            },
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(PASSES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="corrupt one expected value; the run must fail")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "multicover", "cli.py")):
        print("run.py: run from the root of a multicover checkout (no src/multicover)",
              file=sys.stderr)
        return 2
    report = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.self_check, root)
    print(json.dumps({"context": report["context"]}))
    print(json.dumps({"detail": report["detail"]}))
    for failure in report["failures"]:
        print(f"FAIL {failure}")
    result = report["result"]
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
