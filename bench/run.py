"""amigram benchmark: one workload, untraced (end-to-end metrics) or traced
(per-layer metrics).

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit code 0 when every output checked out, 1 when one was wrong, and 2 when
``src/amigram`` is missing.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 11
MIN_UNITS = 3
# The CPU speed of a shared machine drifts by tens of percent over seconds to
# minutes, more than the regressions the bounds must catch.  So every stretch
# of at least SEGMENT_NS of requests, and every cold start, is bracketed by a
# fixed pure-Python loop, and its times are scaled by NOMINAL_CALIBRATION_NS /
# (the loop's mean time around it): they read as times on a machine where
# the loop takes exactly that long.
CALIBRATION_ITERATIONS = 2000
NOMINAL_CALIBRATION_NS = 1_500_000
SEGMENT_NS = 50_000_000


class Tally:
    """Attempted and failed requests, and why the unexpected ones failed."""

    def __init__(self):
        self.attempted = self.failed = self.over_limit = 0
        self.unexpected = Counter()

    def record(self, request, outcome: str) -> None:
        self.attempted += 1
        self.over_limit += request.over_limit
        if outcome == "ok":
            return
        self.failed += 1
        if outcome == "wrong" or not request.over_limit:
            self.unexpected[f"{request.kind}: {outcome}"] += 1


def run_request(request, api, cli_result) -> tuple[str, int]:
    """(outcome, nanoseconds): outcome is "ok", "wrong" or "refused: <why>"."""
    api.tracer.request += 1
    t0 = perf_counter_ns()
    try:
        with api.tracer.span("request." + request.kind):
            out = request.run(api)
    except Exception as exc:  # a refusal is a measured outcome, not a crash
        return f"refused: {type(exc).__name__}", perf_counter_ns() - t0
    elapsed = perf_counter_ns() - t0
    if isinstance(out, cli_result) and out.code != 0:
        return f"refused: exit {out.code}", elapsed
    try:
        return ("ok" if request.check(out) else "wrong"), elapsed
    except Exception:  # output too malformed to check
        return "wrong", elapsed


def run_unit(unit, api, tally, calibrated=None):
    """Run one unit; returns its scaled seconds, unscaled seconds and scaled
    per-request latencies in ns, a failed request as +inf so that it ranks
    slower than any success.  With ``calibrated``, requests are scaled in
    segments of at least ``SEGMENT_NS``, each bracketed by the calibration
    loop; without it nothing is scaled."""
    from api import CliResult

    latencies, scaled, raw = [], 0.0, 0
    segment, segment_ns = [], 0
    for index, request in enumerate(unit, 1):
        outcome, ns = run_request(request, api, CliResult)
        tally.record(request, outcome)
        segment.append((ns, outcome == "ok"))
        segment_ns += ns
        if segment_ns >= SEGMENT_NS or index == len(unit):
            factor = calibrated.scale() if calibrated else 1.0
            latencies += [ns * factor if ok else math.inf for ns, ok in segment]
            scaled += segment_ns * factor
            raw += segment_ns
            segment, segment_ns = [], 0
    return scaled / 1e9, raw / 1e9, latencies


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class _Shape:
    __slots__ = ("base", "side", "area")

    def __init__(self, base: int, side: int, area: int):
        if base < 1 or side < 1 or area > base * side:
            raise ValueError("not a shape")
        self.base, self.side, self.area = base, side, area

    @property
    def perimeter(self) -> int:
        return 2 * (self.base + self.side)


def _calibration_step(i: int) -> int:
    base, side = i % 97 + 1, i % 89 + 1
    shape = _Shape(base, side, i % (base * side) + 1)
    return shape.perimeter + (shape.area * shape.area >= 16 * shape.perimeter)


def calibration_ns() -> float:
    """Median of three runs of a fixed loop like the program's own work
    (small objects built and validated, properties, small-integer tests,
    dict stores): the machine's current speed."""
    runs = []
    for _ in range(3):
        t0 = perf_counter_ns()
        table, total = {}, 0
        for i in range(CALIBRATION_ITERATIONS):
            total += _calibration_step(i)
            table[i & 255] = (total, i)
        runs.append(perf_counter_ns() - t0)
    return median(runs)


class Calibrated:
    """Scale factors for consecutive stretches of machine time."""

    def __init__(self):
        self.last = calibration_ns()
        self.raw: list[float] = []

    def scale(self) -> float:
        """Factor for the stretch since the previous call."""
        now = calibration_ns()
        factor = 2 * NOMINAL_CALIBRATION_NS / (self.last + now)
        self.raw.append((self.last + now) / 2)
        self.last = now
        return factor


def cold_start(argv: list[str]) -> float:
    """Seconds for ``python -m amigram <argv>`` in a fresh interpreter:
    start-up, ``import amigram`` and the first call returning."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "amigram", *argv],
        cwd=ROOT, env=env, capture_output=True, timeout=60,
    )
    elapsed = perf_counter() - t0
    if done.returncode != 0 or not done.stdout:
        raise RuntimeError(f"cold start failed: {done.stderr.decode()[-500:]}")
    return elapsed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_untraced(workload, seconds: float, tally: Tally):
    """End-to-end metrics from untraced units; returns (metrics, ok)."""
    from api import Api

    api = Api()
    cold_start(workload.setup_argv)  # fills __pycache__
    units = workload.units()
    run_unit(next(units), api, tally)  # warm-up, checked but not timed
    # Cold starts are spread over the run so that they sample the same
    # stretch of machine time as the units.
    calibrated = Calibrated()
    setup, raw_run_s, seconds_per_unit, rates, p50s, p99s = [], [], [], [], [], []
    start = perf_counter()
    while perf_counter() - start < seconds or len(seconds_per_unit) < MIN_UNITS:
        if len(setup) * seconds < (perf_counter() - start) * SETUP_RUNS:
            elapsed = cold_start(workload.setup_argv)
            setup.append(elapsed * calibrated.scale())
        elapsed, raw, latencies = run_unit(next(units), api, tally, calibrated=calibrated)
        raw_run_s.append(raw)
        seconds_per_unit.append(elapsed)
        rates.append(sum(ns != math.inf for ns in latencies) / elapsed)
        p50s.append(percentile(latencies, 0.50) / 1e3)
        p99s.append(percentile(latencies, 0.99) / 1e3)
    while len(setup) < SETUP_RUNS:
        elapsed = cold_start(workload.setup_argv)
        setup.append(elapsed * calibrated.scale())
    per_unit = f"median over {len(seconds_per_unit)} {workload.unit_name}"
    print(
        f"# calibration loop: median {median(calibrated.raw) / 1e6:.4f} ms against "
        f"{NOMINAL_CALIBRATION_NS / 1e6:g} ms nominal; unscaled run_s "
        f"{median(raw_run_s):.6g} s"
    )
    metrics = [
        ("setup_s", median(setup), "s", f"median of {len(setup)} cold starts"),
        ("run_s", median(seconds_per_unit), "s", per_unit),
        ("requests_per_s", median(rates), "1/s", per_unit),
        ("latency_p50_us", median(p50s), "us", per_unit),
        ("latency_p99_us", median(p99s), "us", per_unit),
        ("peak_rss_mb", peak_rss_mb(), "MB", "whole process"),
    ]
    return metrics, True


# Per-layer metrics read from spans: (name, unit, ns -> unit, span names).
PER_UNIT = [
    ("core.Parallelogram.ns_per_call", "ns", 1, ("core.Parallelogram",)),
    ("core.height.ns_per_call", "ns", 1, ("core.height",)),
    ("core.canonical_key.ns_per_call", "ns", 1, ("core.canonical_key",)),
    ("core.json_roundtrip.us_per_call", "us", 1e-3, ("core.json_roundtrip",)),
    ("amicability.is_amicable_invariants.ns_per_call", "ns", 1,
     ("amicability.is_amicable_invariants",)),
    ("amicability.companion_exists_bruteforce.ns_per_cell", "ns", 1,
     ("amicability.companion_exists_bruteforce",)),
    ("amicability.classify.us_per_call", "us", 1e-3, ("amicability.classify",)),
    ("amicability.companion.us_per_call", "us", 1e-3, ("amicability.companion",)),
    ("amicability.all_companion_bases.us_per_call", "us", 1e-3,
     ("amicability.all_companion_bases",)),
    ("census.count_amicable.ns_per_shape", "ns", 1, ("census.count_amicable",)),
    ("census.enumerate_by_perimeter.ns_per_shape", "ns", 1, ("census.enumerate_by_perimeter",)),
    ("census.amicable_rectangle_pairs.s", "s", 1e-9, ("census.amicable_rectangle_pairs",)),
    ("census.witness.us_per_call", "us", 1e-3, ("census.witness",)),
    ("families.verify_family.ms_per_index", "ms", 1e-6, ("families.verify_family",)),
    ("families.family_pair.us_per_call", "us", 1e-3, ("families.family_pair",)),
    ("render.render_svg.us_per_call", "us", 1e-3, ("render.render_svg",)),
] + [
    (f"cli.main.{sub}.us_per_call", "us", 1e-3, (f"cli.main.{sub}",))
    for sub in ("check", "witness", "render", "verify", "census", "rectangles", "family")
]


def run_traced(workload, seconds: float, tally: Tally, rng, spans_path: Path):
    """Alternate untraced and traced runs of the same units, then the
    workload's extra decomposition and the probe.  Writes the spans to
    ``spans_path`` and returns (per-layer metrics, ok)."""
    import probe
    from api import Api
    from spans import MODULES, Summary, Tracer

    tracer = Tracer()
    plain, traced = Api(), Api(tracer)
    units = workload.units()
    run_unit(next(units), plain, tally)  # warm-up, checked but not timed
    plain_s, traced_s = [], []
    start = perf_counter()
    while perf_counter() - start < seconds or not traced_s:
        unit = next(units)
        # Alternate which of the pair runs first, so that neither always
        # runs on the caches the other warmed.
        pair = [(plain, plain_s), (traced, traced_s)]
        for api, times in pair[:: 1 if len(plain_s) % 2 else -1]:
            times.append(run_unit(unit, api, tally)[1])
    # Module totals come from the traced units alone, per unit: not from the
    # extras or the probe, and not summed over a count of units that depends
    # on the program's speed.
    per_unit = Summary(tracer.spans)
    ok = workload.extras(traced)
    ok = probe.fill(traced, workload, rng) and ok
    overhead_us, overhead_ok = probe.cli_overhead_us(plain)
    floor_ns = tracer.floor_ns()
    summary = Summary(tracer.spans, floor_ns)

    def spans(names):
        return f"{sum(summary.spans.get(n, 0) for n in names)} spans"

    metrics = [
        (name, summary.per_unit_ns(*names) * scale, unit, spans(names))
        for name, unit, scale, names in PER_UNIT
    ]
    one, two = (summary.per_unit_ns(n) for n in ("cli.main.verify", "cli.main.verify_threads2"))
    metrics += [
        ("cli.overhead_us", overhead_us, "us", f"{probe.OVERHEAD_PAIRS} pairs, check 7 6 42"),
        ("cli.verify.threads2_speedup", one / two, "ratio", spans(["cli.main.verify_threads2"])),
    ]
    n = len(traced_s)
    mean = f"per unit, mean over {n} traced {workload.unit_name}"
    for module in MODULES:
        metrics += [
            (f"{module}.calls", per_unit.module_calls[module] / n, "count", mean),
            (f"{module}.self_s", per_unit.module_self_ns[module] / n / 1e9, "s", mean),
            (f"{module}.failed", per_unit.module_failed[module] / n, "count", mean),
        ]
    metrics.append(("trace.span_floor_ns", floor_ns, "ns", "subtracted from each per-call metric"))
    metrics.append((
        "trace.overhead_frac",
        median(traced_s) / median(plain_s) - 1,
        "ratio",
        f"median of {len(traced_s)} traced vs {len(plain_s)} untraced {workload.unit_name}",
    ))
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    print(f"# {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    return metrics, ok and overhead_ok


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def load_workload(name: str, rng):
    """Import amigram from ``src/`` of this checkout and build the workload."""
    sys.path.insert(0, str(SRC))
    import amigram

    if Path(amigram.__file__).resolve().parent != SRC / "amigram":
        raise ImportError(f"imported amigram from {amigram.__file__}, not {SRC}")
    from family import Family
    from queries import Queries
    from sweep import Sweep

    return {"sweep": Sweep, "queries": Queries, "family": Family}[name](rng)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["sweep", "queries", "family"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "amigram" / "__init__.py").is_file():
        print(f"bench: no amigram sources under {SRC}", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    workload = load_workload(args.workload, rng)
    print(
        f"# amigram bench workload={args.workload} seed={args.seed} trace={args.trace} "
        f"seconds={args.seconds:g} sha={git_sha()} nproc={os.cpu_count()} "
        f"python={platform.python_version()}"
    )
    tally = Tally()
    if args.trace:
        spans_path = Path(__file__).resolve().parent / "traces" / (
            f"{args.workload}-seed{args.seed}.jsonl"
        )
        metrics, ok = run_traced(workload, args.seconds, tally, rng, spans_path)
    else:
        metrics, ok = run_untraced(workload, args.seconds, tally)
    for name, value, unit, samples in metrics:
        print(f"{args.workload}.{name} = {value:.6g} {unit} ({samples})")
    frac = tally.failed / tally.attempted
    print(
        f"{args.workload}.failed_frac = {frac:.6g} ratio ({tally.failed} failed of "
        f"{tally.attempted} attempted; {tally.over_limit} drawn past a known defect)"
    )
    for problem, count in sorted(tally.unexpected.items()):
        print(f"# unexpected: {problem} x{count}", file=sys.stderr)
    correct = ok and not tally.unexpected
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
