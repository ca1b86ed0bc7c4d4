"""Run one rado-lab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hosts --seed 1 --seconds 15 --trace 0

The library is imported from ``src/`` beside this directory, never from an
installed copy.  One client issues the workload's requests in a closed loop
with no think time: a round of seeded requests, then the next round, until
``--seconds`` have passed (the round in progress is finished).  Each request
is one verdict; it is timed from outside, then checked against a known answer
or an independent checker (``oracles.py``).

Times are scaled to a reference machine pace.  The pace is the time of a
short calibration loop that does not touch the library.  It is measured just
before and just after every verdict and every set-up, and every ``TICK_S``
during it from a SIGALRM handler, whose own time is taken out of the
measurement.  Each time is multiplied by ``CAL_REF_S`` over the mean pace
measured while it ran.  On a shared 2-vCPU x86-64 machine one fixed call ran
at 38 ms or at 75 ms for seconds at a time; scaled, the medians of 8-second
windows agreed within a few percent.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics; both are named in ``BENCHMARK.json``.
Per-layer call and work counts are those of round 0, which the seed fixes;
``busy_s`` is the median over rounds of the time spent in that entry point.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from collections import Counter
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUPS = 3
MIN_P90_SAMPLES = 100
WINDOW = 0.04

# ---------------------------------------------------------------------------
# machine pace

_CAL_ROWS = tuple((0x9E3779B97F4A7C15 * (i + 1)) & ((1 << 64) - 1) for i in range(40))
# The pace of the machine the benchmark was written on (x86-64, Python 3.11)
# in its fast state, so scaled times read as seconds on that machine.
CAL_REF_S = 2.0e-4
TICK_S = 0.05


def _calibration_pass() -> float:
    # big-int masks and dict stores, the operations the library's kernels use
    start = time.perf_counter()
    seen = {}
    acc = 0
    for i, j in combinations(range(40), 2):
        m = _CAL_ROWS[i] & ~_CAL_ROWS[j]
        acc ^= m
        seen[i, j] = m.bit_count()
    return time.perf_counter() - start


def machine_pace() -> float:
    """Current time of one calibration pass; the lesser of two, so that an
    interrupt inside one pass does not count."""
    return min(_calibration_pass(), _calibration_pass())


class Timed(NamedTuple):
    """A call's result or traceback, its raw start and end, its own time in
    reference seconds and the scale that converted it."""

    result: object
    error: str | None
    start: float
    end: float
    seconds: float
    scale: float


class PacedClock:
    """Times calls in reference seconds (see the module docstring).

    While open, a SIGALRM handler samples the pace every ``TICK_S`` and
    records (start, duration, pace), so long calls are scaled by the pace
    during them, not only at their ends."""

    def __init__(self):
        self.ticks: list[tuple[float, float, float]] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        pace = machine_pace()
        self.ticks.append((start, time.perf_counter() - start, pace))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def run(self, fn) -> Timed:
        """Call ``fn`` and time it."""
        self.ticks.clear()
        before = machine_pace()
        start = time.perf_counter()
        try:
            result, error = fn(), None
        except Exception:
            result, error = None, traceback.format_exc()
        end = time.perf_counter()
        after = machine_pace()
        inside = [t for t in self.ticks if start <= t[0] < end]
        paces = [before, after] + [t[2] for t in inside]
        scale = CAL_REF_S * len(paces) / sum(paces)
        own = end - start - sum(t[1] for t in inside)
        return Timed(result, error, start, end, own * scale, scale)


# ---------------------------------------------------------------------------
# counting and tracing


class Recorder:
    """Counts every call into a layer; with tracing on, also keeps a span for
    it.  A span is [id, name, start, end, parent span id, request id]; each
    request has its own span, the parent of the layer spans inside it."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[list] = []
        self._request_span = None

    def call(self, name: str, fn, *args, **kwargs):
        self.calls[name] += 1
        if not self.trace:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            parent = self._request_span
            self.spans.append(
                [len(self.spans), name, start, time.perf_counter(), parent[0], parent[5]]
            )

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] += value

    def begin(self, kind: str, request_id: int) -> None:
        if self.trace:
            self._request_span = [len(self.spans), f"request.{kind}", None, None, None, request_id]
            self.spans.append(self._request_span)

    def end(self, start: float, end: float, scale: float, busy: Counter) -> None:
        """Close the request span and add its layer spans, scaled, to ``busy``."""
        if not self.trace:
            return
        span = self._request_span
        span[2], span[3] = start, end
        for child in self.spans[span[0] + 1:]:
            busy[child[1]] += (child[3] - child[2]) * scale


# ---------------------------------------------------------------------------
# set-up and the timed loop


def _import_library():
    for name in [m for m in sys.modules if m == "rado_lab" or m.startswith("rado_lab.")]:
        del sys.modules[name]
    lib = importlib.import_module("rado_lab")
    importlib.import_module("rado_lab.cli")
    return lib


def set_up(clock, workload, name: str, seed: int, workdir: Path):
    """Import the library and build the workload's inputs ``SETUPS`` times;
    returns the last library and inputs and the median set-up time."""
    times = []
    for _ in range(SETUPS):
        def build():
            lib = _import_library()
            return lib, workload.setup(lib, random.Random(f"{name}:{seed}:setup"), workdir)

        timed = clock.run(build)
        if timed.error is not None:
            raise RuntimeError(f"set-up failed:\n{timed.error}")
        lib, inputs = timed.result
        times.append(timed.seconds)
    if not Path(lib.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"rado_lab was imported from {lib.__file__}, not from {SRC}")
    return lib, inputs, statistics.median(times)


def run_loop(clock, workload, name, seed, seconds, lib, inputs, rec, workdir):
    latencies: list[float] = []
    kinds: list[str] = []
    problems: list[str] = []
    round_busy: list[Counter] = []
    first = None
    start = time.perf_counter()
    r = 0
    while True:
        rng = random.Random(f"{name}:{seed}:{r}")
        busy: Counter = Counter()
        for req in workload.round(lib, inputs, rng, rec, workdir):
            request_id = len(latencies)
            rec.begin(req.kind, request_id)
            timed = clock.run(req.run)
            problem = timed.error
            if problem is None:
                try:
                    problem = req.check(timed.result)
                except Exception:
                    problem = traceback.format_exc()
            rec.end(timed.start, timed.end, timed.scale, busy)
            latencies.append(timed.seconds)
            kinds.append(req.kind)
            if problem is not None:
                problems.append(f"request {request_id} ({req.kind}): {problem}")
        round_busy.append(busy)
        if first is None:
            first = (Counter(rec.calls), Counter(rec.counts))
        r += 1
        if time.perf_counter() - start >= seconds:
            break
    return latencies, kinds, problems, round_busy, first


def percentile(values: list[float], p: float) -> float | None:
    """The p-quantile, as a mean of the sorted values weighted by a triangle
    of half-width ``WINDOW`` around rank p; None for p > 0.5 when fewer than
    ``MIN_P90_SAMPLES`` values leave fewer than ten beyond it.

    Each round issues the same mix of request kinds, so the latencies form
    clusters.  One order statistic on a cluster edge flips from run to run,
    and so does a plain window mean whose edge meets a cluster edge; under
    the triangle a value's weight falls to zero at the edges."""
    if p > 0.5 and len(values) < MIN_P90_SAMPLES:
        return None
    xs = sorted(values)
    n = len(xs)
    weights = [max(0.0, 1 - abs((i + 0.5) / n - p) / WINDOW) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def layer_metrics(names, round_busy, first_calls, first_counts) -> dict[str, float]:
    out = {}
    for name in names:
        entry, stat = name.rsplit(".", 1)
        if stat == "calls":
            out[name] = first_calls[entry]
        elif stat == "busy_s":
            out[name] = statistics.median(b[entry] for b in round_busy)
        elif stat == "colorings_share":
            total = first_counts[f"{entry}.colorings_total"]
            out[name] = first_counts[f"{entry}.colorings_checked"] / total if total else 0.0
        else:
            out[name] = first_counts[name]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rado_lab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no rado_lab sources under {SRC}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    rec = Recorder(bool(args.trace))
    try:
        with PacedClock() as clock:
            lib, inputs, setup_s = set_up(clock, workload, args.workload, args.seed, workdir)
            latencies, kinds, problems, round_busy, (calls, counts) = run_loop(
                clock, workload, args.workload, args.seed, args.seconds, lib, inputs, rec, workdir
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    known = {m["name"] for m in spec["per_layer"]}
    stray = sorted(
        n for n in list(calls) + list(counts)
        if not n.endswith("_total") and n not in known and f"{n}.calls" not in known
    )
    if stray:
        raise RuntimeError(f"counters missing from BENCHMARK.json: {stray}")

    attempted = len(latencies)
    failed = len(problems)
    verdicts_per_s = attempted / sum(latencies)
    if args.trace:
        chosen = spec["per_layer"]
        values = layer_metrics([m["name"] for m in chosen], round_busy, calls, counts)
        path = OUT / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps({
            "fields": ["id", "name", "start", "end", "parent", "request"],
            "spans": rec.spans,
        }))
        print(f"trace: {len(rec.spans)} spans written to {path.relative_to(ROOT)}")
    else:
        chosen = spec["end_to_end"]
        p90 = percentile(latencies, 0.9)
        values = {
            "verdicts_per_s": verdicts_per_s,
            "verdict_p50_ms": percentile(latencies, 0.5) * 1000,
            "verdict_p90_ms": None if p90 is None else p90 * 1000,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(round_busy),
        "verdicts": attempted,
        "failed_share": failed / attempted,
        "verdicts_per_s": verdicts_per_s,
        "work_counts": dict(sorted((dict(calls) | dict(counts)).items())),
        "kinds": {
            kind: [kinds.count(kind), statistics.median(t for t, k in zip(latencies, kinds) if k == kind) * 1000]
            for kind in sorted(set(kinds))
        },
    }
    print("summary " + json.dumps(summary, sort_keys=True))
    metrics = {}
    for m in chosen:
        if values[m["name"]] is None:
            print(f"{m['name']}: not reported ({attempted} verdicts, fewer than {MIN_P90_SAMPLES})")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']}: {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
