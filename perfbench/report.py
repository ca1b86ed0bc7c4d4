"""Run every workload untraced and traced, and print all metrics.

    python3 perfbench/report.py [--seed N] [--seconds S]

Prints the end-to-end metrics of each workload by name and unit with its
sample count and failed share, then the per-layer table from the traced runs
with each workload's tracing overhead (traced minus untraced verdicts_per_s).
It also checks that the round-0 work counts of the traced and the untraced
run are identical.  Exits nonzero if any verdict failed or a count differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    summary = next(json.loads(line[len("summary "):]) for line in lines if line.startswith("summary "))
    return summary, json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]

    runs = {(w, t): run(w, args.seed, args.seconds, t) for w in names for t in (0, 1)}
    ok = all(result["correct"] for _, result in runs.values())

    print(f"end-to-end metrics, seed {args.seed}, {args.seconds:g} s per run")
    print(f"{'metric':<16}{'unit':<7}" + "".join(f"{w:>13}" for w in names))
    for m in spec["end_to_end"]:
        cells = []
        for w in names:
            value = runs[w, 0][1]["metrics"].get(m["name"])
            cells.append(f"{value['value']:>13.5g}" if value else f"{'-':>13}")
        print(f"{m['name']:<16}{m['unit']:<7}" + "".join(cells))
    print(f"{'verdicts':<16}{'count':<7}" + "".join(f"{runs[w, 0][0]['verdicts']:>13}" for w in names))
    print(f"{'failed_share':<16}{'ratio':<7}" + "".join(f"{runs[w, 0][0]['failed_share']:>13.3g}" for w in names))

    print()
    print("per-layer metrics from the traced runs (round-0 counts, median busy_s per round)")
    print(f"{'metric':<48}{'unit':<7}" + "".join(f"{w:>13}" for w in names))
    for m in spec["per_layer"]:
        values = [runs[w, 1][1]["metrics"][m["name"]]["value"] for w in names]
        if any(values):
            print(f"{m['name']:<48}{m['unit']:<7}" + "".join(f"{v:>13.5g}" for v in values))
    print(f"{'traced verdicts':<48}{'count':<7}" + "".join(f"{runs[w, 1][0]['verdicts']:>13}" for w in names))
    print(f"{'tracing overhead (verdicts_per_s)':<48}{'1/s':<7}" + "".join(
        f"{runs[w, 1][0]['verdicts_per_s'] - runs[w, 0][0]['verdicts_per_s']:>13.4g}" for w in names
    ))

    for w in names:
        untraced, traced = runs[w, 0][0]["work_counts"], runs[w, 1][0]["work_counts"]
        if untraced != traced:
            ok = False
            diff = sorted(k for k in untraced.keys() | traced.keys() if untraced.get(k) != traced.get(k))
            print(f"{w}: work counts differ between traced and untraced runs: {diff}")
    print()
    print("all verdicts correct, work counts repeat" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
