"""Record one benchmark run of every workload as ``BENCH_<pr>.json``.

    python3 bench/record.py --pr N [--seed S] [--seconds T]

Runs ``perfbench/run.py`` as a subprocess for each workload that
``BENCHMARK.json`` lists, untraced and then traced, and writes
``BENCH_<N>.json`` at the repository root.  Per workload the file holds the
end-to-end metrics of the untraced run, the per-layer metrics of the traced
run, the round-0 work counts and the per-kind latency medians; beside them
the seed, the seconds per run, the Python version and the git commit (with
``modified`` true when tracked files differ from it).  The file records; it
claims nothing.  Exits 1 when any run reports ``failed`` > 0 or ``correct``
false, after writing the file.  Standard library only; it imports nothing
from ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(summary, result) of one ``perfbench/run.py`` run: the JSON of its
    ``summary`` line and of its last line."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    summary = next(json.loads(line[len("summary "):]) for line in lines if line.startswith("summary "))
    return summary, json.loads(lines[-1])


def git_state() -> tuple[str | None, bool | None]:
    # (HEAD's hash, whether tracked files differ from it); None outside git
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
        diff = subprocess.run(["git", "diff", "--quiet", "HEAD"], cwd=ROOT)
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return head.stdout.strip(), diff.returncode != 0


def record(pr: int, seed: int, seconds: float, workloads, run=run_workload) -> tuple[dict, bool]:
    """The file's contents, and whether every run's verdicts were correct."""
    ok = True
    out = {}
    for workload in workloads:
        summary, result = run(workload, seed, seconds, 0)
        _, traced = run(workload, seed, seconds, 1)
        for trace, r in enumerate((result, traced)):
            if r["failed"] or not r["correct"]:
                ok = False
                print(f"{workload}, trace {trace}: {r['failed']} of {r['attempted']} verdicts failed", file=sys.stderr)
        out[workload] = {
            "end_to_end": {name: m["value"] for name, m in result["metrics"].items()},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "work_counts": summary["work_counts"],
            "kinds": {kind: {"count": c, "median_ms": ms} for kind, (c, ms) in summary["kinds"].items()},
            "rounds": summary["rounds"],
            "verdicts": result["attempted"],
            "failed": result["failed"],
        }
    commit, modified = git_state()
    return {
        "pr": pr,
        "seed": seed,
        "seconds": seconds,
        "python": platform.python_version(),
        "commit": commit,
        "modified": modified,
        "workloads": out,
    }, ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    data, ok = record(args.pr, args.seed, args.seconds, [w["name"] for w in spec["workloads"]])
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
