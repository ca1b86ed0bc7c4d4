import importlib.util
import json
import subprocess
import sys
from pathlib import Path

RECORD = Path(__file__).resolve().parents[1] / "bench" / "record.py"


def load_record():
    spec = importlib.util.spec_from_file_location("bench_record", RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned_run(failed=0):
    # stands in for one perfbench/run.py run: its summary line and last line
    def run(workload, seed, seconds, trace):
        summary = {
            "workload": workload, "seed": seed, "trace": trace, "rounds": 3, "verdicts": 12,
            "failed_share": failed / 12, "verdicts_per_s": 100.0,
            "work_counts": {f"{workload}.entry": 7, f"{workload}.entry.checked": 40},
            "kinds": {"kind a": [8, 0.5], "kind b": [4, 1.25]},
        }
        name = "layer.busy_s" if trace else "verdicts_per_s"
        result = {"correct": not failed, "attempted": 12, "failed": failed,
                  "metrics": {name: {"value": 0.25, "unit": "s" if trace else "1/s"}}}
        return summary, result

    return run


def test_record_shape():
    data, ok = load_record().record(37, 5, 1.0, ["hosts", "classify"], run=canned_run())
    assert ok
    assert set(data) == {"pr", "seed", "seconds", "python", "commit", "modified", "workloads"}
    assert (data["pr"], data["seed"], data["seconds"]) == (37, 5, 1.0)
    assert list(data["workloads"]) == ["hosts", "classify"]
    assert data["workloads"]["classify"] == {
        "end_to_end": {"verdicts_per_s": 0.25},
        "per_layer": {"layer.busy_s": 0.25},
        "work_counts": {"classify.entry": 7, "classify.entry.checked": 40},
        "kinds": {"kind a": {"count": 8, "median_ms": 0.5}, "kind b": {"count": 4, "median_ms": 1.25}},
        "rounds": 3,
        "verdicts": 12,
        "failed": 0,
    }
    json.dumps(data)


def test_failed_verdicts_are_not_ok(capsys):
    data, ok = load_record().record(37, 5, 1.0, ["arrows"], run=canned_run(failed=2))
    assert not ok
    assert data["workloads"]["arrows"]["failed"] == 2
    assert capsys.readouterr().err == (
        "arrows, trace 0: 2 of 12 verdicts failed\narrows, trace 1: 2 of 12 verdicts failed\n"
    )


def test_imports_only_the_standard_library():
    # a fresh interpreter, so modules this suite loaded do not hide any
    code = (
        "import importlib.util, json, sys\n"
        "before = set(sys.modules)\n"
        f"spec = importlib.util.spec_from_file_location('bench_record', {str(RECORD)!r})\n"
        "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(json.dumps(sorted(new - set(sys.stdlib_module_names))))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == []
