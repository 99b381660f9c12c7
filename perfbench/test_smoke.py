"""Smoke test of the benchmark itself, at toy input sizes.

    python3 -m pytest -p no:cacheprovider perfbench/test_smoke.py -q

Runs every workload untraced and traced, checks that the printed metric
names and units are the ones ``BENCHMARK.json`` declares, and shows that
a corrupted output row is counted as a failed check.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_match_benchmark_json(workload, trace, tmp_path):
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
            "--seconds", "1", "--trace", str(trace), "--toy", "--spans", str(spans),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared("per_layer" if trace else "end_to_end")
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        records = json.loads(spans.read_text())
        assert records and set(records[0]) == {"name", "start", "end", "parent", "trace"}
        assert any(r["parent"] >= 0 for r in records)  # nested calls were reached


def test_refuses_a_tree_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture()
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    import run

    monkeypatch.setattr(sys, "path", list(sys.path))
    caps = run.prepare()
    from seqsynth import io as seqio

    return run, caps, seqio


def _run_gt_synth(run, caps):
    args = run.parse_args(["--workload", "gt-synth", "--seed", "5", "--seconds", "1", "--toy"])
    result, details = run.run(args, caps, time.perf_counter())
    return result, details


def test_foreign_state_in_an_output_row_fails_the_run(bench, monkeypatch):
    run, caps, seqio = bench
    save = seqio.save_corpus

    def corrupting_save(corpus, path, *args, **kwargs):
        save(corpus, path, *args, **kwargs)
        if Path(path).name == "paired-mc-o1.csv":
            lines = Path(path).read_text().splitlines(keepends=True)
            lines[1] = lines[1].rsplit(",", 1)[0] + ",not-a-state\n"
            Path(path).write_text("".join(lines))

    monkeypatch.setattr(seqio, "save_corpus", corrupting_save)
    result, details = _run_gt_synth(run, caps)
    assert not result["correct"]
    assert result["failed"] >= details["iterations"]["untraced"]
    assert any("foreign state" in m for m in details["failures"])


def test_output_that_changes_between_iterations_fails_the_run(bench, monkeypatch):
    run, caps, seqio = bench
    save = seqio.save_corpus
    calls = []

    def drifting_save(corpus, path, *args, **kwargs):
        save(corpus, path, *args, **kwargs)
        if Path(path).name == "tvmc.csv":
            calls.append(path)
            if len(calls) == 2:  # second iteration: swap one valid label for another
                lines = Path(path).read_text().splitlines(keepends=True)
                cells = lines[1].rstrip("\n").split(",")
                labels = sorted(set(cells[1:]) | {"rest", "light"})
                cells[-1] = next(lab for lab in labels if lab != cells[-1])
                lines[1] = ",".join(cells) + "\n"
                Path(path).write_text("".join(lines))

    monkeypatch.setattr(seqio, "save_corpus", drifting_save)
    result, details = _run_gt_synth(run, caps)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("differs between iterations" in m for m in details["failures"])
