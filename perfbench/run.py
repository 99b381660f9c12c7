"""seqsynth benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a seqsynth checkout:

    python3 perfbench/run.py --workload gt-synth --seed 1 --seconds 35 --trace 0

Workloads are closed loops over the package's public API (see
``workloads.py`` and ``BENCHMARK.json``).  A run sets up the workload's
inputs from ``--seed`` several times and reports the median set-up time,
then repeats the workload's iteration for ``--seconds``.  With
``--trace 0`` it reports the end-to-end metrics as medians over the
iterations.  With ``--trace 1`` it runs a few untraced iterations, then
traced ones, and reports per-layer metrics and the tracing overhead.
Every iteration's outputs are checked; ``failed`` counts the checks
that did not hold.

Output: one JSON line with the environment and run details, then, as
the last line, ``{"correct", "attempted", "failed", "metrics"}``.
All files go to a temporary directory under the checkout, removed at
exit.  Exits 2 without a result when the checkout lacks the package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = (
    ROOT / "src" / "seqsynth" / "__init__.py",
    ROOT / "tests" / "_groundtruth.py",
    ROOT / "fixtures" / "pipeline.json",
)
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 3
MIN_ITERATIONS = 2  # the byte-identity check needs a second iteration
MIN_LATENCY_SAMPLES = 2000  # per generate-latency series in a traced run
TRACE_UNTRACED_SHARE = 1 / 3  # of --seconds, spent untraced to measure overhead
HARD_LIMIT_S = 140.0  # no iteration starts that would end later; runs must end by 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "synth_seq_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# per-layer metrics the workloads time themselves, taken from untraced iterations
PHASE_LAYERS = (
    "synth.paired_o1_seq_per_s",
    "synth.paired_o2_seq_per_s",
    "synth.tvmc_seq_per_s",
    "synth.clustered_seq_per_s",
    "clustering.cluster_s",
    "cli.stage.ingest_s",
    "cli.stage.cluster_s",
    "cli.stage.synth_s",
    "cli.stage.eval_s",
    "cli.stage.sweep_s",
)


def layer_unit(name: str) -> str:
    if name.endswith("_seq_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if "_ms." in name:
        return "ms"
    if "bytes" in name:
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_seq"):
        return "episodes"
    return "count"


def cap_threads() -> dict[str, str]:
    """Cap BLAS/OpenMP pools at the usable CPU count; must run before numpy loads."""
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ.setdefault(var, nproc)
    return {var: os.environ[var] for var in THREAD_VARS}


def prepare() -> dict[str, str]:
    """Cap threads, then make the package and the ground-truth generator importable."""
    caps = cap_threads()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    return caps


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(caps: dict[str, str]) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "thread_caps": caps,
        "git_commit": git_commit(),
    }


def fresh_import() -> None:
    """Import the package in a new interpreter, as a command-line user does."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    # no timeout: with one, the wait polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import seqsynth"], cwd=ROOT, env=env, check=True)


def median(values) -> float:
    """Median, or 0.0 when there is no value (every iteration failed)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


class Runner:
    def __init__(self, workload, workdir: Path, tracer):
        self.workload = workload
        self.workdir = workdir
        self.tracer = tracer
        self.records: list = []  # (Iteration, traced)
        self.last_elapsed = 0.0

    def one(self, traced: bool):
        outdir = self.workdir / f"iteration-{len(self.records)}"
        outdir.mkdir()
        t = time.perf_counter()
        if traced:
            self.tracer.trace = len(self.records)
            with self.tracer.installed():
                it = self.workload.iterate(outdir)
        else:
            it = self.workload.iterate(outdir)
        self.last_elapsed = time.perf_counter() - t
        shutil.rmtree(outdir)
        self.records.append((it, traced))

    def fits(self, until: float) -> bool:
        """Whether another iteration like the last one ends by ``until``."""
        return time.perf_counter() + self.last_elapsed <= until

    def measure(self, seconds: float, trace: bool, started: float, need_samples: int) -> None:
        start = time.perf_counter()
        deadline = start + seconds
        hard = started + HARD_LIMIT_S
        if not trace:
            while len(self.records) < MIN_ITERATIONS or self.fits(min(deadline, hard)):
                self.one(False)
            return
        untraced_until = start + seconds * TRACE_UNTRACED_SHARE
        while not self.records or self.fits(min(untraced_until, hard)):
            self.one(False)
        self.one(True)
        while self.fits(min(deadline, hard)) or (
            0 < self.tracer.latency_samples() < need_samples and self.fits(hard)
        ):
            self.one(True)


def run(args, caps: dict[str, str], started: float) -> tuple[dict, dict]:
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    scale = workloads.TOY if args.toy else workloads.FULL
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            fresh_import()
            workload = workloads.WORKLOADS[args.workload]()
            workload.setup(args.seed, workdir, scale)
            setup_times.append(time.perf_counter() - t)
        runner = Runner(workload, workdir, tracer)
        need = 0 if args.toy else MIN_LATENCY_SAMPLES
        runner.measure(args.seconds, bool(args.trace), started, need)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = runner.records
    attempted = sum(it.checks.attempted for it, _ in records)
    failed = sum(it.checks.failed for it, _ in records)
    messages = [m for it, _ in records for m in it.checks.messages]
    reference = records[0][0].digests
    for it, _ in records[1:]:
        for key, digest in reference.items():
            attempted += 1
            if it.digests.get(key) != digest:
                failed += 1
                messages.append(f"output {key} differs between iterations of one seed")

    plain = [it for it, traced in records if not traced]
    if not args.trace:
        metrics = {
            "setup_s": median(setup_times),
            "wall_s": median(it.wall_s for it in plain),
            "synth_seq_per_s": median(
                it.synthesized / it.phases["synth_s"] for it in plain if "synth_s" in it.phases
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        traced = [i for i, (_, t) in enumerate(records) if t]
        metrics = tracer.layer_metrics(traced)
        for name in PHASE_LAYERS:
            metrics[name] = median(it.phases[name] for it in plain if name in it.phases)
        metrics["trace.overhead_s"] = median(records[i][0].wall_s for i in traced) - median(
            it.wall_s for it in plain
        )
        units = {name: layer_unit(name) for name in metrics}
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.span_records()), encoding="utf-8")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": "toy" if args.toy else "full",
        "environment": environment(caps),
        "setup_s_each": setup_times,
        "iterations": {"untraced": len(plain), "traced": len(records) - len(plain)},
        "wall_s_each": [it.wall_s for it, _ in records],
        "phases_each": [it.phases for it, _ in records],
        "failed_ratio": failed / attempted if attempted else 0.0,
        "failures": messages[:10],
        "missing_trace_targets": tracer.missing if tracer else [],
    }
    return result, details


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="smoke-test input sizes")
    parser.add_argument("--spans", default=None, help="with --trace 1, write the spans here as JSON")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"perfbench: not a seqsynth checkout, missing {missing}", file=sys.stderr)
        return 2
    caps = prepare()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result, details = run(args, caps, started)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
