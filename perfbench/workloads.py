"""The benchmark's workloads: inputs made from a seed, one closed-loop
iteration over seqsynth's public API, and the checks on its outputs.

Each workload writes its inputs once in ``setup`` and then runs
``iterate`` back to back; every iteration writes into a fresh directory
and returns its timings, the digests of its outputs and its checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from _groundtruth import activity_ground_truth
from seqsynth import cli, clustering, evaluate, synth
from seqsynth import io as seqio

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_CONFIG = ROOT / "fixtures" / "pipeline.json"
HELD_OUT_SEED_OFFSET = 1_000_003
SYNTH_SEED_OFFSET = 2_000_003


LENGTH = 1440
DELTA = 60
K_RANGE = (2, 10)
SYNTH_CLUSTERS = 10


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``FULL`` is what the benchmark measures, ``TOY`` is for
    the smoke test."""

    gt_sequences: int
    paired_count: int
    tvmc_count: int
    cluster_sequences: int


# batches on gt-synth are a quarter of the paper's 2000 so that a run holds
# enough iterations for a steady median on a noisy two-CPU host
FULL = Scale(gt_sequences=2000, paired_count=500, tvmc_count=125, cluster_sequences=1000)
TOY = Scale(gt_sequences=200, paired_count=200, tvmc_count=100, cluster_sequences=120)


@dataclass
class Checks:
    """Output checks of one iteration; failures keep a short message."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)

    def days_in_csv(self, path: Path, labels, length: int) -> None:
        """One check per row: ``length`` cells, every one a source label."""
        allowed = set(labels)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = csv.reader(fh)
            next(rows)
            for row in rows:
                self.check(
                    len(row) == length + 1 and allowed.issuperset(row[1:]),
                    f"{path.name}: day {row[:1]} has the wrong length or a foreign state",
                )

    def days_in_corpus(self, corpus, labels, length: int, name: str) -> None:
        """One check per synthesized day held in memory."""
        same_alphabet = set(corpus.alphabet.labels) == set(labels)
        matrix = corpus.states_matrix
        for i, row in enumerate(matrix):
            self.check(
                same_alphabet and row.size == length and 0 <= row.min() and row.max() < len(labels),
                f"{name}: day {i} has the wrong length or a foreign state",
            )


@dataclass
class Iteration:
    wall_s: float
    phases: dict[str, float]
    digests: dict[str, str]
    checks: Checks
    synthesized: int


def _digest_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digest_tree(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class FixturePipeline:
    """``seqsynth pipeline`` on the shipped continuous-count fixture.

    The config is the shipped one with the synthesis seed replaced and
    the input path made absolute.  Every stage runs on 160 days, so
    clustering is nearly absent and the many small engines the
    pipeline builds weigh as much as generation.
    """

    name = "fixture-pipeline"

    def setup(self, seed: int, workdir: Path, scale: Scale) -> None:
        config = json.loads(FIXTURE_CONFIG.read_text(encoding="utf-8"))
        config["input"]["path"] = str((FIXTURE_CONFIG.parent / config["input"]["path"]).resolve())
        config["synth"]["seed"] = seed + SYNTH_SEED_OFFSET
        self.config = config
        self.config_path = workdir / "pipeline.json"
        self.config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")

    def iterate(self, outdir: Path) -> Iteration:
        t0 = time.perf_counter()
        code = cli.main(
            ["pipeline", "--config", str(self.config_path), "--output", str(outdir), "--workers", "1"]
        )
        wall = time.perf_counter() - t0

        checks = Checks()
        checks.check(code == 0, f"pipeline exited {code}")
        if code != 0:
            return Iteration(wall, {}, {}, checks, 0)
        timings = json.loads((outdir / "pipeline_manifest.json").read_text())["timings_seconds"]
        manifest = json.loads((outdir / "ingest" / "alphabet.json").read_text())
        engines = self.config["synth"]["engines"]
        for engine in engines:
            checks.days_in_csv(outdir / "synth" / f"{engine}.csv", manifest["labels"], manifest["length"])

        report = json.loads((outdir / "eval" / "report.json").read_text())
        checks.check(
            all(
                {"mean", "sd", "d", "p"} <= set(report["individual_durations"][state][method])
                for state in report["states"]
                for method in report["methods"]
            )
            and list(report["methods"]) == engines,
            "report.json lacks the per-state, per-method duration statistics",
        )
        sweep = self.config["sweep"]
        cells = json.loads((outdir / "sweep" / "sweep.json").read_text())["cells"]
        checks.check(
            sorted((c["delta"], c["order"]) for c in cells)
            == sorted((d, o) for d in sweep["deltas"] for o in sweep["orders"]),
            "sweep.json does not hold one cell per (delta, order)",
        )
        phases = {f"cli.stage.{k}_s": float(v) for k, v in timings.items()}
        phases.update(
            {"synth_s": timings["synth"], "clustering.cluster_s": timings["cluster"]}
        )
        digests = {
            stage: _digest_tree(outdir / stage)
            for stage in ("ingest", "cluster", "synth", "eval", "sweep")
        }
        return Iteration(wall, phases, digests, checks, len(engines) * manifest["n_sequences"])


class GroundTruthSynth:
    """The paper's comparison against one 2000 x 1440 ground-truth replicate.

    One large engine per configuration, so engine build, per-sequence
    generation and CSV I/O dominate and clustering is absent.
    """

    name = "gt-synth"
    THROUGHPUT = {
        "paired-mc-o1": "synth.paired_o1_seq_per_s",
        "paired-mc-o2": "synth.paired_o2_seq_per_s",
        "tvmc": "synth.tvmc_seq_per_s",
    }
    METHODS = tuple(THROUGHPUT)

    def setup(self, seed: int, workdir: Path, scale: Scale) -> None:
        self.source = workdir / "source.csv"
        self.held_out = workdir / "held_out.csv"
        source = activity_ground_truth(scale.gt_sequences, LENGTH, seed=seed)
        held = activity_ground_truth(scale.gt_sequences, LENGTH, seed=seed + HELD_OUT_SEED_OFFSET)
        seqio.save_corpus(source, self.source)
        seqio.save_corpus(held, self.held_out)
        self.labels = tuple(sorted(source.alphabet.labels))
        config = synth.SynthesisConfig(
            delta=DELTA, order=1, target_length=LENGTH, seed=seed + SYNTH_SEED_OFFSET
        )
        self.batches = (
            ("paired-mc-o1", "paired-mc", config, scale.paired_count),
            ("paired-mc-o2", "paired-mc", replace(config, order=2), scale.paired_count),
            ("tvmc", "tvmc", config, scale.tvmc_count),
        )

    def iterate(self, outdir: Path) -> Iteration:
        phases = {}
        t0 = time.perf_counter()
        source = seqio.load_corpus(self.source)
        held = seqio.load_corpus(self.held_out)
        outputs = {}
        synth_s = 0.0
        for name, engine, config, count in self.batches:
            t = time.perf_counter()
            outputs[name], _ = synth.synthesize_batch(source, config, count, engine=engine)
            elapsed = time.perf_counter() - t
            phases[self.THROUGHPUT[name]] = count / elapsed
            synth_s += elapsed
        phases["synth_s"] = synth_s
        for name, corpus in outputs.items():
            seqio.save_corpus(corpus, outdir / f"{name}.csv")
        report = evaluate.build_report(held, outputs)
        evaluate.write_report(report, outdir / "eval")
        wall = time.perf_counter() - t0

        checks = Checks()
        for name in self.METHODS:
            checks.days_in_csv(outdir / f"{name}.csv", self.labels, LENGTH)
        for state in self.labels:
            cells = report.individual.get(state, {})
            d_paired = cells.get("paired-mc-o1", {}).get("d")
            d_tvmc = cells.get("tvmc", {}).get("d")
            checks.check(
                d_paired is not None and d_tvmc is not None and d_paired < d_tvmc,
                f"{state}: paired-mc order 1 KS d {d_paired} is not below tvmc's {d_tvmc}",
            )
        digests = {name: _digest_file(outdir / f"{name}.csv") for name in self.METHODS}
        digests["report"] = _digest_file(outdir / "eval" / "report.json")
        synthesized = sum(count for *_, count in self.batches)
        return Iteration(wall, phases, digests, checks, synthesized)


class Cluster1000:
    """Data-driven pre-clustering of 1000 ground-truth days, then a
    clustered paired-mc batch with reversed cluster weights.

    The merge tree dominates.  The batch draws from the dendrogram cut
    into ten clusters rather than from the Dunn-selected one, whose k
    depends on the seed; ten small engines make build and subset cost
    weigh more than they do on ``gt-synth``.
    """

    name = "cluster-1000"

    def setup(self, seed: int, workdir: Path, scale: Scale) -> None:
        self.source = workdir / "source.csv"
        corpus = activity_ground_truth(scale.cluster_sequences, LENGTH, seed=seed)
        seqio.save_corpus(corpus, self.source)
        self.labels = tuple(sorted(corpus.alphabet.labels))
        self.config = synth.SynthesisConfig(
            delta=DELTA, order=1, target_length=LENGTH, seed=seed + SYNTH_SEED_OFFSET
        )

    def iterate(self, outdir: Path) -> Iteration:
        phases = {}
        t0 = time.perf_counter()
        source = seqio.load_corpus(self.source)
        t = time.perf_counter()
        dmat = clustering.pairwise_distance(source, "hamming")
        dendrogram = clustering.hierarchical_cluster(dmat, "complete")
        assignment = clustering.select_clusters(dendrogram, dmat, K_RANGE)
        phases["clustering.cluster_s"] = time.perf_counter() - t
        groups = clustering.ClusterAssignment(dendrogram.cut(SYNTH_CLUSTERS))
        t = time.perf_counter()
        out, _ = synth.synthesize_batch(
            source, self.config, len(source), assignment=groups, weights=groups.sizes[::-1]
        )
        phases["synth_s"] = time.perf_counter() - t
        phases["synth.clustered_seq_per_s"] = len(out) / phases["synth_s"]
        report = evaluate.build_report(source, {"paired-mc-clustered": out})
        evaluate.write_report(report, outdir / "eval")
        wall = time.perf_counter() - t0

        checks = Checks()
        lo, hi = K_RANGE
        checks.check(
            assignment.n == len(source) and lo <= assignment.k <= hi and assignment.labels.min() == 0,
            f"cluster assignment of {assignment.n} days into k={assignment.k} is malformed",
        )
        checks.days_in_corpus(out, self.labels, LENGTH, "paired-mc-clustered")
        h = hashlib.sha256(out.states_matrix.tobytes())
        h.update("\n".join(out.ids).encode())
        digests = {
            "assignment": hashlib.sha256(assignment.labels.tobytes()).hexdigest(),
            "paired-mc-clustered": h.hexdigest(),
            "report": _digest_file(outdir / "eval" / "report.json"),
        }
        return Iteration(wall, phases, digests, checks, len(out))


WORKLOADS = {w.name: w for w in (FixturePipeline, GroundTruthSynth, Cluster1000)}
