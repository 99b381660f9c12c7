"""Spans and counters recorded around calls into seqsynth's layers.

The tracer wraps functions by swapping module and class attributes for
the length of a traced iteration and restores them afterwards; the
package itself is not modified.  Nested calls (engine builds and
generations inside ``synthesize_batch``, stages inside ``cli.main``)
are reached the same way, because the package looks those names up at
call time.

A span is ``(name, start, end, parent, trace)``: ``parent`` is the index
of the enclosing span (-1 at the root) and ``trace`` the iteration the
span belongs to.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from seqsynth import cli, clustering, core, evaluate, synth
from seqsynth import io as seqio

GENERATE_PAIRED = "synth.paired_generate.o"
GENERATE_TVMC = "synth.tvmc_generate"
FALLBACK_KEYS = ("window_widened", "order_reduced", "tvmc_steps")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.trace = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._order = 0  # order of the paired-mc generation in progress

    # -- recording ----------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        index = len(self.spans)
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.trace]
        self.spans.append(rec)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, key: str, value=1) -> None:
        self.counts[self.trace][key] += value

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            result = tracer._call(label, fn, args, kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    # -- patch targets ------------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name or None for counter-only, after hook)."""
        count = self.count

        def file_size(path):
            return os.path.getsize(path) if os.path.exists(path) else 0

        def read_bytes(result, path, *a, **k):
            count("io.bytes_read", file_size(path))

        def written_bytes(result, corpus, path, *a, **k):
            count("io.bytes_written", file_size(path))

        def distances(result, corpus, *a, **k):
            n = len(corpus)
            self.counts[self.trace]["clustering.n"] = n
            self.counts[self.trace]["clustering.dist_matrix_bytes"] = n * n * 8

        def chosen(result, *a, **k):
            self.counts[self.trace]["clustering.k"] = int(result.k)

        def indexed(result, *a, **k):
            count("synth.index_records", int(getattr(result, "n_records", 0)))

        def built(result, *a, **k):
            count("synth.engine_builds")

        def paired_done(result, engine, *a, **k):
            count("synth.paired_seqs")
            count("synth.paired_episodes", len(getattr(result, "episodes", None) or ()))
            fallbacks = getattr(result, "fallbacks", {})
            for key in FALLBACK_KEYS:
                count(f"synth.fallback.{key}", int(fallbacks.get(key, 0)))

        def tvmc_done(result, *a, **k):
            fallbacks = getattr(result, "fallbacks", {})
            count("synth.tvmc_marginal_fallbacks", int(fallbacks.get("marginal", 0)))

        def ks(result, *a, **k):
            count("evaluate.ks_tests")

        def report_written(result, report, outdir, *a, **k):
            count("evaluate.files_written", sum(1 for p in Path(outdir).rglob("*") if p.is_file()))

        def paired_name(args):
            self._order = args[0].config.order
            return f"{GENERATE_PAIRED}{self._order}"

        def first_rung(result, index, a_c, context=(), t_c=0, delta=None, order=1):
            # every episode draw starts with the full-order, base-window query
            if order == self._order and (delta is None or delta == index.delta):
                count("synth.draws")
                count("synth.first_rung", int(result.states.size > 0))

        return [
            (cli, "main", "cli.main", None),
            (cli, "_stage_ingest", "cli.stage.ingest", None),
            (cli, "_stage_cluster", "cli.stage.cluster", None),
            (cli, "_stage_synth", "cli.stage.synth", None),
            (cli, "_stage_eval", "cli.stage.eval", None),
            (cli, "_stage_sweep", "cli.stage.sweep", None),
            (seqio, "load_corpus", "io.load_corpus", read_bytes),
            (seqio, "load_continuous", "io.load_continuous", read_bytes),
            (seqio, "save_corpus", "io.save_corpus", written_bytes),
            (cli, "smooth_rolling", "core.smooth_rolling", None),
            (cli, "discretize_corpus", "core.discretize_corpus", None),
            (core.Corpus, "subset", "core.corpus_subset", None),
            (clustering, "pairwise_distance", "clustering.pairwise_distance", distances),
            (clustering, "hierarchical_cluster", "clustering.merge_tree", None),
            (clustering, "dunn_profile", "clustering.dunn_profile", None),
            (clustering, "select_clusters", "clustering.select_clusters", chosen),
            (synth, "synthesize_batch", "synth.batch", None),
            (synth.TvmcModel, "fit", "synth.tvmc_fit", None),
            (synth, "extend_with_buffer", "synth.buffer", None),
            (synth, "build_index", "synth.index_build", indexed),
            (synth.PairedMcEngine, "__init__", "synth.engine_build", built),
            (synth.TvmcEngine, "__init__", "synth.engine_build", built),
            (synth.PairedMcEngine, "generate", paired_name, paired_done),
            (synth.TvmcEngine, "generate", GENERATE_TVMC, tvmc_done),
            (synth.CandidateIndex, "candidates", None, first_rung),
            (evaluate, "ks_two_sample", None, ks),
            (evaluate, "build_report", "evaluate.build_report", None),
            (evaluate, "write_report", "evaluate.write_report", report_written),
        ]

    @contextmanager
    def installed(self):
        """Patch every target that exists; restore all of them on exit.

        A target the package no longer has is skipped and listed in
        ``missing``, so the traced run still works after a refactor and
        the loss of that layer's numbers is visible.
        """
        saved = []
        try:
            for owner, attr, name, after in self._targets():
                raw = vars(owner).get(attr)
                if raw is None:
                    label = f"{getattr(owner, '__name__', owner)}.{attr}"
                    if label not in self.missing:
                        self.missing.append(label)
                    continue
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                if name is None:
                    wrapped = self._counter(fn, after)
                else:
                    wrapped = self._wrap(name, fn, after)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                setattr(owner, attr, wrapped)
                saved.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    @staticmethod
    def _counter(fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result, *args, **kwargs)
            return result

        return wrapper

    # -- summaries ----------------------------------------------------------

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "trace": t}
            for n, s, e, p, t in self.spans
        ]

    def layer_metrics(self, traces: list[int]) -> dict[str, float]:
        """Per-layer sums per traced iteration (median over iterations),
        generate latencies pooled over all of them, and counts from the
        first traced iteration."""
        totals: dict[int, Counter] = {t: Counter() for t in traces}
        children: dict[int, float] = Counter()
        latencies: dict[str, list[float]] = defaultdict(list)
        for name, start, end, parent, trace in self.spans:
            if trace not in totals:
                continue
            totals[trace][name] += end - start
            if parent >= 0:
                children[parent] += end - start
            if name.startswith(GENERATE_PAIRED) or name == GENERATE_TVMC:
                latencies[name].append((end - start) * 1e3)
        for i, (name, start, end, parent, trace) in enumerate(self.spans):
            if name == "synth.batch" and trace in totals:
                totals[trace]["synth.batch_self"] += end - start - children[i]

        def seconds(*names):
            return float(np.median([sum(totals[t][n] for n in names) for t in traces]))

        out = {
            "io.load_corpus_s": seconds("io.load_corpus"),
            "io.save_corpus_s": seconds("io.save_corpus"),
            "io.load_continuous_s": seconds("io.load_continuous"),
            "core.preprocess_s": seconds("core.smooth_rolling", "core.discretize_corpus"),
            "core.corpus_subset_s": seconds("core.corpus_subset"),
            "clustering.pairwise_distance_s": seconds("clustering.pairwise_distance"),
            "clustering.merge_tree_s": seconds("clustering.merge_tree"),
            "clustering.dunn_profile_s": seconds("clustering.dunn_profile"),
            "clustering.select_clusters_s": seconds("clustering.select_clusters"),
            "synth.tvmc_fit_s": seconds("synth.tvmc_fit"),
            "synth.buffer_s": seconds("synth.buffer"),
            "synth.index_build_s": seconds("synth.index_build"),
            "synth.engine_build_s": seconds("synth.engine_build"),
            "synth.batch_assembly_s": seconds("synth.batch_self"),
            "evaluate.build_report_s": seconds("evaluate.build_report"),
            "evaluate.write_report_s": seconds("evaluate.write_report"),
        }
        for order in (1, 2):
            sample = latencies.get(f"{GENERATE_PAIRED}{order}", [])
            out[f"synth.paired_generate_ms.o{order}.p50"] = _percentile(sample, 50)
            out[f"synth.paired_generate_ms.o{order}.p99"] = _percentile(sample, 99)
        out["synth.tvmc_generate_ms.p50"] = _percentile(latencies.get(GENERATE_TVMC, []), 50)
        out["synth.tvmc_generate_ms.p99"] = _percentile(latencies.get(GENERATE_TVMC, []), 99)

        first = self.counts[traces[0]]
        for key in (
            "io.bytes_read",
            "io.bytes_written",
            "clustering.n",
            "clustering.k",
            "clustering.dist_matrix_bytes",
            "synth.engine_builds",
            "synth.index_records",
            "synth.tvmc_marginal_fallbacks",
            "evaluate.ks_tests",
            "evaluate.files_written",
        ) + tuple(f"synth.fallback.{k}" for k in FALLBACK_KEYS):
            out[key] = float(first[key])
        out["synth.episodes_per_seq"] = _ratio(first["synth.paired_episodes"], first["synth.paired_seqs"])
        out["synth.first_rung_ratio"] = _ratio(first["synth.first_rung"], first["synth.draws"])
        return out

    def latency_samples(self) -> int:
        """Fewest samples held by any generate-latency series seen so far
        (0 when there is none)."""
        sizes = Counter(
            name for name, *_ in self.spans
            if name.startswith(GENERATE_PAIRED) or name == GENERATE_TVMC
        )
        return min(sizes.values()) if sizes else 0


def _percentile(sample: list[float], q: float) -> float:
    return float(np.percentile(sample, q)) if sample else 0.0


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0
