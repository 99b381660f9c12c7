"""Command-line front end.

Subcommands wire ingestion, pre-clustering, synthesis, evaluation, and
window-sensitivity sweeps into reproducible pipelines:

* ``ingest``   normalize interval/episode/continuous input to an interval
               CSV plus an alphabet manifest
* ``cluster``  data-driven (or user-supplied) cluster assignment
* ``synth``    synthesize a corpus with either engine
* ``eval``     compare method corpora against an original
* ``sweep``    synth+eval over a (delta, order) grid
* ``pipeline`` run every stage from one JSON config

Exit codes: 0 success, 2 configuration error, 3 data error.  Errors are
emitted as one JSON object on stderr.  All randomness flows from
``--seed``; when unset, a seed is drawn from system entropy and printed.
The hash of the effective configuration is recorded in every JSON
artifact.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import secrets
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import clustering, evaluate, synth
from . import io as seqio
from .core import Corpus, discretize_corpus, smooth_rolling
from .errors import ConfigError, DataFormatError, SeqSynthError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
ENV_OUTDIR = "SEQSYNTH_OUTDIR"


def _config_hash(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _default_outdir() -> str:
    return os.environ.get(ENV_OUTDIR, "seqsynth-out")


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    seed = secrets.randbits(63)
    print(f"seed={seed}")
    return seed


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}")


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"expected a comma-separated number list, got {text!r}")


def _parse_k_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"expected k-range LO:HI, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"expected k-range LO:HI, got {text!r}")


def _load_json_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return data


def _pick(flag_value, config: dict, key: str, default):
    """Flag wins over config file value wins over default."""
    if flag_value is not None:
        return flag_value
    if key in config and config[key] is not None:
        return config[key]
    return default


# ---------------------------------------------------------------------------
# stage helpers shared by subcommands and the pipeline


def _stage_ingest(
    input_path,
    fmt: str,
    outdir: Path,
    smooth: int | None,
    thresholds: list[float] | None,
    on_missing: str,
    interval_minutes: int,
    cfg_hash: str,
) -> Corpus:
    if fmt == seqio.CONTINUOUS:
        series = seqio.load_continuous(input_path, on_missing=on_missing)
        if smooth is not None:
            series = [smooth_rolling(s, smooth) for s in series]
        if not thresholds:
            raise ConfigError("continuous input requires --thresholds")
        if thresholds[0] > 0:
            thresholds = [0.0] + list(thresholds)  # zero is its own category
        corpus = discretize_corpus(series, thresholds, interval_minutes)
    elif fmt in seqio.CORPUS_FORMATS:
        corpus = seqio.load_corpus(input_path, fmt, interval_minutes=interval_minutes)
    else:
        raise ConfigError(f"unknown input format {fmt!r}")
    seqio.save_corpus(corpus, outdir / "corpus.csv", seqio.INTERVAL)
    seqio.save_alphabet(
        corpus.alphabet,
        outdir / "alphabet.json",
        interval_minutes=corpus.interval_minutes,
        n_sequences=len(corpus),
        length=corpus.length,
        config_hash=cfg_hash,
    )
    return corpus


def _stage_cluster(
    corpus: Corpus,
    outdir: Path,
    metric: str,
    linkage: str,
    k_range: tuple[int, int],
    min_size: int | None,
    labels_path,
    cfg_hash: str,
) -> dict[str, int]:
    if labels_path is not None:
        user = seqio.load_cluster_labels(labels_path)
        missing = [i for i in corpus.ids if i not in user]
        if missing:
            raise DataFormatError(f"label file missing ids: {missing[:5]}")
        vec = clustering.ClusterAssignment.from_labels(
            [user[i] for i in corpus.ids]
        )
        labels = {i: int(c) for i, c in zip(corpus.ids, vec.labels)}
        summary = {
            "source": "user",
            "k": vec.k,
            "sizes_desc": sorted((int(s) for s in vec.sizes), reverse=True),
            "config_hash": cfg_hash,
        }
    else:
        dmat = clustering.pairwise_distance(corpus, metric)
        dend = clustering.hierarchical_cluster(dmat, linkage)
        k_hi = min(k_range[1], len(corpus))
        profile = clustering.dunn_profile(dend, dmat, (k_range[0], k_hi))
        chosen = clustering.best_dunn_k(profile)
        assignment = clustering.fold_small_clusters(
            clustering.ClusterAssignment(dend.cut(chosen)), min_size
        )
        labels = {i: int(c) for i, c in zip(corpus.ids, assignment.labels)}
        summary = {
            "source": "dunn",
            "metric": metric,
            "linkage": linkage,
            "k_range": [k_range[0], k_hi],
            "dunn_by_k": {str(k): profile[k] for k in sorted(profile)},
            "chosen_k": int(chosen),
            "k": assignment.k,
            "sizes_desc": sorted((int(s) for s in assignment.sizes), reverse=True),
            "config_hash": cfg_hash,
        }
    seqio.save_cluster_labels(labels, outdir / "assignment.csv")
    seqio.write_json(summary, outdir / "cluster_summary.json")
    return labels


def _stage_synth(
    corpus: Corpus,
    config: synth.SynthesisConfig,
    count: int,
    engine: str,
    assignment,
    weights,
    workers: int,
    outdir: Path,
    out_format: str,
    cfg_hash: str,
    corpus_name: str = "synth",
) -> Corpus:
    out, provenance = synth.synthesize_batch(
        corpus,
        config,
        count,
        engine=engine,
        assignment=assignment,
        weights=weights,
        workers=workers,
    )
    seqio.save_corpus(out, outdir / f"{corpus_name}.csv", out_format)
    payload = provenance.to_dict()
    payload["config_hash"] = cfg_hash
    seqio.write_json(payload, outdir / f"{corpus_name}_provenance.json")
    return out


def _resolve_states(selection, corpus: Corpus):
    if selection is None or selection == "top5":
        return None
    if isinstance(selection, str):
        return [s for s in selection.split(",") if s]
    return list(selection)


def _stage_eval(
    original: Corpus,
    methods: dict[str, Corpus],
    states,
    include_zero: bool,
    outdir: Path,
    cfg_hash: str,
):
    report = evaluate.build_report(
        original,
        methods,
        states=_resolve_states(states, original),
        exclude_zero_combined=not include_zero,
    )
    evaluate.write_report(report, outdir, config_hash=cfg_hash)
    return report


def _sweep_grid(
    base: synth.SynthesisConfig, deltas: list[int], orders: list[int]
) -> list[synth.SynthesisConfig]:
    """Every (delta, order) cell's config, validated before any cell runs."""
    return [replace(base, delta=d, order=o) for d in deltas for o in orders]


def _stage_sweep(
    corpus: Corpus,
    grid: list[synth.SynthesisConfig],
    count: int,
    engine: str,
    assignment,
    weights,
    workers: int,
    states,
    include_zero: bool,
    outdir: Path,
    cfg_hash: str,
) -> dict:
    cells = []
    rows = []
    for config in grid:
        name = f"{engine}-d{config.delta}-o{config.order}"
        out, _ = synth.synthesize_batch(
            corpus,
            config,
            count,
            engine=engine,
            assignment=assignment,
            weights=weights,
            workers=workers,
        )
        report = evaluate.build_report(
            corpus,
            {name: out},
            states=_resolve_states(states, corpus),
            exclude_zero_combined=not include_zero,
        )
        cell = {
            "delta": config.delta,
            "order": config.order,
            "method": name,
            "entropy": {
                "d": report.entropy[name]["d"],
                "p": report.entropy[name]["p"],
            },
            "states": {},
        }
        for state in report.states:
            ind = report.individual[state][name]
            comb = report.combined[state][name]
            cell["states"][state] = {
                "individual": {"d": ind["d"], "p": ind["p"]},
                "combined": {"d": comb["d"], "p": comb["p"]},
            }
            for metric, block in (("individual", ind), ("combined", comb)):
                rows.append(
                    [
                        config.delta,
                        config.order,
                        state,
                        metric,
                        "" if block["d"] is None else repr(block["d"]),
                        "" if block["p"] is None else repr(block["p"]),
                    ]
                )
        cells.append(cell)
    payload = {"cells": cells, "config_hash": cfg_hash}
    seqio.write_json(payload, outdir / "sweep.json")
    with open(outdir / "sweep.csv", "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["delta", "order", "state", "metric", "d", "p"])
        w.writerows(rows)
    return payload


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(args) -> int:
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    thresholds = _parse_float_list(args.thresholds) if args.thresholds else None
    effective = {
        "command": "ingest",
        "input": str(args.input),
        "format": args.format,
        "smooth": args.smooth,
        "thresholds": thresholds,
        "on_missing": "drop" if args.drop_missing else "error",
        "interval_minutes": args.interval_minutes,
    }
    _stage_ingest(
        args.input,
        args.format,
        outdir,
        args.smooth,
        thresholds,
        "drop" if args.drop_missing else "error",
        args.interval_minutes,
        _config_hash(effective),
    )
    return EXIT_OK


def cmd_cluster(args) -> int:
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    corpus = seqio.load_corpus(args.corpus)
    k_range = _parse_k_range(args.k_range)
    effective = {
        "command": "cluster",
        "corpus": str(args.corpus),
        "metric": args.metric,
        "linkage": args.linkage,
        "k_range": list(k_range),
        "min_size": args.min_size,
        "labels": None if args.labels is None else str(args.labels),
    }
    _stage_cluster(
        corpus,
        outdir,
        args.metric,
        args.linkage,
        k_range,
        args.min_size,
        args.labels,
        _config_hash(effective),
    )
    return EXIT_OK


def _synth_settings(args, corpus: Corpus, delta: int | None = None):
    """Merge --config file values with flag overrides.

    A given ``delta`` replaces the flag and file values.
    """
    file_cfg: dict = {}
    if args.config is not None:
        file_cfg = _load_json_config(args.config)
    if delta is None:
        delta = _pick(args.delta, file_cfg, "delta", 60)
    # delta is bounded by the day length, so validate the one used against
    # this corpus
    base, file_count, file_weights = synth.config_from_dict(
        {**file_cfg, "delta": delta, "target_length": corpus.length}
    )
    sampler = args.sampler if args.sampler is not None else base.sampler
    bandwidth = args.bandwidth if args.bandwidth is not None else base.kde_bandwidth
    seed = _resolve_seed(args.seed if args.seed is not None else file_cfg.get("seed"))
    config = synth.SynthesisConfig(
        delta=delta,
        order=_pick(args.order, file_cfg, "order", 1),
        target_length=corpus.length,
        sampler=sampler,
        kde_bandwidth=bandwidth,
        buffer=_pick(args.buffer, file_cfg, "buffer", "tvmc"),
        seed=seed,
        duration_pool=_pick(args.duration_pool, file_cfg, "duration_pool", "window"),
    )
    count = args.count if args.count is not None else file_count
    if count is None:
        count = len(corpus)
    weights = (
        _parse_float_list(args.weights) if args.weights is not None else file_weights
    )
    return config, count, weights


def _load_assignment(args, corpus: Corpus):
    if getattr(args, "assignment", None) is None:
        return None
    # synthesize_batch rejects a file that misses any corpus id
    return seqio.load_cluster_labels(args.assignment)


def cmd_synth(args) -> int:
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    corpus = seqio.load_corpus(args.corpus)
    config, count, weights = _synth_settings(args, corpus)
    assignment = _load_assignment(args, corpus)
    effective = {
        "command": "synth",
        "corpus": str(args.corpus),
        "engine": args.engine,
        "assignment": None if args.assignment is None else str(args.assignment),
        "weights": weights,
        "format": args.format,
        **synth.config_to_dict(config, count=count),
    }
    _stage_synth(
        corpus,
        config,
        count,
        args.engine,
        assignment,
        weights,
        args.workers,
        outdir,
        args.format,
        _config_hash(effective),
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    original = seqio.load_corpus(args.original)
    methods: dict[str, Corpus] = {}
    for entry in args.method:
        name, sep, path = entry.partition("=")
        if not sep or not name or not path:
            raise ConfigError(f"expected --method NAME=PATH, got {entry!r}")
        methods[name] = seqio.load_corpus(
            path, alphabet=original.alphabet, extend_alphabet=False
        )
    effective = {
        "command": "eval",
        "original": str(args.original),
        "methods": sorted(methods),
        "states": args.states,
        "include_zero_combined": args.include_zero_combined,
    }
    _stage_eval(
        original,
        methods,
        args.states,
        args.include_zero_combined,
        outdir,
        _config_hash(effective),
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    corpus = seqio.load_corpus(args.corpus)
    deltas = _parse_int_list(args.deltas)
    orders = _parse_int_list(args.orders)
    if not deltas or not orders:
        raise ConfigError("sweep grid must contain at least one delta and one order")
    # the grid replaces delta, so the base takes the first cell's
    config, count, weights = _synth_settings(args, corpus, delta=deltas[0])
    grid = _sweep_grid(config, deltas, orders)
    assignment = _load_assignment(args, corpus)
    effective = {
        "command": "sweep",
        "corpus": str(args.corpus),
        "deltas": deltas,
        "orders": orders,
        "engine": args.engine,
        "states": args.states,
        **synth.config_to_dict(config, count=count, weights=weights),
    }
    _stage_sweep(
        corpus,
        grid,
        count,
        args.engine,
        assignment,
        weights,
        args.workers,
        args.states,
        args.include_zero_combined,
        outdir,
        _config_hash(effective),
    )
    return EXIT_OK


def _check_pipeline_types(
    input_format, pre: dict, cluster_cfg: dict, eval_cfg: dict, engines, workers
) -> None:
    """Check the pipeline's own fields before any stage runs.

    ``cluster.k_range`` order and ``preprocess.thresholds`` are checked only
    where a stage reads them: data-driven clustering and continuous input.
    """
    for name, value in (
        ("cluster.enabled", cluster_cfg.get("enabled", False)),
        ("eval.include_zero_combined", eval_cfg.get("include_zero_combined", False)),
    ):
        if not isinstance(value, bool):
            raise ConfigError(f"{name} must be true or false, got {value!r}")
    required = [
        ("preprocess.interval_minutes", pre.get("interval_minutes", 1)),
        ("synth.workers", workers),
    ]
    optional = [
        ("preprocess.smooth_window", pre.get("smooth_window")),
        ("cluster.min_size", cluster_cfg.get("min_size")),
    ]
    k_range = cluster_cfg.get("k_range", [2, 10])
    if not isinstance(k_range, (list, tuple)) or len(k_range) != 2:
        raise ConfigError(f"cluster.k_range must be two integers, got {k_range!r}")
    required += [("cluster.k_range", k) for k in k_range]
    for name, value in required + [f for f in optional if f[1] is not None]:
        synth._require_int(name, value)
    clustering = cluster_cfg.get("enabled", False)
    if clustering and cluster_cfg.get("labels_path") is None and k_range[0] > k_range[1]:
        raise ConfigError(f"cluster.k_range must satisfy lo <= hi, got {k_range!r}")
    thresholds = pre.get("thresholds")
    if input_format == seqio.CONTINUOUS and thresholds is not None and not (
        isinstance(thresholds, list)
        and thresholds
        and all(_finite_number(t) for t in thresholds)
    ):
        raise ConfigError(
            f"preprocess.thresholds must be a non-empty list of finite numbers, "
            f"got {thresholds!r}"
        )
    states = eval_cfg.get("states")
    if not (
        states is None
        or isinstance(states, str)
        or (isinstance(states, list) and all(isinstance(s, str) for s in states))
    ):
        raise ConfigError(f"eval.states must be a string or a list of strings, got {states!r}")
    if not (isinstance(engines, list) and engines and all(e in synth.ENGINES for e in engines)):
        raise ConfigError(
            f"synth.engines must be a non-empty list drawn from {list(synth.ENGINES)}, "
            f"got {engines!r}"
        )


def _finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or math.isfinite(value)


def cmd_pipeline(args) -> int:
    cfg_path = Path(args.config)
    cfg = _load_json_config(cfg_path)
    root = cfg_path.parent

    def _path(value):
        p = Path(value)
        return p if p.is_absolute() else root / p

    outdir = Path(
        args.output
        if args.output is not None
        else cfg.get("output_dir", _default_outdir())
    )
    outdir.mkdir(parents=True, exist_ok=True)
    cfg_hash = _config_hash(cfg)
    timings: dict[str, float] = {}

    input_cfg = cfg.get("input", {})
    if not input_cfg.get("path"):
        raise ConfigError("pipeline config requires input.path")
    pre = cfg.get("preprocess", {})
    cluster_cfg = cfg.get("cluster", {})
    synth_cfg = dict(cfg.get("synth", {}))
    engines = synth_cfg.pop("engines", ["paired-mc", "tvmc"])
    file_workers = synth_cfg.pop("workers", 1)
    eval_cfg = cfg.get("eval", {})
    _check_pipeline_types(
        input_cfg.get("format", seqio.INTERVAL), pre, cluster_cfg, eval_cfg, engines,
        file_workers,
    )

    t0 = time.perf_counter()
    corpus = _stage_ingest(
        _path(input_cfg["path"]),
        input_cfg.get("format", seqio.INTERVAL),
        outdir / "ingest",
        pre.get("smooth_window"),
        pre.get("thresholds"),
        pre.get("on_missing", "error"),
        pre.get("interval_minutes", 1),
        cfg_hash,
    )
    timings["ingest"] = time.perf_counter() - t0

    assignment = None
    if cluster_cfg.get("enabled", False):
        t0 = time.perf_counter()
        labels_path = cluster_cfg.get("labels_path")
        assignment = _stage_cluster(
            corpus,
            outdir / "cluster",
            cluster_cfg.get("metric", "hamming"),
            cluster_cfg.get("linkage", "complete"),
            tuple(cluster_cfg.get("k_range", (2, 10))),
            cluster_cfg.get("min_size"),
            None if labels_path is None else _path(labels_path),
            cfg_hash,
        )
        timings["cluster"] = time.perf_counter() - t0

    workers = args.workers if args.workers is not None else file_workers
    base_config, count, weights = synth.config_from_dict(
        {**synth_cfg, "target_length": corpus.length}
    )
    if count is None:
        count = len(corpus)
    sweep_cfg = cfg.get("sweep")
    sweep_grid = None
    if sweep_cfg:
        sweep_grid = _sweep_grid(
            base_config,
            sweep_cfg.get("deltas", [30, 60, 120]),
            sweep_cfg.get("orders", [1, 2]),
        )

    t0 = time.perf_counter()
    methods: dict[str, Corpus] = {}
    for engine in engines:
        methods[engine] = _stage_synth(
            corpus,
            base_config,
            count,
            engine,
            assignment,
            weights,
            workers,
            outdir / "synth",
            seqio.INTERVAL,
            cfg_hash,
            corpus_name=engine,
        )
    timings["synth"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    _stage_eval(
        corpus,
        methods,
        eval_cfg.get("states", "top5"),
        eval_cfg.get("include_zero_combined", False),
        outdir / "eval",
        cfg_hash,
    )
    timings["eval"] = time.perf_counter() - t0

    if sweep_grid is not None:
        t0 = time.perf_counter()
        _stage_sweep(
            corpus,
            sweep_grid,
            count,
            sweep_cfg.get("engine", "paired-mc"),
            assignment,
            weights,
            workers,
            eval_cfg.get("states", "top5"),
            eval_cfg.get("include_zero_combined", False),
            outdir / "sweep",
            cfg_hash,
        )
        timings["sweep"] = time.perf_counter() - t0

    seqio.write_json(
        {
            "config_hash": cfg_hash,
            "stages": sorted(timings),
            "timings_seconds": {k: round(v, 3) for k, v in timings.items()},
        },
        outdir / "pipeline_manifest.json",
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqsynth",
        description="Synthesize and evaluate long categorical sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="normalize input data to an interval corpus")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--format",
        choices=(seqio.INTERVAL, seqio.EPISODE, seqio.CONTINUOUS),
        default=seqio.INTERVAL,
    )
    p.add_argument("--smooth", type=int, default=None, help="rolling mean window")
    p.add_argument("--thresholds", default=None, help="e.g. 760,2020 (zero is implied)")
    p.add_argument("--drop-missing", action="store_true")
    p.add_argument("--interval-minutes", type=int, default=1)
    p.add_argument("--output", default=_default_outdir())
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("cluster", help="pre-cluster an ingested corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--metric", choices=("hamming",), default="hamming")
    p.add_argument("--linkage", choices=clustering.LINKAGES, default="complete")
    p.add_argument("--k-range", default="2:10")
    p.add_argument("--min-size", type=int, default=None)
    p.add_argument("--labels", default=None, help="user-driven assignment CSV")
    p.add_argument("--output", default=_default_outdir())
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("synth", help="synthesize a corpus")
    _add_synth_flags(p)
    p.add_argument("--engine", choices=synth.ENGINES, default="paired-mc")
    p.add_argument("--format", choices=seqio.CORPUS_FORMATS, default=seqio.INTERVAL)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="compare synthesized corpora to an original")
    p.add_argument("--original", required=True)
    p.add_argument("--method", action="append", required=True, metavar="NAME=PATH")
    p.add_argument("--states", default="top5")
    p.add_argument("--include-zero-combined", action="store_true")
    p.add_argument("--output", default=_default_outdir())
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="synth+eval over a (delta, order) grid")
    _add_synth_flags(p)
    p.add_argument("--engine", choices=synth.ENGINES, default="paired-mc")
    p.add_argument("--deltas", default="30,60,120")
    p.add_argument("--orders", default="1,2")
    p.add_argument("--states", default="top5")
    p.add_argument("--include-zero-combined", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("pipeline", help="run every stage from one JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_pipeline)

    return parser


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True)
    p.add_argument("--assignment", default=None, help="cluster assignment CSV")
    p.add_argument("--config", default=None, help="synthesis config JSON")
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--sampler", choices=synth.SAMPLERS, default=None)
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--buffer", choices=synth.BUFFERS, default=None)
    p.add_argument("--duration-pool", choices=synth.DURATION_POOLS, default=None)
    p.add_argument("--count", type=int, default=None, help="default: corpus size")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--weights", default=None, help="per-cluster weights a,b,c")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--output", default=_default_outdir())


def _emit_error(exc: Exception, code: int, **extra) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    payload.update(extra)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _emit_error(exc, EXIT_CONFIG)
        return EXIT_CONFIG
    except (DataFormatError, SeqSynthError) as exc:
        _emit_error(exc, EXIT_DATA)
        return EXIT_DATA
    except OSError as exc:
        _emit_error(exc, EXIT_DATA)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
