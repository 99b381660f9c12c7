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

Every subcommand turns its flags into the sections of a pipeline config
and runs its one stage through the same runner, which checks the whole
config against one schema before any stage writes.  argparse only splits
argv into flags: a number is read as JSON reads it, anything else goes on
as its text, and a flag left out takes its key's schema default, so a
flag is defaulted and checked as its config key is, and fails with the
same message.

Exit codes: 0 success, 2 configuration error (a malformed command line
too), 3 data error.  Errors are emitted as one JSON object on stderr.
All randomness flows from ``--seed``; when unset, a seed is drawn from
system entropy and printed.  The hash of the configuration is recorded
in every JSON artifact.
"""

from __future__ import annotations

import argparse
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
from .core import Corpus, discretize_corpus, smooth_rolling, threshold_alphabet
from .errors import ConfigError, SeqSynthError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
ENV_OUTDIR = "SEQSYNTH_OUTDIR"


def _config_hash(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _number(sep: str | None = None):
    """argparse ``type``: one number, or a ``sep``-separated list of them.

    Each number is read with ``json.loads``, as in a config file; empty
    list items are skipped.  Text with an item that is no JSON int or float
    (``true``, ``1_0``, ``.5``) is passed on as it is, for the schema to
    reject as it rejects that value in a config.
    """

    def convert(text: str):
        items = [text] if sep is None else [x for x in text.split(sep) if x.strip()]
        try:
            values = [json.loads(x) for x in items]
        except ValueError:
            return text
        if any(type(v) not in (int, float) for v in values):  # bool is no int here
            return text
        return values[0] if sep is None else values

    return convert


def _load_json_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return data


# ---------------------------------------------------------------------------
# stages


def _read_input(
    input_path, fmt: str, smooth: int | None, thresholds: list[float] | None,
    on_missing: str, interval_minutes: int,
) -> Corpus:
    """The ingest stage's corpus, read before anything is written."""
    if fmt == seqio.CONTINUOUS:
        series = seqio.load_continuous(input_path, on_missing=on_missing)
        if smooth is not None:
            series = [smooth_rolling(s, smooth) for s in series]
        if thresholds[0] > 0:
            thresholds = [0.0] + list(thresholds)  # zero is its own category
        return discretize_corpus(series, thresholds, interval_minutes)
    return seqio.load_corpus(input_path, fmt, interval_minutes=interval_minutes)


def _stage_ingest(corpus: Corpus, outdir: Path, cfg_hash: str) -> Corpus:
    seqio.save_corpus(corpus, outdir / "corpus.csv", seqio.INTERVAL)
    seqio.save_alphabet(
        corpus.alphabet, outdir / "alphabet.json", interval_minutes=corpus.interval_minutes,
        n_sequences=len(corpus), length=corpus.length, config_hash=cfg_hash,
    )
    return corpus


def _stage_cluster(
    corpus: Corpus, metric: str, linkage: str, k_range: tuple[int, int],
    min_size: int | None, labels_path, outdir: Path, cfg_hash: str,
) -> clustering.ClusterAssignment:
    if labels_path is not None:
        user = seqio.load_cluster_labels(labels_path)
        assignment = synth._resolve_assignment(corpus, user)
        summary: dict = {"source": "user"}
    else:
        dmat = clustering.pairwise_distance(corpus, metric)
        dend = clustering.hierarchical_cluster(dmat, linkage)
        assignment, profile, chosen = clustering._select(dend, dmat, k_range, min_size)
        summary = {"source": "dunn", "metric": metric, "linkage": linkage}
        summary.update(
            k_range=[min(profile), max(profile)],
            dunn_by_k={str(k): None if math.isinf(v) else v for k, v in profile.items()},
            chosen_k=chosen,
        )
    labels = {i: int(c) for i, c in zip(corpus.ids, assignment.labels)}
    sizes_desc = sorted((int(s) for s in assignment.sizes), reverse=True)
    summary.update(k=assignment.k, sizes_desc=sizes_desc, config_hash=cfg_hash)
    seqio.save_cluster_labels(labels, outdir / "assignment.csv")
    seqio.write_json(summary, outdir / "cluster_summary.json")
    return assignment


def _stage_synth(
    corpus: Corpus, config: synth.SynthesisConfig, count: int, engine: str,
    assignment, weights, workers: int, out_format: str, corpus_name: str,
    outdir: Path, cfg_hash: str,
) -> Corpus:
    out, provenance = synth.synthesize_batch(
        corpus, config, count, engine=engine, assignment=assignment,
        weights=weights, workers=workers,
    )
    seqio.save_corpus(out, outdir / f"{corpus_name}.csv", out_format)
    payload = provenance.to_dict()
    payload["config_hash"] = cfg_hash
    seqio.write_json(payload, outdir / f"{corpus_name}_provenance.json")
    return out


def _stage_eval(
    original: Corpus, methods: dict[str, Corpus], states: list[str] | None,
    include_zero: bool, outdir: Path, cfg_hash: str,
):
    report = evaluate.build_report(
        original, methods, states=states, exclude_zero_combined=not include_zero
    )
    evaluate.write_report(report, outdir, config_hash=cfg_hash)
    return report


def _stage_sweep(
    corpus: Corpus, grid: list[synth.SynthesisConfig], count: int, engine: str,
    assignment, weights, workers: int, states: list[str] | None,
    include_zero: bool, outdir: Path, cfg_hash: str,
) -> dict:
    def d_p(block: dict) -> dict:
        return {"d": block["d"], "p": block["p"]}

    cells = []
    rows = [["delta", "order", "state", "metric", "d", "p"]]
    for config in grid:
        name = f"{engine}-d{config.delta}-o{config.order}"
        out, _ = synth.synthesize_batch(
            corpus, config, count, engine=engine, assignment=assignment,
            weights=weights, workers=workers,
        )
        report = evaluate.build_report(
            corpus, {name: out}, states=states, exclude_zero_combined=not include_zero
        )
        cell = {"delta": config.delta, "order": config.order, "method": name}
        cell.update(entropy=d_p(report.entropy[name]), states={})
        for state in report.states:
            blocks = {
                "individual": report.individual[state][name],
                "combined": report.combined[state][name],
            }
            cell["states"][state] = {metric: d_p(b) for metric, b in blocks.items()}
            for metric, b in blocks.items():
                rows.append(
                    [config.delta, config.order, state, metric]
                    + ["" if b[k] is None else repr(b[k]) for k in ("d", "p")]
                )
        cells.append(cell)
    payload = {"cells": cells, "config_hash": cfg_hash}
    seqio.write_json(payload, outdir / "sweep.json")
    seqio.write_csv(rows, outdir / "sweep.csv")
    return payload


# ---------------------------------------------------------------------------
# config schema: each check raises a ConfigError naming the key


def _must(what: str, test):
    def check(name: str, value) -> None:
        if not test(value):
            raise ConfigError(f"{name} must be {what}, got {value!r}")

    return check


def _positive(name: str, value) -> None:
    synth._require_int(name, value)
    if value < 1:
        raise ConfigError(f"{name} must be at least 1, got {value!r}")


def _ints(what: str, size: int | None = None):
    """A non-empty list of integers (of exactly ``size``, if given)."""
    is_list = _must(what, lambda v: isinstance(v, list) and v and size in (None, len(v)))

    def check(name: str, value) -> None:
        is_list(name, value)
        for i, item in enumerate(value):
            synth._require_int(f"{name}[{i}]", item)

    return check


def _choice(*options: str):
    return _must(f"one of {list(options)}", lambda v: isinstance(v, str) and v in options)


def _optional(check):
    return lambda name, value: value is None or check(name, value)


def _unique(names: list) -> None:
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"duplicate method name {name!r}")


_TEXT = _must("a non-empty string", lambda v: isinstance(v, str) and v != "")
_BOOL = _must("true or false", lambda v: isinstance(v, bool))
_ENGINES = _must(
    f"a non-empty list drawn from {list(synth.ENGINES)}",
    lambda v: isinstance(v, list) and v and all(e in synth.ENGINES for e in v),
)
_STATES = _must(
    "a string or a list of strings naming states",
    lambda v: (isinstance(v, str) and all(v.split(",")))
    or (isinstance(v, list) and v and all(isinstance(s, str) and s for s in v)),
)

# section -> key -> (default, check).  The synth section's other keys are
# the synthesis config, parsed by synth.config_from_dict; the top level
# holds these sections and ``output_dir``.
_SCHEMA = {
    "input": {
        "path": (None, _TEXT),
        "format": (seqio.INTERVAL, _choice(*seqio.CORPUS_FORMATS, seqio.CONTINUOUS)),
    },
    "preprocess": {
        "smooth_window": (None, _optional(_positive)),
        "thresholds": (None, lambda name, value: None),  # checked where read
        "on_missing": ("error", _choice("error", "drop")),
        "interval_minutes": (1, _positive),
    },
    "cluster": {
        "enabled": (False, _BOOL),
        "metric": ("hamming", _choice("hamming")),
        "linkage": ("complete", _choice(*clustering.LINKAGES)),
        "k_range": ([2, 10], _ints("two integers", 2)),
        "min_size": (None, _optional(_positive)),
        "labels_path": (None, _optional(_TEXT)),
    },
    "synth": {
        "engines": (list(synth.ENGINES), _ENGINES),
        "workers": (1, synth._check_workers),
        # the corpus's day length; another value fails once the corpus is read
        "target_length": (None, _optional(synth._require_int)),
    },
    "eval": {
        "states": ("top5", _STATES),
        "include_zero_combined": (False, _BOOL),
    },
    "sweep": {
        "deltas": ([30, 60, 120], _ints("a non-empty list of integers")),
        "orders": ([1, 2], _ints("a non-empty list of integers")),
        "engine": ("paired-mc", _choice(*synth.ENGINES)),
    },
}

# the day length is known only once the corpus is read, so the check bounds
# delta by it later and by nothing here
_UNREAD_LENGTH = 2**63 - 1


def _grid(base: synth.SynthesisConfig, sweep: dict, **fields) -> list:
    """Every (delta, order) cell's config, validated before any cell runs."""
    deltas, orders = sweep["deltas"], sweep["orders"]
    return [replace(base, delta=d, order=o, **fields) for d in deltas for o in orders]


def _check(cfg: dict) -> dict:
    """Every section with its defaults filled in, or a ConfigError.

    The synthesis keys of the synth section become its ``config``,
    ``count`` and ``weights``.  A field whose use depends on another is
    checked only where a stage reads it: ``cluster.k_range`` order for
    data-driven clustering, ``preprocess.thresholds`` for continuous input.
    """
    unknown = [key for key in cfg if key not in _SCHEMA and key != "output_dir"]
    for name, table in _SCHEMA.items():
        section = cfg.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"{name} must be an object, got {section!r}")
        if name != "synth":
            unknown += [f"{name}.{key}" for key in section if key not in table]
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")

    default_outdir = os.environ.get(ENV_OUTDIR, "seqsynth-out")
    eff: dict = {"output_dir": cfg.get("output_dir", default_outdir)}
    _TEXT("output_dir", eff["output_dir"])
    for name, table in _SCHEMA.items():
        section = cfg.get(name, {})
        eff[name] = {key: section.get(key, default) for key, (default, _) in table.items()}
        for key, (_, check) in table.items():
            check(f"{name}.{key}", eff[name][key])

    syn = eff["synth"]
    _unique(syn["engines"])
    rest = {k: v for k, v in cfg.get("synth", {}).items() if k not in syn}
    syn["config"], syn["count"], syn["weights"] = synth.config_from_dict(
        {**rest, "target_length": _UNREAD_LENGTH}
    )
    if "sweep" in cfg:
        _grid(syn["config"], eff["sweep"])
    if syn["weights"] is not None and not eff["cluster"]["enabled"]:
        raise ConfigError("synth.weights need clustering: enable cluster or give --assignment")

    if eff["input"]["format"] == seqio.CONTINUOUS:
        if eff["preprocess"]["thresholds"] is None:
            raise ConfigError("continuous input requires --thresholds")
        threshold_alphabet(eff["preprocess"]["thresholds"], "preprocess.thresholds")
    clu = eff["cluster"]
    lo, hi = clu["k_range"]
    if clu["enabled"] and clu["labels_path"] is None and not 2 <= lo <= hi:
        raise ConfigError(
            f"cluster.k_range must satisfy lo <= hi with lo >= 2, got {clu['k_range']!r}"
        )
    return eff


# ---------------------------------------------------------------------------
# runner


def _run(
    cfg: dict, stages, output, cfg_hash: str, *, root: Path = Path(),
    workers: int | None = None, pipeline: bool = False,
    out_format: str = seqio.INTERVAL, methods: dict | None = None,
) -> None:
    """Check ``cfg`` in full, then run the requested ``stages`` in order.

    Nothing is written before the whole config passes.  Without ingest,
    ``input.path`` is read as an interval corpus; an enabled cluster
    section not run as a stage gives its ``labels_path`` as the assignment;
    sweep runs only if ``cfg`` has a sweep section; without synth, eval
    compares ``methods`` (name -> path).  Input, label and method paths
    are relative to ``root``; ``output`` and ``output_dir``, like
    ``SEQSYNTH_OUTDIR``, to the working directory.  A pipeline writes each
    stage into a subdirectory of ``output`` (default ``output_dir``), names
    each corpus after its engine and writes stage timings to
    ``pipeline_manifest.json``; a subcommand writes into ``output``.
    """
    eff = _check(cfg)
    workers = eff["synth"]["workers"] if workers is None else workers
    synth._check_workers("synth.workers", workers)
    inp, pre, clu, syn, ev, sw = (eff[name] for name in _SCHEMA)
    outdir = Path(eff["output_dir"] if output is None else output)
    timings: dict[str, float] = {}

    def run(stage: str, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args, outdir / stage if pipeline else outdir, cfg_hash)
        timings[stage] = timings.get(stage, 0.0) + time.perf_counter() - t0
        return result

    source = root / inp["path"]
    if "ingest" in stages:
        # the ingest stage is timed from the read; it saves after the checks
        t0 = time.perf_counter()
        corpus = _read_input(
            source, inp["format"], pre["smooth_window"], pre["thresholds"],
            pre["on_missing"], pre["interval_minutes"],
        )
        timings["ingest"] = time.perf_counter() - t0
    else:
        corpus = seqio.load_corpus(source)
    if syn["target_length"] not in (None, corpus.length):
        raise ConfigError(
            f"synth.target_length {syn['target_length']} does not match the "
            f"corpus day length {corpus.length}"
        )
    # delta is bounded by the day length
    day = {"target_length": corpus.length}
    config = replace(syn["config"], **day) if "synth" in stages else None
    grid = _grid(syn["config"], sw, **day) if "sweep" in stages and "sweep" in cfg else None
    count = len(corpus) if syn["count"] is None else syn["count"]
    if config is not None or grid is not None:
        synth._check_batch_size(count, corpus.length)
    states = ev["states"]
    if isinstance(states, str):
        states = None if states == "top5" else states.split(",")
    if "ingest" in stages:
        run("ingest", _stage_ingest, corpus)

    assignment = None
    if clu["enabled"] and "cluster" in stages:
        labels = None if clu["labels_path"] is None else root / clu["labels_path"]
        assignment = run(
            "cluster", _stage_cluster, corpus, clu["metric"], clu["linkage"],
            tuple(clu["k_range"]), clu["min_size"], labels,
        )
    elif clu["enabled"]:
        user = seqio.load_cluster_labels(root / clu["labels_path"])
        assignment = synth._resolve_assignment(corpus, user)

    if "synth" in stages:
        methods = run("synth", lambda *where: {
            engine: _stage_synth(
                corpus, config, count, engine, assignment, syn["weights"], workers,
                out_format, engine if pipeline else "synth", *where,
            )
            for engine in syn["engines"]
        })
    elif methods is not None:
        alphabet = corpus.alphabet
        methods = {
            name: seqio.load_corpus(root / path, alphabet=alphabet, extend_alphabet=False)
            for name, path in methods.items()
        }
    if "eval" in stages:
        run("eval", _stage_eval, corpus, methods, states, ev["include_zero_combined"])
    if grid is not None:
        run(
            "sweep", _stage_sweep, corpus, grid, count, sw["engine"], assignment,
            syn["weights"], workers, states, ev["include_zero_combined"],
        )
    if pipeline:
        manifest = {"config_hash": cfg_hash, "stages": sorted(timings)}
        manifest["timings_seconds"] = {k: round(v, 3) for k, v in timings.items()}
        seqio.write_json(manifest, outdir / "pipeline_manifest.json")


# ---------------------------------------------------------------------------
# subcommands: flags -> config sections -> runner


def _subcommand(args, cfg: dict, hashed: dict | None = None, **options) -> int:
    """Run the command's one stage into ``--output``.

    The config hash covers the command, ``cfg`` and ``hashed`` (what else
    decides the output bytes), never the worker count.
    """
    cfg_hash = _config_hash({"command": args.command, **cfg, **(hashed or {})})
    workers = getattr(args, "workers", None)
    _run(cfg, (args.command,), args.output, cfg_hash, workers=workers, **options)
    return EXIT_OK


def _given(**flags) -> dict:
    return {key: value for key, value in flags.items() if value is not None}


def _section(name: str, args, **flags) -> dict:
    """Schema section ``name``: its defaults, with the flags given for its keys over them.

    Each flag's ``dest`` is its key; ``flags`` replace the parsed values.
    """
    table = _SCHEMA[name]
    given = _given(**({key: getattr(args, key, None) for key in table} | flags))
    return {key: default for key, (default, _) in table.items()} | given


def _synth_sections(args) -> dict:
    """input, synth and (with --assignment) cluster sections of synth or sweep.

    The synth section is the ``--config`` file's keys with the flags laid
    over them; an unset seed is drawn and printed.
    """
    section = {} if args.config is None else _load_json_config(args.config)
    for key in ("engines", "workers"):  # set by --engine and --workers
        if key in section:
            raise ConfigError(f"unknown synthesis config key(s): {key}")
    given = section.get("sampler", {})
    sampler = dict(given) if isinstance(given, dict) else {"type": given}
    sampler.update(_given(type=args.sampler, bandwidth_rule=args.bandwidth))
    section["sampler"] = sampler
    flags = ("delta", "order", "buffer", "duration_pool", "count", "seed", "weights")
    section.update(_given(**{key: getattr(args, key) for key in flags}))
    if section.get("seed") is None:
        section["seed"] = secrets.randbits(63)
        print(f"seed={section['seed']}")
    cfg = {"input": {"path": args.corpus}, "synth": section}
    if args.assignment is not None:
        cfg["cluster"] = {"enabled": True, "labels_path": args.assignment}
    return cfg


def cmd_ingest(args) -> int:
    # a --thresholds with no numbers in it gives no thresholds
    preprocess = _section("preprocess", args, thresholds=args.thresholds or None)
    return _subcommand(args, {"input": _section("input", args), "preprocess": preprocess})


def cmd_cluster(args) -> int:
    cluster = _section("cluster", args, enabled=True)
    return _subcommand(args, {"input": {"path": args.corpus}, "cluster": cluster})


def cmd_synth(args) -> int:
    cfg = _synth_sections(args)
    cfg["synth"]["engines"] = [args.engine]
    return _subcommand(args, cfg, {"format": args.format}, out_format=args.format)


def cmd_eval(args) -> int:
    methods: dict[str, str] = {}
    for entry in args.method:
        name, sep, path = entry.partition("=")
        if not sep or not name or not path:
            raise ConfigError(f"expected --method NAME=PATH, got {entry!r}")
        _unique([*methods, name])
        if name == "original":
            raise ConfigError('method name "original" is reserved')
        methods[name] = path
    cfg = {"input": {"path": args.original}, "eval": _section("eval", args)}
    return _subcommand(args, cfg, {"methods": sorted(methods)}, methods=methods)


def cmd_sweep(args) -> int:
    cfg = _synth_sections(args)
    cfg["synth"].pop("delta", None)  # the grid replaces it
    cfg["eval"] = _section("eval", args)
    cfg["sweep"] = _section("sweep", args)
    return _subcommand(args, cfg)


def cmd_pipeline(args) -> int:
    cfg_path = Path(args.config)
    cfg = _load_json_config(cfg_path)
    _run(
        cfg, ("ingest", "cluster", "synth", "eval", "sweep"), args.output,
        _config_hash(cfg), root=cfg_path.parent, workers=args.workers, pipeline=True,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point


class _Parser(argparse.ArgumentParser):
    """Splits argv into flags; a malformed command line is a ConfigError."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    # no flag is abbreviated: a prefix of one is an unknown flag
    parser = _Parser(
        prog="seqsynth", description="Synthesize and evaluate long categorical sequences.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(func.__name__.removeprefix("cmd_"), help=help, allow_abbrev=False)
        p.add_argument("--output")
        p.set_defaults(func=func)
        return p

    p = command(cmd_ingest, "normalize input data to an interval corpus")
    p.add_argument("--input", dest="path", required=True)
    p.add_argument("--format")
    p.add_argument("--smooth", dest="smooth_window", type=_number(), metavar="WINDOW")
    p.add_argument("--thresholds", type=_number(","), help="e.g. 760,2020 (zero is implied)")
    p.add_argument("--drop-missing", dest="on_missing", action="store_const", const="drop")
    p.add_argument("--interval-minutes", type=_number())

    p = command(cmd_cluster, "pre-cluster an ingested corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--metric")
    p.add_argument("--linkage")
    p.add_argument("--k-range", type=_number(":"), metavar="LO:HI")
    p.add_argument("--min-size", type=_number())
    p.add_argument("--labels", dest="labels_path", help="user-driven assignment CSV")

    p = command(cmd_synth, "synthesize a corpus")
    _add_synth_flags(p)
    p.add_argument("--format", choices=seqio.CORPUS_FORMATS, default=seqio.INTERVAL)
    p.set_defaults(engine="paired-mc")  # one engine, where a pipeline runs every one

    p = command(cmd_eval, "compare synthesized corpora to an original")
    p.add_argument("--original", required=True)
    p.add_argument("--method", action="append", required=True, metavar="NAME=PATH")
    _add_eval_flags(p)

    p = command(cmd_sweep, "synth+eval over a (delta, order) grid")
    _add_synth_flags(p)
    _add_eval_flags(p)
    p.add_argument("--deltas", type=_number(","))
    p.add_argument("--orders", type=_number(","))

    p = command(cmd_pipeline, "run every stage from one JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=_number())
    return parser


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True)
    p.add_argument("--assignment", help="cluster assignment CSV")
    p.add_argument("--config", help="synthesis config JSON")
    p.add_argument("--engine")
    p.add_argument("--delta", type=_number())
    p.add_argument("--order", type=_number())
    p.add_argument("--sampler")
    p.add_argument("--bandwidth", type=_number())
    p.add_argument("--buffer")
    p.add_argument("--duration-pool")
    p.add_argument("--count", type=_number(), help="default: corpus size")
    p.add_argument("--seed", type=_number())
    p.add_argument("--weights", type=_number(","), help="per-cluster weights a,b,c")
    p.add_argument("--workers", type=_number())


def _add_eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--states")
    p.add_argument("--include-zero-combined", action="store_const", const=True)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (SeqSynthError, OSError) as exc:
        code = EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_DATA
        payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
