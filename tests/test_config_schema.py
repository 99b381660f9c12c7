"""The one config schema: every bad field fails before any stage writes.

A bad pipeline field, or the flag that sets the same field, must exit 2
with one JSON ``ConfigError`` and leave no stage output behind.
"""

import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsynth import cli, synth
from seqsynth import io as seqio

from _groundtruth import activity_ground_truth

REPO = Path(__file__).resolve().parents[1]
FIXTURE_CONFIG = json.loads((REPO / "fixtures" / "pipeline.json").read_text())
FIXTURE_CONFIG["input"]["path"] = str(REPO / "fixtures" / FIXTURE_CONFIG["input"]["path"])


def _run(argv) -> tuple[int, dict | None]:
    """Exit code and the JSON error object printed on stderr, if any."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, json.loads(err.getvalue()) if err.getvalue() else None


def _pipeline(cfg: dict, workdir: Path) -> tuple[int, dict | None]:
    path = workdir / "pipeline.json"
    path.write_text(json.dumps(cfg))
    return _run(["pipeline", "--config", path, "--output", workdir / "out"])


def _with(path: tuple, value) -> dict:
    """The fixture config with the field at ``path`` set to ``value``."""
    cfg = copy.deepcopy(FIXTURE_CONFIG)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


def _assert_config_error(code, err, out: Path) -> str:
    assert code == cli.EXIT_CONFIG, err
    assert err["error"] == "ConfigError"
    assert err["exit_code"] == cli.EXIT_CONFIG
    assert not any(p.is_dir() for p in out.glob("*")), "a stage wrote before the check"
    return err["message"]


# every probe changes one field of fixtures/pipeline.json; the fragment is
# part of the message
PROBES = [
    (("clustr",), {}, "clustr"),
    (("cluster", "linkge"), "complete", "cluster.linkge"),
    (("preprocess", "smoth"), 5, "preprocess.smoth"),
    (("eval", "stats"), "top5", "eval.stats"),
    (("input", "fmt"), "continuous", "input.fmt"),
    (("sweep", "delta"), [30], "sweep.delta"),
    (("cluster",), "yes", "cluster must be an object"),
    (("sweep",), True, "sweep must be an object"),
    (("synth", "weights"), "abc", "weights must be"),
    (("input", "path"), 5, "input.path must be"),
    (("cluster", "labels_path"), 5, "cluster.labels_path must be"),
    (("cluster", "linkage"), 5, "cluster.linkage must be one of"),
    (("cluster", "linkage"), "wards", "cluster.linkage must be one of"),
    (("cluster", "metric"), "euclid", "cluster.metric must be one of"),
    (("cluster", "k_range"), [1, 6], "cluster.k_range must satisfy lo <= hi"),
    (("sweep", "engine"), "foo", "sweep.engine must be one of"),
    (("sweep", "deltas"), "30", "sweep.deltas must be a non-empty list"),
    (("sweep", "deltas"), [], "sweep.deltas must be a non-empty list"),
    (("synth", "workers"), 0, "synth.workers must be at least 1"),
    (("synth", "workers"), -2, "synth.workers must be at least 1"),
    (("preprocess", "interval_minutes"), 0, "preprocess.interval_minutes must be at least 1"),
    (("preprocess", "smooth_window"), 0, "preprocess.smooth_window must be at least 1"),
    (("synth", "engines"), ["tvmc", "tvmc"], "duplicate method name 'tvmc'"),
    # an int beyond the float range is no finite number
    (("preprocess", "thresholds"), [760, 10**400], "preprocess.thresholds must be"),
    (("synth", "weights"), [1, 10**400], "weights must be"),
    (("synth", "weights"), [0, 0, 0], "at least one positive"),
    (("preprocess", "thresholds"), [760, 760], "preprocess.thresholds must be"),
    (("preprocess", "thresholds"), [2020, 760], "strictly ascending"),
    # the text a flag passes on when it is no JSON number
    (("synth", "seed"), "1_0", "seed must be an integer, got '1_0'"),
    (("synth", "delta"), "٦٠", "delta must be an integer"),
    (("synth", "count"), "010", "count must be an integer"),
    (("synth", "sampler", "bandwidth_rule"), ".5", "kde bandwidth must be"),
    (("synth", "workers"), "true", "synth.workers must be an integer"),
    (("synth", "weights"), "1_0,1", "weights must be"),
    (("synth", "workers"), synth._MAX_WORKERS + 1, "synth.workers must be at most"),
    (("synth", "sampler", "bandwidth_rule"), 10**400, "kde bandwidth must be"),
]


@pytest.mark.parametrize(
    "path, value, fragment", PROBES, ids=[f"{'.'.join(p)}={v!r}"[:40] for p, v, _ in PROBES]
)
def test_probe_fails_before_any_stage(tmp_path, path, value, fragment):
    code, err = _pipeline(_with(path, value), tmp_path)
    assert fragment in _assert_config_error(code, err, tmp_path / "out")


# the JSON kinds each fixture field accepts; any other kind is a type error
KINDS = {
    ("input",): {"object"},
    ("input", "path"): {"str"},
    ("input", "format"): {"str"},
    ("preprocess",): {"object"},
    ("preprocess", "smooth_window"): {"int", "null"},
    ("preprocess", "thresholds"): {"list"},
    ("cluster",): {"object"},
    ("cluster", "enabled"): {"bool"},
    ("cluster", "metric"): {"str"},
    ("cluster", "linkage"): {"str"},
    ("cluster", "k_range"): {"list"},
    ("synth",): {"object"},
    ("synth", "delta"): {"int"},
    ("synth", "order"): {"int"},
    ("synth", "sampler"): {"str", "object"},
    ("synth", "sampler", "type"): {"str"},
    ("synth", "sampler", "bandwidth_rule"): {"str", "int", "float", "null"},
    ("synth", "buffer"): {"str"},
    ("synth", "seed"): {"int"},
    ("synth", "engines"): {"list"},
    ("eval",): {"object"},
    ("eval", "states"): {"str", "list"},
    ("sweep",): {"object"},
    ("sweep", "deltas"): {"list"},
    ("sweep", "orders"): {"list"},
    ("output_dir",): {"str"},
}
VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-(10**6), 10**6),
    "float": st.floats(),
    "str": st.text(max_size=6),
    "list": st.lists(st.integers(0, 5), max_size=3),
    "object": st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
}
OBJECTS = [()] + [path for path, kinds in KINDS.items() if "object" in kinds]


def _fields(node, prefix=()):
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _fields(value, prefix + (key,))


def test_kinds_cover_every_fixture_field():
    assert set(_fields(FIXTURE_CONFIG)) == set(KINDS)


@st.composite
def broken_configs(draw) -> dict:
    """The fixture with one field of a wrong JSON kind, or an unknown key."""
    if draw(st.booleans()):
        path = draw(st.sampled_from(sorted(KINDS)))
        kind = draw(st.sampled_from(sorted(set(VALUES) - KINDS[path])))
        return _with(path, draw(VALUES[kind]))
    parent = draw(st.sampled_from(OBJECTS))
    return _with(parent + ("zz" + draw(st.text(max_size=4)),), draw(VALUES["int"]))


@settings(max_examples=200, deadline=None)
@given(cfg=broken_configs())
def test_wrong_kind_or_unknown_key_fails_before_any_stage(cfg):
    with tempfile.TemporaryDirectory() as d:
        code, err = _pipeline(cfg, Path(d))
        _assert_config_error(code, err, Path(d) / "out")


@pytest.fixture
def corpus_csv(tmp_path):
    """A corpus, with a two-cluster assignment of it beside it."""
    path = tmp_path / "corpus.csv"
    corpus = activity_ground_truth(12, 240, seed=70)
    seqio.save_corpus(corpus, path)
    labels = {sid: i % 2 for i, sid in enumerate(corpus.ids)}
    seqio.save_cluster_labels(labels, _assignment(path))
    _fixture_config(path).write_text(json.dumps(FIXTURE_CONFIG))
    return path


def _assignment(corpus) -> Path:
    return Path(corpus).with_name("assignment.csv")


def _fixture_config(corpus) -> Path:
    return Path(corpus).with_name("fixture.json")


def _flags(corpus):
    return {
        "synth-workers": (["synth", "--corpus", corpus, "--seed", 1, "--workers", 0],
                          ("synth", "workers"), 0),
        "sweep-workers": (["sweep", "--corpus", corpus, "--seed", 1, "--workers", 0],
                          ("synth", "workers"), 0),
        "synth-workers-bound": (
            ["synth", "--corpus", corpus, "--seed", 1, "--workers", synth._MAX_WORKERS + 1],
            ("synth", "workers"), synth._MAX_WORKERS + 1,
        ),
        # a flag's numbers are read as JSON, so "0" is the int 0 in both
        "synth-zero-weights": (
            ["synth", "--corpus", corpus, "--seed", 1, "--assignment", _assignment(corpus),
             "--weights", "0,0"],
            ("synth", "weights"), [0, 0],
        ),
        "sweep-deltas": (["sweep", "--corpus", corpus, "--seed", 1, "--deltas", ","],
                         ("sweep", "deltas"), []),
        "ingest-interval-minutes": (["ingest", "--input", corpus, "--interval-minutes", 0],
                                    ("preprocess", "interval_minutes"), 0),
        "ingest-smooth": (["ingest", "--input", corpus, "--smooth", 0],
                          ("preprocess", "smooth_window"), 0),
        "cluster-k-range": (["cluster", "--corpus", corpus, "--k-range", "1:6"],
                            ("cluster", "k_range"), [1, 6]),
        "eval-duplicate-method": (
            ["eval", "--original", corpus, "--method", f"tvmc={corpus}",
             "--method", f"tvmc={corpus}"],
            ("synth", "engines"), ["tvmc", "tvmc"],
        ),
        # argparse holds no allowed values and parses no number: a choice
        # or text that is no number fails in the schema, as in a config
        **_unparsed_flags(corpus),
    }


def _unparsed_flags(corpus):
    ingest = ["ingest", "--input", corpus]
    cluster = ["cluster", "--corpus", corpus]
    synth_ = ["synth", "--corpus", corpus, "--seed", 1]
    sweep = ["sweep", "--corpus", corpus, "--seed", 1]
    cases = [
        (ingest, "--format", "xml", ("input", "format")),
        (ingest, "--smooth", "five", ("preprocess", "smooth_window")),
        # a number is read as JSON reads it: a float is no integer
        (ingest, "--interval-minutes", "1.5", ("preprocess", "interval_minutes"), 1.5),
        (ingest + ["--format", "continuous"], "--thresholds", "760,x",
         ("preprocess", "thresholds")),
        (cluster, "--metric", "euclid", ("cluster", "metric")),
        (cluster, "--linkage", "single", ("cluster", "linkage")),
        (cluster, "--k-range", "2:x", ("cluster", "k_range")),
        (cluster, "--min-size", "x", ("cluster", "min_size")),
        # synth's one engine is the list of engines a pipeline runs
        (synth_, "--engine", "hmm", ("synth", "engines"), ["hmm"]),
        (sweep, "--engine", "hmm", ("sweep", "engine")),
        (synth_, "--delta", "abc", ("synth", "delta")),
        (synth_, "--order", "2.0", ("synth", "order"), 2.0),
        (synth_, "--count", "1e3", ("synth", "count"), 1000.0),
        (synth_, "--sampler", "bogus", ("synth", "sampler", "type")),
        (synth_, "--bandwidth", "wide", ("synth", "sampler", "bandwidth_rule")),
        (synth_, "--buffer", "bogus", ("synth", "buffer")),
        (synth_, "--duration-pool", "bogus", ("synth", "duration_pool")),
        (synth_, "--count", "x", ("synth", "count")),
        (["synth", "--corpus", corpus], "--seed", "x", ("synth", "seed")),
        (synth_, "--weights", "a,b", ("synth", "weights")),
        (synth_, "--workers", "two", ("synth", "workers")),
        (sweep, "--workers", "two", ("synth", "workers")),
        (["pipeline", "--config", _fixture_config(corpus)], "--workers", "two",
         ("synth", "workers")),
        (sweep, "--deltas", "30,x", ("sweep", "deltas")),
        (sweep, "--orders", "1,x", ("sweep", "orders")),
        # text that int() or float() reads but JSON does not is no number
        (["synth", "--corpus", corpus], "--seed", "1_0", ("synth", "seed")),
        (synth_, "--delta", "٦٠", ("synth", "delta")),
        (synth_, "--count", "010", ("synth", "count")),
        (synth_, "--workers", "true", ("synth", "workers")),
        (synth_, "--bandwidth", ".5", ("synth", "sampler", "bandwidth_rule")),
        (synth_, "--bandwidth", "inf", ("synth", "sampler", "bandwidth_rule")),
        (synth_, "--weights", "1_0,1", ("synth", "weights")),
        (sweep, "--deltas", "30,٦٠", ("sweep", "deltas")),
        (ingest, "--smooth", "010", ("preprocess", "smooth_window")),
        (ingest, "--interval-minutes", "true", ("preprocess", "interval_minutes")),
        (ingest + ["--format", "continuous"], "--thresholds", "760,.5",
         ("preprocess", "thresholds")),
        (cluster, "--k-range", "2:1_0", ("cluster", "k_range")),
        (cluster, "--min-size", "٥", ("cluster", "min_size")),
        # a list read whole is checked whole: repeats are not ascending
        (ingest + ["--format", "continuous"], "--thresholds", "760,760",
         ("preprocess", "thresholds"), [760, 760]),
    ]
    return {
        f"{argv[0]}{flag}={text}": (argv + [flag, text], path, value[0] if value else text)
        for argv, flag, text, path, *value in cases
    }


@pytest.mark.parametrize("case", list(_flags("c")))
def test_flag_fails_like_its_pipeline_field(tmp_path, corpus_csv, case):
    argv, path, value = _flags(corpus_csv)[case]
    out = tmp_path / "flag-out"
    code, err = _run(argv + ["--output", out])
    flag_message = _assert_config_error(code, err, out)
    assert not out.exists()
    code, err = _pipeline(_with(path, value), tmp_path)
    assert _assert_config_error(code, err, tmp_path / "out") == flag_message


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["synth", "--corpus", "c.csv", "--detla", "3"], "unrecognized arguments: --detla 3"),
        (["synth", "--seed", "1"], "the following arguments are required: --corpus"),
        ([], "the following arguments are required: command"),
        (["transmogrify"], "invalid choice: 'transmogrify'"),
        (["synth", "--corpus", "c.csv", "--format", "xml"], "invalid choice: 'xml'"),
        # a prefix of a flag once ran as that flag: --dur as --duration-pool
        (["synth", "--corpus", "c.csv", "--seed", "5", "--dur", "all_day", "--del", "10"],
         "unrecognized arguments: --dur all_day --del 10"),
    ],
    ids=["unknown-flag", "missing-flag", "missing-command", "unknown-command", "bad-format",
         "abbreviated-flag"],
)
def test_malformed_command_line_is_a_config_error(tmp_path, argv, fragment):
    # argparse once printed its usage and raised SystemExit(2) out of cli.main
    out = tmp_path / "out"
    code, err = _run(argv + ["--output", out] if argv else argv)
    assert fragment in _assert_config_error(code, err, out)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, given, own",
    [
        (["ingest", "--input", "c.csv"], "path", {}),
        (["cluster", "--corpus", "c.csv"], "corpus", {}),
        # synth runs one engine and writes one format; no config key holds either
        (["synth", "--corpus", "c.csv"], "corpus", {"engine": "paired-mc", "format": "interval"}),
        (["eval", "--original", "c.csv", "--method", "m=c.csv"], "original method", {}),
        (["sweep", "--corpus", "c.csv"], "corpus", {}),
        (["pipeline", "--config", "p.json"], "config", {}),
    ],
    ids=["ingest", "cluster", "synth", "eval", "sweep", "pipeline"],
)
def test_a_flag_left_out_takes_the_schema_default(argv, given, own):
    # argparse states no default of its own, so the schema's applies
    args = vars(cli.build_parser().parse_args(argv))
    for key in ("command", "func", *given.split()):
        del args[key]
    assert {key: value for key, value in args.items() if value is not None} == own


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["synth", "--help"])
    assert exit_.value.code == 0
    assert "--corpus" in capsys.readouterr().out


def test_weights_need_clustering(tmp_path, corpus_csv):
    # weights were once ignored without clusters, and recorded as [1.0]
    out = tmp_path / "flag-out"
    argv = ["synth", "--corpus", corpus_csv, "--seed", 1, "--weights", "0.7,0.3"]
    code, err = _run(argv + ["--output", out])
    flag_message = _assert_config_error(code, err, out)
    assert not out.exists()
    assert "synth.weights need clustering" in flag_message
    cfg = _with(("synth", "weights"), [0.7, 0.3])
    cfg["cluster"]["enabled"] = False
    code, err = _pipeline(cfg, tmp_path)
    assert _assert_config_error(code, err, tmp_path / "out") == flag_message


def test_readme_table_lists_every_config_key():
    keys = {f"{section}.{key}" for section, table in cli._SCHEMA.items() for key in table}
    keys.add("output_dir")
    synth_keys = synth.config_to_dict(synth.SynthesisConfig(), count=0, weights=())
    for key, value in synth_keys.items():
        keys.add(f"synth.{key}")
        if isinstance(value, dict):
            keys.update(f"synth.{key}.{sub}" for sub in value)
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"^\| `([\w.]+)` \|", readme, flags=re.MULTILINE))
    assert documented == keys
