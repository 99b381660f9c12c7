import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seqsynth import cli
from seqsynth import io as seqio
from seqsynth.core import StateAlphabet, Corpus

from _groundtruth import activity_ground_truth

REPO = Path(__file__).resolve().parents[1]
FIXTURE = REPO / "fixtures" / "activity_counts.csv"


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture
def corpus_csv(tmp_path):
    corpus = activity_ground_truth(24, 240, seed=70)
    path = tmp_path / "corpus.csv"
    seqio.save_corpus(corpus, path)
    return path


@pytest.fixture
def short_day_csv(tmp_path):
    # a 30-interval day, shorter than the default delta of 60
    corpus = activity_ground_truth(12, 30, seed=72)
    path = tmp_path / "short.csv"
    seqio.save_corpus(corpus, path)
    return path


def _no_synthesis(*args, **kwargs):
    raise AssertionError("a cell ran before the grid was validated")


def _strict_json(path: Path):
    """Parse ``path`` as strict JSON: NaN, Infinity and -Infinity are refused."""

    def refuse(constant):
        raise ValueError(f"{path} holds {constant}, which is not JSON")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)


def _tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestIngest:
    def test_episode_to_interval(self, tmp_path):
        src = tmp_path / "episodes.csv"
        src.write_text(
            "id,state,duration\nd1,home,420\nd1,car,30\nd1,work,510\nd1,home,480\n"
            "d2,home,720\nd2,work,720\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert run_cli("ingest", "--input", src, "--format", "episode", "--output", out) == 0
        corpus = seqio.load_corpus(out / "corpus.csv")
        assert corpus.length == 1440
        assert (out / "alphabet.json").exists()

    def test_continuous_with_smoothing(self, tmp_path):
        rng = np.random.default_rng(71)
        values = rng.integers(0, 3000, (5, 244))
        src = tmp_path / "cont.csv"
        with open(src, "w", encoding="utf-8") as fh:
            fh.write("id," + ",".join(f"v{i+1}" for i in range(244)) + "\n")
            for i, row in enumerate(values):
                fh.write(f"s{i}," + ",".join(str(v) for v in row) + "\n")
        out = tmp_path / "out"
        code = run_cli(
            "ingest", "--input", src, "--format", "continuous",
            "--smooth", 5, "--thresholds", "760,2020", "--output", out,
        )
        assert code == 0
        alphabet = seqio.load_alphabet(out / "alphabet.json")
        assert alphabet.labels == ("1", "2", "3", "4")
        corpus = seqio.load_corpus(out / "corpus.csv", alphabet=alphabet)
        assert corpus.length == 240  # 244 - 5 + 1
        assert corpus.alphabet.size == 4

    def test_idempotent_on_own_output(self, tmp_path, corpus_csv):
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        assert run_cli("ingest", "--input", corpus_csv, "--output", out1) == 0
        assert run_cli("ingest", "--input", out1 / "corpus.csv", "--output", out2) == 0
        assert (out1 / "corpus.csv").read_bytes() == (out2 / "corpus.csv").read_bytes()

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("id,s1,s2\na,x\n", encoding="utf-8")
        code = run_cli("ingest", "--input", src, "--output", tmp_path / "o")
        assert code == cli.EXIT_DATA
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataFormatError"
        assert "row 2" in err["message"]

    def test_empty_threshold_list_is_config_error(self, tmp_path, capsys):
        code = run_cli(
            "ingest", "--input", FIXTURE, "--format", "continuous",
            "--thresholds", ",", "--output", tmp_path / "o",
        )
        assert code == cli.EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == "continuous input requires --thresholds"

    def test_bad_thresholds_fail_before_the_input_is_read(self, tmp_path, capsys):
        # they were once a data error, raised only once the input was read
        code = run_cli(
            "ingest", "--input", tmp_path / "missing.csv", "--format", "continuous",
            "--thresholds", "760,760", "--output", tmp_path / "o",
        )
        assert code == cli.EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith("preprocess.thresholds must be a non-empty, strictly")
        assert not (tmp_path / "o").exists()


def test_undecodable_bytes_are_data_error(tmp_path, capsys):
    src = tmp_path / "latin1.csv"
    src.write_bytes(b"id,s1,s2\nd1,a,b\nd2,\xff,a\n")
    code = run_cli("synth", "--corpus", src, "--seed", 1, "--output", tmp_path / "o")
    assert code == cli.EXIT_DATA
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DataFormatError"
    assert str(src) in err["message"]


class TestCluster:
    def test_data_driven(self, tmp_path, corpus_csv):
        out = tmp_path / "out"
        code = run_cli(
            "cluster", "--corpus", corpus_csv, "--k-range", "2:5", "--output", out
        )
        assert code == 0
        labels = seqio.load_cluster_labels(out / "assignment.csv")
        assert len(labels) == 24
        summary = json.loads((out / "cluster_summary.json").read_text())
        assert summary["sizes_desc"] == sorted(summary["sizes_desc"], reverse=True)
        assert set(summary["dunn_by_k"]) == {"2", "3", "4", "5"}

    def test_infinite_dunn_index_written_as_null(self, tmp_path):
        # three constant days, four copies each: every cut from k = 3 on
        # has zero diameter, so its Dunn index is infinite
        rows = np.repeat(np.arange(3), 4)[:, None].repeat(6, axis=1)
        path = tmp_path / "constant.csv"
        seqio.save_corpus(Corpus.from_arrays(StateAlphabet(("a", "b", "c")), rows), path)
        out = tmp_path / "out"
        assert run_cli("cluster", "--corpus", path, "--k-range", "2:5", "--output", out) == 0
        summary = _strict_json(out / "cluster_summary.json")
        assert summary["dunn_by_k"] == {"2": 1.0, "3": None, "4": None, "5": None}
        assert summary["chosen_k"] == 3 and summary["sizes_desc"] == [4, 4, 4]
        assert summary["k_range"] == [2, 5]

    def test_too_many_days_exit_data_error(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text("id,s1\n" + "".join(f"d{i},a\n" for i in range(10_001)), encoding="utf-8")
        code = run_cli("cluster", "--corpus", path, "--output", tmp_path / "out")
        assert code == cli.EXIT_DATA
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataFormatError"
        assert err["message"].startswith("cannot cluster 10001 sequences: more than 10000")
        assert err["exit_code"] == cli.EXIT_DATA

    def test_user_labels_bypass(self, tmp_path, corpus_csv):
        corpus = seqio.load_corpus(corpus_csv)
        labels = {sid: i % 2 for i, sid in enumerate(corpus.ids)}
        labels_path = tmp_path / "labels.csv"
        seqio.save_cluster_labels(labels, labels_path)
        out = tmp_path / "out"
        code = run_cli(
            "cluster", "--corpus", corpus_csv, "--labels", labels_path, "--output", out
        )
        assert code == 0
        summary = json.loads((out / "cluster_summary.json").read_text())
        assert summary["source"] == "user"
        assert seqio.load_cluster_labels(out / "assignment.csv") == labels

    def test_user_labels_synthesize_as_synth_assignment(self, tmp_path, corpus_csv):
        # a cluster stage read from a label file and synth --assignment
        # resolve the same ids to the same clusters, so the batches match
        corpus = seqio.load_corpus(corpus_csv)
        labels = {sid: 10 + 5 * (i % 3) for i, sid in enumerate(corpus.ids)}
        labels_path = tmp_path / "labels.csv"
        seqio.save_cluster_labels(labels, labels_path)
        cfg = {
            "input": {"path": str(corpus_csv)},
            "cluster": {"enabled": True, "labels_path": str(labels_path)},
            "synth": {"delta": 30, "seed": 9, "count": 12, "engines": ["paired-mc"]},
        }
        cfg_path = tmp_path / "pipeline.json"
        cfg_path.write_text(json.dumps(cfg))
        staged, direct = tmp_path / "staged", tmp_path / "direct"
        assert run_cli("pipeline", "--config", cfg_path, "--output", staged) == 0
        code = run_cli(
            "synth", "--corpus", corpus_csv, "--assignment", labels_path, "--delta", 30,
            "--seed", 9, "--count", 12, "--output", direct,
        )
        assert code == 0
        staged_synth = staged / "synth"
        assert (staged_synth / "paired-mc.csv").read_bytes() == (direct / "synth.csv").read_bytes()
        provenance = [
            json.loads(path.read_text())
            for path in (staged_synth / "paired-mc_provenance.json", direct / "synth_provenance.json")
        ]
        for payload in provenance:
            del payload["config_hash"]
        assert provenance[0] == provenance[1]
        assert sorted({row["cluster"] for row in provenance[0]["sequences"]}) == [0, 1, 2]


class TestSynth:
    def test_defaults_and_count(self, tmp_path, corpus_csv):
        out = tmp_path / "out"
        code = run_cli(
            "synth", "--corpus", corpus_csv, "--delta", 30, "--seed", 5,
            "--output", out,
        )
        assert code == 0
        synth = seqio.load_corpus(out / "synth.csv")
        assert len(synth) == 24  # --count defaults to corpus size
        prov = json.loads((out / "synth_provenance.json").read_text())
        assert prov["engine"] == "paired-mc"
        assert prov["config"]["delta"] == 30
        assert prov["count"] == 24
        assert "config_hash" in prov

    def test_tvmc_engine(self, tmp_path, corpus_csv):
        out = tmp_path / "out"
        code = run_cli(
            "synth", "--corpus", corpus_csv, "--engine", "tvmc", "--seed", 6,
            "--count", 4, "--output", out,
        )
        assert code == 0
        prov = json.loads((out / "synth_provenance.json").read_text())
        assert prov["engine"] == "tvmc"

    def test_same_seed_byte_identical(self, tmp_path, corpus_csv):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            code = run_cli(
                "synth", "--corpus", corpus_csv, "--seed", 7, "--count", 6,
                "--delta", 20, "--output", out,
            )
            assert code == 0
        assert _tree_bytes(out1) == _tree_bytes(out2)

    def test_config_file_with_flag_override(self, tmp_path, corpus_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 45, "order": 2, "seed": 8, "count": 3}))
        out = tmp_path / "out"
        code = run_cli(
            "synth", "--corpus", corpus_csv, "--config", cfg, "--order", 1,
            "--output", out,
        )
        assert code == 0
        prov = json.loads((out / "synth_provenance.json").read_text())
        assert prov["config"]["delta"] == 45  # from file
        assert prov["config"]["order"] == 1  # flag wins
        assert prov["count"] == 3

    def test_episode_output_format(self, tmp_path, corpus_csv):
        out = tmp_path / "out"
        code = run_cli(
            "synth", "--corpus", corpus_csv, "--seed", 9, "--count", 2,
            "--format", "episode", "--output", out,
        )
        assert code == 0
        loaded = seqio.load_corpus(out / "synth.csv", "episode")
        assert len(loaded) == 2

    @pytest.mark.parametrize(
        "out_format, header", [("interval", "id"), ("episode", "id,state,duration")]
    )
    def test_empty_batch_writes_format_header(
        self, tmp_path, corpus_csv, out_format, header
    ):
        out = tmp_path / "out"
        code = run_cli(
            "synth", "--corpus", corpus_csv, "--seed", 10, "--count", 0,
            "--delta", 20, "--format", out_format, "--output", out,
        )
        assert code == 0
        assert (out / "synth.csv").read_text(encoding="utf-8") == header + "\n"
        prov = json.loads((out / "synth_provenance.json").read_text())
        assert prov["count"] == 0 and prov["sequences"] == []

    def test_delta_longer_than_day_is_config_error(self, tmp_path, corpus_csv, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "synth", "--corpus", corpus_csv, "--seed", 11, "--delta", 241,
            "--output", out,
        )
        assert code == cli.EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "delta" in err["message"]
        assert not (out / "synth.csv").exists()

    def test_batch_above_cell_bound_is_config_error(self, tmp_path, corpus_csv, capsys):
        # rejected before the batch allocates anything, not a MemoryError
        out = tmp_path / "out"
        code = run_cli(
            "synth", "--corpus", corpus_csv, "--seed", 11, "--count", 10**12,
            "--output", out,
        )
        assert code == cli.EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "cells in one batch" in err["message"]
        assert not (out / "synth.csv").exists()

    def test_short_day_with_small_delta(self, tmp_path, short_day_csv):
        # only the delta actually used is bounded, not the default of 60
        out = tmp_path / "out"
        code = run_cli(
            "synth", "--corpus", short_day_csv, "--delta", 5, "--seed", 13,
            "--count", 3, "--output", out,
        )
        assert code == 0
        prov = json.loads((out / "synth_provenance.json").read_text())
        assert prov["config"]["delta"] == 5

    def test_config_file_delta_checked_against_corpus_length(self, tmp_path):
        # a file without target_length is bounded by the corpus's day
        # length, not by the 1440-interval default
        corpus_path = tmp_path / "long.csv"
        seqio.save_corpus(activity_ground_truth(6, 1500, seed=71), corpus_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 1460, "seed": 12, "count": 1}))
        out = tmp_path / "out"
        code = run_cli("synth", "--corpus", corpus_path, "--config", cfg, "--output", out)
        assert code == 0
        prov = json.loads((out / "synth_provenance.json").read_text())
        assert prov["config"]["delta"] == 1460


    @pytest.mark.parametrize(
        "file_cfg", [{"order": 2.5}, {"delta": True}, {"seed": 1.7}, {"count": 2.5}]
    )
    def test_non_integer_config_value_is_config_error(
        self, tmp_path, corpus_csv, capsys, file_cfg
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 10, "seed": 3, **file_cfg}))
        out = tmp_path / "out"
        code = run_cli("synth", "--corpus", corpus_csv, "--config", cfg, "--output", out)
        assert code == cli.EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert f"{next(iter(file_cfg))} must be an integer" in err["message"]
        assert not (out / "synth.csv").exists()

    def test_infinite_bandwidth_is_config_error(self, tmp_path, corpus_csv, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "synth", "--corpus", corpus_csv, "--sampler", "kde", "--bandwidth", "inf",
            "--seed", 3, "--output", out,
        )
        assert code == cli.EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "finite positive" in err["message"]
        assert not (out / "synth.csv").exists()


class TestEval:
    def test_self_eval_trivial(self, tmp_path, corpus_csv):
        out = tmp_path / "out"
        code = run_cli(
            "eval", "--original", corpus_csv, "--method", f"self={corpus_csv}",
            "--output", out,
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        for state in report["states"]:
            assert report["individual_durations"][state]["self"]["d"] == 0.0
            assert report["individual_durations"][state]["self"]["p"] == 1.0

    def test_explicit_states(self, tmp_path, corpus_csv):
        out = tmp_path / "out"
        code = run_cli(
            "eval", "--original", corpus_csv, "--method", f"m={corpus_csv}",
            "--states", "rest,light", "--output", out,
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["states"] == ["rest", "light"]

    def test_bad_method_argument(self, tmp_path, corpus_csv, capsys):
        code = run_cli(
            "eval", "--original", corpus_csv, "--method", "nopath",
            "--output", tmp_path / "o",
        )
        assert code == cli.EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_reserved_method_name_fails_before_any_read(self, tmp_path, corpus_csv, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "eval", "--original", corpus_csv, "--method", f"original={corpus_csv}",
            "--output", out,
        )
        assert code == cli.EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"] == 'method name "original" is reserved'
        assert not out.exists()

    def test_alphabet_mismatch_is_data_error(self, tmp_path, corpus_csv, capsys):
        other = Corpus.from_arrays(StateAlphabet(("zz",)), [[0] * 240])
        other_path = tmp_path / "other.csv"
        seqio.save_corpus(other, other_path)
        code = run_cli(
            "eval", "--original", corpus_csv, "--method", f"m={other_path}",
            "--output", tmp_path / "o",
        )
        assert code == cli.EXIT_DATA


    @pytest.mark.parametrize("out_format", ["interval", "episode"])
    def test_empty_batch_is_clear_data_error(
        self, tmp_path, corpus_csv, capsys, out_format
    ):
        out = tmp_path / "out"
        code = run_cli(
            "synth", "--corpus", corpus_csv, "--seed", 10, "--count", 0,
            "--delta", 20, "--format", out_format, "--output", out,
        )
        assert code == 0
        code = run_cli(
            "eval", "--original", corpus_csv, "--method", f"m={out / 'synth.csv'}",
            "--output", tmp_path / "e",
        )
        assert code == cli.EXIT_DATA
        err = json.loads(capsys.readouterr().err)
        assert err == {
            "error": "DataFormatError",
            "message": "method 'm' has no sequences",
            "exit_code": cli.EXIT_DATA,
        }


class TestSweep:
    def test_grid_cells(self, tmp_path, corpus_csv):
        out = tmp_path / "out"
        code = run_cli(
            "sweep", "--corpus", corpus_csv, "--deltas", "20,40", "--orders", "1,2",
            "--seed", 11, "--count", 8, "--output", out,
        )
        assert code == 0
        sweep = json.loads((out / "sweep.json").read_text())
        assert [(c["delta"], c["order"]) for c in sweep["cells"]] == [
            (20, 1), (20, 2), (40, 1), (40, 2),
        ]
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "delta,order,state,metric,d,p"
        assert len(rows) > 1

    def test_short_day_grid(self, tmp_path, short_day_csv):
        out = tmp_path / "out"
        code = run_cli(
            "sweep", "--corpus", short_day_csv, "--deltas", "5,10", "--orders", "1",
            "--seed", 14, "--count", 4, "--output", out,
        )
        assert code == 0
        sweep = json.loads((out / "sweep.json").read_text())
        assert [(c["delta"], c["order"]) for c in sweep["cells"]] == [(5, 1), (10, 1)]

    def test_grid_delta_longer_than_day_fails_before_any_cell(
        self, tmp_path, short_day_csv, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli.synth, "synthesize_batch", _no_synthesis)
        out = tmp_path / "out"
        code = run_cli(
            "sweep", "--corpus", short_day_csv, "--deltas", "5,31", "--orders", "1",
            "--seed", 15, "--count", 4, "--output", out,
        )
        assert code == cli.EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "delta" in err["message"]
        assert not (out / "sweep.json").exists()

    def test_repeated_state_is_data_error(self, tmp_path, corpus_csv, capsys):
        # each sweep.csv row was once written twice
        out = tmp_path / "out"
        code = run_cli(
            "sweep", "--corpus", corpus_csv, "--deltas", "30", "--orders", "1",
            "--seed", 16, "--count", 4, "--states", "rest,rest", "--output", out,
        )
        assert code == cli.EXIT_DATA
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataFormatError"
        assert "repeated state" in err["message"]
        assert not out.exists() or not any(out.iterdir())

    def test_single_cell_matches_synth_plus_eval(self, tmp_path, corpus_csv):
        sweep_out = tmp_path / "sweep"
        code = run_cli(
            "sweep", "--corpus", corpus_csv, "--deltas", "30", "--orders", "1",
            "--seed", 12, "--count", 10, "--output", sweep_out,
        )
        assert code == 0
        synth_out = tmp_path / "synth"
        assert run_cli(
            "synth", "--corpus", corpus_csv, "--delta", 30, "--order", 1,
            "--seed", 12, "--count", 10, "--output", synth_out,
        ) == 0
        eval_out = tmp_path / "eval"
        assert run_cli(
            "eval", "--original", corpus_csv,
            "--method", f"paired-mc-d30-o1={synth_out / 'synth.csv'}",
            "--output", eval_out,
        ) == 0
        sweep = json.loads((sweep_out / "sweep.json").read_text())
        report = json.loads((eval_out / "report.json").read_text())
        cell = sweep["cells"][0]
        for state, block in cell["states"].items():
            want = report["individual_durations"][state]["paired-mc-d30-o1"]
            assert block["individual"]["d"] == want["d"]
            assert block["individual"]["p"] == want["p"]


class TestPipeline:
    def test_fixture_pipeline_via_subprocess(self, tmp_path):
        out = tmp_path / "pipe"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [
                sys.executable, "-m", "seqsynth", "pipeline",
                "--config", str(REPO / "fixtures" / "pipeline.json"),
                "--output", str(out),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=900,
        )
        assert proc.returncode == 0, proc.stderr
        for rel in (
            "ingest/corpus.csv",
            "ingest/alphabet.json",
            "cluster/assignment.csv",
            "synth/paired-mc.csv",
            "synth/tvmc.csv",
            "eval/report.json",
            "sweep/sweep.json",
            "pipeline_manifest.json",
        ):
            assert (out / rel).exists(), rel

    def test_fixture_pipeline_writes_strict_json(self, tmp_path):
        out = tmp_path / "pipe"
        config = REPO / "fixtures" / "pipeline.json"
        assert run_cli("pipeline", "--config", config, "--output", out) == 0
        written = sorted(out.rglob("*.json"))
        assert {p.parent.name for p in written} >= {"cluster", "eval", "ingest", "sweep", "synth"}
        for path in written:
            _strict_json(path)

    def test_output_dir_is_read_from_the_working_directory(
        self, tmp_path, short_day_csv, monkeypatch
    ):
        # input paths are taken from the config file's directory, but
        # output_dir, like --output and SEQSYNTH_OUTDIR, from the working one
        cfg_dir, cwd = tmp_path / "cfg", tmp_path / "cwd"
        cfg_dir.mkdir()
        cwd.mkdir()
        (cfg_dir / "days.csv").write_bytes(short_day_csv.read_bytes())
        cfg = {
            "input": {"path": "days.csv"},
            "synth": {"delta": 5, "seed": 1, "count": 2, "engines": ["tvmc"]},
            "output_dir": "out",
        }
        (cfg_dir / "p.json").write_text(json.dumps(cfg))
        monkeypatch.chdir(cwd)
        assert run_cli("pipeline", "--config", cfg_dir / "p.json") == 0
        assert (cwd / "out" / "synth" / "tvmc.csv").exists()
        assert not (cfg_dir / "out").exists()

    def test_sweep_delta_longer_than_day_fails_before_synth(
        self, tmp_path, short_day_csv, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli.synth, "synthesize_batch", _no_synthesis)
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(
            json.dumps(
                {
                    "input": {"path": str(short_day_csv)},
                    "synth": {"delta": 5, "seed": 16, "count": 2},
                    "sweep": {"deltas": [5, 31], "orders": [1]},
                }
            )
        )
        out = tmp_path / "out"
        code = run_cli("pipeline", "--config", cfg, "--output", out)
        assert code == cli.EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not (out / "synth").exists()

    @pytest.mark.parametrize(
        "synth_cfg, sweep_cfg, other",
        [
            pytest.param({"seed": 1.7}, None, {}, id="synth_cfg0-None"),
            pytest.param({"seed": 16, "count": 2.0}, None, {}, id="synth_cfg1-None"),
            pytest.param(
                {"seed": 16}, {"deltas": [5.5], "orders": [1]}, {},
                id="synth_cfg2-sweep_cfg2",
            ),
            pytest.param(
                {"seed": 16}, None, {"cluster": {"enabled": True, "min_size": "5"}},
                id="cluster-min_size-str",
            ),
            pytest.param(
                {"seed": 16}, None, {"cluster": {"enabled": True, "k_range": [2, "6"]}},
                id="cluster-k_range-str",
            ),
            pytest.param(
                {"seed": 16}, None, {"cluster": {"enabled": True, "k_range": [2.5, 6]}},
                id="cluster-k_range-float",
            ),
            pytest.param(
                {"seed": 16}, None, {"preprocess": {"smooth_window": "5"}},
                id="preprocess-smooth_window-str",
            ),
            pytest.param(
                {"seed": 16}, None, {"preprocess": {"interval_minutes": "x"}},
                id="preprocess-interval_minutes-str",
            ),
            pytest.param(
                {"seed": 16, "workers": "x"}, None, {}, id="synth-workers-str"
            ),
        ],
    )
    def test_non_integer_value_fails_before_any_stage(
        self, tmp_path, short_day_csv, capsys, synth_cfg, sweep_cfg, other
    ):
        cfg = {
            "input": {"path": str(short_day_csv)},
            "synth": {"delta": 5, **synth_cfg},
            **other,
        }
        if sweep_cfg is not None:
            cfg["sweep"] = sweep_cfg
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = run_cli("pipeline", "--config", path, "--output", out)
        assert code == cli.EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "must be an integer" in err["message"]
        assert not (out / "synth").exists()

    @pytest.mark.parametrize(
        "section, key", [("cluster", "enabled"), ("eval", "include_zero_combined")]
    )
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_booleans_must_be_true_or_false(
        self, tmp_path, short_day_csv, capsys, section, key, value
    ):
        cfg = {
            "input": {"path": str(short_day_csv)},
            "synth": {"delta": 5, "seed": 16},
            section: {key: value},
        }
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = run_cli("pipeline", "--config", path, "--output", out)
        assert code == cli.EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert f"{section}.{key} must be true or false" in err["message"]
        assert not (out / "ingest").exists()

    @pytest.mark.parametrize("k_range", [[2], [2, 4, 6], "2:6"])
    def test_k_range_must_be_two_ints(self, tmp_path, short_day_csv, capsys, k_range):
        cfg = {
            "input": {"path": str(short_day_csv)},
            "cluster": {"enabled": True, "k_range": k_range},
            "synth": {"delta": 5, "seed": 16},
        }
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = run_cli("pipeline", "--config", path, "--output", out)
        assert code == cli.EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "k_range must be two integers" in err["message"]
        assert not (out / "ingest").exists()

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("eval", "states", 7, "eval.states must be a string or a list of strings"),
            ("eval", "states", ["rest", 2], "eval.states must be"),
            ("preprocess", "thresholds", "760", "preprocess.thresholds must be"),
            ("preprocess", "thresholds", [], "preprocess.thresholds must be"),
            ("preprocess", "thresholds", [760, True], "preprocess.thresholds must be"),
            ("preprocess", "thresholds", [760, float("nan")], "preprocess.thresholds"),
            ("synth", "engines", "tvmc", "synth.engines must be a non-empty list"),
            ("synth", "engines", ["tvmc", "hmm"], "synth.engines must be"),
            ("synth", "engines", [], "synth.engines must be"),
            ("cluster", "k_range", [6, 2], "cluster.k_range must satisfy lo <= hi"),
        ],
        ids=[
            "states-int", "states-mixed-list", "thresholds-str", "thresholds-empty",
            "thresholds-bool", "thresholds-nan", "engines-str", "engines-unknown",
            "engines-empty", "k_range-reversed",
        ],
    )
    def test_fixture_probe_fails_before_any_stage(
        self, tmp_path, capsys, section, key, value, message
    ):
        cfg = json.loads((REPO / "fixtures" / "pipeline.json").read_text())
        cfg["input"]["path"] = str(FIXTURE)
        cfg[section][key] = value
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = run_cli("pipeline", "--config", path, "--output", out)
        assert code == cli.EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert message in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "unused", ["cluster-disabled", "cluster-labels-given", "thresholds-interval-input"]
    )
    def test_fields_no_stage_reads_are_not_checked(self, tmp_path, short_day_csv, unused):
        # a reversed k_range matters only to data-driven clustering, and
        # thresholds only to continuous input
        cfg = {
            "input": {"path": str(short_day_csv)},
            "cluster": {"enabled": False, "k_range": [6, 2]},
            "synth": {"delta": 5, "seed": 17, "engines": ["tvmc"], "count": 2},
        }
        if unused == "cluster-labels-given":
            ids = seqio.load_corpus(short_day_csv).ids
            labels = {sid: i % 2 for i, sid in enumerate(ids)}
            seqio.save_cluster_labels(labels, tmp_path / "labels.csv")
            cfg["cluster"].update(enabled=True, labels_path=str(tmp_path / "labels.csv"))
        elif unused == "thresholds-interval-input":
            cfg["cluster"] = {}
            cfg["preprocess"] = {"thresholds": "760"}
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("pipeline", "--config", path, "--output", tmp_path / "out") == 0

    def test_unknown_synth_key_is_config_error(self, tmp_path, short_day_csv, capsys):
        cfg = {
            "input": {"path": str(short_day_csv)},
            "synth": {"detla": 5, "seed": 16, "engines": ["tvmc"], "workers": 1},
        }
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = run_cli("pipeline", "--config", path, "--output", out)
        assert code == cli.EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "detla" in err["message"]
        assert not (out / "synth").exists()

    @pytest.mark.parametrize(
        "length, message",
        [
            (30, "synth.target_length 30 does not match the corpus day length 240"),
            ("abc", "synth.target_length must be an integer, got 'abc'"),
        ],
        ids=["other-length", "not-an-integer"],
    )
    def test_target_length_must_be_the_day_length(
        self, tmp_path, corpus_csv, capsys, length, message
    ):
        cfg = {
            "input": {"path": str(corpus_csv)},
            "synth": {"target_length": length, "delta": 5, "seed": 18, "count": 2},
        }
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = run_cli("pipeline", "--config", path, "--output", out)
        assert code == cli.EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"] == message
        assert not (out / "ingest").exists()
        assert not (out / "synth").exists()
        # the same key in a synthesis config file fails before any output
        path.write_text(json.dumps(cfg["synth"]))
        code = run_cli("synth", "--corpus", corpus_csv, "--config", path, "--output", out)
        assert code == cli.EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["message"] == message
        assert not (out / "synth.csv").exists()

    def test_delta_longer_than_the_day_fails_before_any_write(
        self, tmp_path, corpus_csv, capsys
    ):
        cfg = {
            "input": {"path": str(corpus_csv)},
            "synth": {"delta": 241, "seed": 18, "count": 2},
        }
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = run_cli("pipeline", "--config", path, "--output", out)
        assert code == cli.EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"] == "delta must be in [0, target_length=240], got 241"
        assert not (out / "ingest").exists()

    def test_provenance_config_round_trips(self, tmp_path, corpus_csv):
        # the provenance names the day length, which a rerun accepts
        first, second = tmp_path / "first", tmp_path / "second"
        code = run_cli(
            "synth", "--corpus", corpus_csv, "--delta", 5, "--seed", 19, "--count", 3,
            "--output", first,
        )
        assert code == 0
        config = json.loads((first / "synth_provenance.json").read_text())["config"]
        assert config["target_length"] == 240
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = run_cli(
            "synth", "--corpus", corpus_csv, "--config", path, "--count", 3,
            "--output", second,
        )
        assert code == 0
        assert (first / "synth.csv").read_bytes() == (second / "synth.csv").read_bytes()

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        code = run_cli("pipeline", "--config", tmp_path / "nope.json")
        assert code == cli.EXIT_DATA  # unreadable file -> OSError -> data error


class TestSeedHandling:
    def test_unset_seed_printed(self, tmp_path, corpus_csv, capsys):
        out = tmp_path / "out"
        code = run_cli("synth", "--corpus", corpus_csv, "--count", 1, "--output", out)
        assert code == 0
        assert "seed=" in capsys.readouterr().out
