"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The heavyweight benchmark corpora are session-scoped fixtures.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from seqsynth import (
    ContinuousSeries,
    IntervalSequence,
    PairedMcEngine,
    SynthesisConfig,
    build_index,
    discretize,
    episode_durations,
    ks_two_sample,
    rle_decode,
    rle_encode,
    sequence_entropy,
    smooth_rolling,
    synthesize_batch,
)
from seqsynth import cli
from seqsynth import io as seqio
from seqsynth.clustering import ClusterAssignment, DistanceMatrix, dunn_index

from _groundtruth import (
    BRIDGE_RULES,
    activity_ground_truth,
    bridge_conditional,
    second_order_ground_truth,
)
from test_paired_mc_oracle import OracleEngine, verify_realizable
from test_synth import brute_candidates, random_corpus

REPO = Path(__file__).resolve().parents[1]


def report_line(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} ({name}) failed: {detail}"


@pytest.fixture(scope="session")
def benchmark_corpus():
    return activity_ground_truth(2000, 1440, seed=123)


# -- criterion 1: oracle equivalence ---------------------------------------


def _set_partitions(n):
    """All restricted-growth strings of length n (every set partition)."""
    labels = [0] * n

    def rec(i, mx):
        if i == n:
            yield tuple(labels)
            return
        for v in range(mx + 2):
            labels[i] = v
            yield from rec(i + 1, max(mx, v))

    yield from rec(1, 0)  # position 0 is fixed at label 0


def _brute_dunn(values, labels):
    n = len(labels)
    min_inter = math.inf
    max_diam = 0.0
    for i in range(n):
        row = values[i]
        for j in range(i + 1, n):
            if labels[i] == labels[j]:
                if row[j] > max_diam:
                    max_diam = row[j]
            elif row[j] < min_inter:
                min_inter = row[j]
    return math.inf if max_diam == 0.0 else min_inter / max_diam


def _brute_ks_d(x, y):
    best = 0.0
    for t in np.concatenate((x, y)):
        fx = np.count_nonzero(x <= t) / x.size
        fy = np.count_nonzero(y <= t) / y.size
        best = max(best, abs(fx - fy))
    return best


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)

    # candidates() vs brute-force episode scans: 200 randomized corpora
    checked_queries = 0
    for _ in range(200):
        corpus = random_corpus(
            rng,
            n_seq=int(rng.integers(2, 51)),
            length=int(rng.integers(20, 201)),
            n_states=int(rng.integers(2, 6)),
        )
        index = build_index(corpus, delta=int(rng.integers(0, 30)))
        for _ in range(5):
            order = int(rng.integers(1, 4))
            a_c = int(rng.integers(corpus.alphabet.size))
            context = tuple(
                int(rng.integers(corpus.alphabet.size)) for _ in range(order - 1)
            )
            t_c = int(rng.integers(0, corpus.length))
            delta = int(rng.integers(0, 30))
            got = index.candidates(a_c, context, t_c, delta, order)
            got_pairs = sorted(zip(got.states.tolist(), got.durations.tolist()))
            want = brute_candidates(corpus, a_c, context, t_c, delta, order)
            assert got_pairs == want
            checked_queries += 1

    # dunn_index vs brute force: every partition of n <= 10 points
    checked_partitions = 0
    for n, seed in ((6, 1002), (10, 1003)):
        pts = np.random.default_rng(seed).uniform(0, 100, n)
        values = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(values, 0.0)
        dmat = DistanceMatrix(values)
        rows = values.tolist()
        for labels in _set_partitions(n):
            if max(labels) == 0:
                continue  # k = 1 is outside the Dunn domain
            got = dunn_index(dmat, ClusterAssignment(np.array(labels)))
            want = _brute_dunn(rows, labels)
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want, rel=1e-12)
            checked_partitions += 1

    # ks_two_sample D vs brute-force ECDF sup: 1000 random pairs
    for _ in range(1000):
        x = rng.integers(0, 25, int(rng.integers(1, 51))).astype(float)
        y = rng.integers(0, 25, int(rng.integers(1, 51))).astype(float)
        assert abs(ks_two_sample(x, y).d - _brute_ks_d(x, y)) <= 1e-12

    elapsed = time.perf_counter() - t0
    report_line(
        1,
        "oracle-equivalence",
        elapsed < 60.0,
        f"({checked_queries} candidate queries, {checked_partitions} partitions, "
        f"1000 KS pairs in {elapsed:.1f}s)",
    )


# -- criterion 2: round trips and invariants --------------------------------


def test_criterion_2_round_trip_and_invariants(benchmark_corpus):
    rng = np.random.default_rng(2001)
    violations = []

    # RLE round trips, 10,000 random sequences
    for i in range(10_000):
        length = 1440 if i % 500 == 0 else int(rng.integers(1, 200))
        seq = IntervalSequence(rng.integers(0, 5, length), 1, f"r{i}")
        eseq = rle_encode(seq)
        if rle_decode(eseq) != seq or rle_encode(rle_decode(eseq)) != eseq:
            violations.append(f"rle round trip failed at case {i}")
            break

    # synthesized length exactness + alphabet closure across configurations
    corpus = activity_ground_truth(80, 600, seed=2002)
    configs = [
        SynthesisConfig(delta=40, order=1, target_length=600, seed=1),
        SynthesisConfig(delta=40, order=2, target_length=600, seed=2),
        SynthesisConfig(delta=40, order=3, target_length=600, seed=3),
        SynthesisConfig(delta=40, order=1, target_length=600, seed=4, sampler="kde"),
        SynthesisConfig(delta=40, order=1, target_length=600, seed=5, buffer="none"),
        SynthesisConfig(
            delta=40, order=1, target_length=600, seed=6, duration_pool="all_day"
        ),
    ]
    for config in configs:
        for engine in ("paired-mc", "tvmc"):
            out, _ = synthesize_batch(corpus, config, 12, engine=engine)
            mat = out.states_matrix
            if mat.shape != (12, 600):
                violations.append(f"length violation: {engine} {config.sampler}")
            if mat.min() < 0 or mat.max() >= corpus.alphabet.size:
                violations.append(f"alphabet violation: {engine}")

    # direct-sampler realizability replay (order 1, zero-fallback outputs):
    # each engine row must equal the one-sequence oracle's on the same
    # stream, whose episode chain is replayed against the engine's index
    replay_corpus = activity_ground_truth(300, 1440, seed=2003)
    config = SynthesisConfig(delta=60, order=1, target_length=1440, seed=7)
    engine = PairedMcEngine(replay_corpus, config)
    oracle = OracleEngine(replay_corpus, config)
    gen_rng, oracle_rng = np.random.default_rng(2004), np.random.default_rng(2004)
    replayed = 0
    for _ in range(50):
        states, fallbacks = engine.generate_many([gen_rng])
        chain = oracle.generate(oracle_rng)
        if (
            not np.array_equal(states[0], chain.states)
            or dict(zip(engine.fallback_names, fallbacks[0])) != chain.fallbacks
        ):
            violations.append("engine row differs from the one-sequence oracle")
        if chain.fallback_total == 0:
            if not verify_realizable(chain, engine.index, config):
                violations.append("realizability replay failed")
            replayed += 1
    if replayed < 40:
        violations.append(f"only {replayed}/50 generations were fallback-free")

    # KS symmetry and monotone-transform invariance
    for _ in range(200):
        x = rng.uniform(0, 10, int(rng.integers(2, 80)))
        y = rng.uniform(0, 10, int(rng.integers(2, 80)))
        fwd = ks_two_sample(x, y)
        rev = ks_two_sample(y, x)
        if fwd.d != rev.d or fwd.p != rev.p:
            violations.append("KS symmetry violated")
        for f in (lambda v: 3 * v + 2, lambda v: v**3):
            if ks_two_sample(f(x), f(y)).d != fwd.d:
                violations.append("KS transform invariance violated")

    # entropy bounds
    for row in benchmark_corpus.states_matrix[:500]:
        h = sequence_entropy(IntervalSequence(row))
        if not 0.0 <= h <= math.log(benchmark_corpus.alphabet.size) + 1e-12:
            violations.append("entropy out of bounds")

    # combined-duration conservation (before zero exclusion)
    totals = np.zeros(len(corpus), dtype=np.int64)
    for label in corpus.alphabet.labels:
        totals += episode_durations(corpus, label, "combined").values
    if not (totals == corpus.length).all():
        violations.append("combined durations do not conserve sequence length")

    report_line(2, "round-trip-invariants", not violations, "; ".join(violations))


# -- criterion 3: ground-truth recovery benchmark ---------------------------


def test_criterion_3_ground_truth_recovery(benchmark_corpus):
    t0 = time.perf_counter()
    n_states = benchmark_corpus.alphabet.size
    wins = 0
    details = []
    for replicate in range(10):
        train = (
            benchmark_corpus
            if replicate == 0
            else activity_ground_truth(2000, 1440, seed=123 + replicate)
        )
        held = activity_ground_truth(2000, 1440, seed=5123 + replicate)
        config = SynthesisConfig(
            delta=60, order=1, target_length=1440, seed=9000 + replicate
        )
        paired, _ = synthesize_batch(train, config, 2000, engine="paired-mc")
        tvmc, _ = synthesize_batch(train, config, 2000, engine="tvmc")
        all_better = True
        for label in held.alphabet.labels:
            held_sample = episode_durations(held, label).values
            d_paired = ks_two_sample(
                episode_durations(paired, label).values, held_sample
            ).d
            d_tvmc = ks_two_sample(
                episode_durations(tvmc, label).values, held_sample
            ).d
            if not d_paired < d_tvmc:
                all_better = False
            if replicate == 0:
                details.append(f"{label}: paired={d_paired:.3f} tvmc={d_tvmc:.3f}")
        wins += all_better
    elapsed = time.perf_counter() - t0
    report_line(
        3,
        "ground-truth-recovery",
        wins >= 9 and elapsed < 600.0,
        f"({wins}/10 replicates, {elapsed:.0f}s; replicate 0: {'; '.join(details)})",
    )


# -- criterion 4: order-2 context fidelity ----------------------------------


def test_criterion_4_order2_context_fidelity():
    checks = [(0, 1), (1, 0)]  # (state before bridge, expected favourite next)
    majority = 0
    examples = []
    for replicate in range(10):
        train = second_order_ground_truth(1000, 720, seed=4000 + replicate)
        base = dict(delta=60, target_length=720, seed=4500 + replicate)
        out1, _ = synthesize_batch(
            train, SynthesisConfig(order=1, **base), 1000, engine="paired-mc"
        )
        out2, _ = synthesize_batch(
            train, SynthesisConfig(order=2, **base), 1000, engine="paired-mc"
        )
        ok = True
        for anchor, target in checks:
            truth = BRIDGE_RULES[anchor][target]
            f1 = bridge_conditional(out1, anchor, target)
            f2 = bridge_conditional(out2, anchor, target)
            if not abs(f2 - truth) <= 0.05:
                ok = False
            if not abs(f1 - truth) > 0.10:
                ok = False
            if replicate == 0:
                examples.append(
                    f"P(next={target}|bridge,prev={anchor}): "
                    f"truth={truth:.2f} order2={f2:.3f} order1={f1:.3f}"
                )
        majority += ok
    report_line(
        4,
        "order2-context-fidelity",
        majority >= 6,
        f"({majority}/10 replicates; {'; '.join(examples)})",
    )


# -- criterion 5: throughput and scaling ------------------------------------


def _burn(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


def _machine_parallel_ceiling(repeats: int = 3) -> float:
    """Best-case 2-process speedup this machine can deliver.

    Containers often advertise more CPUs than their quota provides, so
    "near-linear" is judged against a pure CPU-bound two-process probe
    with no inter-process data transfer at all.  Best-of-N walls on both
    sides damp scheduler noise.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    n = 8_000_000
    ctx = multiprocessing.get_context("fork")
    serial = math.inf
    parallel = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        _burn(n)
        _burn(n)
        serial = min(serial, time.perf_counter() - t0)
        with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
            t0 = time.perf_counter()
            list(pool.map(_burn, [n, n]))
            parallel = min(parallel, time.perf_counter() - t0)
    return serial / parallel


def test_criterion_5_throughput(benchmark_corpus):
    config = SynthesisConfig(delta=60, order=1, target_length=1440, seed=555)

    t0 = time.perf_counter()
    synthesize_batch(benchmark_corpus, config, 100, workers=1)
    per_sequence = (time.perf_counter() - t0) / 100
    ok_speed = per_sequence <= 1.0

    count = 8000  # large enough that generation dominates the one-time build
    serial_wall = math.inf
    parallel_wall = math.inf
    serial = parallel = None
    for _ in range(2):  # best-of walls: timing on shared boxes is noisy
        t0 = time.perf_counter()
        serial, _ = synthesize_batch(benchmark_corpus, config, count, workers=1)
        serial_wall = min(serial_wall, time.perf_counter() - t0)
        t0 = time.perf_counter()
        parallel, _ = synthesize_batch(benchmark_corpus, config, count, workers=2)
        parallel_wall = min(parallel_wall, time.perf_counter() - t0)
    speedup = serial_wall / parallel_wall
    ok_identical = serial == parallel

    ceiling = (
        _machine_parallel_ceiling()
        if os.cpu_count() and os.cpu_count() >= 2
        else 1.0
    )
    if ceiling < 1.15:
        # the hardware cannot run two CPU-bound processes concurrently;
        # scaling is unmeasurable here, so only require "not slower"
        ok_scaling = speedup >= 0.85
        scaling_note = (
            f"machine ceiling x{ceiling:.2f} too low to measure scaling; "
            f"2-worker speedup x{speedup:.2f} (required >= x0.85)"
        )
    else:
        required = max(1.05, 0.75 * ceiling)
        ok_scaling = speedup >= required
        scaling_note = (
            f"2-worker speedup x{speedup:.2f} vs machine ceiling x{ceiling:.2f} "
            f"(required >= x{required:.2f})"
        )

    report_line(
        5,
        "throughput",
        ok_speed and ok_identical and ok_scaling,
        f"({per_sequence * 1000:.1f} ms/sequence incl. model build; "
        f"{scaling_note}; byte-identical={ok_identical})",
    )


# -- criterion 6: determinism ------------------------------------------------


def test_criterion_6_determinism(tmp_path):
    corpus = activity_ground_truth(40, 300, seed=6001)
    corpus_path = tmp_path / "corpus.csv"
    seqio.save_corpus(corpus, corpus_path)

    def tree(root: Path) -> dict:
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    outs = {}
    for name, workers in (("run1", 1), ("run2", 1), ("run8", 8)):
        out = tmp_path / name
        code = cli.main(
            [
                "synth", "--corpus", str(corpus_path), "--seed", "42",
                "--count", "24", "--delta", "30", "--workers", str(workers),
                "--output", str(out),
            ]
        )
        assert code == 0
        eval_out = tmp_path / f"{name}-eval"
        code = cli.main(
            [
                "eval", "--original", str(corpus_path),
                "--method", f"paired-mc={out / 'synth.csv'}",
                "--output", str(eval_out),
            ]
        )
        assert code == 0
        outs[name] = {**tree(out), **{f"eval/{k}": v for k, v in tree(eval_out).items()}}

    same_rerun = outs["run1"] == outs["run2"]
    same_workers = outs["run1"] == outs["run8"]
    report_line(
        6,
        "determinism",
        same_rerun and same_workers,
        f"(rerun identical={same_rerun}, workers 1 vs 8 identical={same_workers}, "
        f"{len(outs['run1'])} files compared)",
    )


# -- criterion 7: preprocessing arithmetic -----------------------------------


def test_criterion_7_preprocessing_arithmetic():
    series = ContinuousSeries(np.random.default_rng(7001).uniform(0, 3000, 1440))
    smoothed = smooth_rolling(series, 5)
    ok_length = len(smoothed) == 1436

    mapping = {0: 0, 760: 1, 761: 2, 2020: 2, 2021: 3}
    got = {
        v: int(discretize(ContinuousSeries([float(v)]), [0.0, 760.0, 2020.0]).states[0])
        for v in mapping
    }
    ok_thresholds = got == mapping
    report_line(
        7,
        "preprocessing-arithmetic",
        ok_length and ok_thresholds,
        f"(1440->{len(smoothed)}; category map {got})",
    )


# -- criterion 8: end-to-end fixture pipeline --------------------------------


def test_criterion_8_end_to_end_pipeline(tmp_path):
    out = tmp_path / "pipeline"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    t0 = time.perf_counter()
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
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr

    report = json.loads((out / "eval" / "report.json").read_text())
    structure_ok = True
    for state in report["states"]:
        for method in report["methods"]:
            cell = report["individual_durations"][state][method]
            if not {"mean", "sd", "d", "p"} <= set(cell):
                structure_ok = False
    sweep = json.loads((out / "sweep" / "sweep.json").read_text())
    cells = {(c["delta"], c["order"]) for c in sweep["cells"]}
    sweep_ok = cells == {(d, o) for d in (30, 60, 120) for o in (1, 2)}

    report_line(
        8,
        "end-to-end-pipeline",
        elapsed <= 900.0 and structure_ok and sweep_ok,
        f"({elapsed:.0f}s; methods={report['methods']}; sweep cells={sorted(cells)})",
    )
