"""The source model a corpus shares across engines and batches.

The oracle is the fresh build: each batch run on a new copy of the
corpus, which starts with no shared source, must match the same batch
run on one corpus object that every earlier batch of the grid used.
"""

import copy
import math
import pickle
import weakref
from dataclasses import replace

import numpy as np
import pytest

from seqsynth import Corpus, SynthesisConfig, synthesize_batch
from seqsynth import synth
from seqsynth.clustering import ClusterAssignment
from seqsynth.errors import ConfigError, DataFormatError

from _groundtruth import activity_ground_truth

LENGTH = 120
COUNT = 24
SAMPLERS = {
    "direct": dict(sampler="direct"),
    "kde-silverman": dict(sampler="kde"),
    "kde-h1.5": dict(sampler="kde", kde_bandwidth=1.5),
    "all-day": dict(duration_pool="all_day"),
    "kde-all-day": dict(sampler="kde", duration_pool="all_day"),
}


def _corpus() -> Corpus:
    return activity_ground_truth(30, LENGTH, seed=17)


def _fresh(corpus: Corpus) -> Corpus:
    copy_ = Corpus(corpus.alphabet, corpus.states_matrix, corpus.ids, corpus.interval_minutes)
    assert "_synth_source" not in vars(copy_)
    return copy_


def _batch_bytes(out, provenance) -> tuple:
    return out.states_matrix.tobytes(), out.ids, provenance.to_dict()


def _assert_matches_fresh(shared: Corpus, config, engine="paired-mc", **kwargs):
    got = synthesize_batch(shared, config, COUNT, engine=engine, **kwargs)
    kwargs.pop("workers", None)
    want = synthesize_batch(_fresh(shared), config, COUNT, engine=engine, **kwargs)
    assert _batch_bytes(*got) == _batch_bytes(*want), config


def _grid(sampler: dict):
    # orders 3 -> 1 -> 2: a lower order reads the index built at a higher one
    for order in (3, 1, 2):
        for buffer in ("tvmc", "none"):
            for delta in (0, 30, 60):
                yield SynthesisConfig(
                    delta=delta, order=order, target_length=LENGTH, buffer=buffer,
                    seed=29, **sampler,
                )


@pytest.mark.parametrize("sampler", list(SAMPLERS.values()), ids=list(SAMPLERS))
def test_shared_source_matches_fresh_build(sampler):
    shared = _corpus()
    clusters = ClusterAssignment(np.arange(len(shared)) % 3)
    for config in _grid(sampler):
        _assert_matches_fresh(shared, config)
        _assert_matches_fresh(shared, config, assignment=clusters)


def test_tvmc_and_paired_share_one_fit_and_match_fresh_build():
    shared = _corpus()
    config = SynthesisConfig(delta=30, target_length=LENGTH, seed=5)
    by_id = {sid: i % 2 for i, sid in enumerate(shared.ids)}
    for assignment in (None, by_id):
        _assert_matches_fresh(shared, config, assignment=assignment)
        _assert_matches_fresh(shared, config, engine="tvmc", assignment=assignment)
    tvmc = synth.TvmcEngine(shared, config).tvmc
    assert synth.PairedMcEngine(shared, config).tvmc is tvmc


@pytest.mark.parametrize("assignment", [None, "clusters"])
def test_two_workers_match_fresh_serial_build(assignment):
    shared = _corpus()
    clusters = ClusterAssignment(np.arange(len(shared)) % 3) if assignment else None
    for config in (
        SynthesisConfig(delta=30, order=2, target_length=LENGTH, seed=3),
        SynthesisConfig(delta=30, order=1, target_length=LENGTH, seed=3, sampler="kde"),
    ):
        _assert_matches_fresh(shared, config, assignment=clusters, workers=2)


def test_zero_labels_are_the_unclustered_source():
    # an unclustered corpus is one cluster: all-zero labels find the same
    # source, with every part it has built, and the same output
    corpus = _corpus()
    config = SynthesisConfig(delta=30, order=2, target_length=LENGTH, seed=8, sampler="kde")
    plain = synth.PairedMcEngine(corpus, config)
    source = synth._source(corpus)
    zeros = np.zeros(len(corpus), dtype=int)
    assert synth._source(corpus, zeros) is source
    zero = synth.PairedMcEngine(corpus, config, zeros)
    assert zero.tvmc is plain.tvmc and zero.index is plain.index
    assert synth._source(corpus) is source and source._slot.index is plain.index

    def streams():
        return [np.random.default_rng(i) for i in range(COUNT)]

    got, want = zero.generate_many(streams()), plain.generate_many(streams())
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    _assert_matches_fresh(corpus, config, assignment=ClusterAssignment(zeros))


def test_other_labels_replace_the_source():
    shared = _corpus()
    clusters = ClusterAssignment(np.arange(len(shared)) % 3)
    config = SynthesisConfig(delta=30, order=2, target_length=LENGTH, seed=6)
    sources = []
    for assignment in (clusters, None, clusters):
        _assert_matches_fresh(shared, config, assignment=assignment)
        source = vars(shared)["_synth_source"]
        want = np.zeros(len(shared)) if assignment is None else assignment.labels
        assert np.array_equal(source.labels, want)
        assert all(source is not earlier for earlier in sources)
        sources.append(source)


def test_labels_must_match_the_corpus_size():
    corpus = _corpus()
    with pytest.raises(DataFormatError, match="do not match the corpus size"):
        synth._source(corpus, np.zeros(len(corpus) - 1, dtype=int))


def test_used_corpus_pickles_like_an_unused_one():
    used, unused = _corpus(), _corpus()
    before = pickle.dumps(used)
    synthesize_batch(used, SynthesisConfig(delta=30, target_length=LENGTH), 4)
    synthesize_batch(
        used, SynthesisConfig(target_length=LENGTH), 4,
        assignment=ClusterAssignment(np.arange(len(used)) % 2),
    )
    assert "_synth_source" in vars(used)
    assert pickle.dumps(used) == before == pickle.dumps(unused)
    assert "_synth_source" not in vars(pickle.loads(pickle.dumps(used)))
    assert used == unused


def test_derived_corpora_start_without_a_source():
    corpus = _corpus()
    synthesize_batch(corpus, SynthesisConfig(delta=30, target_length=LENGTH), 4)
    derived = (
        corpus.subset([0, 1, 2]),
        replace(corpus),
        replace(corpus, ids=tuple(f"x{i}" for i in range(len(corpus)))),
        copy.copy(corpus),
        copy.deepcopy(corpus),
    )
    for other in derived:
        assert "_synth_source" not in vars(other)


def test_new_buffer_key_replaces_the_one_slot():
    corpus = _corpus()
    first = synth.PairedMcEngine(corpus, SynthesisConfig(delta=30, target_length=LENGTH, seed=1))
    old_index = weakref.ref(first.index)
    del first
    source = synth._source(corpus)
    assert source._slot.key == (30, 1)
    for delta, seed in ((30, 2), (60, 2)):
        engine = synth.PairedMcEngine(
            corpus, SynthesisConfig(delta=delta, target_length=LENGTH, seed=seed)
        )
        assert source._slot.key == (delta, seed)
        assert source._slot.index is engine.index
    assert old_index() is None  # the replaced index was freed, not kept aside


def test_orders_share_one_index_and_buffer():
    corpus = _corpus()
    config = SynthesisConfig(delta=30, order=2, target_length=LENGTH, seed=1)
    at_two = synth.PairedMcEngine(corpus, config)
    at_one = synth.PairedMcEngine(corpus, replace(config, order=1))
    assert at_one.index is at_two.index and at_two.index.order == 2
    buffered = synth._source(corpus)._slot.buffered
    at_three = synth.PairedMcEngine(corpus, replace(config, order=3))
    assert at_three.index.order == 3 and at_three.index is not at_two.index
    assert synth._source(corpus)._slot.buffered is buffered


def test_clustered_batch_builds_each_cluster_once(monkeypatch):
    # one fit and one index serve every cluster, and a batch runs in
    # blocks of consecutive ordinals whatever their clusters
    monkeypatch.setattr(synth, "_BLOCK_ROWS", 8)
    calls = {"build_index": 0, "fit": 0, "generate_many": 0}
    build_index, fit = synth.build_index, synth.TvmcModel.fit.__func__
    generate_many = synth.PairedMcEngine.generate_many

    def counted_build_index(*args, **kwargs):
        calls["build_index"] += 1
        return build_index(*args, **kwargs)

    def counted_fit(cls, *args, **kwargs):
        calls["fit"] += 1
        return fit(cls, *args, **kwargs)

    def counted_generate_many(*args, **kwargs):
        calls["generate_many"] += 1
        return generate_many(*args, **kwargs)

    monkeypatch.setattr(synth, "build_index", counted_build_index)
    monkeypatch.setattr(synth.TvmcModel, "fit", classmethod(counted_fit))
    monkeypatch.setattr(synth.PairedMcEngine, "generate_many", counted_generate_many)
    corpus = _corpus()
    config = SynthesisConfig(delta=30, target_length=LENGTH, seed=4, sampler="kde")
    k, count = 3, 150
    _, provenance = synthesize_batch(
        corpus, config, count, assignment=ClusterAssignment(np.arange(len(corpus)) % k)
    )
    assert sorted(set(provenance.clusters.tolist())) == list(range(k))
    assert calls == {"build_index": 1, "fit": 1, "generate_many": math.ceil(count / 8)}
    first, second = synth.PairedMcEngine(corpus, config), synth.PairedMcEngine(corpus, config)
    assert first.index is second.index
    assert first.index.by_state is second.index.by_state


def test_source_is_freed_with_its_corpus():
    corpus = _corpus()
    synthesize_batch(
        corpus, SynthesisConfig(delta=30, target_length=LENGTH, sampler="kde"), 4,
        assignment=ClusterAssignment(np.arange(len(corpus)) % 2),
    )
    corpus_ref = weakref.ref(corpus)
    source_ref = weakref.ref(synth._source(corpus))
    del corpus
    # no reference cycle: reference counting alone frees both
    assert corpus_ref() is None and source_ref() is None


def test_batch_size_bound_is_checked_before_anything_is_allocated():
    corpus = _corpus()
    config = SynthesisConfig(target_length=LENGTH)
    count = synth._MAX_BATCH_CELLS // LENGTH + 1
    with pytest.raises(ConfigError, match="cells in one batch"):
        synthesize_batch(corpus, config, count)
    with pytest.raises(ConfigError, match="cells in one batch"):
        synthesize_batch(corpus, config, 10**12)
    assert "_synth_source" not in vars(corpus)
    synth._check_batch_size(count - 1, LENGTH)  # the bound itself is allowed
