"""Synthesizing new sequences with both engines.

The paired engine alternates two draws: the next state comes from
transitions observed within a +/-delta clock window of the current end
time (conditioned on the preceding state), and the duration comes from
the matching observations.  A time-varying Markov chain serves as the
per-interval baseline.  Everything is reproducible from one seed, and a
batch is byte-identical no matter how many workers generate it.

Run from the repository root:  python demos/03_synthesis.py
"""

from pathlib import Path

import numpy as np

from seqsynth import (
    SynthesisConfig,
    discretize_corpus,
    episode_table,
    smooth_rolling,
    synthesize_batch,
)
from seqsynth.io import load_continuous

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "activity_counts.csv"

series = [smooth_rolling(s, 5) for s in load_continuous(FIXTURE)]
corpus = discretize_corpus(series, [0.0, 760.0, 2020.0])

config = SynthesisConfig(
    delta=60,            # +/- one hour of clock context per transition
    order=1,             # condition on the current state only
    target_length=corpus.length,
    sampler="direct",    # durations drawn straight from observations
    buffer="tvmc",       # extend sources past midnight before indexing
    seed=20260808,
)


def episodes_per_day(c):
    rows = episode_table(c.states_matrix)[0]
    return np.bincount(rows, minlength=len(c))


print(f"source corpus: {len(corpus)} days x {corpus.length} minutes")
for engine in ("paired-mc", "tvmc"):
    out, provenance = synthesize_batch(corpus, config, count=len(corpus), engine=engine)
    episode_counts = episodes_per_day(out)
    print(f"\n{engine}: synthesized {len(out)} sequences")
    print(f"  episodes/day: mean {np.mean(episode_counts):.1f}, "
          f"sd {np.std(episode_counts, ddof=1):.1f}")
    print(f"  fallbacks: {provenance.fallback_totals()}")

source_counts = episodes_per_day(corpus)
print(f"\nsource episodes/day for comparison: mean {np.mean(source_counts):.1f}, "
      f"sd {np.std(source_counts, ddof=1):.1f}")

# determinism: same seed, different worker counts, identical output
a, _ = synthesize_batch(corpus, config, 20, workers=1)
b, _ = synthesize_batch(corpus, config, 20, workers=2)
print(f"\nworkers=1 vs workers=2 outputs identical: {a == b}")

# order 2 conditions on the state before the current one as well
order2 = SynthesisConfig(
    delta=60, order=2, target_length=corpus.length, seed=20260808
)
out2, prov2 = synthesize_batch(corpus, order2, 40)
print(f"order-2 batch of 40 generated, fallbacks: {prov2.fallback_totals()}")
