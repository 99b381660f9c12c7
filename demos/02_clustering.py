"""Pre-clustering a corpus before synthesis.

Sequences borrow transition statistics only from similar sequences, so
the corpus is first split into groups: pairwise Hamming distances feed
an agglomerative merge tree, candidate cluster counts are scored with
the Dunn index, and undersized clusters fold into a catch-all group.
Cluster weights then control the composition of synthesized output.

Run from the repository root:  python demos/02_clustering.py
"""

from collections import Counter
from pathlib import Path

import numpy as np

from seqsynth import (
    ClusterWeights,
    discretize_corpus,
    hierarchical_cluster,
    pairwise_distance,
    select_clusters,
    smooth_rolling,
)
from seqsynth.clustering import dunn_profile
from seqsynth.io import load_continuous

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "activity_counts.csv"

series = [smooth_rolling(s, 5) for s in load_continuous(FIXTURE)]
corpus = discretize_corpus(series, [0.0, 760.0, 2020.0])
print(f"corpus: {len(corpus)} sequences x {corpus.length} intervals, "
      f"{corpus.alphabet.size} states")

distances = pairwise_distance(corpus, "hamming")
print(f"mean pairwise Hamming distance: {distances.values.mean():.0f} "
      f"of {corpus.length} positions")

dendrogram = hierarchical_cluster(distances, linkage="complete")
profile = dunn_profile(dendrogram, distances, (2, 6))
print("Dunn index by candidate cluster count:")
for k, value in profile.items():
    print(f"  k={k}: {value:.4f}")

assignment = select_clusters(dendrogram, distances, (2, 6))
sizes = sorted(assignment.sizes.tolist(), reverse=True)
print(f"selected {assignment.k} clusters with sizes {sizes}")

# the fixture mixes three behavioural profiles; see how they land
profiles = [sid.rsplit("-", 1)[0] for sid in corpus.ids]
for cluster in range(assignment.k):
    members = [p for p, c in zip(profiles, assignment.labels) if c == cluster]
    print(f"  cluster {cluster}: {dict(Counter(members))}")

# size-proportional draws decide which cluster each synthetic day copies;
# reweighting shifts the output composition
rng = np.random.default_rng(7)
default_weights = ClusterWeights.from_assignment(assignment)
draws = Counter(int(default_weights.choose(rng.random())) for _ in range(1000))
print(f"1000 size-proportional cluster draws: {dict(sorted(draws.items()))}")

boosted = np.ones(assignment.k)
boosted[assignment.sizes.argmin()] = 10.0
draws = Counter(
    int(ClusterWeights(boosted).choose(rng.random())) for _ in range(1000)
)
print(f"1000 draws with the smallest cluster boosted 10x: {dict(sorted(draws.items()))}")
