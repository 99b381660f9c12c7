"""The cached-nearest-neighbour merge tree against the full-matrix rescan.

``oracle_merges`` keeps the former O(n^3) ``hierarchical_cluster`` loop
(a full-matrix minimum and tie scan at every merge) as the reference
that the current implementation must reproduce exactly: the same
cluster ids and bit-identical heights, for both linkages, including
the lexicographic tie-break that integer Hamming distances exercise.

``oracle_hamming`` keeps the former ``pairwise_distance`` kernel, which
rounded, symmetrised and zeroed the diagonal of the accumulated matches;
the current kernel must give the same matrix bit for bit.

``oracle_dunn_profile`` keeps the former per-cut ``dunn_profile`` (cut the
tree at each k, then ``dunn_index`` over that cut's n x n masks) as the
reference for the one-replay profile, which must equal it exactly.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsynth import (
    ClusterAssignment,
    Corpus,
    DistanceMatrix,
    StateAlphabet,
    dunn_index,
    hierarchical_cluster,
    pairwise_distance,
)
from seqsynth import clustering
from seqsynth.clustering import LINKAGES, dunn_profile

from _groundtruth import activity_ground_truth


def oracle_merges(values, linkage):
    """Merge list of the full-matrix rescan: min over d, smallest (id, id) tie."""
    n = values.shape[0]
    d = np.array(values, dtype=np.float64)
    np.fill_diagonal(d, np.inf)
    ids = np.arange(n, dtype=np.int64)
    sizes = np.ones(n, dtype=np.int64)
    merges = []

    for step in range(n - 1):
        height = d.min()
        tied = np.argwhere(d == height)
        best_pos = None
        best_key = None
        for i, j in tied:
            if i >= j:
                continue
            a, b = int(ids[i]), int(ids[j])
            key = (a, b) if a < b else (b, a)
            if best_key is None or key < best_key:
                best_key = key
                best_pos = (int(i), int(j))
        i, j = best_pos
        merges.append((best_key[0], best_key[1], float(height)))

        if linkage == "complete":
            row = np.maximum(d[i], d[j])
        else:
            row = (sizes[i] * d[i] + sizes[j] * d[j]) / (sizes[i] + sizes[j])
        row[i] = np.inf
        row[j] = np.inf
        d[i, :] = row
        d[:, i] = row
        d[j, :] = np.inf
        d[:, j] = np.inf
        sizes[i] += sizes[j]
        ids[i] = n + step

    return tuple(merges)


def oracle_hamming(corpus):
    """The former Hamming kernel, with its rounding and symmetrising steps."""
    mat = corpus.states_matrix
    n, length = mat.shape
    matches = np.zeros((n, n), dtype=np.float64)
    for s in range(corpus.alphabet.size):
        one_hot = (mat == s).astype(np.float32)
        matches += (one_hot @ one_hot.T).astype(np.float64)
    dist = np.rint(length - matches)
    dist = (dist + dist.T) / 2.0
    np.fill_diagonal(dist, 0.0)
    return dist


def oracle_dunn_profile(dend, dmat, k_range):
    """Dunn index of each cut, one ``cut`` and one ``dunn_index`` per k."""
    lo, hi = k_range
    hi = min(hi, dend.n_leaves)
    return {k: dunn_index(dmat, ClusterAssignment(dend.cut(k))) for k in range(lo, hi + 1)}


def assert_matches_oracle(dmat):
    for linkage in LINKAGES:
        got = hierarchical_cluster(dmat, linkage).merges
        assert got == oracle_merges(dmat.values, linkage), linkage


@st.composite
def hamming_matrices(draw):
    """Distances of short sequences over 2-3 states: ties everywhere."""
    n = draw(st.integers(2, 24))
    length = draw(st.integers(1, 6))
    n_states = draw(st.integers(2, 3))
    cells = draw(
        st.lists(st.integers(0, n_states - 1), min_size=n * length, max_size=n * length)
    )
    rows = np.array(cells, dtype=np.int64).reshape(n, length)
    alphabet = StateAlphabet(tuple(f"s{k}" for k in range(n_states)))
    return pairwise_distance(Corpus.from_arrays(alphabet, rows))


@st.composite
def float_matrices(draw):
    n = draw(st.integers(2, 20))
    upper = draw(
        st.lists(
            st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    values = np.zeros((n, n))
    values[np.triu_indices(n, 1)] = upper
    return DistanceMatrix(values + values.T)


class TestMergeTreeOracle:
    @settings(max_examples=150, deadline=None)
    @given(hamming_matrices())
    def test_tie_heavy_hamming(self, dmat):
        assert_matches_oracle(dmat)

    @settings(max_examples=150, deadline=None)
    @given(float_matrices())
    def test_random_floats(self, dmat):
        assert_matches_oracle(dmat)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 40), st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False))
    def test_all_equal(self, n, value):
        values = np.full((n, n), value)
        np.fill_diagonal(values, 0.0)
        assert_matches_oracle(DistanceMatrix(values))

    @pytest.mark.parametrize("value", [0.0, 1.0, 7.5])
    def test_two_points(self, value):
        assert_matches_oracle(DistanceMatrix([[0.0, value], [value, 0.0]]))

    def test_rounded_average_beats_cached_partner(self):
        # ids: p=0, k=1, j1=2, j2=3, i=4.  k caches p (0.7, smallest id);
        # merging i into {j1, j2} gives (0.7 + 2 * 0.7) / 3, which rounds
        # below 0.7, so k's next partner is the new cluster
        values = np.full((5, 5), 1.0)
        np.fill_diagonal(values, 0.0)
        for a, b, dist in [(0, 1, 0.7), (1, 2, 0.7), (1, 3, 0.7), (1, 4, 0.7),
                           (2, 3, 0.01), (2, 4, 0.05), (3, 4, 0.05)]:
            values[a, b] = values[b, a] = dist
        dmat = DistanceMatrix(values)
        assert_matches_oracle(dmat)
        assert hierarchical_cluster(dmat, "average").merges[2] == (1, 6, (0.7 + 1.4) / 3)

    def test_activity_ground_truth(self):
        assert_matches_oracle(pairwise_distance(activity_ground_truth(300, seed=3)))


@pytest.mark.parametrize("n", [160, 1000])
def test_hamming_kernel_matches_oracle(n):
    corpus = activity_ground_truth(n, seed=n)
    assert np.array_equal(pairwise_distance(corpus).values, oracle_hamming(corpus))


def assert_profile_matches_oracle(dmat):
    for linkage in LINKAGES:
        dend = hierarchical_cluster(dmat, linkage)
        got = dunn_profile(dend, dmat, (2, dmat.n))
        assert got == oracle_dunn_profile(dend, dmat, (2, dmat.n)), linkage


class TestDunnProfileOracle:
    @settings(max_examples=150, deadline=None)
    @given(hamming_matrices())
    def test_tie_heavy_hamming(self, dmat):
        assert_profile_matches_oracle(dmat)

    @settings(max_examples=150, deadline=None)
    @given(float_matrices())
    def test_random_floats(self, dmat):
        assert_profile_matches_oracle(dmat)

    @settings(max_examples=150, deadline=None)
    @given(float_matrices(), st.integers(0, 2**32 - 1))
    def test_nudged_upper_triangle(self, dmat, seed):
        # a caller's matrix may be asymmetric within DistanceMatrix's 1e-9
        # tolerance; the profile reads one triangle, the oracle both
        values = np.array(dmat.values)
        upper = np.triu_indices(dmat.n, 1)
        values[upper] += np.random.default_rng(seed).uniform(0, 5e-10, upper[0].size)
        assert_profile_matches_oracle(DistanceMatrix(values))

    def test_zero_diameters_read_infinity(self):
        # three groups of four identical days: cuts 3..12 have zero diameter
        rows = np.repeat(np.arange(3), 4)[:, None].repeat(5, axis=1)
        dmat = pairwise_distance(Corpus.from_arrays(StateAlphabet(("a", "b", "c")), rows))
        dend = hierarchical_cluster(dmat)
        profile = dunn_profile(dend, dmat, (2, 12))
        assert profile == oracle_dunn_profile(dend, dmat, (2, 12))
        assert profile[2] == 1.0 and all(profile[k] == math.inf for k in range(3, 13))

    def test_no_cut_or_dunn_index(self, monkeypatch):
        dmat = pairwise_distance(activity_ground_truth(60, seed=6))
        dend = hierarchical_cluster(dmat)
        want = oracle_dunn_profile(dend, dmat, (2, 10))

        def refused(*args, **kwargs):
            raise AssertionError("dunn_profile cut the tree or scored a cut")

        monkeypatch.setattr(clustering.Dendrogram, "cut", refused)
        monkeypatch.setattr(clustering, "dunn_index", refused)
        assert dunn_profile(dend, dmat, (2, 10)) == want

    def test_peak_memory_below_half_the_matrix(self):
        # the largest temporary is one merge's cross block, at most a
        # quarter of the matrix; the per-cut profile made n x n masks
        dmat = pairwise_distance(activity_ground_truth(1000, seed=1000))
        dend = hierarchical_cluster(dmat)
        tracemalloc.start()
        try:
            dunn_profile(dend, dmat, (2, 10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dmat.values.nbytes / 2, f"traced peak {peak / 1e6:.1f} MB"
