import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqsynth import (
    ClusterAssignment,
    ClusterWeights,
    ConfigError,
    Corpus,
    DataFormatError,
    DistanceMatrix,
    StateAlphabet,
    dunn_index,
    hierarchical_cluster,
    pairwise_distance,
    select_clusters,
)
from seqsynth.clustering import Dendrogram, dunn_profile, fold_small_clusters


def line_distance_matrix(points):
    pts = np.asarray(points, dtype=float)
    return DistanceMatrix(np.abs(pts[:, None] - pts[None, :]))


def brute_dunn(values, labels):
    n = len(labels)
    min_inter = math.inf
    max_diam = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            if labels[i] == labels[j]:
                max_diam = max(max_diam, values[i][j])
            else:
                min_inter = min(min_inter, values[i][j])
    return math.inf if max_diam == 0.0 else min_inter / max_diam


class TestPairwiseDistance:
    def test_hand_example(self):
        alphabet = StateAlphabet(("a", "b"))
        corpus = Corpus.from_arrays(alphabet, [[0, 1, 1, 0], [0, 1, 0, 1]])
        d = pairwise_distance(corpus)
        assert d.values[0, 1] == 2

    def test_identical_sequences(self):
        alphabet = StateAlphabet(("a", "b"))
        corpus = Corpus.from_arrays(alphabet, [[0, 1, 0], [0, 1, 0]])
        assert pairwise_distance(corpus).values[0, 1] == 0

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(3)
        alphabet = StateAlphabet(tuple("abcd"))
        corpus = Corpus.from_arrays(alphabet, rng.integers(0, 4, (20, 60)))
        d = pairwise_distance(corpus).values
        assert np.array_equal(d, d.T)
        assert (np.diagonal(d) == 0).all()
        # spot-check against a direct positionwise count
        mat = corpus.states_matrix
        for i, j in [(0, 1), (3, 17), (5, 5)]:
            assert d[i, j] == int((mat[i] != mat[j]).sum())

    def test_needs_two_sequences(self):
        alphabet = StateAlphabet(("a",))
        corpus = Corpus.from_arrays(alphabet, [[0, 0]])
        with pytest.raises(DataFormatError):
            pairwise_distance(corpus)

    def test_too_many_sequences_rejected_before_allocating(self, monkeypatch):
        # a 10,001 x 1 corpus: the rejection comes before any n x n array
        ids = tuple(map(str, range(10_001)))
        corpus = Corpus(StateAlphabet(("a",)), np.zeros((10_001, 1)), ids)
        monkeypatch.setattr(np, "zeros", _no_allocation)
        with pytest.raises(DataFormatError, match="cannot cluster 10001 sequences: more than"):
            pairwise_distance(corpus)


def _no_allocation(*args, **kwargs):
    raise AssertionError("pairwise_distance allocated before checking n")


class TestDistanceMatrix:
    def test_infinite_distance_rejected(self):
        inf = math.inf
        values = [[0, 1, inf, inf], [1, 0, inf, inf], [inf, inf, 0, 2], [inf, inf, 2, 0]]
        with pytest.raises(DataFormatError, match="finite"):
            DistanceMatrix(values)

    def test_nan_rejected_as_non_finite(self):
        values = np.zeros((3, 3))
        values[0, 1] = values[1, 0] = np.nan
        with pytest.raises(DataFormatError, match="finite"):
            DistanceMatrix(values)

    def test_asymmetry_in_a_later_row_block_rejected(self):
        # 600 rows span two row blocks of the checks
        values = np.zeros((600, 600))
        values[550, 10] = 1e-8
        with pytest.raises(DataFormatError, match="symmetric"):
            DistanceMatrix(values)
        values[550, 10] = 1e-10  # within the 1e-9 tolerance
        DistanceMatrix(values)

    def test_near_symmetric_pairs_stored_as_their_mean(self):
        # 600 rows span two row blocks: (10, 550) crosses them, (500, 550)
        # lies in the second; every reader must see one value per pair
        values = np.zeros((600, 600))
        values[10, 550], values[550, 10] = 3.0, 3.0 + 8e-10
        values[500, 550], values[550, 500] = 2.0 + 6e-10, 2.0
        given_ = values.copy()
        stored = DistanceMatrix(values).values
        assert np.array_equal(stored, stored.T) and np.array_equal(values, given_)
        assert stored[10, 550] == pytest.approx(3.0 + 4e-10, abs=1e-15)
        assert stored[500, 550] == pytest.approx(2.0 + 3e-10, abs=1e-15)
        assert np.count_nonzero(stored) == 4
        # a read-only array that owns its data is copied before it is mended
        values.setflags(write=False)
        kept = DistanceMatrix(values).values
        assert kept is not values and np.array_equal(kept, stored)
        assert np.array_equal(values, given_)

    def test_caller_arrays_are_copied(self):
        values = np.array([[0.0, 1.0], [1.0, 0.0]])
        frozen = np.array(values)
        frozen.setflags(write=False)
        for given_ in (values, frozen[:, :], values.tolist()):
            d = DistanceMatrix(given_)
            assert d.values is not given_ and not d.values.flags.writeable
        copied = DistanceMatrix(values)
        values[0, 1] = values[1, 0] = 5.0
        assert copied.values[0, 1] == 1.0
        # a read-only array that owns its data is kept as it is
        assert DistanceMatrix(frozen).values is frozen

    def test_peak_memory_at_a_thousand_days(self):
        # the cluster-1000 shape: the matrix (8 MB) and the distance kernel's
        # buffers set the peak; the checks add O(row block), not n x n copies
        rng = np.random.default_rng(12)
        corpus = Corpus.from_arrays(StateAlphabet(tuple("abcd")), rng.integers(0, 4, (1000, 1440)))
        tracemalloc.start()
        try:
            d = pairwise_distance(corpus)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d.n == 1000
        assert peak < 20e6, f"traced peak {peak / 1e6:.1f} MB"


class TestHierarchicalCluster:
    def test_line_merge_order(self):
        # {0,1} then {10,11} merge first under complete linkage
        dend = hierarchical_cluster(line_distance_matrix([0, 1, 10, 11]))
        assert dend.merges[0][:2] == (0, 1)
        assert dend.merges[1][:2] == (2, 3)
        assert dend.merges[2] == (4, 5, 11.0)

    def test_two_points(self):
        dend = hierarchical_cluster(line_distance_matrix([0, 5]))
        assert dend.merges == ((0, 1, 5.0),)

    def test_cut_extremes(self):
        dend = hierarchical_cluster(line_distance_matrix([0, 1, 10, 11]))
        assert dend.cut(4).tolist() == [0, 1, 2, 3]
        assert dend.cut(1).tolist() == [0, 0, 0, 0]
        assert dend.cut(2).tolist() == [0, 0, 1, 1]

    def test_average_linkage_heights(self):
        dend = hierarchical_cluster(
            line_distance_matrix([0, 1, 10, 11]), linkage="average"
        )
        heights = [h for _, _, h in dend.merges]
        assert heights == sorted(heights)
        assert heights[-1] == pytest.approx(10.0)  # mean of 9,10,10,11

    def test_monotone_heights_random(self):
        rng = np.random.default_rng(4)
        for linkage in ("complete", "average"):
            pts = rng.uniform(0, 100, 30)
            dend = hierarchical_cluster(line_distance_matrix(pts), linkage)
            heights = [h for _, _, h in dend.merges]
            assert all(a <= b + 1e-9 for a, b in zip(heights, heights[1:]))

    def test_matches_scipy_partitions(self):
        scipy_hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        squareform = pytest.importorskip("scipy.spatial.distance").squareform
        rng = np.random.default_rng(5)
        for linkage in ("complete", "average"):
            for trial in range(5):
                pts = rng.uniform(0, 1, (15, 3))
                dmat = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
                np.fill_diagonal(dmat, 0.0)
                dmat = (dmat + dmat.T) / 2
                ours = hierarchical_cluster(DistanceMatrix(dmat), linkage)
                theirs = scipy_hierarchy.linkage(squareform(dmat), method=linkage)
                for k in (2, 3, 5, 8):
                    got = ours.cut(k)
                    want = scipy_hierarchy.fcluster(theirs, k, criterion="maxclust")
                    got_parts = {frozenset(np.flatnonzero(got == c)) for c in set(got)}
                    want_parts = {
                        frozenset(np.flatnonzero(want == c)) for c in set(want)
                    }
                    assert got_parts == want_parts

    def test_single_point_rejected(self):
        with pytest.raises(DataFormatError):
            hierarchical_cluster(DistanceMatrix(np.zeros((1, 1))))


class TestDunnIndex:
    def test_line_clusters(self):
        d = line_distance_matrix([0, 1, 10, 11])
        assert dunn_index(d, ClusterAssignment([0, 0, 1, 1])) == pytest.approx(9.0)

    def test_mixed_assignment_below_one(self):
        d = line_distance_matrix([0, 1, 10, 11])
        assert dunn_index(d, ClusterAssignment([0, 1, 0, 1])) < 1.0

    def test_singletons_give_infinity(self):
        d = line_distance_matrix([0, 1, 2])
        assert dunn_index(d, ClusterAssignment([0, 1, 2])) == math.inf

    def test_requires_two_clusters(self):
        d = line_distance_matrix([0, 1])
        with pytest.raises(ConfigError):
            dunn_index(d, ClusterAssignment([0, 0]))

    def test_scale_invariant(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(0, 50, 12)
        labels = ClusterAssignment(rng.integers(0, 3, 12))
        base = line_distance_matrix(pts)
        scaled = DistanceMatrix(base.values * 7.25)
        assert dunn_index(scaled, labels) == pytest.approx(dunn_index(base, labels))

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(4, 11))
            pts = rng.uniform(0, 100, n)
            d = line_distance_matrix(pts)
            labels = rng.integers(0, rng.integers(2, n + 1), n)
            labels = ClusterAssignment.from_labels(labels).labels
            if labels.max() == 0:
                continue
            got = dunn_index(d, ClusterAssignment(labels))
            want = brute_dunn(d.values, labels)
            assert got == pytest.approx(want) or (
                math.isinf(got) and math.isinf(want)
            )


class TestSelectClusters:
    def test_two_blobs(self):
        d = line_distance_matrix([0, 1, 2, 100, 101, 102])
        dend = hierarchical_cluster(d)
        assignment = select_clusters(dend, d, (2, 5), min_size=1)
        assert assignment.k == 2
        assert assignment.labels.tolist() == [0, 0, 0, 1, 1, 1]

    def test_fixed_k_range(self):
        d = line_distance_matrix([0, 1, 2, 100, 101, 102])
        dend = hierarchical_cluster(d)
        assignment = select_clusters(dend, d, (2, 2), min_size=1)
        assert assignment.k == 2

    def test_small_clusters_grouped(self):
        # one big blob, two outliers: min_size larger than the outlier
        # clusters forces (largest + catch-all)
        d = line_distance_matrix([0, 1, 2, 3, 4, 50, 120])
        dend = hierarchical_cluster(d)
        assignment = select_clusters(dend, d, (3, 3), min_size=2)
        assert assignment.k == 2
        assert assignment.labels.tolist() == [0, 0, 0, 0, 0, 1, 1]

    def test_partition_preserved(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 100, 40)
        d = line_distance_matrix(pts)
        dend = hierarchical_cluster(d)
        assignment = select_clusters(dend, d, (2, 8))
        assert assignment.n == 40
        assert assignment.sizes.sum() == 40

    def test_empty_k_range_rejected(self):
        d = line_distance_matrix([0, 1, 2])
        dend = hierarchical_cluster(d)
        with pytest.raises(ConfigError):
            dunn_profile(dend, d, (5, 4))

    def test_matrix_of_another_size_rejected(self):
        dend = hierarchical_cluster(line_distance_matrix([0, 1, 2]))
        with pytest.raises(DataFormatError, match="does not match"):
            dunn_profile(dend, line_distance_matrix([0, 1, 2, 3]), (2, 3))


class TestFoldSmallClusters:
    def test_small_clusters_form_the_last_cluster(self):
        assignment = ClusterAssignment([2, 0, 1, 2, 3, 2, 0, 3])
        folded = fold_small_clusters(assignment, min_size=2)
        assert folded.labels.tolist() == [1, 0, 3, 1, 2, 1, 0, 2]

    def test_nothing_small_keeps_labels(self):
        assignment = ClusterAssignment([1, 0, 1, 0])
        assert fold_small_clusters(assignment, min_size=2).labels.tolist() == [1, 0, 1, 0]

    def test_all_small_is_one_cluster(self):
        folded = fold_small_clusters(ClusterAssignment([0, 1, 2, 1]), min_size=3)
        assert folded.k == 1 and folded.labels.tolist() == [0, 0, 0, 0]

    def test_default_floor_is_five_percent(self):
        # 40 days: the floor is 2, so the singleton cluster 1 folds
        labels = [0] * 20 + [1] + [2] * 19
        folded = fold_small_clusters(ClusterAssignment(labels))
        assert folded.labels.tolist() == [0] * 20 + [2] + [1] * 19


class TestSampleCluster:
    def test_size_weights_normalize(self):
        w = ClusterWeights(np.array([911.0, 808.0, 210.0]))
        assert w.normalized() == pytest.approx(
            [911 / 1929, 808 / 1929, 210 / 1929]
        )

    def test_single_cluster(self):
        rng = np.random.default_rng(9)
        w = ClusterWeights(np.ones(1))
        assert all(int(w.choose(rng.random())) == 0 for _ in range(20))

    def test_degenerate_weight(self):
        rng = np.random.default_rng(10)
        w = ClusterWeights(np.array([1.0, 0.0]))
        assert all(int(w.choose(rng.random())) == 0 for _ in range(50))

    def test_all_zero_rejected(self):
        # weights are configuration: the message a config's weights get
        with pytest.raises(ConfigError, match="at least one positive, got"):
            ClusterWeights(np.zeros(3))

    @pytest.mark.parametrize(
        "weights",
        [[True, 1], np.array([True, False]), [1, 10**400], [1, -1], [math.nan, 1],
         [1, math.inf], [], "abc", [[1, 1]], np.ones((1, 2)), np.float64(1.0)],
        ids=["bool", "bool-array", "huge-int", "negative", "nan", "inf", "empty", "text",
             "nested", "2-d", "scalar"],
    )
    def test_bad_weights_are_config_errors(self, weights):
        with pytest.raises(ConfigError, match="weights must be a list of finite"):
            ClusterWeights(weights)

    def test_int_weights_are_read_as_floats(self):
        for weights in ([3, 1], (3, 1.0), np.array([3, 1])):
            w = ClusterWeights(weights)
            assert w.weights.dtype == np.float64 and w.weights.tolist() == [3.0, 1.0]

    @settings(max_examples=300, deadline=None)
    @given(
        positive=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=6),
        zeros_at=st.lists(st.integers(0, 6), max_size=4),
        trailing=st.integers(0, 3),
        u=st.floats(0.0, 1.0, exclude_max=True),
    )
    # these weights sum to 0.9999999999999999 once normalized
    @example(positive=[0.1, 0.2, 0.3], zeros_at=[], trailing=1, u=0.5)
    def test_zero_weight_cluster_never_drawn(self, positive, zeros_at, trailing, u):
        weights = list(positive)
        for at in zeros_at:
            weights.insert(at % (len(weights) + 1), 0.0)
        weights += [0.0] * trailing
        w = ClusterWeights(np.array(weights))
        # the smallest and largest doubles rng.random() returns, and one more
        drawn = w.choose(np.array([0.0, 1.0 - 2.0**-53, u]))
        assert (w.weights[drawn] > 0).all(), (weights, drawn)

    def test_frequencies_track_weights(self):
        rng = np.random.default_rng(11)
        w = ClusterWeights(np.array([911.0, 808.0, 210.0]))
        draws = np.array([int(w.choose(rng.random())) for _ in range(20000)])
        freq = np.bincount(draws, minlength=3) / draws.size
        assert freq == pytest.approx(w.normalized(), abs=0.015)


class TestAssignmentLabels:
    @pytest.mark.parametrize(
        "labels",
        [[0.9, 1.7, 0.2], [0, 1, math.nan], [0, math.inf], ["0", "1"], [0, None], [True, False]],
    )
    def test_non_integer_labels_rejected(self, labels):
        # [0.9, 1.7, 0.2] was once truncated to clusters [0, 1, 0]
        with pytest.raises(DataFormatError, match="cluster labels must be"):
            ClusterAssignment(labels)
        with pytest.raises(DataFormatError, match="cluster labels must be"):
            ClusterAssignment.from_labels(labels)

    def test_integral_values_accepted(self):
        for labels in ([0, 1, 0], [0.0, 1.0, 0.0], np.array([0, 1, 0], dtype=np.uint8)):
            assert ClusterAssignment(labels).labels.tolist() == [0, 1, 0]
        assert ClusterAssignment.from_labels([7.0, -2, 7]).labels.tolist() == [1, 0, 1]


class TestDendrogramValidation:
    def test_merge_count_enforced(self):
        with pytest.raises(DataFormatError):
            Dendrogram(((0, 1, 1.0),), 3)

    def test_height_order_enforced(self):
        with pytest.raises(DataFormatError):
            Dendrogram(((0, 1, 2.0), (2, 3, 1.0)), 3)

    def test_cluster_merged_twice_rejected(self):
        # leaf 0 joined cluster 3 at step 0, so step 1 cannot merge it again
        with pytest.raises(DataFormatError, match="merge step 1 references invalid or merged ids"):
            Dendrogram(((0, 1, 1.0), (0, 2, 2.0)), 3)
        with pytest.raises(DataFormatError, match="merge step 2 references invalid or merged ids"):
            Dendrogram(((0, 1, 1.0), (2, 3, 2.0), (3, 4, 3.0)), 4)
