"""Pre-clustering of a corpus before synthesis.

Pairwise Hamming distances feed an agglomerative merge tree; the tree is
cut at the candidate count with the best Dunn index, clusters smaller
than a floor are folded into one catch-all group, and weighted draws over
the resulting clusters steer which sub-corpus each synthesized sequence
borrows from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Corpus, _finite_list
from .errors import ConfigError, DataFormatError

__all__ = [
    "DistanceMatrix",
    "Dendrogram",
    "ClusterAssignment",
    "ClusterWeights",
    "pairwise_distance",
    "hierarchical_cluster",
    "dunn_index",
    "dunn_profile",
    "select_clusters",
    "fold_small_clusters",
    "LINKAGES",
]

LINKAGES = ("complete", "average")

# the most days clustered at once, checked before the n x n distance matrix
# is allocated: each n x n float64 array of 10,000 days is 0.8 GB
_MAX_DAYS = 10_000


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Finite, symmetric, non-negative distances with a zero diagonal.

    Only a read-only float64 array that owns its data, as
    :func:`pairwise_distance` hands over, is kept without a copy; a pair
    whose entries differ within the 1e-9 tolerance is stored as their mean.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = self.values
        owned = isinstance(arr, np.ndarray) and arr.flags.owndata and not arr.flags.writeable
        if not (owned and arr.dtype == np.float64):
            arr = np.array(arr, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DataFormatError("distance matrix must be square")
        # row blocks of about 2**18 cells keep the checks' temporaries small
        step = max(1, 2**18 // max(1, arr.shape[0]))
        blocks = [slice(lo, lo + step) for lo in range(0, arr.shape[0], step)]
        if not all(np.isfinite(arr[rows]).all() for rows in blocks):
            raise DataFormatError("distances must be finite (no NaN or inf)")
        for rows in blocks:  # each pair once: a row block against the columns from its start
            upper, lower = arr[rows, rows.start :], arr[rows.start :, rows].T
            gap = np.abs(upper - lower)
            if (gap > 1e-9).any():
                raise DataFormatError("distance matrix must be symmetric")
            if gap.any():  # keep each pair's mean (min + gap / 2, the same either way round)
                arr = arr if arr.flags.writeable else arr.copy()
                mean = np.minimum(upper, lower) + gap / 2
                arr[rows, rows.start :], arr[rows.start :, rows] = mean, mean.T
        if np.diagonal(arr).any():
            raise DataFormatError("distance matrix diagonal must be zero")
        if arr.min() < 0:
            raise DataFormatError("distances must be non-negative")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Dendrogram:
    """Agglomerative merge tree.

    Each merge step is ``(a, b, height)`` where ``a < b`` are cluster ids:
    leaves are ``0..n-1`` and the cluster created by step ``s`` has id
    ``n + s``.  Each id is merged at most once, so the steps form one
    tree.  Heights are non-decreasing for the supported linkages.
    """

    merges: tuple[tuple[int, int, float], ...]
    n_leaves: int

    def __post_init__(self):
        merges = tuple((int(a), int(b), float(h)) for a, b, h in self.merges)
        object.__setattr__(self, "merges", merges)
        if len(merges) != self.n_leaves - 1:
            raise DataFormatError("dendrogram must contain exactly n-1 merges")
        prev = -math.inf
        merged: set[int] = set()
        for step, (a, b, h) in enumerate(merges):
            if not (0 <= a < b < self.n_leaves + step) or a in merged or b in merged:
                raise DataFormatError(f"merge step {step} references invalid or merged ids")
            merged.update((a, b))
            if h < prev - 1e-9:
                raise DataFormatError("merge heights must be non-decreasing")
            prev = max(prev, h)

    def cut(self, k: int) -> np.ndarray:
        """Partition the leaves into k clusters.

        Applies the first ``n - k`` merges; clusters are labelled 0..k-1
        in order of their smallest member index.
        """
        n = self.n_leaves
        if not 1 <= k <= n:
            raise ConfigError(f"cannot cut {n}-leaf dendrogram into {k} clusters")
        n_apply = n - k
        parent = list(range(n + n_apply))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for step in range(n_apply):
            a, b, _ = self.merges[step]
            new = n + step
            parent[find(a)] = new
            parent[find(b)] = new

        labels = np.empty(n, dtype=np.int64)
        relabel: dict[int, int] = {}
        for leaf in range(n):
            root = find(leaf)
            if root not in relabel:
                relabel[root] = len(relabel)
            labels[leaf] = relabel[root]
        return labels


def _integer_labels(labels) -> np.ndarray:
    """``labels`` as a new int64 array; a fraction, NaN, inf or non-number is rejected."""
    arr = np.asarray(labels)
    with np.errstate(invalid="ignore"):  # NaN, inf and out-of-range floats cast to junk
        ints = arr.astype(np.int64) if arr.dtype.kind in "iuf" else None
    if ints is None or not np.array_equal(ints, arr):
        raise DataFormatError(f"cluster labels must be integers, got {arr!r}")
    return ints


@dataclass(frozen=True, eq=False)
class ClusterAssignment:
    """Cluster index per sequence; labels must use every value in [0, k)."""

    labels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.labels)
        if arr.ndim != 1 or arr.size == 0:
            raise DataFormatError("cluster labels must be a non-empty 1-D vector")
        arr = _integer_labels(arr)
        if arr.min() < 0:
            raise DataFormatError("cluster labels must be non-negative")
        k = int(arr.max()) + 1
        sizes = np.bincount(arr, minlength=k)
        if (sizes == 0).any():
            raise DataFormatError("every cluster in [0, k) must be non-empty")
        arr.setflags(write=False)
        sizes.setflags(write=False)
        object.__setattr__(self, "labels", arr)
        object.__setattr__(self, "_k", k)
        object.__setattr__(self, "_sizes", sizes)

    @property
    def k(self) -> int:
        return self._k

    @property
    def sizes(self) -> np.ndarray:
        return self._sizes

    @property
    def n(self) -> int:
        return int(self.labels.size)

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "ClusterAssignment":
        """Remap arbitrary integer labels to contiguous 0..k-1 (sorted order)."""
        return cls(np.unique(_integer_labels(labels), return_inverse=True)[1])


@dataclass(frozen=True, eq=False)
class ClusterWeights:
    """Finite non-negative weights over clusters, at least one positive, or a ConfigError."""

    weights: np.ndarray

    def __post_init__(self):
        items = _finite_list(self.weights)
        if items is None or min(items) < 0 or max(items) <= 0:
            raise ConfigError(
                "weights must be a list of finite non-negative numbers, at least one "
                f"positive, got {self.weights!r}"
            )
        arr = np.array(items, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)

    @property
    def k(self) -> int:
        return int(self.weights.size)

    def normalized(self) -> np.ndarray:
        return self.weights / self.weights.sum()

    def choose(self, u):
        """Cluster of each uniform in ``u``: a categorical draw by weight.

        A ``u`` at or past the normalized weights' sum, which can fall just
        short of 1, draws the last cluster of positive weight.
        """
        cum = np.cumsum(self.normalized())
        last = np.flatnonzero(self.weights)[-1]
        return np.minimum(np.searchsorted(cum, u, side="right"), last)

    @classmethod
    def from_assignment(cls, assignment: ClusterAssignment) -> "ClusterWeights":
        """Default weighting: cluster sizes (size-proportional draws)."""
        return cls(assignment.sizes)


def pairwise_distance(corpus: Corpus, metric: str = "hamming") -> DistanceMatrix:
    """Pairwise distances between corpus sequences.

    The Hamming metric counts positions where two sequences hold
    different states; it is the only metric built in, selected because
    sequences are aligned and equal length.
    """
    if metric != "hamming":
        raise ConfigError(f"unsupported metric {metric!r}")
    if len(corpus) < 2:
        raise DataFormatError("need at least two sequences")
    n = len(corpus)
    if n > _MAX_DAYS:
        raise DataFormatError(
            f"cannot cluster {n} sequences: more than {_MAX_DAYS} "
            f"(each n x n distance matrix would take {8 * n * n / 1e9:.1f} GB)"
        )
    mat = corpus.states_matrix
    length = mat.shape[1]
    # dist(i, j) = length - sum_s <row_i == s> . <row_j == s>; each product
    # is exact in float32 because counts never exceed the sequence length
    # (< 2**24), so the sum is an exact, symmetric integer with a zero diagonal;
    # one indicator and one product buffer serve every state, and both are
    # freed before the checks in DistanceMatrix
    dist = np.zeros((n, n), dtype=np.float64)
    one_hot = np.empty(mat.shape, dtype=np.float32)
    product = np.empty((n, n), dtype=np.float32)
    for s in range(corpus.alphabet.size):
        np.equal(mat, s, out=one_hot, casting="unsafe")
        dist -= np.matmul(one_hot, one_hot.T, out=product)
    del one_hot, product
    dist += length
    dist.setflags(write=False)  # so DistanceMatrix keeps it without a copy
    return DistanceMatrix(dist)


def hierarchical_cluster(dmat: DistanceMatrix, linkage: str = "complete") -> Dendrogram:
    """Agglomerative merge tree under complete or average linkage.

    Each step merges the globally closest pair; ties go to the
    lexicographically smallest (id-a, id-b) pair, which makes the tree
    deterministic on integer-valued distances.  Merged distances follow
    the Lance-Williams update.

    This is the generic algorithm with cached nearest neighbours
    (Müllner 2011, arXiv:1109.2378).  Each live row caches its nearest
    partner among the clusters live at its last refresh (ties to the
    smallest id); a merge refreshes only the merged row and the rows
    whose partner it absorbed.  Every live pair lies in the cache scope
    of whichever of its rows was refreshed later, so the minimum
    ``(height, id-a, id-b)`` over cached rows is the global one.  Time
    is O(n^2) when few rows share a partner and O(n^3) at worst (all
    distances equal); memory is the one n x n float64 working copy plus
    O(n) vectors.
    """
    if linkage not in LINKAGES:
        raise ConfigError(f"unsupported linkage {linkage!r}")
    n = dmat.n
    if n < 2:
        raise DataFormatError("need at least two observations to cluster")

    # rows and columns of merged-away clusters, and the diagonal, hold inf
    d = dmat.values.copy()
    np.fill_diagonal(d, np.inf)
    ids = np.arange(n, dtype=np.int64)
    sizes = np.ones(n, dtype=np.int64)
    live = np.ones(n, dtype=bool)
    # ids equal positions here, so argmin's first hit is the smallest id
    nn = d.argmin(axis=1)
    nn_dist = d[np.arange(n), nn]
    merges: list[tuple[int, int, float]] = []

    for step in range(n - 1):
        height = nn_dist[live].min()
        rows = np.flatnonzero(live & (nn_dist == height))
        a = np.minimum(ids[rows], ids[nn[rows]])
        b = np.maximum(ids[rows], ids[nn[rows]])
        pick = np.lexsort((b, a))[0]
        i, j = int(rows[pick]), int(nn[rows[pick]])
        merges.append((int(a[pick]), int(b[pick]), float(height)))

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
        live[j] = False

        # rows whose partner changed or died, row i among them since it
        # cached j; other rows keep their cache even when the merged
        # cluster is now closer, because the merged row holds that pair
        stale = live & ((nn == i) | (nn == j))
        _refresh_nearest(d, ids, nn, nn_dist, np.flatnonzero(stale))

    return Dendrogram(tuple(merges), n)


# rows refreshed per vectorized pass, so temporaries stay O(n), not n x n
_REFRESH_ROWS = 64


def _refresh_nearest(d, ids, nn, nn_dist, rows) -> None:
    """Recompute the nearest live partner of ``rows``, ties to the smallest id."""
    for start in range(0, rows.size, _REFRESH_ROWS):
        block = rows[start : start + _REFRESH_ROWS]
        sub = d[block]
        low = sub.min(axis=1)
        tied_ids = np.where(sub == low[:, None], ids, np.iinfo(np.int64).max)
        nn[block] = tied_ids.argmin(axis=1)
        nn_dist[block] = low


def dunn_index(dmat: DistanceMatrix, assignment: ClusterAssignment) -> float:
    """Minimum inter-cluster distance over maximum intra-cluster diameter.

    Returns ``math.inf`` when every cluster has zero diameter (e.g. all
    singletons), mirroring the convention that perfectly tight clusters
    are infinitely well separated.
    """
    if assignment.k < 2:
        raise ConfigError("Dunn index requires at least two clusters")
    if assignment.n != dmat.n:
        raise DataFormatError("assignment size does not match distance matrix")
    same = assignment.labels[:, None] == assignment.labels[None, :]
    # the zero diagonal makes an all-singleton cut's diameter 0
    return _dunn(dmat.values[~same].min(), dmat.values[same].max())


def _dunn(min_inter, max_diam) -> float:
    return math.inf if max_diam == 0.0 else float(min_inter / max_diam)


def dunn_profile(
    dend: Dendrogram, dmat: DistanceMatrix, k_range: tuple[int, int]
) -> dict[int, float]:
    """Dunn index of the dendrogram cut at each k in the inclusive range.

    Each pair of leaves is first joined by exactly one merge, so the cut
    applying the first ``t`` merges has as its largest diameter the largest
    distance those merges join, and as its smallest inter-cluster distance
    the smallest one the later merges join.  One replay reads both from each
    merge's cross block of ``dmat``, which is the largest temporary.
    """
    n = dend.n_leaves
    lo, hi = int(k_range[0]), min(int(k_range[1]), n)
    if lo < 2 or lo > hi:
        raise ConfigError(f"empty or invalid k_range ({k_range[0]}, {k_range[1]})")
    if dmat.n != n:
        raise DataFormatError("dendrogram size does not match distance matrix")
    members = {leaf: [leaf] for leaf in range(n)}
    lowest, highest = np.empty(n - 1), np.empty(n - 1)
    for step, (a, b, _) in enumerate(dend.merges):
        left, right = members.pop(a), members.pop(b)
        block = dmat.values[np.ix_(left, right)]
        lowest[step], highest[step] = block.min(), block.max()
        members[n + step] = left + right
    # the cut at k applies t = n - k merges: max_diam[t] reads those, min_inter[t] the rest
    max_diam = np.maximum.accumulate(np.concatenate(([0.0], highest)))
    min_inter = np.minimum.accumulate(lowest[::-1])[::-1]
    return {k: _dunn(min_inter[n - k], max_diam[n - k]) for k in range(lo, hi + 1)}


def select_clusters(
    dend: Dendrogram,
    dmat: DistanceMatrix,
    k_range: tuple[int, int] = (2, 10),
    min_size: int | None = None,
) -> ClusterAssignment:
    """The cut at the best Dunn k (ties to the smallest), small clusters folded."""
    return _select(dend, dmat, k_range, min_size)[0]


def _select(dend, dmat, k_range, min_size):
    """The folded cut at the best Dunn k (ties to the smallest), the profile and that k."""
    profile = dunn_profile(dend, dmat, k_range)
    chosen = max(profile, key=lambda k: (profile[k], -k))
    return fold_small_clusters(ClusterAssignment(dend.cut(chosen)), min_size), profile, chosen


def fold_small_clusters(
    assignment: ClusterAssignment, min_size: int | None = None
) -> ClusterAssignment:
    """Merge clusters smaller than ``min_size`` into one catch-all group.

    ``min_size`` defaults to 5% of the corpus, at least 1.  The catch-all
    is relabelled as the last cluster index; kept clusters keep their
    order.
    """
    if min_size is None:
        min_size = max(1, math.ceil(0.05 * assignment.n))
    kept = np.flatnonzero(assignment.sizes >= min_size)
    table = np.full(assignment.k, kept.size, dtype=np.int64)
    table[kept] = np.arange(kept.size)
    return ClusterAssignment(table[assignment.labels])
