"""Scripted semi-Markov ground-truth processes used by benchmark tests.

Both generators draw episode durations from rounded lognormals (so the
per-interval hazard is far from geometric) and clip the final episode at
the day boundary, matching how real fixed-length traces truncate.
"""

import numpy as np

from seqsynth import Corpus, IntervalSequence, StateAlphabet, rle_encode

ACTIVITY_LABELS = ("rest", "light", "moderate", "vigorous")

# mean durations roughly 66/33/16/11 intervals
_ACTIVITY_DURATIONS = ((4.0, 0.8), (3.4, 0.6), (2.7, 0.5), (2.3, 0.4))

_NIGHT = np.array(
    [
        [0.0, 0.70, 0.20, 0.10],
        [0.85, 0.0, 0.10, 0.05],
        [0.80, 0.15, 0.0, 0.05],
        [0.80, 0.15, 0.05, 0.0],
    ]
)
_DAY = np.array(
    [
        [0.0, 0.55, 0.35, 0.10],
        [0.25, 0.0, 0.55, 0.20],
        [0.30, 0.45, 0.0, 0.25],
        [0.25, 0.35, 0.40, 0.0],
    ]
)
_EVENING = np.array(
    [
        [0.0, 0.75, 0.20, 0.05],
        [0.60, 0.0, 0.30, 0.10],
        [0.55, 0.35, 0.0, 0.10],
        [0.50, 0.40, 0.10, 0.0],
    ]
)


def _cum(matrix: np.ndarray) -> np.ndarray:
    return np.cumsum(matrix, axis=1)


def _draw(row_cum: np.ndarray, u: float) -> int:
    return int(np.searchsorted(row_cum, u * row_cum[-1], side="right"))


def _duration(rng, mu: float, sigma: float) -> int:
    return max(1, int(np.rint(np.exp(rng.normal(mu, sigma)))))


def activity_ground_truth(n_seq: int, length: int = 1440, seed: int = 0) -> Corpus:
    """4-state process with time-of-day-varying transitions.

    The day splits into night/day/evening blocks with distinct transition
    matrices (no self transitions); durations are state-specific rounded
    lognormals.
    """
    rng = np.random.default_rng(seed)
    parts = [_cum(_NIGHT), _cum(_DAY), _cum(_EVENING)]
    boundaries = (420, 1020)
    init_cum = np.cumsum([0.75, 0.15, 0.07, 0.03])
    arrays = []
    for _ in range(n_seq):
        states = np.empty(length, dtype=np.int64)
        cur = _draw(init_cum, rng.random())
        t = 0
        while t < length:
            mu, sigma = _ACTIVITY_DURATIONS[cur]
            d = min(_duration(rng, mu, sigma), length - t)
            states[t : t + d] = cur
            t += d
            if t >= length:
                break
            part = 0 if t < boundaries[0] else (1 if t < boundaries[1] else 2)
            cur = _draw(parts[part][cur], rng.random())
        arrays.append(states)
    alphabet = StateAlphabet(ACTIVITY_LABELS)
    ids = [f"gt-{i:05d}" for i in range(n_seq)]
    return Corpus.from_arrays(alphabet, arrays, ids)


SECOND_ORDER_LABELS = ("anchor-a", "anchor-c", "bridge", "other")
BRIDGE = 2
# P(next | bridge, state before bridge)
BRIDGE_RULES = {
    0: np.array([0.0, 0.9, 0.0, 0.1]),  # after a->bridge: mostly c
    1: np.array([0.9, 0.0, 0.0, 0.1]),  # after c->bridge: mostly a
}
_BRIDGE_DEFAULT = np.array([0.45, 0.45, 0.0, 0.1])
_FROM_OTHER = np.array([0.5, 0.5, 0.0, 0.0])
_SECOND_ORDER_DURATIONS = ((3.1, 0.5), (3.1, 0.5), (2.3, 0.4), (2.7, 0.5))


def second_order_ground_truth(n_seq: int, length: int = 720, seed: int = 0) -> Corpus:
    """Process whose state after the bridge depends on the state before it.

    Anchors always move into the bridge state; leaving the bridge follows
    BRIDGE_RULES keyed by the pre-bridge state, which only an order-2
    engine can reproduce.
    """
    rng = np.random.default_rng(seed)
    init_cum = np.cumsum([0.4, 0.4, 0.0, 0.2])
    arrays = []
    for _ in range(n_seq):
        states = np.empty(length, dtype=np.int64)
        prev = None
        cur = _draw(init_cum, rng.random())
        t = 0
        while t < length:
            mu, sigma = _SECOND_ORDER_DURATIONS[cur]
            d = min(_duration(rng, mu, sigma), length - t)
            states[t : t + d] = cur
            t += d
            if t >= length:
                break
            if cur in (0, 1):
                nxt = BRIDGE
            elif cur == BRIDGE:
                row = BRIDGE_RULES.get(prev, _BRIDGE_DEFAULT)
                nxt = _draw(np.cumsum(row), rng.random())
            else:
                nxt = _draw(np.cumsum(_FROM_OTHER), rng.random())
            prev = cur
            cur = nxt
        arrays.append(states)
    alphabet = StateAlphabet(SECOND_ORDER_LABELS)
    ids = [f"so-{i:05d}" for i in range(n_seq)]
    return Corpus.from_arrays(alphabet, arrays, ids)


def bridge_conditional(corpus: Corpus, anchor: int, target: int) -> float:
    """Empirical P(next == target | current == bridge, previous == anchor)."""
    hits = 0
    total = 0
    for row in corpus.states_matrix:
        eps = rle_encode(IntervalSequence(row)).episodes
        for i in range(2, len(eps)):
            if eps[i - 1].state == BRIDGE and eps[i - 2].state == anchor:
                total += 1
                hits += eps[i].state == target
    if total == 0:
        return float("nan")
    return hits / total
