"""The former per-sequence provenance assembly, kept as the oracle.

``synthesize_batch`` once built one ``SequenceProvenance`` per output
from its ordinal, id, cluster and fallback dict, summed the dicts into
``fallback_totals`` and wrote them out in this shape.  The columnar
``BatchProvenance.to_dict`` must serialize to the same JSON.
"""

import json

from seqsynth.synth import config_to_dict


def oracle_provenance_json(engine, config, count, weights, drawn):
    """JSON of a batch whose ordinal ``i`` drew ``drawn[i] = (cluster, fallbacks)``."""
    sequences = [
        {
            "id": f"synth-{ordinal:06d}",
            "ordinal": ordinal,
            "cluster": int(cluster),
            "fallbacks": dict(fallbacks),
        }
        for ordinal, (cluster, fallbacks) in enumerate(drawn)
    ]
    totals: dict[str, int] = {}
    for sp in sequences:
        for key, value in sp["fallbacks"].items():
            totals[key] = totals.get(key, 0) + int(value)
    return json.dumps(
        {
            "engine": engine,
            "config": config_to_dict(config),
            "count": count,
            "weights": [float(w) for w in weights],
            "fallback_totals": totals,
            "sequences": sequences,
        }
    )
