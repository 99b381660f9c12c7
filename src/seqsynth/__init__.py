"""seqsynth: synthesis and evaluation of long categorical sequences.

The library turns a corpus of aligned categorical sequences (e.g. daily
human activity traces at one-minute resolution) into new, realistic
sequences.  The main engine re-samples observed episode transitions
within a clock-time window, pairing each state draw with a duration
draw; a time-varying Markov chain serves as the baseline comparator.
Optional pre-clustering restricts borrowing to similar sequences and
lets weighted cluster draws steer the composition of the output.
"""

from .core import (
    ContinuousSeries,
    Corpus,
    Episode,
    EpisodeSequence,
    IntervalSequence,
    StateAlphabet,
    discretize,
    discretize_corpus,
    episode_table,
    rle_decode,
    rle_encode,
    smooth_rolling,
    threshold_alphabet,
)
from .clustering import (
    ClusterAssignment,
    ClusterWeights,
    Dendrogram,
    DistanceMatrix,
    dunn_index,
    hierarchical_cluster,
    pairwise_distance,
    select_clusters,
)
from .errors import (
    ConfigError,
    DataFormatError,
    SeqSynthError,
)
from .evaluate import (
    EvaluationReport,
    KsResult,
    build_report,
    ecdf_curves,
    episode_count_stats,
    episode_durations,
    ks_two_sample,
    sequence_entropy,
    top_states,
    write_report,
)
from .synth import (
    BatchProvenance,
    CandidateIndex,
    Candidates,
    PairedMcEngine,
    SynthesisConfig,
    TvmcEngine,
    TvmcModel,
    build_index,
    extend_with_buffer,
    synthesize_batch,
)

__version__ = "0.1.0"
