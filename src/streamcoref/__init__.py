"""Bounded-memory incremental coreference clustering.

Documents stream through an entity-tracking state machine one mention at a
time; memory policies decide what to keep when slots run out. Scores come
from pluggable deterministic providers, so the whole pipeline is exactly
reproducible: gold-derived scores, string matching, or replayed score
dumps from an external model.
"""

__version__ = "0.1.0"

from .analytics import (
    CorpusStats,
    EmptyClusterError,
    LengthMismatchError,
    SpreadRecord,
    active_entity_count,
    corpus_max_active,
    corpus_max_total,
    entity_spread,
    histogram_rows,
    max_active_entities,
    per_document_stats,
    spearman,
    spread_histogram,
    spread_records,
)
from .engine import (
    ClusteringResult,
    MemoryState,
    RunStats,
    clusters_from_actions,
    decide_lb,
    decide_rb,
    decide_unbounded,
    run_document,
    step,
)
from .ingest import (
    MalformedColumnError,
    ParseError,
    SchemaError,
    UnbalancedBracketError,
    iter_documents,
    load_conll,
    load_jsonl,
    order_mentions,
    parse_conll,
    parse_jsonl,
    read_corpus,
    write_jsonl,
)
from .metrics import (
    PRF,
    CountAccumulator,
    ScoreReport,
    b_cubed,
    b_cubed_counts,
    ceaf_phi4,
    ceaf_phi4_counts,
    conll_f1,
    evaluate_documents,
    filter_singletons,
    muc,
    muc_counts,
)
from .oracle import (
    OracleState,
    OracleStep,
    TrackedEntity,
    oracle_actions,
    oracle_trace,
    oracle_trackable_fraction,
)
from .scoring import (
    EntityCell,
    GoldScoreProvider,
    RecordingScoreProvider,
    ReplayScoreProvider,
    ScoreProvider,
    ScoreRow,
    ScoreShapeMismatch,
    StringMatchConfig,
    StringMatchScoreProvider,
    dump_score_rows,
    gold_scorer,
    iter_score_rows,
    load_score_rows,
    propose_top_spans,
    replay_scorer,
    string_match_scorer,
)
from .synth import benchmark_document, synthesize_corpus, synthesize_document
from .types import (
    Action,
    ActionKind,
    ConfigError,
    Document,
    GoldCluster,
    MemoryPolicy,
    MentionSpan,
    PolicyConfig,
    SingletonMode,
    validate_document,
)

__all__ = [name for name in dir() if not name.startswith("_")]
