"""Bounded-memory incremental coreference clustering.

Documents stream through an entity-tracking state machine one mention at a
time; memory policies decide what to keep when slots run out. Scores come
from pluggable deterministic providers, so the whole pipeline is exactly
reproducible: gold-derived scores, string matching, or replayed score
dumps from an external model.

The names below load with their submodule on first use (PEP 562), so
importing the package, or one submodule of it, does not import the rest.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "analytics": (
        "CorpusStats",
        "EmptyClusterError",
        "SpreadRecord",
        "active_entity_count",
        "corpus_max_active",
        "corpus_max_total",
        "entity_spread",
        "histogram_rows",
        "max_active_entities",
        "per_document_stats",
        "spread_histogram",
        "spread_records",
    ),
    "engine": (
        "ClusteringResult",
        "MemoryState",
        "RunStats",
        "clusters_from_actions",
        "decide",
        "run_document",
    ),
    "ingest": (
        "MalformedColumnError",
        "ParseError",
        "SchemaError",
        "UnbalancedBracketError",
        "iter_documents",
        "load_conll",
        "load_jsonl",
        "order_mentions",
        "parse_conll",
        "parse_jsonl",
        "read_corpus",
        "write_jsonl",
    ),
    "metrics": (
        "PRF",
        "CountAccumulator",
        "ScoreReport",
        "b_cubed",
        "b_cubed_counts",
        "ceaf_phi4",
        "ceaf_phi4_counts",
        "conll_f1",
        "filter_singletons",
        "muc",
        "muc_counts",
    ),
    "oracle": (
        "OracleStep",
        "oracle_trace",
        "oracle_trackable_fraction",
    ),
    "scoring": (
        "GoldScoreProvider",
        "RecordingScoreProvider",
        "ReplayScoreProvider",
        "ScoreProvider",
        "ScoreRow",
        "StringMatchConfig",
        "StringMatchScoreProvider",
        "dump_score_rows",
        "gold_scorer",
        "iter_score_rows",
        "load_score_rows",
        "propose_top_spans",
        "string_match_scorer",
    ),
    "synth": ("benchmark_document", "synthesize_corpus", "synthesize_document"),
    "types": (
        "Action",
        "ActionKind",
        "ConfigError",
        "Document",
        "GoldCluster",
        "MemoryPolicy",
        "MentionSpan",
        "PolicyConfig",
        "ScoreShapeMismatch",
        "SingletonMode",
        "validate_document",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# The submodules are public names too, as they were when this file
# imported them all.
__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        from importlib import import_module

        return import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__getattr__(module), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    # Public names are __all__ alone, whichever submodules have loaded.
    return sorted([*__all__, *(name for name in globals() if name.startswith("_"))])
