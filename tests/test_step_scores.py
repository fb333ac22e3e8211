"""One provider query per step: batched rows against the scalar queries.

The base-class step_scores, which composes a row from the scalar queries,
is the reference for every built-in provider's batched path; the per-cell
engine loop in conftest is the reference for the engine itself.
"""

import json
from collections import Counter

import pytest

from conftest import ReferenceStringMatch, reference_run
from streamcoref import (
    MemoryPolicy,
    PolicyConfig,
    RecordingScoreProvider,
    ReplayScoreProvider,
    ScoreProvider,
    SingletonMode,
    StringMatchConfig,
    benchmark_document,
    clusters_from_actions,
    gold_scorer,
    run_document,
    string_match_scorer,
    synthesize_corpus,
)
from streamcoref.ingest import order_mentions

POLICIES = (
    [PolicyConfig(MemoryPolicy.UNBOUNDED)]
    + [PolicyConfig(MemoryPolicy.UNBOUNDED_STAR, singleton_mode=SingletonMode.DROP)]
    + [PolicyConfig(MemoryPolicy.LEARNED_BOUNDED, c) for c in range(1, 11)]
    + [PolicyConfig(MemoryPolicy.RULE_BOUNDED, c) for c in range(1, 11)]
)
MATCH_CONFIGS = [
    StringMatchConfig(lowercase=lc, strip_determiners=sd)
    for lc in (True, False)
    for sd in (False, True)
]


def _policy_id(policy):
    return policy.policy.value + ("" if policy.capacity is None else str(policy.capacity))


def _corpus():
    docs = synthesize_corpus(2024, 8, max_entities=6, max_mentions=18, extra_candidates=3)
    docs.append(benchmark_document(11, 150, entity_pool=12, doc_id="bench-a"))
    docs.append(benchmark_document(12, 150, entity_pool=25, doc_id="bench-b"))
    return [(d, order_mentions(s for s, _ in d.candidate_mentions)[0]) for d in docs]


CORPUS = _corpus()


def _providers(doc):
    """Every built-in provider as (label, provider, reference provider)."""
    out = [("gold", gold_scorer(doc), gold_scorer(doc))]
    for cfg in MATCH_CONFIGS:
        out.append(
            (
                f"string-match{cfg}",
                string_match_scorer(cfg),
                ReferenceStringMatch(cfg.lowercase, cfg.strip_determiners),
            )
        )
    return out


def _rows_json(rows):
    return [json.dumps(r.to_obj()) for r in rows]


class CompositionCheck(ScoreProvider):
    """Asserts at every step that the inner provider's batched row equals
    the base-class composition of its own scalar queries."""

    def __init__(self, inner):
        self.inner = inner
        self.steps = 0

    def start_document(self, doc, mentions):
        self.inner.start_document(doc, mentions)

    def mention_begin(self, index, mention):
        self.inner.mention_begin(index, mention)

    def step_scores(self, doc, mention, cells):
        row = self.inner.step_scores(doc, mention, cells)
        assert row == ScoreProvider.step_scores(self.inner, doc, mention, cells)
        self.steps += 1
        return row

    def gold_entity_id(self, doc, mention):
        return self.inner.gold_entity_id(doc, mention)

    def observe_action(self, index, mention, action, cell):
        self.inner.observe_action(index, mention, action, cell)

    def end_document(self):
        self.inner.end_document()


class ScalarOnly(ScoreProvider):
    """A provider written against the scalar queries alone: it delegates
    them and every hook, and counts the queries it answers."""

    def __init__(self, inner):
        self.inner = inner
        self.queries = 0

    def start_document(self, doc, mentions):
        self.inner.start_document(doc, mentions)

    def mention_begin(self, index, mention):
        self.inner.mention_begin(index, mention)

    def mention_score(self, doc, mention):
        self.queries += 1
        return self.inner.mention_score(doc, mention)

    def coref_score(self, doc, mention, cell):
        self.queries += 1
        return self.inner.coref_score(doc, mention, cell)

    def remaining_score(self, doc, item):
        self.queries += 1
        return self.inner.remaining_score(doc, item)

    def gold_entity_id(self, doc, mention):
        return self.inner.gold_entity_id(doc, mention)

    def observe_action(self, index, mention, action, cell):
        self.inner.observe_action(index, mention, action, cell)

    def end_document(self):
        self.inner.end_document()


@pytest.mark.parametrize("policy", POLICIES, ids=_policy_id)
def test_batched_rows_equal_scalar_composition(policy):
    for doc, mentions in CORPUS:
        for _, provider, _ in _providers(doc):
            check = CompositionCheck(provider)
            run_document(doc, mentions, check, policy)
            assert check.steps == len(mentions)


@pytest.mark.parametrize("policy", POLICIES, ids=_policy_id)
def test_run_document_matches_per_cell_loop(policy):
    for doc, mentions in CORPUS:
        for label, provider, reference in _providers(doc):
            recorder = RecordingScoreProvider(provider)
            result = run_document(doc, mentions, recorder, policy)
            actions, rows, sizes = reference_run(doc, mentions, reference, policy)
            assert list(result.stats.actions) == actions, label
            assert _rows_json(recorder.rows) == _rows_json(rows), label
            assert result.predicted_clusters == tuple(
                tuple(c) for c in clusters_from_actions(mentions, actions)
            )
            assert result.stats.max_entities_in_memory == max(sizes, default=0)
            assert result.stats.avg_entities_in_memory == (
                sum(sizes) / len(sizes) if sizes else 0.0
            )


def _count_queries(provider):
    """Wrap the instance's score queries with call counters."""
    calls = Counter()
    for name in ("step_scores", "mention_score", "coref_score", "remaining_score"):
        method = getattr(provider, name)

        def counted(*args, _method=method, _name=name):
            calls[_name] += 1
            return _method(*args)

        setattr(provider, name, counted)
    return calls


@pytest.mark.parametrize("policy", POLICIES[::3], ids=_policy_id)
def test_built_in_providers_answer_one_query_per_mention(policy):
    for doc, mentions in CORPUS:
        recorded = RecordingScoreProvider(string_match_scorer())
        run_document(doc, mentions, recorded, policy)
        inner = string_match_scorer()
        for provider, wrapped in (
            (gold_scorer(doc), None),
            (string_match_scorer(), None),
            (ReplayScoreProvider(recorded.rows), None),
            (RecordingScoreProvider(inner), inner),
        ):
            calls = _count_queries(provider)
            inner_calls = _count_queries(wrapped) if wrapped else calls
            run_document(doc, mentions, provider, policy)
            assert calls == inner_calls == Counter(step_scores=len(mentions))


@pytest.mark.parametrize("policy", POLICIES[::3], ids=_policy_id)
def test_scalar_only_provider_gives_identical_runs(policy):
    for doc, mentions in CORPUS:
        for (label, provider, _), (_, fresh, _) in zip(_providers(doc), _providers(doc)):
            batched = RecordingScoreProvider(provider)
            scalar = ScalarOnly(fresh)
            recorded = RecordingScoreProvider(scalar)
            want = run_document(doc, mentions, batched, policy)
            got = run_document(doc, mentions, recorded, policy)
            assert got.stats == want.stats, label
            assert _rows_json(recorded.rows) == _rows_json(batched.rows), label
            cells = sum(len(r.s_c) for r in batched.rows)
            assert scalar.queries == 2 * cells + 2 * len(mentions)
