"""Shared domain types: spans, documents, gold clusters, actions, policies.

Token indices are document-global and 0-based. Spans are closed intervals:
a span covers tokens start..end inclusive. A MentionSpan is a (start, end)
named tuple, so it equals, hashes and sorts like the plain pair. All values
here are immutable after construction; invariant checking lives in
validate_document, which reports violations instead of raising so that
callers can decide what is fatal.

The package's records are named tuples, or FrozenRecord classes where a
named tuple does not fit, rather than dataclasses: defining a dataclass
imports inspect and execs its generated methods, which every CLI call
would pay for at start-up.
"""

from __future__ import annotations

import enum
from functools import cache, cached_property
from typing import NamedTuple


def _restore_error(cls, args):
    return cls.__new__(cls, *args)


class PicklableError:
    """Mixin for exceptions whose __init__ formats its arguments.

    Default exception pickling calls __init__ again with the formatted
    message, which formats it twice or fails. These errors are rebuilt from
    their message and attributes instead, so an error raised in a worker
    process reaches the parent with the same type, text and fields.
    """

    def __reduce__(self):
        return (_restore_error, (type(self), self.args), self.__dict__)


class FrozenRecord:
    """Base of the records that cannot be named tuples.

    A record's fields are named in _fields and set once, in __init__
    through vars(self). It equals, hashes and prints by those fields;
    assigning or deleting an attribute afterwards raises AttributeError.
    Records of different classes never compare equal.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class ConfigError(ValueError):
    """Contradictory or incomplete policy configuration."""


class ScoreShapeMismatch(PicklableError, RuntimeError):
    """The replay file does not hold the scores the run needs."""

    def __init__(self, mention_index: int, message: str):
        self.mention_index = mention_index
        super().__init__(f"mention {mention_index}: {message}")


class WorkerError(RuntimeError):
    """A run's worker process died, or raised an error that cannot cross
    its pipe (see pipeline)."""


class MemoryPolicy(enum.Enum):
    UNBOUNDED = "unbounded"
    UNBOUNDED_STAR = "ustar"
    LEARNED_BOUNDED = "lb"
    RULE_BOUNDED = "rb"

    @property
    def bounded(self) -> bool:
        return self in (MemoryPolicy.LEARNED_BOUNDED, MemoryPolicy.RULE_BOUNDED)


class SingletonMode(enum.Enum):
    KEEP = "keep"
    DROP = "drop"


class MentionSpan(NamedTuple):
    """Closed token interval [start, end].

    A tuple: it equals, hashes, sorts and unpacks like (start, end).
    """

    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    def covers(self, t: int) -> bool:
        return self.start <= t <= self.end

    def as_pair(self) -> list[int]:
        return [self.start, self.end]


class GoldCluster(NamedTuple):
    """All mentions of one gold entity."""

    entity_id: int
    mentions: tuple[MentionSpan, ...]


class Document(FrozenRecord):
    """One tokenized document; len(doc) is its token count.

    sentence_boundaries are cumulative sentence ends: boundary b means a
    sentence ends right before token b. Strictly increasing, each in
    1..len(tokens). Documents equal and hash by these six fields; the
    entity_by_span cache is not one of them.
    """

    _fields = (
        "doc_id",
        "tokens",
        "sentence_boundaries",
        "genre",
        "candidate_mentions",
        "gold_clusters",
    )

    def __init__(
        self,
        doc_id: str,
        tokens: tuple[str, ...],
        sentence_boundaries: tuple[int, ...] = (),
        genre: str | None = None,
        candidate_mentions: tuple[tuple[MentionSpan, float], ...] = (),
        gold_clusters: tuple[GoldCluster, ...] = (),
    ):
        vars(self).update(
            doc_id=doc_id,
            tokens=tokens,
            sentence_boundaries=sentence_boundaries,
            genre=genre,
            candidate_mentions=candidate_mentions,
            gold_clusters=gold_clusters,
        )

    def __len__(self) -> int:
        return len(self.tokens)

    def gold_mentions(self) -> list[MentionSpan]:
        return [m for c in self.gold_clusters for m in c.mentions]

    @cached_property
    def entity_by_span(self) -> dict[MentionSpan, int]:
        out: dict[MentionSpan, int] = {}
        for cluster in self.gold_clusters:
            for span in cluster.mentions:
                out[span] = cluster.entity_id
        return out


class ActionKind(enum.Enum):
    COREF = "coref"
    NEW_ENTITY = "new"
    EVICT = "evict"
    IGNORE_CAPACITY = "ignore_cap"
    IGNORE_INVALID = "ignore_inv"


_CELL_KINDS = frozenset({ActionKind.COREF, ActionKind.EVICT})


class _ActionFields(NamedTuple):
    kind: ActionKind
    cell: int | None


class Action(_ActionFields):
    """One per-mention decision; cell is the target slot for coref/evict."""

    __slots__ = ()

    def __new__(cls, kind: ActionKind, cell: int | None = None) -> "Action":
        if kind in _CELL_KINDS:
            if cell is None or cell < 0:
                raise ValueError(f"{kind.value} requires a cell index")
        elif cell is not None:
            raise ValueError(f"{kind.value} carries no cell index")
        return super().__new__(cls, kind, cell)

    @classmethod
    def _make(cls, iterable) -> "Action":
        # _replace builds through _make, which would skip the checks.
        return cls(*iterable)

    # Actions are immutable, so each constructor builds a given action once
    # and then hands out the same instance: an engine run allocates no
    # Action per mention. The caches hold one entry per slot index used.

    @classmethod
    @cache
    def coref(cls, cell: int) -> "Action":
        return cls(ActionKind.COREF, cell)

    @classmethod
    @cache
    def new_entity(cls) -> "Action":
        return cls(ActionKind.NEW_ENTITY)

    @classmethod
    @cache
    def evict(cls, cell: int) -> "Action":
        return cls(ActionKind.EVICT, cell)

    @classmethod
    @cache
    def ignore_capacity(cls) -> "Action":
        return cls(ActionKind.IGNORE_CAPACITY)

    @classmethod
    @cache
    def ignore_invalid(cls) -> "Action":
        return cls(ActionKind.IGNORE_INVALID)

    def to_obj(self) -> dict:
        obj: dict = {"action": self.kind.value}
        if self.cell is not None:
            obj["cell"] = self.cell
        return obj

    @classmethod
    def from_obj(cls, obj: dict) -> "Action":
        return cls(ActionKind(obj["action"]), obj.get("cell"))


class _PolicyFields(NamedTuple):
    policy: MemoryPolicy
    capacity: int | None
    singleton_mode: SingletonMode


class PolicyConfig(_PolicyFields):
    """Which memory policy to run, its capacity, and singleton handling.

    capacity is None for the unbounded policies and a positive integer for
    the bounded ones. Unbounded-star appends every non-coreferent mention
    as a new entity, so it cannot be evaluated with singletons kept: the
    config is rejected here rather than by a surprise downstream.
    """

    __slots__ = ()

    def __new__(
        cls,
        policy: MemoryPolicy,
        capacity: int | None = None,
        singleton_mode: SingletonMode = SingletonMode.KEEP,
    ) -> "PolicyConfig":
        if policy.bounded:
            if capacity is None:
                raise ConfigError(f"policy {policy.value} requires a finite capacity")
            if capacity < 1:
                raise ConfigError(f"capacity must be >= 1, got {capacity}")
        elif capacity is not None:
            raise ConfigError(f"policy {policy.value} is unbounded; capacity must be omitted")
        if policy is MemoryPolicy.UNBOUNDED_STAR and singleton_mode is SingletonMode.KEEP:
            raise ConfigError(
                "unbounded-star turns every non-coreferent mention into an entity "
                "and only makes sense when singletons are dropped in evaluation"
            )
        return super().__new__(cls, policy, capacity, singleton_mode)

    @classmethod
    def _make(cls, iterable) -> "PolicyConfig":
        # _replace builds through _make, which would skip the checks.
        return cls(*iterable)

    @property
    def bounded(self) -> bool:
        return self.policy.bounded


def _span_issues(label: str, span: MentionSpan, n_tokens: int) -> list[str]:
    out = []
    if span.start > span.end:
        out.append(f"{label}: start > end")
    if span.start < 0:
        out.append(f"{label}: start < 0")
    elif span.start <= span.end and span.end >= n_tokens:
        out.append(f"{label}: end beyond document")
    return out


def validate_document(doc: Document) -> list[str]:
    """Check every Document invariant and return one message per violation.

    Pure, never raises, and safe to call repeatedly: the document is not
    modified and the same input yields the same list.
    """
    issues: list[str] = []
    n = len(doc.tokens)

    prev = 0
    for i, b in enumerate(doc.sentence_boundaries):
        if b <= prev:
            issues.append(f"sentence_boundaries[{i}]: not strictly increasing")
        if b < 1 or b > n:
            issues.append(f"sentence_boundaries[{i}]: out of range")
        prev = b

    # A span in range has no issue of its own, so _span_issues runs only
    # for the spans that fail the one comparison chain.
    seen_candidates: set[MentionSpan] = set()
    for i, (span, _score) in enumerate(doc.candidate_mentions):
        start, end = span
        if not 0 <= start <= end < n:
            issues.extend(_span_issues(f"mention {i}", span, n))
        if span in seen_candidates:
            issues.append(f"duplicate candidate mention ({start},{end})")
        seen_candidates.add(span)

    seen_gold: set[MentionSpan] = set()
    for k, cluster in enumerate(doc.gold_clusters):
        if not cluster.mentions:
            issues.append(f"cluster {k}: empty")
        for j, span in enumerate(cluster.mentions):
            start, end = span
            if not 0 <= start <= end < n:
                issues.extend(_span_issues(f"cluster {k} mention {j}", span, n))
            if span in seen_gold:
                issues.append(f"duplicate gold mention ({start},{end})")
            seen_gold.add(span)

    return issues
