"""Access-path selection.

The planner inspects a statement's WHERE clause for conditions it can
answer from indexes on a range's stored table — a query's first FROM
range, a root UPDATE/DELETE target, every stored range of a partial DML
statement — and, following Section 4.2, exploits the *addressing mode*
of each index:

* DATA_TID indexes are never used to retrieve objects (their addresses
  cannot reach the owning object — the paper's first, rejected approach);
* ROOT_TID indexes restrict the candidate *objects*;
* HIERARCHICAL indexes additionally let conjunctive conditions anchored in
  the same complex subobject be combined *purely on index information*:
  two addresses agreeing on their first ``k`` components refer to the same
  subobject at level ``k`` (the paper's ``P2 = F2`` argument).

Selection is *cost-based* (System R style — Selinger et al., SIGMOD
1979): every index applicable to a conjunct is scored on its maintained
statistics (``index/stats.py``), the cheapest wins, and HIERARCHICAL
beats ROOT_TID at equal selectivity so prefix joins stay available.
Matched conjuncts are intersected in ascending-selectivity order with an
early exit as soon as the candidate set collapses to ∅ — the remaining
indexes are never probed.  Candidate roots *stream* out of a generator
(Volcano-style — Graefe 1994) so they flow into object fetch and WHERE
re-verification without building intermediate lists, and a single-index
plan whose key order matches the query's ``ORDER BY`` announces
``sort_elided`` so the executor can skip the final sort.

The executor always re-verifies the full WHERE clause on the candidates, so
planning is purely an optimization.  See ``docs/PLANNER.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Union

from repro.catalog.catalog import TableEntry
from repro.index.addresses import AddressingMode, HierarchicalAddress, address_root
from repro.index.manager import NF2Index
from repro.index.text import TextIndex
from repro.obs import METRICS
from repro.query import ast
from repro.storage.tid import TID


@dataclass(frozen=True)
class IndexCondition:
    """An index-answerable conjunct.

    ``attribute_path`` is the path from the table's top level to the atomic
    attribute; ``binding`` names the quantifier variables introduced along
    the way — two conditions sharing a binding prefix are anchored in the
    same complex subobject and may be prefix-joined.
    """

    attribute_path: tuple[str, ...]
    binding: tuple[str, ...]
    kind: str  # 'eq' | 'contains'
    value: Any

    @property
    def levels(self) -> int:
        """Element levels below the root that the condition descends."""
        return len(self.attribute_path) - 1


@dataclass(frozen=True)
class ConditionGroup:
    """One top-level WHERE conjunct with its extracted index conditions.

    ``exact`` marks a *lossless* decomposition: the candidate roots
    implied by the conditions are exactly the roots satisfying the
    conjunct — not merely a superset.  A plan that probes indexes for
    every condition of an exact group *settles* the conjunct on index
    information alone (Section 4.2): the executor can skip re-verifying
    it against decoded data subtuples.  CONTAINS narrows to a superset
    (word fragments), and IS NULL / OR / NOT / ALL / subscripted paths
    are not extracted at all, so none of those are ever exact.
    """

    predicate: ast.Predicate
    conditions: tuple[IndexCondition, ...]
    exact: bool


def extract_condition_groups(
    where: Optional[ast.Predicate], var: str
) -> Optional[list[ConditionGroup]]:
    """Index-answerable conjuncts of a WHERE clause, anchored at *var*,
    grouped per top-level conjunct and annotated with exactness (see
    :class:`ConditionGroup`).

    Returns ``None`` if the clause's top level is not a conjunction we can
    partially cover (e.g. an OR) — callers then scan.  Takes the
    predicate, not a query: SELECT, root UPDATE/DELETE and partial DML all
    plan their stored-table ranges through this."""
    if where is None:
        return []
    conjuncts = _flatten_and(where)
    if conjuncts is None:
        return None
    groups: list[ConditionGroup] = []
    for conjunct in conjuncts:
        exact = _exact_conditions(conjunct, var, prefix=(), binding=())
        if exact is not None:
            groups.append(ConditionGroup(conjunct, tuple(exact), True))
        else:
            loose = _conditions_of(conjunct, var, prefix=(), binding=())
            groups.append(ConditionGroup(conjunct, tuple(loose), False))
    return groups


def _exact_conditions(
    predicate: ast.Predicate,
    var: str,
    prefix: tuple[str, ...],
    binding: tuple[str, ...],
) -> Optional[list[IndexCondition]]:
    """The conditions of one conjunct when — and only when — the conjunct
    decomposes *losslessly* into index conditions; ``None`` otherwise.

    Lossless shapes: an eq/range comparison between a plain single-step
    attribute path and a non-NULL literal, and an EXISTS quantifier over
    a subtable path whose body is itself a lossless conjunction.  Any
    other shape (CONTAINS, IS NULL, OR, NOT, ALL, expression operands)
    means index hits only bound the answer from above."""
    if isinstance(predicate, ast.Comparison):
        condition = _comparison_condition(predicate, var, prefix, binding)
        if condition is None:
            return None
        bound = condition.value if condition.kind == "eq" else condition.value[1]
        if isinstance(bound, bool):
            # a B+-tree probe would equate True with 1; compare() never
            # does — keep boolean literals out of exact settlement
            return None
        return [condition]
    if isinstance(predicate, ast.Quantifier) and predicate.kind == "EXISTS":
        source = predicate.source
        if not (
            source.path is not None
            and source.path.var == var
            and not source.path.has_subscript
            and len(source.path.attribute_names) >= 1
        ):
            return None
        new_prefix = prefix + source.path.attribute_names
        # the same per-instance binding key _conditions_of uses — the two
        # extractions must agree for prefix-join bookkeeping to line up
        new_binding = binding + (f"{predicate.var}#{id(predicate)}",)
        inner = _flatten_and(predicate.body)
        if inner is None:
            return None
        out: list[IndexCondition] = []
        for conjunct in inner:
            sub = _exact_conditions(conjunct, predicate.var, new_prefix, new_binding)
            if sub is None:
                return None
            out.extend(sub)
        return out
    return None


def join_conjuncts(
    where: Optional[ast.Predicate], var: str
) -> list[tuple[str, Union[ast.Literal, ast.Path]]]:
    """The index-nested-loop probes *where* offers an inner range *var*:
    ``(attribute, other_side)`` for each top-level conjunct
    ``var.ATTR = other_side`` whose other side is a literal or a path
    (either orientation; one attribute, no subscript), in conjunct order.
    Both engines probe through these and EXPLAIN predicts from them; a
    probe runs only when the other side's variable is bound and its value
    is an atom."""
    if where is None:
        return []
    out: list[tuple[str, Union[ast.Literal, ast.Path]]] = []
    for conjunct in _flatten_and(where) or ():
        if not (isinstance(conjunct, ast.Comparison) and conjunct.op == "="):
            continue
        for mine, other in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if (
                isinstance(mine, ast.Path)
                and mine.var == var
                and len(mine.attribute_names) == 1
                and not mine.has_subscript
                and isinstance(other, (ast.Literal, ast.Path))
            ):
                out.append((mine.attribute_names[0], other))
    return out


def _flatten_and(predicate: ast.Predicate) -> Optional[list[ast.Predicate]]:
    if isinstance(predicate, ast.BoolOp):
        if predicate.op != "AND":
            return None
        out: list[ast.Predicate] = []
        for operand in predicate.operands:
            inner = _flatten_and(operand)
            if inner is None:
                return None
            out.extend(inner)
        return out
    return [predicate]


def _conditions_of(
    predicate: ast.Predicate,
    var: str,
    prefix: tuple[str, ...],
    binding: tuple[str, ...],
) -> list[IndexCondition]:
    """Conditions contributed by one conjunct.  *var* is the variable whose
    tuples we are filtering at this nesting level; *prefix* is the subtable
    path taken so far; *binding* the quantifier variables on that path."""
    if isinstance(predicate, ast.Comparison):
        condition = _comparison_condition(predicate, var, prefix, binding)
        return [condition] if condition else []
    if isinstance(predicate, ast.Contains) and not predicate.negated:
        subject = predicate.subject
        if (
            isinstance(subject, ast.Path)
            and subject.var == var
            and not subject.has_subscript
            and subject.attribute_names
        ):
            return [
                IndexCondition(
                    attribute_path=prefix + subject.attribute_names,
                    binding=binding,
                    kind="contains",
                    value=predicate.pattern,
                )
            ]
        return []
    if isinstance(predicate, ast.Quantifier) and predicate.kind == "EXISTS":
        source = predicate.source
        if (
            source.path is not None
            and source.path.var == var
            and not source.path.has_subscript
            and len(source.path.attribute_names) >= 1
        ):
            new_prefix = prefix + source.path.attribute_names
            # Bindings are keyed per quantifier *instance*: two sibling
            # EXISTS clauses reusing a variable name must not prefix-join.
            new_binding = binding + (f"{predicate.var}#{id(predicate)}",)
            inner = _flatten_and(predicate.body)
            if inner is None:
                return []
            out: list[IndexCondition] = []
            for conjunct in inner:
                out.extend(
                    _conditions_of(conjunct, predicate.var, new_prefix, new_binding)
                )
            return out
        return []
    if isinstance(predicate, ast.BoolOp) and predicate.op == "AND":
        out = []
        for operand in predicate.operands:
            out.extend(_conditions_of(operand, var, prefix, binding))
        return out
    return []


_MIRRORED_OPS = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _comparison_condition(
    predicate: ast.Comparison,
    var: str,
    prefix: tuple[str, ...],
    binding: tuple[str, ...],
) -> Optional[IndexCondition]:
    if predicate.op not in _MIRRORED_OPS:
        return None
    sides = [
        (predicate.left, predicate.right, predicate.op),
        (predicate.right, predicate.left, _MIRRORED_OPS[predicate.op]),
    ]
    for path_side, literal_side, op in sides:
        if (
            isinstance(path_side, ast.Path)
            and path_side.var == var
            and not path_side.has_subscript
            and len(path_side.attribute_names) == 1
            and isinstance(literal_side, ast.Literal)
            and literal_side.value is not None
        ):
            if op == "=":
                return IndexCondition(
                    attribute_path=prefix + path_side.attribute_names,
                    binding=binding,
                    kind="eq",
                    value=literal_side.value,
                )
            return IndexCondition(
                attribute_path=prefix + path_side.attribute_names,
                binding=binding,
                kind="range",
                value=(op, literal_side.value),
            )
    return None


# ---------------------------------------------------------------------------
# candidate selection (cost-based)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexChoice:
    """One scored (conjunct → index) assignment."""

    condition: IndexCondition
    name: str
    index: Any
    estimate: float
    hierarchical: bool

    @property
    def sort_key(self) -> tuple:
        # cheaper first; HIERARCHICAL beats ROOT_TID/flat at equal
        # selectivity (prefix joins stay available); name breaks ties
        # deterministically.
        return (self.estimate, 0 if self.hierarchical else 1, self.name)


@dataclass
class PlanReport:
    """What the planner decided — surfaced for tests, EXPLAIN, and
    benchmarks.

    ``used_indexes`` lists the chosen index per matched conjunct in
    *intersection order* (ascending estimated selectivity — the most
    selective index comes first).  ``considered`` records every scored
    alternative as ``(index name, estimate)`` pairs.  ``actual_candidates``
    and ``early_exit`` are filled in while the candidate generator drains.
    """

    used_indexes: list[str]
    prefix_joins: int = 0
    #: every (index, estimate) pair the cost model scored
    considered: list[tuple[str, float]] = field(default_factory=list)
    #: estimated candidate objects (min over the matched conjuncts)
    estimated_candidates: Optional[float] = None
    #: candidates actually emitted by the streaming generator
    actual_candidates: int = 0
    #: the intersection collapsed to ∅ before all matched conjuncts were
    #: probed — the remaining index probes were skipped entirely
    early_exit: bool = False
    #: the chosen index yields rows in ORDER BY order; the executor may
    #: skip the final sort
    sort_elided: bool = False
    #: WHERE conjuncts (AST nodes) this plan settles on index information
    #: alone — every candidate root satisfies them, so the executor may
    #: skip re-evaluating them (the provider strips this list whenever
    #: deferred deindexing or concurrent writers could leave stale hits)
    settled: list = field(default_factory=list)

    @property
    def used_any(self) -> bool:
        return bool(self.used_indexes)


def choose_indexes(
    entry: TableEntry, conditions: list[IndexCondition]
) -> tuple[list[IndexChoice], list[tuple[str, float]]]:
    """Score all applicable indexes per conjunct and keep the cheapest.

    Returns the winning choices sorted in ascending-selectivity order
    (the intersection order) plus every scored alternative.
    """
    choices: list[IndexChoice] = []
    considered: list[tuple[str, float]] = []
    for condition in conditions:
        scored = _score_condition(entry, condition)
        considered.extend((c.name, c.estimate) for c in scored)
        if scored:
            choices.append(min(scored, key=lambda c: c.sort_key))
    choices.sort(key=lambda c: c.sort_key)
    return choices, considered


def _score_condition(
    entry: TableEntry, condition: IndexCondition
) -> list[IndexChoice]:
    """Every index that can answer *condition*, scored on statistics
    (no posting lists are fetched here)."""
    scored: list[IndexChoice] = []
    if condition.kind in ("eq", "range"):
        for name, index in entry.indexes.items():
            if isinstance(index, TextIndex):
                continue
            if index.definition.attribute_path != condition.attribute_path:
                continue
            if not index.names_roots:
                continue  # unusable for object retrieval (§4.2, first approach)
            hierarchical = (
                isinstance(index, NF2Index)
                and index.definition.mode is AddressingMode.HIERARCHICAL
            )
            stats = index.stats
            estimate = (
                stats.estimate_eq()
                if condition.kind == "eq"
                else stats.estimate_range()
            )
            scored.append(
                IndexChoice(condition, name, index, estimate, hierarchical)
            )
        return scored
    # contains: a text index that cannot narrow the pattern is *skipped*,
    # not a reason to abort — another text index (e.g. with a shorter
    # fragment length) may still apply.
    for name, index in entry.indexes.items():
        if not isinstance(index, TextIndex):
            continue
        if index.definition.attribute_path != condition.attribute_path:
            continue
        estimate = index.estimate(condition.value)
        if estimate is None:
            continue
        scored.append(
            IndexChoice(condition, name, index, float(estimate), False)
        )
    return scored


def candidate_roots(
    entry: TableEntry,
    conditions: list[IndexCondition],
    order_by: Optional[tuple[str, ...]] = None,
    groups: Optional[list[ConditionGroup]] = None,
) -> tuple[Optional[Iterator[TID]], PlanReport]:
    """Object roots that can possibly satisfy the indexed conditions.

    ``None`` means no index applied (scan).  Otherwise the first element
    is a *generator* streaming candidate root TIDs (the candidate set is
    always a superset of the true result; the executor re-verifies) and
    the report carries the cost-model decisions.  ``report.early_exit``
    and ``report.actual_candidates`` are finalized only once the
    generator is drained.

    *order_by*, when given, names a top-level attribute the caller wants
    rows ordered by (ascending).  A single-index plan on exactly that
    attribute emits candidates in index-key order and sets
    ``report.sort_elided``.

    *groups*, when given, lets the planner report which WHERE conjuncts
    the plan *settles* (``report.settled``): for an exact group whose
    conditions all won index probes, every streamed candidate provably
    satisfies the conjunct, so the executor can skip re-testing it.
    """
    choices, considered = choose_indexes(entry, conditions)
    report = PlanReport(used_indexes=[c.name for c in choices])
    report.considered = considered
    if not choices:
        return None, report
    report.estimated_candidates = min(c.estimate for c in choices)
    if groups:
        report.settled = _settled_conjuncts(groups, choices)
        if METRICS.enabled and report.settled:
            METRICS.inc("planner.conjuncts_settled", len(report.settled))
    if METRICS.enabled:
        METRICS.inc("planner.indexes_considered", len(considered))
        METRICS.inc("planner.indexes_chosen", len(choices))
    if (
        order_by is not None
        and len(choices) == 1
        and choices[0].condition.kind in ("eq", "range")
        and choices[0].index.definition.attribute_path == order_by
        and len(order_by) == 1
    ):
        report.sort_elided = True
        return _stream_key_order(choices[0], report), report
    return _stream_intersection(choices, report), report


def _settled_conjuncts(
    groups: list[ConditionGroup], choices: list[IndexChoice]
) -> list:
    """Conjunct AST nodes the chosen plan answers *exactly*.

    A group settles when its decomposition was lossless and every one of
    its conditions won an index:

    * one condition — any eq/range probe is exact for that conjunct
      (ROOT_TID and flat hits *are* the satisfying roots);
    * two conditions — only when both chose HIERARCHICAL indexes with a
      shared binding prefix: the pairwise prefix join then proves both
      hits land in the same subobject (the paper's ``P2 = F2``), which
      is precisely the conjunct's semantics;
    * three or more — never: pairwise prefix joins do not imply a single
      element satisfying all conditions jointly.
    """
    by_condition = {id(choice.condition): choice for choice in choices}
    settled: list = []
    for group in groups:
        if not group.exact or not group.conditions:
            continue
        chosen = [by_condition.get(id(c)) for c in group.conditions]
        if any(c is None for c in chosen):
            continue
        if len(chosen) == 1:
            settled.append(group.predicate)
        elif len(chosen) == 2 and all(c.hierarchical for c in chosen):
            shared = _shared_binding(
                chosen[0].condition.binding, chosen[1].condition.binding
            )
            if shared > 0:
                settled.append(group.predicate)
    return settled


def _stream_key_order(choice: IndexChoice, report: PlanReport) -> Iterator[TID]:
    """Candidates of a single-index plan in ascending key order (the
    B+-tree scan order) — lets the executor elide an ORDER BY sort."""
    seen: set[TID] = set()
    for address in _index_hits(choice.index, choice.condition):
        root = address_root(address)
        if root in seen:
            continue  # defensive: top-level attributes yield one entry/root
        seen.add(root)
        report.actual_candidates += 1
        yield root


def _stream_intersection(
    choices: list[IndexChoice], report: PlanReport
) -> Iterator[TID]:
    """Fetch postings per matched conjunct in ascending-selectivity order,
    intersect, prefix-join, and stream the surviving roots.

    Probing stops the moment the intersection collapses to ∅ — the
    remaining (less selective) indexes are never touched.
    """
    matched: list[tuple[IndexChoice, dict[TID, list[HierarchicalAddress]]]] = []
    roots: Optional[set[TID]] = None
    for position, choice in enumerate(choices):
        by_root = _fetch_by_root(choice)
        matched.append((choice, by_root))
        keys = set(by_root)
        roots = keys if roots is None else roots & keys
        if not roots:
            if position + 1 < len(choices):
                report.early_exit = True
                if METRICS.enabled:
                    METRICS.inc("planner.early_exits")
            return
    assert roots is not None

    # Prefix joins: conditions sharing a quantifier-binding prefix must hit
    # the same complex subobject at the shared levels (the paper's P2=F2).
    for i in range(len(matched)):
        for j in range(i + 1, len(matched)):
            choice_a, by_a = matched[i]
            choice_b, by_b = matched[j]
            shared = _shared_binding(
                choice_a.condition.binding, choice_b.condition.binding
            )
            if shared == 0 or not (choice_a.hierarchical and choice_b.hierarchical):
                continue
            report.prefix_joins += 1
            if METRICS.enabled:
                METRICS.inc("planner.prefix_joins")
            roots = {
                root
                for root in roots
                if any(
                    a.shares_prefix(b, shared)
                    for a in by_a.get(root, ())
                    for b in by_b.get(root, ())
                )
            }
    for tid in sorted(roots, key=lambda tid: (tid.page, tid.slot)):
        report.actual_candidates += 1
        yield tid


def _fetch_by_root(
    choice: IndexChoice,
) -> dict[TID, list[HierarchicalAddress]]:
    """Materialize one chosen index's postings grouped by object root.

    Hierarchical addresses keep their component lists (prefix joins need
    them); plain TIDs map to empty lists.
    """
    if choice.condition.kind in ("eq", "range"):
        addresses = _index_hits(choice.index, choice.condition)
    else:  # contains — the cost model only picks narrowing text indexes
        addresses = choice.index.search(choice.condition.value)
        assert addresses is not None
    by_root: dict[TID, list[HierarchicalAddress]] = {}
    for address in addresses:
        if isinstance(address, HierarchicalAddress):
            by_root.setdefault(address.root, []).append(address)
        else:
            by_root.setdefault(address, [])
    return by_root


def _index_hits(index, condition: IndexCondition) -> Iterator:
    """Addresses matching an eq or range condition, streamed in ascending
    key order (a B+-tree point probe or leaf-chain scan)."""
    if condition.kind == "eq":
        yield from index.search(condition.value)
        return
    op, bound = condition.value
    if op == "<":
        scan = index.range(high=bound, include_high=False)
    elif op == "<=":
        scan = index.range(high=bound)
    elif op == ">":
        scan = index.range(low=bound, include_low=False)
    else:  # '>='
        scan = index.range(low=bound)
    for _key, addresses in scan:
        yield from addresses


def _shared_binding(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    shared = 0
    for x, y in zip(a, b):
        if x != y:
            break
        shared += 1
    return shared
