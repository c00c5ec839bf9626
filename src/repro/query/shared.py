"""SharedDB-style shared multi-query execution: the predicate DAG.

This is the filtering stage's only evaluation path.  Following
"SharedDB: Killing One Thousand Queries With One Stone"
(arXiv:1203.0056), the shared plan is *the* plan: every registered
query's AST is canonicalized (via
:func:`~repro.query.normalize.normalize_node`) into one global
hash-consed DAG in which structurally identical subtrees — leaves AND
interior ``$and``/``$or``/``$nor``/``$not`` combinations — are a single
node.  One pass over an after-image evaluates each distinct subtree at
most once and fans the boolean outcome out to every subscribed query,
so ten thousand pagination variants of the same feed filter cost one
root evaluation plus ten thousand dictionary lookups.

Design notes:

* **Hash-consing.**  Leaves are interned by their canonical form (path
  + canonical operator for field predicates, sorted term sets for text
  search); interior nodes by ``(label, sorted child ids)``.  Because
  interning is bottom-up, canonical-equal subtrees always resolve to
  the same node id, so the sorted-id key is a sound structural key.
  Any representative AST node can evaluate a leaf: canonical equality
  implies behavioural equality.
* **Compiled leaves.**  A leaf is evaluated by the closure
  :func:`~repro.query.matcher.compile_node` builds from its
  representative AST node — the same closures ``Query.matches`` runs,
  so operator semantics are defined in one place
  (:mod:`repro.query.operators`).  The closure is built by the first
  pass that reaches the leaf, not when the query is interned: most
  registered leaves are never evaluated (the index prunes their
  queries), and registration stays a hash-consing walk.  ``$text``
  leaves are the exception: they are called with the pass's shared
  token set (:class:`~repro.query.text.LazyTokens`) instead.
* **Refcounting, no rebuilds.**  Each node counts its parents plus the
  query roots pointing at it.  ``add``/``remove`` are incremental:
  deregistering a query releases its root, cascading frees through
  subtrees no other query references.  The DAG never rebuilds.
* **Lazy short-circuit evaluation.**  A :class:`DagEvaluation` caches
  outcomes per node id and evaluates on demand: an interior node walks
  its children in stored order, consults the pass cache before
  recursing and stops at the first child that decides it, and roots
  the caller never asks about (e.g. queries pruned by the predicate
  index) leave their exclusive subtrees entirely untouched.  The
  counters are exact: every cache answer is one ``node_hits``, every
  computed node one ``nodes_evaluated``, and a child after the
  deciding one is neither.
* **Fallback.**  A query whose canonical form is unhashable (an exotic
  operator payload) stays outside the DAG; :meth:`DagEvaluation.matches`
  answers ``None`` for it and the filtering node decides it with plain
  ``engine.matches(query, document)``.  Correctness never depends on
  DAG membership.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.query.ast import AllOf, AnyOf, Node, NoneOf, Not
from repro.query.engine import Query
from repro.query.matcher import Matcher, compile_node
from repro.query.normalize import normalize_node
from repro.query.text import LazyTokens, TextSearch
from repro.types import Document

#: AST class -> (key label, the child outcome that decides the node,
#: the node's value when a child decided it).  ``$not`` is a one-child
#: ``$nor``; an undecided node has the opposite value.
_INTERIOR = {
    AllOf: ("and", False, False),
    AnyOf: ("or", True, True),
    NoneOf: ("nor", True, False),
    Not: ("not", True, False),
}


class _DagNode:
    """One hash-consed predicate node (leaf or logical combinator)."""

    __slots__ = (
        "node_id", "key", "children", "decider", "decided", "leaf", "test", "refs",
    )

    def __init__(
        self,
        node_id: int,
        key: Any,
        children: Tuple["_DagNode", ...],
        decider: bool,
        decided: bool,
        leaf: Optional[Node],
    ):
        self.node_id = node_id
        self.key = key
        self.children = children
        #: Interior nodes: the child outcome that decides this node, and
        #: its value then (see ``_INTERIOR``).
        self.decider = decider
        self.decided = decided
        #: Leaves: the representative AST node and its compiled closure
        #: (None until a pass first evaluates the leaf).
        self.leaf = leaf
        self.test: Optional[Matcher] = None
        #: Parents referencing this node + query roots pointing at it.
        self.refs = 0


class DagEvaluation:
    """Lazy evaluation of the DAG against one after-image document.

    Outcomes are cached per node id, so across all the candidate
    queries of a write each distinct subtree is computed at most once.
    """

    __slots__ = ("_dag", "_document", "_tokens", "_cache")

    def __init__(
        self,
        dag: "SharedPredicateDAG",
        document: Document,
        tokens: Optional[LazyTokens] = None,
    ):
        self._dag = dag
        self._document = document
        self._tokens = tokens
        self._cache: Dict[int, bool] = {}

    def matches(self, query_id: str) -> Optional[bool]:
        """Decision for one query; None when it is not in the DAG."""
        root = self._dag._roots.get(query_id)
        if root is None:
            return None
        self._dag.queries_served += 1
        # Hot path: overlapping queries share a root, so nearly every
        # decision is a cache hit — skip the recursive entry.
        cached = self._cache.get(root.node_id)
        if cached is not None:
            self._dag.node_hits += 1
            return cached
        return self._evaluate(root)

    def _evaluate(self, node: _DagNode) -> bool:
        """Compute *node*, which the pass cache does not hold yet."""
        dag = self._dag
        dag.nodes_evaluated += 1
        children = node.children
        if children:
            cache = self._cache
            decider = node.decider
            value = not node.decided
            for child in children:
                outcome = cache.get(child.node_id)
                if outcome is None:
                    outcome = self._evaluate(child)
                else:
                    dag.node_hits += 1
                if outcome is decider:
                    value = node.decided
                    break
        else:
            test = node.test
            if test is not None:
                value = test(self._document)
            elif isinstance(node.leaf, TextSearch):
                tokens = self._tokens
                if tokens is None:
                    tokens = self._tokens = LazyTokens(self._document)
                value = node.leaf.matches_document(self._document, tokens())
            else:
                test = node.test = compile_node(node.leaf)  # type: ignore[arg-type]
                value = test(self._document)
        self._cache[node.node_id] = value
        return value


def share_ratio(node_hits: int, nodes_evaluated: int) -> float:
    """Cache-hit share of DAG node lookups (0.0 before any lookup)."""
    lookups = node_hits + nodes_evaluated
    return node_hits / lookups if lookups else 0.0


class SharedPredicateDAG:
    """Global hash-consed predicate DAG over all registered queries."""

    def __init__(self) -> None:
        #: Structural key -> interned node.
        self._interned: Dict[Any, _DagNode] = {}
        #: query_id -> root node (one ref held per entry).
        self._roots: Dict[str, _DagNode] = {}
        self._next_id = 0
        # -- counters ---------------------------------------------------
        #: Per-image evaluation passes started.
        self.evaluations = 0
        #: Distinct DAG nodes computed across all passes.
        self.nodes_evaluated = 0
        #: Node lookups answered from a pass's outcome cache instead.
        self.node_hits = 0
        #: Match/unmatch decisions served to queries.
        self.queries_served = 0
        #: Queries that could not be interned (per-query fallback).
        self.fallbacks = 0

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------

    def add(self, query: Query, query_id: Optional[str] = None) -> bool:
        """Intern *query*'s predicate tree under *query_id* (default:
        its own); False = engine fallback."""
        if query_id is None:
            query_id = query.query_id
        if query_id in self._roots:
            return True
        created: List[_DagNode] = []
        try:
            root = self._intern(query.node, created)
        except TypeError:
            # Unhashable canonical form: sweep the partially interned
            # forest (created nodes no parent ended up referencing).
            for node in reversed(created):
                if node.refs == 0 and self._interned.get(node.key) is node:
                    self._free(node)
            self.fallbacks += 1
            return False
        root.refs += 1
        self._roots[query_id] = root
        return True

    def remove(self, query_id: str) -> bool:
        """Release a query's root, freeing now-unreferenced subtrees."""
        root = self._roots.pop(query_id, None)
        if root is None:
            return False
        self._release(root)
        return True

    def _intern(self, ast: Node, created: List[_DagNode]) -> _DagNode:
        interior = _INTERIOR.get(type(ast))
        if interior is not None:
            label, decider, decided = interior
            children = tuple(
                self._intern(branch, created) for branch in ast.children()
            )
            key: Any = (label, tuple(sorted(c.node_id for c in children)))
            leaf: Optional[Node] = None
        else:
            children = ()
            decider = decided = False
            key = ("leaf", normalize_node(ast))  # TypeError if unhashable
            leaf = ast
        node = self._interned.get(key)
        if node is None:
            node = _DagNode(self._next_id, key, children, decider, decided, leaf)
            self._next_id += 1
            self._interned[key] = node
            for child in children:
                child.refs += 1
            created.append(node)
        return node

    def _release(self, node: _DagNode) -> None:
        node.refs -= 1
        if node.refs == 0:
            self._free(node)

    def _free(self, node: _DagNode) -> None:
        if self._interned.get(node.key) is node:
            del self._interned[node.key]
        for child in node.children:
            self._release(child)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def begin(
        self, document: Document, tokens: Optional[LazyTokens] = None
    ) -> DagEvaluation:
        """Start one shared evaluation pass over *document*.

        *tokens* is the document's lazy token set when the caller shares
        one with the index probe; every ``$text`` leaf of the pass reads
        it (the pass makes its own otherwise).
        """
        self.evaluations += 1
        return DagEvaluation(self, document, tokens)

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._roots

    def __len__(self) -> int:
        return len(self._interned)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def share_ratio(self) -> float:
        """Fraction of node lookups another query's work already paid for.

        ``node_hits / (node_hits + nodes_evaluated)``: 0 when no two
        candidate queries of a write share a subtree, (N-1)/N when N
        queries ride one filter, approaching 1 when thousands of
        overlapping queries ride one evaluated subtree.
        """
        return share_ratio(self.node_hits, self.nodes_evaluated)

    def stats(self) -> Dict[str, Any]:
        return {
            "nodes": len(self._interned),
            "roots": len(self._roots),
            "evaluations": self.evaluations,
            "nodes_evaluated": self.nodes_evaluated,
            "node_hits": self.node_hits,
            "queries_served": self.queries_served,
            "share_ratio": round(self.share_ratio, 4),
            "fallbacks": self.fallbacks,
        }

    def __repr__(self) -> str:
        return (
            f"SharedPredicateDAG({len(self._roots)} roots, "
            f"{len(self._interned)} nodes)"
        )
