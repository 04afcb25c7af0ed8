"""The XSDF orchestrator (paper Figure 3).

Chains the four modules end to end:

1. **linguistic pre-processing** — tag names and values are tokenized,
   stop-word-filtered, stemmed, and compound-resolved against the
   semantic network while the XML tree is built;
2. **node selection** — the ambiguity degree measure picks target nodes
   above ``Thresh_Amb``;
3. **context definition** — each target gets a sphere neighborhood of
   the configured radius and its context vector;
4. **semantic disambiguation** — concept-based, context-based, or the
   weighted combination (Eq. 13) picks the best sense per target.

Typical use::

    from repro import XSDF, XSDFConfig
    from repro.semnet import default_lexicon

    xsdf = XSDF(default_lexicon(), XSDFConfig(sphere_radius=2))
    result = xsdf.disambiguate_document(xml_text)
    semantic_xml = xsdf.to_semantic_xml(xml_text)
"""

from __future__ import annotations

from typing import Sequence

from ..bounded import DEFAULT_TABLE_SIZE
from ..linguistics.pipeline import LinguisticPipeline
from ..semnet.ic import InformationContent
from ..semnet.network import SemanticNetwork
from ..similarity.combined import CombinedSimilarity, ConceptSimilarity
from ..xmltree.dom import XMLNode, XMLTree, build_tree
from ..xmltree.parser import parse
from ..xmltree.serializer import serialize_semantic_tree
from .ambiguity import ambiguity_degree, select_targets
from .candidates import Candidate
from .concept_based import ConceptBasedScorer
from .config import DisambiguationApproach, XSDFConfig
from .context_based import ContextBasedScorer
from .context_vector import context_vector
from .distances import resolve_policy
from .intern import SenseTables
from .results import DisambiguationResult, SenseAssignment
from .sphere import build_sphere


class XSDF:
    """XML Semantic Disambiguation Framework.

    Parameters
    ----------
    network:
        The reference semantic network (e.g. the curated lexicon).
    config:
        Pipeline parameters; defaults follow the paper.
    similarity:
        Optional pre-built concept similarity (shares caches across
        framework instances); by default a :class:`CombinedSimilarity`
        with the configured weights is created, computing information
        content from the network's frequencies once.
    index:
        Optional :class:`repro.runtime.index.SemanticIndex` or
        :class:`repro.runtime.pack.PackedIndex` built over ``network``.
        Routes the default similarity through precomputed
        taxonomy/IC/gloss tables (the packed form through interned
        flat-array kernels) — sense choices and scores are
        bit-identical with and without it.  Ignored when ``similarity``
        is supplied.
    similarity_cache:
        Optional external pairwise-similarity memo (e.g.
        :class:`repro.runtime.cache.LRUCache`) replacing the default
        unbounded dict inside :class:`CombinedSimilarity`.  Ignored
        when ``similarity`` is supplied.
    intern_size:
        Bound of each per-process intern table this instance owns: the
        label -> sense-inventory intern, the concept scorer's per-
        candidate best-sense rows (exact and upper bound), and the
        linguistic pipeline's word/label memos (``None`` for
        unbounded).  The tables are keyed by this instance, hence by
        its network and linguistic configuration, and never change a
        result — see :mod:`repro.core.intern` and :meth:`intern_tables`.
    sphere_memo:
        Optional :class:`repro.runtime.memo.SphereMemo` replaying whole
        disambiguation outcomes for repeated (target, sphere, config,
        network) situations.  By default one is created when
        ``config.memo`` is on and no custom ``similarity`` callable was
        supplied (a custom callable cannot be fingerprinted into the
        memo key, so memoization is skipped for safety).  Replayed
        results are bit-identical to fresh computation.
    metrics:
        Optional :class:`repro.runtime.metrics.MetricsRegistry`.  When
        set, the pipeline records per-stage latency (parse, select,
        sphere, score) and document/target counters; the default
        ``None`` keeps every hot path exactly as uninstrumented.
    """

    def __init__(
        self,
        network: SemanticNetwork,
        config: XSDFConfig | None = None,
        similarity: ConceptSimilarity | None = None,
        index=None,
        similarity_cache=None,
        sphere_memo=None,
        metrics=None,
        intern_size: int | None = DEFAULT_TABLE_SIZE,
    ):
        self.network = network
        self.config = config or XSDFConfig()
        self.index = index
        self.similarity_cache = similarity_cache
        self.metrics = metrics
        self.pipeline = LinguisticPipeline(
            known=network.has_word, memo_size=intern_size
        )
        # Per-process intern tables (repro.core.intern): owned here so
        # they share this instance's network and pipeline, and survive
        # index downgrades — every rung computes identical values.
        self._tables = SenseTables(network, intern_size)
        user_supplied_similarity = similarity is not None
        self._user_similarity = user_supplied_similarity
        #: Cumulative degradation-ladder counters (monotone): each rung
        #: that fires while scoring bumps one of these.  The ladder only
        #: swaps *bit-identical* implementations (packed -> dict index ->
        #: network walk, memoized -> fresh, pruned -> exhaustive), so
        #: results never change — only speed and these counters do.
        self.degrade_stats = {
            "index_downgrades": 0,
            "memo_disabled": 0,
            "prune_disabled": 0,
            "packed_decode": 0,
        }
        self._prune_degraded = False
        # Typed faults that trigger an index downgrade instead of a
        # document failure; imported lazily (runtime imports core).
        from ..runtime.pack import PackedIndexError

        self._index_faults: tuple[type[BaseException], ...] = (
            PackedIndexError,
        )
        if similarity is None:
            similarity = self._build_similarity(index)
        self._similarity = similarity
        # Exact pruning needs the combined measure's upper_bound(); any
        # other similarity callable falls back to exhaustive scoring.
        self._prune = self.config.prune and isinstance(
            similarity, CombinedSimilarity
        )
        if (
            sphere_memo is None
            and self.config.memo
            and not user_supplied_similarity
        ):
            from ..runtime.memo import SphereMemo

            sphere_memo = SphereMemo(self.config, network.fingerprint())
        self.sphere_memo = sphere_memo
        #: Cumulative exact-pruning counters (pruned candidates were
        #: *provably* losing; evaluated ones were scored exactly).
        self.prune_stats = {
            "candidates_evaluated": 0,
            "candidates_pruned": 0,
        }
        self._concept_scorer = self._build_concept_scorer()
        self._distance_policy = (
            None
            if self.config.distance_policy is None
            else resolve_policy(self.config.distance_policy)
        )
        self._context_scorer = ContextBasedScorer(
            network,
            self.config.sphere_radius,
            self.config.vector_measure,
            strip_target_dimension=self.config.strip_target_dimension,
        )

    def _build_concept_scorer(self) -> ConceptBasedScorer:
        """A concept scorer over the current similarity and the shared
        intern tables."""
        return ConceptBasedScorer(
            self.network, self._similarity, tables=self._tables
        )

    def intern_tables(self) -> dict:
        """This instance's intern tables by metrics name.

        Each value has an ``LRUCache``-shaped ``stats()`` (size,
        maxsize, hits, misses, evictions, hit_rate).  ``sense_scores``
        is the exact best-sense rows (the key the old sense-score LRU
        reported under), ``sense_bounds`` the pruning-bound rows.
        """
        tables = self._tables
        return {
            "intern_labels": tables.intern.table,
            "sense_scores": tables.scores,
            "sense_bounds": tables.bounds,
            **self.pipeline.memo_tables(),
        }

    # -- degradation ladder --------------------------------------------------

    def _build_similarity(self, index) -> CombinedSimilarity:
        """Default combined similarity against the given index rung."""
        needs_ic = self.config.similarity_weights.node > 0
        if index is not None:
            ic = index.ic if needs_ic else None
        else:
            ic = InformationContent(self.network) if needs_ic else None
        return CombinedSimilarity(
            self.network,
            weights=self.config.similarity_weights,
            ic=ic,
            index=index,
            cache=self.similarity_cache,
        )

    @property
    def index_rung(self) -> str:
        """Current rung of the index ladder.

        ``packed`` / ``dict`` / ``network`` for the default similarity
        stack, ``custom`` when the caller supplied its own similarity.
        """
        if self._user_similarity:
            return "custom"
        if self.index is None:
            return "network"
        return "packed" if getattr(self.index, "is_packed", False) else "dict"

    def _downgrade_index(self) -> bool:
        """Drop one rung: packed -> dict index -> bare network walk.

        Rebuilds the similarity/scorer stack against the next rung with
        the same external caches and intern tables; every rung is
        bit-identical (the pack/index parity contract), so cached values
        stay valid and results are unchanged.  Returns False at the bottom of the
        ladder — or when a user-supplied similarity owns the index —
        letting the fault propagate as a document failure.
        """
        if self._user_similarity or self.index is None:
            return False
        if getattr(self.index, "is_packed", False):
            from ..runtime.index import SemanticIndex

            new_index = SemanticIndex(self.network)
        else:
            new_index = None
        self.index = new_index
        self._similarity = self._build_similarity(new_index)
        self._concept_scorer = self._build_concept_scorer()
        self._prune = (
            self.config.prune
            and not self._prune_degraded
            and isinstance(self._similarity, CombinedSimilarity)
        )
        self.degrade_stats["index_downgrades"] += 1
        m = self.metrics
        if m is not None:
            m.count("degrade_index_downgrades")
            m.event("degrade", kind="index_downgrade", rung=self.index_rung)
        return True

    def _disable_memo(self) -> None:
        """Memoized -> fresh rung: drop the sphere memo, keep scoring."""
        self.sphere_memo = None
        self.degrade_stats["memo_disabled"] += 1
        m = self.metrics
        if m is not None:
            m.count("degrade_memo_disabled")
            m.event("degrade", kind="memo_disabled")

    def _disable_prune(self) -> None:
        """Pruned -> exhaustive rung: stop bounding, score everything."""
        self._prune = False
        self._prune_degraded = True
        self.degrade_stats["prune_disabled"] += 1
        m = self.metrics
        if m is not None:
            m.count("degrade_prune_disabled")
            m.event("degrade", kind="prune_disabled")

    # -- tree construction -------------------------------------------------

    def build_tree(self, xml_text: str) -> XMLTree:
        """Parse XML text into a pre-processed rooted labeled tree."""
        m = self.metrics
        if m is None:
            document = parse(xml_text)
            return build_tree(
                document.root,
                include_values=self.config.include_values,
                label_processor=self.pipeline.process_label,
                value_processor=self.pipeline.process_value,
            )
        with m.timer("parse"):
            document = parse(xml_text)
            return build_tree(
                document.root,
                include_values=self.config.include_values,
                label_processor=self.pipeline.process_label,
                value_processor=self.pipeline.process_value,
            )

    # -- disambiguation ------------------------------------------------------

    def disambiguate_document(self, xml_text: str) -> DisambiguationResult:
        """Full pipeline: XML text in, sense assignments out."""
        m = self.metrics
        if m is not None:
            m.count("documents")
            with m.timer("document"):
                return self.disambiguate_tree(self.build_tree(xml_text))
        return self.disambiguate_tree(self.build_tree(xml_text))

    def disambiguate_tree(
        self, tree: XMLTree, targets: list[XMLNode] | None = None
    ) -> DisambiguationResult:
        """Run selection + disambiguation over an already-built tree.

        ``targets`` overrides ambiguity-based selection — the evaluation
        harness passes the pre-selected gold nodes so every system
        disambiguates the same set (paper Section 4.3).
        """
        m = self.metrics
        # Selection computes every target's ambiguity degree already;
        # collect it so assignments report it without recomputing.
        degrees: list[float] | None = None
        if targets is None:
            degrees = []
            if m is None:
                targets = select_targets(
                    tree,
                    self.network,
                    threshold=self.config.ambiguity_threshold,
                    weights=self.config.ambiguity_weights,
                    degrees=degrees,
                )
            else:
                with m.timer("select"):
                    targets = select_targets(
                        tree,
                        self.network,
                        threshold=self.config.ambiguity_threshold,
                        weights=self.config.ambiguity_weights,
                        degrees=degrees,
                    )
        assignments = []
        for i, node in enumerate(targets):
            assignment = self.disambiguate_node(
                tree, node, None if degrees is None else degrees[i]
            )
            if assignment is not None:
                assignments.append(assignment)
        if m is not None:
            m.count("nodes", len(tree))
            m.count("targets", len(targets))
            m.count("assignments", len(assignments))
        return DisambiguationResult(
            assignments=assignments,
            n_nodes=len(tree),
            n_targets=len(targets),
            radius=self.config.sphere_radius,
        )

    def disambiguate_node(
        self,
        tree: XMLTree,
        node: XMLNode,
        ambiguity: float | None = None,
    ) -> SenseAssignment | None:
        """Disambiguate a single node; None when it has no candidates.

        ``ambiguity`` is the node's ``Amb_Deg`` when the caller already
        computed it (target selection does); otherwise it is computed
        here for the assignment.
        """
        candidates = self._tables.intern.candidates(node)
        if not candidates:
            return None
        m = self.metrics
        if m is None:
            sphere = build_sphere(
                tree, node, self.config.sphere_radius,
                policy=self._distance_policy,
            )
            concept_scores, context_scores, combined, chosen = (
                self._score_resilient(candidates, sphere)
            )
        else:
            with m.timer("sphere"):
                sphere = build_sphere(
                    tree, node, self.config.sphere_radius,
                    policy=self._distance_policy,
                )
            with m.timer("score"):
                concept_scores, context_scores, combined, chosen = (
                    self._score_resilient(candidates, sphere)
                )
        if ambiguity is None:
            ambiguity = ambiguity_degree(
                node, tree, self.network, self.config.ambiguity_weights
            )
        return SenseAssignment(
            node_index=node.index,
            label=node.label,
            chosen=chosen,
            score=combined[chosen],
            concept_score=concept_scores.get(chosen, 0.0),
            context_score=context_scores.get(chosen, 0.0),
            ambiguity=ambiguity,
            scores=combined,
        )

    def _score_resilient(self, candidates: Sequence[Candidate], sphere):
        """:meth:`_score_memoized` behind the degradation ladder.

        A typed packed-index fault (``PackedIndexError`` and subclasses
        — CRC mismatch, truncation, inconsistent tables) downgrades the
        index one rung and rescores the node from scratch; anything
        else, or a fault at the bottom of the ladder, propagates as a
        document failure for the executor's fault isolation to record.
        """
        while True:
            try:
                return self._score_memoized(candidates, sphere)
            except self._index_faults:
                if not self._downgrade_index():
                    raise

    def _score_memoized(self, candidates: Sequence[Candidate], sphere):
        """:meth:`_score`, replayed from the sphere memo when possible.

        The memo key (:func:`repro.runtime.memo.sphere_signature`)
        covers the complete input of the scoring function — frozen
        config and network fingerprints, the target, and the ordered
        member sequence — so replayed entries are bit-identical to
        fresh computation.
        """
        memo = self.sphere_memo
        if memo is None:
            return self._score(candidates, sphere)
        try:
            signature = memo.signature(sphere)
            entry = memo.get(signature)
        except Exception:  # lint: disable=broad-except  # memoized -> fresh rung
            self._disable_memo()
            return self._score(candidates, sphere)
        m = self.metrics
        if entry is not None:
            if m is not None:
                m.count("memo_hits")
            chosen, combined_items, concept_items, context_items = entry
            # Fresh dicts per assignment: SenseAssignment exposes the
            # scores mapping, so callers must not share one instance.
            return (
                dict(concept_items),
                dict(context_items),
                dict(combined_items),
                chosen,
            )
        if m is not None:
            m.count("memo_misses")
        concept_scores, context_scores, combined, chosen = self._score(
            candidates, sphere
        )
        try:
            memo.put(
                signature,
                (
                    chosen,
                    tuple(combined.items()),
                    tuple(concept_scores.items()),
                    tuple(context_scores.items()),
                ),
            )
        except Exception:  # lint: disable=broad-except  # memoized -> fresh rung
            self._disable_memo()
        return concept_scores, context_scores, combined, chosen

    def _score(self, candidates: Sequence[Candidate], sphere):
        """Per-candidate concept, context, and final scores (Eq. 13).

        Returns ``(concept_scores, context_scores, combined, chosen)``.
        With pruning active, ``combined`` (and ``concept_scores``)
        contain only the candidates that were actually evaluated —
        every skipped candidate was *provably* below the winner.
        """
        approach = self.config.approach
        # Both scorers weight by the same Definition 7 vector; derive it
        # once per sphere instead of once per scorer.
        vector = context_vector(sphere)
        if (
            self._prune
            and approach is not DisambiguationApproach.CONTEXT_BASED
            and len(candidates) > 1
        ):
            try:
                return self._score_pruned(candidates, sphere, vector)
            except self._index_faults:
                # Typed index faults belong to the index ladder, not the
                # prune rung — let _score_resilient downgrade the index.
                raise
            except Exception:  # lint: disable=broad-except  # pruned -> exhaustive rung
                self._disable_prune()
                # Fall through to the exhaustive path: it never uses
                # upper bounds, and its scores are bit-identical.
        concept_scores: dict[Candidate, float] = {}
        context_scores: dict[Candidate, float] = {}
        if approach in (
            DisambiguationApproach.CONCEPT_BASED,
            DisambiguationApproach.COMBINED,
        ):
            concept_scores = self._concept_scorer.score_all(
                candidates, sphere, vector=vector
            )
        if approach in (
            DisambiguationApproach.CONTEXT_BASED,
            DisambiguationApproach.COMBINED,
        ):
            context_scores = self._context_scorer.score_all(
                candidates, sphere, vector=vector
            )
        if approach is DisambiguationApproach.CONCEPT_BASED:
            combined = dict(concept_scores)
        elif approach is DisambiguationApproach.CONTEXT_BASED:
            combined = dict(context_scores)
        else:
            w_concept, w_context = self.config.normalized_approach_weights
            combined = {
                candidate: (
                    w_concept * concept_scores[candidate]
                    + w_context * context_scores[candidate]
                )
                for candidate in candidates
            }
        self.prune_stats["candidates_evaluated"] += len(candidates)
        if self.metrics is not None:
            self.metrics.count("candidates_evaluated", len(candidates))
        return concept_scores, context_scores, combined, self._pick(combined)

    def _score_pruned(
        self,
        candidates: Sequence[Candidate],
        sphere,
        vector: dict[str, float],
    ):
        """Best-bound-first scoring with an exact early stop.

        Candidates are evaluated in decreasing order of a float upper
        bound on their final score (the cheap context-based component is
        computed exactly for all candidates; only the expensive
        concept-based sum is bounded).  Once the running best provably
        dominates every remaining bound under :meth:`_pick`'s
        ``(score, sense-rank)`` order, the rest are skipped.  Because
        the bound dominates the true score *in float arithmetic* (see
        :meth:`ConceptBasedScorer.upper_bound_one`) and the evaluated
        scores use the identical operation sequence as the exhaustive
        path, the chosen sense and all reported scores are
        bit-identical to exhaustive scoring.
        """
        approach = self.config.approach
        scorer = self._concept_scorer
        context = scorer.context_inventory(sphere, vector)
        size = len(sphere)
        combined_approach = approach is DisambiguationApproach.COMBINED
        if combined_approach:
            w_concept, w_context = self.config.normalized_approach_weights
            context_scores = self._context_scorer.score_all(
                candidates, sphere, vector=vector
            )
        else:
            w_concept, w_context = 1.0, 0.0
            context_scores = {}
        upper = self._similarity.upper_bound
        ranked = []
        for rank, candidate in enumerate(candidates):
            concept_ub = scorer.upper_bound_one(
                candidate, context, size, upper
            )
            if combined_approach:
                bound = (
                    w_concept * concept_ub
                    + w_context * context_scores[candidate]
                )
            else:
                bound = concept_ub
            ranked.append((bound, rank, candidate))
        # Descending bound, ascending sense rank on equal bounds, so the
        # break below can never skip a candidate that _pick would take.
        ranked.sort(key=lambda item: (-item[0], item[1]))
        concept_scores: dict[Candidate, float] = {}
        combined: dict[Candidate, float] = {}
        best: Candidate | None = None
        best_score = float("-inf")
        best_rank = -1
        evaluated = 0
        for bound, rank, candidate in ranked:
            # A remaining candidate can only beat (best_score,
            # best_rank) in _pick's order if its bound exceeds the best
            # score, or ties it with an earlier sense rank.  The sort
            # order makes every later candidate skippable too.
            if bound < best_score or (
                bound == best_score and rank > best_rank
            ):
                break
            concept = scorer.score_one(candidate, context, size)
            concept_scores[candidate] = concept
            if combined_approach:
                score = (
                    w_concept * concept
                    + w_context * context_scores[candidate]
                )
            else:
                score = concept
            combined[candidate] = score
            evaluated += 1
            if score > best_score or (
                score == best_score and rank < best_rank
            ):
                best = candidate
                best_score = score
                best_rank = rank
        stats = self.prune_stats
        stats["candidates_evaluated"] += evaluated
        stats["candidates_pruned"] += len(candidates) - evaluated
        m = self.metrics
        if m is not None:
            m.count("candidates_evaluated", evaluated)
            m.count("candidates_pruned", len(candidates) - evaluated)
        assert best is not None
        return concept_scores, context_scores, combined, best

    @staticmethod
    def _pick(scores: dict[Candidate, float]) -> Candidate:
        """Arg-max with a deterministic tie-break (sense-rank order).

        Candidates are enumerated in sense-rank order, so on ties the
        more frequent (earlier) sense wins — the conventional WSD
        fallback.
        """
        best: Candidate | None = None
        best_score = float("-inf")
        for candidate, score in scores.items():
            if score > best_score:
                best = candidate
                best_score = score
        assert best is not None
        return best

    # -- output ------------------------------------------------------------------

    def to_semantic_xml(self, xml_text: str) -> str:
        """Disambiguate and serialize the semantic XML tree (Figure 4)."""
        tree = self.build_tree(xml_text)
        result = self.disambiguate_tree(tree)
        return serialize_semantic_tree(tree, result.concept_map(), self.network)
