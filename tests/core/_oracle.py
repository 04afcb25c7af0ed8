"""Per-occurrence reference implementation of XSDF scoring.

The production scorers intern sense inventories per distinct label and
memoize best-sense terms in per-candidate rows; this oracle does none
of that.  It re-derives every member's senses, every ``Max_j`` term and
every vector straight from Definitions 3-10, in sphere order, with the
caller's similarity (the parity suites pass a bare network-walk
:class:`~repro.similarity.combined.CombinedSimilarity`).  Exhaustive:
no pruning, no memo, no caches of its own.
"""

from __future__ import annotations

import random

from repro.core.ambiguity import ambiguity_degree, select_targets
from repro.core.candidates import candidate_senses, context_sense_ids
from repro.core.config import DisambiguationApproach, XSDFConfig
from repro.core.context_vector import (
    compound_concept_context_vector,
    concept_context_vector,
    context_vector,
)
from repro.core.distances import resolve_policy
from repro.core.sphere import build_sphere
from repro.linguistics.pipeline import LinguisticPipeline
from repro.similarity.vector import VECTOR_MEASURES
from repro.xmltree.dom import build_tree
from repro.xmltree.parser import parse


def oracle_assignments(network, config: XSDFConfig, xml: str, similarity):
    """``[(node_index, chosen, score, concept, context, ambiguity,
    scores)]`` for every target with candidates, in target order."""
    pipeline = LinguisticPipeline(known=network.has_word, memo_size=None)
    tree = build_tree(
        parse(xml).root,
        include_values=config.include_values,
        label_processor=pipeline._process_label,
        value_processor=pipeline.process_value,
    )
    policy = (
        None if config.distance_policy is None
        else resolve_policy(config.distance_policy)
    )
    measure = VECTOR_MEASURES[config.vector_measure]
    radius = config.sphere_radius
    approach = config.approach
    out = []
    for node in select_targets(
        tree, network, threshold=config.ambiguity_threshold,
        weights=config.ambiguity_weights,
    ):
        candidates = candidate_senses(node, network)
        if not candidates:
            continue
        sphere = build_sphere(tree, node, radius, policy=policy)
        vector = context_vector(sphere)
        size = len(sphere)
        concept = {}
        for candidate in candidates:
            total = 0.0
            for member in sphere:
                sense_ids = context_sense_ids(member.node, network)
                if not sense_ids:
                    continue
                best = max(
                    sum(similarity(part, sid) for part in candidate)
                    / len(candidate)
                    for sid in sense_ids
                )
                total += best * vector[member.node.label]
            concept[candidate] = total / size if size else 0.0
        drop = {node.label, *node.tokens}
        xml_vector = vector
        if config.strip_target_dimension:
            xml_vector = {k: v for k, v in vector.items() if k not in drop}
        context = {}
        for candidate in candidates:
            if len(candidate) == 1:
                cvec = concept_context_vector(network, candidate[0], radius)
            else:
                cvec = compound_concept_context_vector(
                    network, candidate, radius
                )
            if config.strip_target_dimension:
                cvec = {k: v for k, v in cvec.items() if k not in drop}
            context[candidate] = measure(xml_vector, cvec)
        if approach is DisambiguationApproach.CONCEPT_BASED:
            combined = dict(concept)
            context = {}
        elif approach is DisambiguationApproach.CONTEXT_BASED:
            combined = dict(context)
            concept = {}
        else:
            w_concept, w_context = config.normalized_approach_weights
            combined = {
                c: w_concept * concept[c] + w_context * context[c]
                for c in candidates
            }
        chosen, best_score = None, float("-inf")
        for candidate, score in combined.items():
            if score > best_score:
                chosen, best_score = candidate, score
        out.append((
            node.index, chosen, best_score,
            concept.get(chosen, 0.0), context.get(chosen, 0.0),
            ambiguity_degree(node, tree, network, config.ambiguity_weights),
            combined,
        ))
    return out


def assert_matches_oracle(result, expected, context: str) -> None:
    """Every reported value of ``result`` ``==`` the oracle's.

    Pruned runs omit provably-losing candidates from ``scores``; every
    score they do report must still equal the oracle's exactly.
    """
    assert len(result.assignments) == len(expected), context
    for a, (index, chosen, score, concept, ctx, amb, scores) in zip(
        result.assignments, expected
    ):
        where = f"{context} node={index}"
        assert a.node_index == index, where
        assert a.chosen == chosen, where
        assert a.score == score, where
        assert a.concept_score == concept, where
        assert a.context_score == ctx, where
        assert a.ambiguity == amb, where
        for candidate, value in a.scores.items():
            assert scores[candidate] == value, where


def random_document(network, seed: int, compounds: bool = False) -> str:
    """A small random XML document over the network's vocabulary.

    With ``compounds`` some tags are underscore compounds of two known
    words (split into a two-token label), of one known and one unknown
    word, or wholly unknown, and some text values repeat tag words.
    """
    rng = random.Random(seed)
    words = sorted(network.words())
    single = [w for w in words if " " not in w] or words

    def tag() -> str:
        roll = rng.random() if compounds else 1.0
        if roll < 0.15:
            return f"{rng.choice(single)}_{rng.choice(single)}"
        if roll < 0.25:
            return f"zq{rng.randint(0, 3)}_{rng.choice(single)}"
        if roll < 0.3:
            return f"unknownword{rng.randint(0, 3)}"
        return rng.choice(single)

    def element(depth: int) -> str:
        name = tag()
        n_children = rng.randint(0, 3) if depth < 3 else 0
        body = "".join(element(depth + 1) for _ in range(n_children))
        if not body and rng.random() < 0.5:
            body = " ".join(rng.choice(single) for _ in range(rng.randint(1, 2)))
        return f"<{name}>{body}</{name}>"

    root = tag()
    body = "".join(element(1) for _ in range(rng.randint(2, 4)))
    return f"<{root}>{body}</{root}>"
