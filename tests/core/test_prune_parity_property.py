"""Property-based exact-pruning parity on random synthetic networks.

The fixed-corpus parity suite (``tests/runtime/test_memo.py``) pins
exhaustive == pruned on the curated lexicon; these properties assert
the same contract where hypothesis chooses the semantic network shape,
the document shape, and the similarity measure — including the
totalized ``(score, sense-rank)`` tie-break, which synthetic networks
exercise heavily (structurally identical senses produce exact score
ties).  Every one of the eight measures runs mounted in its
:class:`CombinedSimilarity` slot, the configuration under which the
pruning upper bound engages.  :class:`TestInternedScorerOracle` checks
the interned scorer against the per-occurrence reference in
``tests/core/_oracle.py``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import DisambiguationApproach, XSDFConfig
from repro.core.framework import XSDF
from repro.semnet.generator import GeneratorConfig, generate_network
from repro.semnet.ic import InformationContent
from repro.similarity.combined import CombinedSimilarity, SimilarityWeights
from repro.similarity.edge import LeacockChodorowSimilarity, PathSimilarity
from repro.similarity.node import JiangConrathSimilarity, ResnikSimilarity
from tests.core._oracle import (
    assert_matches_oracle,
    oracle_assignments,
    random_document,
)

#: (network, ic) per generator shape — hypothesis revisits shapes and
#: network construction dominates runtime.
_NETWORK_CACHE: dict[tuple, tuple] = {}

network_shapes = st.tuples(
    st.integers(min_value=0, max_value=499),     # generator seed
    st.sampled_from([40, 90]),                   # concepts
    st.sampled_from([2, 4]),                     # branching
    st.sampled_from([1.5, 3.0]),                 # mean polysemy
)


def _network_ic(shape):
    if shape not in _NETWORK_CACHE:
        if len(_NETWORK_CACHE) > 32:
            _NETWORK_CACHE.clear()
        seed, n_concepts, branching, polysemy = shape
        network = generate_network(GeneratorConfig(
            n_concepts=n_concepts,
            branching=branching,
            mean_polysemy=polysemy,
            seed=seed,
        ))
        _NETWORK_CACHE[shape] = (network, InformationContent(network))
    return _NETWORK_CACHE[shape]


def _random_document(network, seed: int) -> str:
    """A small random XML document over the network's vocabulary."""
    rng = random.Random(seed)
    words = sorted(network.words())

    def element(depth: int) -> str:
        tag = rng.choice(words)
        n_children = rng.randint(0, 3) if depth < 3 else 0
        body = "".join(element(depth + 1) for _ in range(n_children))
        if not body and rng.random() < 0.5:
            body = rng.choice(words)
        return f"<{tag}>{body}</{tag}>"

    root = rng.choice(words)
    body = "".join(element(1) for _ in range(rng.randint(2, 4)))
    return f"<{root}>{body}</{root}>"


def _measure_suite(network, ic):
    """All eight measures, each in its CombinedSimilarity slot."""
    edge_only = SimilarityWeights(1, 0, 0)
    node_only = SimilarityWeights(0, 1, 0)
    gloss_only = SimilarityWeights(0, 0, 1)
    return [
        ("wu-palmer", edge_only,
         CombinedSimilarity(network, weights=edge_only, ic=ic)),
        ("path", edge_only,
         CombinedSimilarity(network, weights=edge_only, ic=ic,
                            edge_measure=PathSimilarity(network))),
        ("leacock-chodorow", edge_only,
         CombinedSimilarity(
             network, weights=edge_only, ic=ic,
             edge_measure=LeacockChodorowSimilarity(network))),
        ("lin", node_only,
         CombinedSimilarity(network, weights=node_only, ic=ic)),
        ("resnik", node_only,
         CombinedSimilarity(network, weights=node_only, ic=ic,
                            node_measure=ResnikSimilarity(network, ic=ic))),
        ("jiang-conrath", node_only,
         CombinedSimilarity(
             network, weights=node_only, ic=ic,
             node_measure=JiangConrathSimilarity(network, ic=ic))),
        ("lesk", gloss_only,
         CombinedSimilarity(network, weights=gloss_only, ic=ic)),
        ("combined", SimilarityWeights(),
         CombinedSimilarity(network, ic=ic)),
    ]


class TestPrunedArgmaxProperty:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        shape=network_shapes,
        doc_seed=st.integers(0, 2**16),
        approach=st.sampled_from([
            DisambiguationApproach.CONCEPT_BASED,
            DisambiguationApproach.COMBINED,
        ]),
    )
    def test_pruned_argmax_equals_exhaustive(self, shape, doc_seed, approach):
        """Chosen sense, tie-break, and reported scores must ``==``."""
        network, ic = _network_ic(shape)
        xml = _random_document(network, doc_seed)
        for measure, weights, similarity in _measure_suite(network, ic):
            base_cfg = XSDFConfig(
                approach=approach, similarity_weights=weights,
                prune=False, memo=False,
            )
            fast_cfg = XSDFConfig(
                approach=approach, similarity_weights=weights,
                prune=True, memo=False,
            )
            expected = XSDF(
                network, base_cfg, similarity=similarity
            ).disambiguate_document(xml)
            pruned = XSDF(
                network, fast_cfg, similarity=similarity
            ).disambiguate_document(xml)
            assert len(expected.assignments) == len(pruned.assignments)
            for a, b in zip(expected.assignments, pruned.assignments):
                context = (
                    f"measure={measure} approach={approach.value} "
                    f"shape={shape} doc_seed={doc_seed} node={a.node_index}"
                )
                assert a.chosen == b.chosen, context
                assert a.score == b.score, context
                assert a.concept_score == b.concept_score, context
                assert a.context_score == b.context_score, context
                for candidate, score in b.scores.items():
                    assert a.scores[candidate] == score, context


class TestInternedScorerOracle:
    """The interned scorer (label intern + per-candidate rows, pruning
    and the sphere memo on top) equals the per-occurrence network-walk
    oracle bit-for-bit, across approaches, vector measures, target-
    dimension stripping, compound labels and weighted distances."""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        shape=network_shapes,
        doc_seed=st.integers(0, 2**16),
        approach=st.sampled_from(list(DisambiguationApproach)),
        measure=st.sampled_from(["cosine", "jaccard", "pearson"]),
        strip=st.booleans(),
        policy=st.sampled_from([None, "direction", "density"]),
        fast=st.booleans(),
    )
    def test_interned_scorer_equals_network_walk_oracle(
        self, shape, doc_seed, approach, measure, strip, policy, fast
    ):
        network, ic = _network_ic(shape)
        config = XSDFConfig(
            approach=approach, vector_measure=measure,
            strip_target_dimension=strip, distance_policy=policy,
            prune=fast, memo=fast,
        )
        # One similarity for both sides, oracle first: its pair cache
        # then fixes every pair's value in per-occurrence order (see
        # test_pair_cache_value_depends_on_first_query_order).
        similarity = CombinedSimilarity(network, ic=ic)
        xsdf = XSDF(network, config, similarity=similarity)
        # Two documents through one instance: the second one runs on
        # warm intern tables and rows.
        for offset in (0, 1):
            xml = random_document(network, doc_seed + offset, compounds=True)
            expected = oracle_assignments(network, config, xml, similarity)
            assert_matches_oracle(
                xsdf.disambiguate_document(xml), expected,
                f"shape={shape} doc_seed={doc_seed + offset} "
                f"approach={approach.value} measure={measure} "
                f"strip={strip} policy={policy} fast={fast}",
            )

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        shape=network_shapes,
        doc_seed=st.integers(0, 2**16),
        intern_size=st.sampled_from([1, 2, 5]),
    )
    def test_tiny_intern_tables_flush_without_changing_results(
        self, shape, doc_seed, intern_size
    ):
        """Tables far below the working set flush constantly — mid-row
        included — and every result still equals the oracle."""
        network, ic = _network_ic(shape)
        config = XSDFConfig()
        similarity = CombinedSimilarity(network, ic=ic)
        xsdf = XSDF(
            network, config, similarity=similarity, intern_size=intern_size
        )
        xml = random_document(network, doc_seed, compounds=True)
        expected = oracle_assignments(network, config, xml, similarity)
        assert_matches_oracle(
            xsdf.disambiguate_document(xml), expected,
            f"shape={shape} doc_seed={doc_seed} intern_size={intern_size}",
        )
        for name, table in xsdf.intern_tables().items():
            assert len(table) <= intern_size, name


@pytest.mark.xfail(
    strict=True,
    reason="known defect: CombinedSimilarity caches the unordered pair, "
    "but extended Lesk's greedy overlap is asymmetric, so a cached value "
    "depends on which order was queried first (see ROADMAP)",
)
def test_pair_cache_value_depends_on_first_query_order():
    """Pins the defect the oracle tests above work around by sharing
    one similarity: ``sim(a, b)`` differs between a cache that first
    saw ``(a, b)`` and one that first saw ``(b, a)``."""
    network, ic = _network_ic((204, 40, 4, 3.0))
    ids = [concept.id for concept in network]
    for a in ids:
        for b in ids:
            forward = CombinedSimilarity(network, ic=ic)
            reverse = CombinedSimilarity(network, ic=ic)
            reverse(b, a)
            assert forward(a, b) == reverse(a, b), (a, b)
