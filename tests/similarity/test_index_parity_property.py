"""Property-based ``index=`` fast-path parity on random networks.

The curated-lexicon parity tests (``tests/runtime/test_index.py``) pin
bit-identical indexed scores on one fixed network; these properties
assert the same contract on *hypothesis-chosen* synthetic taxonomies —
shape, polysemy, and seed all vary — for every similarity measure in
the five ``repro.similarity`` modules.  ``edge``, ``node``, ``gloss``
and ``combined`` expose the ``index=`` fast path directly;
``vector`` has none (its inputs are plain mappings), which a signature
test pins so a future fast path cannot dodge this battery.

Each measure is exercised with the interned flat-array
:class:`~repro.runtime.pack.PackedIndex` — bit-identity (network walk
== packed kernels) on every sampled pair.
:class:`TestDocumentParity` lifts the contract to whole documents:
the interned scorer over the packed index against the per-occurrence
network-walk oracle.
"""

from __future__ import annotations

import inspect
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import DisambiguationApproach, XSDFConfig
from repro.core.framework import XSDF
from repro.runtime import PackedIndex
from repro.runtime.pack import PackedIndexCRCError
from repro.semnet.generator import GeneratorConfig, generate_network
from repro.semnet.ic import InformationContent
from repro.similarity.combined import CombinedSimilarity, SimilarityWeights
from repro.similarity.edge import (
    LeacockChodorowSimilarity,
    PathSimilarity,
    WuPalmerSimilarity,
)
from repro.similarity.gloss import ExtendedLeskSimilarity
from repro.similarity.node import (
    JiangConrathSimilarity,
    LinSimilarity,
    ResnikSimilarity,
)
from repro.similarity.vector import VECTOR_MEASURES
from tests.core._oracle import (
    assert_matches_oracle,
    oracle_assignments,
    random_document,
)

#: (network, packed, ic) per generator shape — hypothesis
#: revisits shapes across examples, and network construction dominates
#: runtime.
_NETWORK_CACHE: dict[tuple, tuple] = {}

network_shapes = st.tuples(
    st.integers(min_value=0, max_value=999),     # generator seed
    st.sampled_from([30, 80, 140]),              # concepts
    st.sampled_from([2, 4, 7]),                  # branching
    st.sampled_from([1.5, 3.0]),                 # mean polysemy
)


def _network_index_ic(shape):
    if shape not in _NETWORK_CACHE:
        if len(_NETWORK_CACHE) > 48:
            _NETWORK_CACHE.clear()
        seed, n_concepts, branching, polysemy = shape
        network = generate_network(GeneratorConfig(
            n_concepts=n_concepts,
            branching=branching,
            mean_polysemy=polysemy,
            seed=seed,
        ))
        _NETWORK_CACHE[shape] = (
            network,
            PackedIndex(network),
            InformationContent(network),
        )
    return _NETWORK_CACHE[shape]


def _sample_pairs(network, seed, n_random=25):
    """Random concept pairs plus the senses-of-one-word pairs WSD uses."""
    rng = random.Random(seed)
    ids = [concept.id for concept in network]
    pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(n_random)]
    for word in sorted(network.words())[:10]:
        senses = [s.id for s in network.senses(word)]
        pairs.extend((a, b) for a in senses[:3] for b in senses[:3])
    return pairs


def _measure_pairs(network, packed, ic, weights=None):
    """(slow, packed-fast) per index-accepting measure."""
    return [
        (WuPalmerSimilarity(network),
         WuPalmerSimilarity(network, index=packed)),
        (PathSimilarity(network),
         PathSimilarity(network, index=packed)),
        (LeacockChodorowSimilarity(network),
         LeacockChodorowSimilarity(network, index=packed)),
        (LinSimilarity(network, ic=ic),
         LinSimilarity(network, ic=ic, index=packed)),
        (ResnikSimilarity(network, ic=ic),
         ResnikSimilarity(network, ic=ic, index=packed)),
        (JiangConrathSimilarity(network, ic=ic),
         JiangConrathSimilarity(network, ic=ic, index=packed)),
        (ExtendedLeskSimilarity(network),
         ExtendedLeskSimilarity(network, index=packed)),
        (CombinedSimilarity(network, ic=ic, weights=weights),
         CombinedSimilarity(network, ic=ic, weights=weights, index=packed)),
    ]


class TestIndexParityProperty:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(shape=network_shapes, pair_seed=st.integers(0, 2**16))
    def test_every_measure_is_bit_identical(self, shape, pair_seed):
        """Packed-index scores must ``==`` unindexed ones."""
        network, packed, ic = _network_index_ic(shape)
        pairs = _sample_pairs(network, pair_seed)
        for slow, fast_packed in _measure_pairs(network, packed, ic):
            for a, b in pairs:
                expected = slow(a, b)
                assert expected == fast_packed(a, b), (
                    f"{type(slow).__name__} (packed index) diverges on "
                    f"({a}, {b}) for network shape {shape}"
                )

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        shape=network_shapes,
        pair_seed=st.integers(0, 2**16),
        mix=st.tuples(
            st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)
        ).filter(lambda m: sum(m) > 0),
    )
    def test_combined_parity_under_any_weight_mix(
        self, shape, pair_seed, mix
    ):
        """The Definition 9 combination keeps parity for any weights."""
        network, packed, ic = _network_index_ic(shape)
        weights = SimilarityWeights(*mix)
        slow = CombinedSimilarity(network, ic=ic, weights=weights)
        fast_packed = CombinedSimilarity(
            network, ic=ic, weights=weights, index=packed
        )
        for a, b in _sample_pairs(network, pair_seed, n_random=12):
            assert slow(a, b) == fast_packed(a, b)

    def test_vector_module_has_no_index_fast_path(self):
        """``repro.similarity.vector`` takes no ``index=`` — if one is
        ever added, this pin forces it into the parity battery above."""
        for name, measure in VECTOR_MEASURES.items():
            parameters = inspect.signature(measure).parameters
            assert "index" not in parameters, (
                f"vector measure {name!r} grew an index= parameter; "
                "add it to the index-parity property tests"
            )


class _FailAtCall:
    """Packed-index proxy whose ``pair_terms`` raises once, on call
    ``fail_at`` — an index fault in the middle of a document."""

    def __init__(self, inner, fail_at: int):
        self._inner = inner
        self._calls = 0
        self._fail_at = fail_at

    def __getattr__(self, name):
        target = getattr(self._inner, name)
        if name != "pair_terms":
            return target

        def guarded(*args):
            self._calls += 1
            if self._calls == self._fail_at:
                raise PackedIndexCRCError("injected mid-document fault")
            return target(*args)

        return guarded


class TestDocumentParity:
    """Whole documents: the interned scorer over the packed index ==
    the per-occurrence network-walk oracle (``tests/core/_oracle.py``),
    bit-for-bit, including across an index downgrade mid-document."""

    @settings(
        max_examples=20,
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
        memo=st.booleans(),
    )
    def test_packed_document_equals_network_walk_oracle(
        self, shape, doc_seed, approach, measure, strip, policy, memo
    ):
        network, packed, ic = _network_index_ic(shape)
        # Exhaustive scoring queries pairs in the oracle's order, so
        # both sides see the same value for extended Lesk's asymmetric
        # pairs without sharing a pair cache.
        config = XSDFConfig(
            approach=approach, vector_measure=measure,
            strip_target_dimension=strip, distance_policy=policy,
            prune=False, memo=memo,
        )
        walk = CombinedSimilarity(network, ic=ic)
        xsdf = XSDF(network, config, index=packed)
        assert xsdf.index_rung == "packed"
        for offset in (0, 1):
            xml = random_document(network, doc_seed + offset, compounds=True)
            assert_matches_oracle(
                xsdf.disambiguate_document(xml),
                oracle_assignments(network, config, xml, walk),
                f"shape={shape} doc_seed={doc_seed + offset} "
                f"approach={approach.value} measure={measure} "
                f"strip={strip} policy={policy} memo={memo}",
            )

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        shape=network_shapes,
        doc_seed=st.integers(0, 2**16),
        fault_seed=st.integers(0, 2**16),
        prune=st.booleans(),
    )
    def test_index_downgrade_mid_document_keeps_oracle_parity(
        self, shape, doc_seed, fault_seed, prune
    ):
        network, packed, ic = _network_index_ic(shape)
        config = XSDFConfig(prune=prune, memo=prune)
        xml = random_document(network, doc_seed, compounds=True)
        # One shared pair cache, oracle first: pruning reorders pair
        # queries, and the cache pins extended Lesk's asymmetric pairs
        # to the oracle's order (the executor shares its pair cache
        # across rungs the same way).
        pairs: dict = {}
        walk = CombinedSimilarity(network, ic=ic, cache=pairs)
        expected = oracle_assignments(network, config, xml, walk)
        # A dry run on a copy of that cache counts the kernel calls, so
        # the fault lands strictly inside the document.
        counter = _FailAtCall(packed, fail_at=0)
        XSDF(
            network, config, index=counter, similarity_cache=dict(pairs)
        ).disambiguate_document(xml)
        xsdf = XSDF(
            network, config,
            index=_FailAtCall(packed, 1 + fault_seed % max(counter._calls, 1)),
            similarity_cache=pairs,
        )
        result = xsdf.disambiguate_document(xml)
        context = f"shape={shape} doc_seed={doc_seed} prune={prune}"
        if counter._calls:
            assert xsdf.index_rung == "network", context
            assert xsdf.degrade_stats["index_downgrades"] == 1, context
        assert_matches_oracle(result, expected, context)
        # The warm intern tables and rows carry over to the network walk.
        if xsdf.index is not None:
            assert xsdf._downgrade_index()
        assert xsdf.index_rung == "network"
        assert not xsdf._downgrade_index()  # bottom of the ladder
        xml2 = random_document(network, doc_seed + 1, compounds=True)
        assert_matches_oracle(
            xsdf.disambiguate_document(xml2),
            oracle_assignments(network, config, xml2, walk),
            context + " second document",
        )
