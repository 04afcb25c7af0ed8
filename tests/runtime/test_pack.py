"""PackedIndex correctness: packed kernels, RXPD codec, worker shipping.

Three contracts are pinned here:

* **query parity** — every query the packed index serves (closures,
  depths, LCS, taxonomic distance, gloss bags, IC, the Lesk kernel)
  must ``==`` the network-walk value, on the curated lexicon and on
  random synthetic networks;
* **codec round-trip** — ``write_shard`` → ``from_mmap(verify=True)``
  reproduces every table exactly, and truncated/corrupted/foreign
  ``RXPD`` bytes raise :class:`PackedIndexError` instead of
  mis-attaching;
* **worker shipping** — an index crosses processes only as a shard
  path: pickling a :class:`PackedIndex` is refused with a pointer to
  the shard API.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.runtime import (
    PackedIndex,
    PackedIndexCRCError,
    PackedIndexError,
    PackedIndexTruncatedError,
    write_shard,
)
from repro.semnet.generator import GeneratorConfig, generate_network
from repro.semnet.ic import InformationContent
from repro.semnet.network import UnknownConceptError
from repro.similarity.gloss import (
    ExtendedLeskSimilarity,
    GlossTokenMemo,
    extended_gloss_tokens,
)


def _sample_pairs(network, n_pairs=150, seed=0):
    """Deterministic mix of random pairs and same-word sense pairs."""
    rng = random.Random(seed)
    ids = [concept.id for concept in network]
    pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(n_pairs)]
    for word in sorted(network.words())[:20]:
        senses = [s.id for s in network.senses(word)]
        pairs.extend((a, b) for a in senses[:3] for b in senses[:3])
    return pairs


def _assert_query_parity(network, packed, pairs):
    """Every packed query must equal the network walk's answer exactly."""
    ic = InformationContent(network)
    memo = GlossTokenMemo()
    for a, b in pairs:
        assert packed.hypernym_closure(a) == network.hypernym_closure(a)
        assert packed.depth(a) == network.depth(a)
        assert packed.lowest_common_subsumer(a, b) == \
            network.lowest_common_subsumer(a, b), (a, b)
        assert packed.taxonomic_distance(a, b) == \
            network.taxonomic_distance(a, b), (a, b)
        assert packed.gloss_bag(a) == \
            extended_gloss_tokens(network, a, memo=memo)
        assert packed.ic.ic(a) == ic.ic(a)
    assert packed.ic.max_ic == ic.max_ic
    assert packed.max_taxonomy_depth == network.max_taxonomy_depth


def _attach_bytes(directory, blob, name="shard.rxpd"):
    """Write raw ``RXPD`` bytes to a file and attach it, CRC-verified."""
    path = directory / name
    path.write_bytes(blob)
    return PackedIndex.from_mmap(path, verify=True)


def _round_trip(directory, packed):
    """``packed`` written with ``write_shard`` and attached back."""
    path = directory / "round-trip.rxpd"
    write_shard(packed, path)
    return PackedIndex.from_mmap(path, verify=True)


@pytest.fixture(scope="module")
def packed_lexicon(lexicon):
    """A PackedIndex over the curated lexicon (shared, read-only)."""
    return PackedIndex(lexicon)


class TestQueryParity:
    def test_curated_lexicon_queries_match_network(
        self, lexicon, packed_lexicon
    ):
        _assert_query_parity(lexicon, packed_lexicon, _sample_pairs(lexicon))

    @pytest.mark.parametrize("seed", [3, 11])
    def test_synthetic_network_queries_match_network(self, seed):
        network = generate_network(
            GeneratorConfig(n_concepts=120, mean_polysemy=2.0, seed=seed)
        )
        packed = PackedIndex(network)
        _assert_query_parity(network, packed, _sample_pairs(network, seed=seed))

    def test_lesk_kernel_matches_unpacked_measure(
        self, lexicon, packed_lexicon
    ):
        """The interned sparse DP == the string DP, score for score."""
        unpacked = ExtendedLeskSimilarity(lexicon)
        for a, b in _sample_pairs(lexicon, n_pairs=60, seed=4):
            assert packed_lexicon.lesk_similarity(a, b) == unpacked(a, b), \
                (a, b)

    def test_unknown_concept_raises(self, packed_lexicon):
        with pytest.raises(UnknownConceptError):
            packed_lexicon.depth("no.such.concept")
        with pytest.raises(UnknownConceptError):
            packed_lexicon.pair_terms("no.such.concept", "also.missing")

    def test_gloss_and_ic_gating(self, lexicon):
        taxonomy_only = PackedIndex(
            lexicon, include_gloss=False, include_ic=False
        )
        assert not taxonomy_only.has_gloss
        assert not taxonomy_only.has_ic
        some_id = next(iter(lexicon)).id
        with pytest.raises(RuntimeError):
            taxonomy_only.gloss_bag(some_id)
        with pytest.raises(RuntimeError):
            taxonomy_only.ic_value(some_id)
        with pytest.raises(RuntimeError):
            _ = taxonomy_only.ic


class TestCodec:
    def test_round_trip_on_curated_lexicon(
        self, lexicon, packed_lexicon, tmp_path
    ):
        clone = _round_trip(tmp_path, packed_lexicon)
        assert clone.backing == "mmap"
        _assert_query_parity(lexicon, clone, _sample_pairs(lexicon, seed=1))
        # The attached tables re-serialize to the identical shard.
        assert clone.to_disk_payload() == packed_lexicon.to_disk_payload()
        clone.release_shared()

    @pytest.mark.parametrize("seed", [0, 7, 19])
    def test_round_trip_on_random_synthetic_networks(self, seed, tmp_path):
        network = generate_network(
            GeneratorConfig(
                n_concepts=60 + 30 * seed, mean_polysemy=1.8, seed=seed
            )
        )
        packed = PackedIndex(network)
        clone = _round_trip(tmp_path, packed)
        assert clone.to_disk_payload() == packed.to_disk_payload()
        for a, b in _sample_pairs(network, n_pairs=40, seed=seed):
            assert clone.pair_terms(a, b) == packed.pair_terms(a, b)
            assert clone.lesk_similarity(a, b) == packed.lesk_similarity(a, b)
        clone.release_shared()

    def test_truncated_buffers_raise(self, packed_lexicon, tmp_path):
        blob = packed_lexicon.to_disk_payload()
        for cut in (0, 4, 10, len(blob) // 2, len(blob) - 1):
            with pytest.raises(PackedIndexError):
                _attach_bytes(tmp_path, blob[:cut])

    def test_truncation_raises_the_typed_subclass(
        self, packed_lexicon, tmp_path
    ):
        """Truncation is distinguishable from corruption (typed errors)."""
        blob = packed_lexicon.to_disk_payload()
        for cut in (0, 10, len(blob) - 1):
            with pytest.raises(PackedIndexTruncatedError):
                _attach_bytes(tmp_path, blob[:cut])
        # The subclass is still the umbrella PackedIndexError, so
        # existing except clauses keep working.
        assert issubclass(PackedIndexTruncatedError, PackedIndexError)

    def test_corrupted_body_raises(self, packed_lexicon, tmp_path):
        blob = bytearray(packed_lexicon.to_disk_payload())
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(PackedIndexError):
            _attach_bytes(tmp_path, bytes(blob))

    def test_corruption_raises_the_crc_subclass(
        self, packed_lexicon, tmp_path
    ):
        blob = bytearray(packed_lexicon.to_disk_payload())
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(PackedIndexCRCError):
            _attach_bytes(tmp_path, bytes(blob))
        assert issubclass(PackedIndexCRCError, PackedIndexError)

    def test_foreign_magic_and_version_raise(self, packed_lexicon, tmp_path):
        blob = packed_lexicon.to_disk_payload()
        with pytest.raises(PackedIndexError):
            _attach_bytes(tmp_path, b"XXXX" + blob[4:])
        with pytest.raises(PackedIndexError):
            # Bump the version halfword past anything supported.
            _attach_bytes(tmp_path, blob[:4] + b"\xff\xff" + blob[6:])


class TestWorkerShipping:
    def test_pickle_is_refused_with_a_shard_hint(self, packed_lexicon):
        """One transport: an index crosses processes as a shard path."""
        with pytest.raises(TypeError, match="write_shard"):
            pickle.dumps(packed_lexicon)

    def test_stats_shape(self, packed_lexicon, lexicon):
        stats = packed_lexicon.stats()
        assert stats["concepts"] == len(lexicon)
        assert stats["ancestor_entries"] >= stats["concepts"]
        assert stats["distinct_tokens"] <= stats["gloss_tokens"]
        assert stats["backing"] == "heap"
        assert stats["packed_bytes"] == len(packed_lexicon.to_disk_payload())
        assert stats["build_seconds"] >= 0
        a, b = [concept.id for concept in lexicon][5:7]
        before = packed_lexicon.stats()["pair_memo_misses"]
        packed_lexicon.pair_terms(a, b)
        packed_lexicon.pair_terms(b, a)  # symmetric memo: second is a hit
        after = packed_lexicon.stats()
        assert after["pair_memo_misses"] >= before
        assert after["pair_memo_hits"] >= 1
