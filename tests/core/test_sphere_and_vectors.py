"""Tests for sphere neighborhoods and context vectors against the
paper's worked examples (Figures 6 and 7)."""

from __future__ import annotations

import pytest

from repro.core.context_vector import (
    compound_concept_context_vector,
    concept_context_vector,
    context_vector,
    label_frequencies,
    node_context_vector,
    struct_proximity,
)
from repro.core.sphere import SphereMember, build_ring, build_sphere
from repro.semnet.builders import NetworkBuilder


class TestFigure6Spheres:
    def test_ring1_of_cast(self, figure6_tree):
        # Paper: R_1(T[2]) = {picture, star, star}.
        ring = build_ring(figure6_tree, figure6_tree[2], 1)
        assert sorted(n.label for n in ring) == ["picture", "star", "star"]

    def test_ring2_of_cast(self, figure6_tree):
        # Paper: R_2(T[2]) = {films, stewart, kelly, plot}.
        ring = build_ring(figure6_tree, figure6_tree[2], 2)
        assert sorted(n.label for n in ring) == [
            "films", "kelly", "plot", "stewart",
        ]

    def test_sphere2_is_union_of_rings(self, figure6_tree):
        sphere = build_sphere(figure6_tree, figure6_tree[2], 2)
        assert len(sphere) == 1 + 3 + 4  # center + ring1 + ring2
        assert sphere.ring(0) == [figure6_tree[2]]

    def test_sphere_members_sorted_by_distance_then_preorder(self, figure6_tree):
        sphere = build_sphere(figure6_tree, figure6_tree[2], 2)
        distances = [m.distance for m in sphere]
        assert distances == sorted(distances)

    def test_radius_zero_is_center_only(self, figure6_tree):
        sphere = build_sphere(figure6_tree, figure6_tree[2], 0)
        assert [m.node.index for m in sphere] == [2]

    def test_radius_covers_whole_tree(self, figure6_tree):
        sphere = build_sphere(figure6_tree, figure6_tree[2], 10)
        assert len(sphere) == len(figure6_tree)

    def test_negative_radius_rejected(self, figure6_tree):
        with pytest.raises(ValueError):
            build_sphere(figure6_tree, figure6_tree[2], -1)

    def test_labels_deduplicated(self, figure6_tree):
        sphere = build_sphere(figure6_tree, figure6_tree[2], 1)
        assert sphere.labels() == ["cast", "picture", "star"]


class TestSphereMember:
    def test_immutable(self, figure6_tree):
        member = SphereMember(figure6_tree[2], 1)
        with pytest.raises(AttributeError):
            member.distance = 2
        with pytest.raises(AttributeError):
            member.node = figure6_tree[3]

    def test_value_equality_and_hash(self, figure6_tree):
        a = SphereMember(figure6_tree[2], 1)
        b = SphereMember(figure6_tree[2], 1)
        assert a == b and hash(a) == hash(b)
        assert a != SphereMember(figure6_tree[2], 2)
        assert a != SphereMember(figure6_tree[3], 1)
        assert {a, b} == {a}

    def test_spheres_are_built_from_members(self, figure6_tree):
        sphere = build_sphere(figure6_tree, figure6_tree[2], 1)
        assert all(isinstance(m, SphereMember) for m in sphere)
        assert list(sphere)[0] == SphereMember(figure6_tree[2], 0)


class TestStructProximity:
    def test_center_weight_is_one(self):
        assert struct_proximity(0, 2) == 1.0

    def test_outermost_ring_nonzero(self):
        # Definition 7: the farthest ring keeps weight 1/(d+1).
        assert struct_proximity(3, 3) == pytest.approx(1 / 4)

    def test_monotone_decreasing(self):
        weights = [struct_proximity(d, 3) for d in range(4)]
        assert weights == sorted(weights, reverse=True)


class TestFigure7Vectors:
    def test_v1_weights_match_paper(self, figure6_tree):
        # Paper Figure 7: V_1(T[2]) = (cast 0.4, picture 0.2, star 0.4).
        vector = node_context_vector(figure6_tree, figure6_tree[2], 1)
        assert vector == pytest.approx(
            {"cast": 0.4, "picture": 0.2, "star": 0.4}
        )

    def test_v2_ratios_match_paper(self, figure6_tree):
        # The paper's V_2 row is internally inconsistent about |S| (see
        # DESIGN.md); the *ratios* are normalization-independent and
        # must match: star = 2x films, cast = 3x films, picture = 2x films.
        vector = node_context_vector(figure6_tree, figure6_tree[2], 2)
        assert vector["star"] / vector["films"] == pytest.approx(4.0)
        assert vector["cast"] / vector["films"] == pytest.approx(3.0)
        assert vector["picture"] / vector["films"] == pytest.approx(2.0)
        assert vector["kelly"] == vector["stewart"] == vector["plot"] \
            == vector["films"]

    def test_assumption5_closer_weighs_more(self, figure6_tree):
        vector = node_context_vector(figure6_tree, figure6_tree[2], 2)
        assert vector["picture"] > vector["films"]

    def test_assumption6_repetition_weighs_more(self, figure6_tree):
        vector = node_context_vector(figure6_tree, figure6_tree[2], 1)
        assert vector["star"] == pytest.approx(2 * vector["picture"])

    def test_weights_in_unit_interval(self, figure6_tree):
        for node in figure6_tree:
            vector = node_context_vector(figure6_tree, node, 3)
            assert all(0.0 < w <= 1.0 for w in vector.values())

    def test_frequencies_sum_over_members(self, figure6_tree):
        sphere = build_sphere(figure6_tree, figure6_tree[2], 2)
        frequencies = label_frequencies(sphere)
        total = sum(frequencies.values())
        expected = sum(
            struct_proximity(m.distance, 2) for m in sphere
        )
        assert total == pytest.approx(expected)

    def test_context_vector_normalizer(self, figure6_tree):
        sphere = build_sphere(figure6_tree, figure6_tree[2], 1)
        vector = context_vector(sphere)
        frequencies = label_frequencies(sphere)
        for label, weight in vector.items():
            assert weight == pytest.approx(
                2 * frequencies[label] / (len(sphere) + 1)
            )


class TestConceptVectors:
    @pytest.fixture()
    def network(self):
        b = NetworkBuilder()
        b.synset("entity", ["entity"], "g")
        b.synset("person", ["person", "human"], "g", hypernym="entity")
        b.synset("actor", ["actor"], "g", hypernym="person")
        b.synset("prop", ["prop"], "g", part_of="actor")
        return b.build()

    def test_center_words_carry_full_weight(self, network):
        vector = concept_context_vector(network, "actor", 1)
        assert vector["actor"] == max(vector.values())

    def test_all_relation_types_traversed(self, network):
        vector = concept_context_vector(network, "actor", 1)
        assert "person" in vector and "prop" in vector

    def test_synonyms_all_become_dimensions(self, network):
        vector = concept_context_vector(network, "actor", 1)
        assert vector["person"] == vector["human"]

    def test_radius_extends_coverage(self, network):
        near = concept_context_vector(network, "actor", 1)
        far = concept_context_vector(network, "actor", 2)
        assert "entity" not in near
        assert "entity" in far

    def test_compound_vector_unions_spheres(self, network):
        compound = compound_concept_context_vector(
            network, ("prop", "entity"), 1
        )
        assert "actor" in compound      # from prop's sphere
        assert "person" in compound     # from entity's sphere

    def test_compound_keeps_minimal_distance(self, network):
        single = concept_context_vector(network, "actor", 1)
        compound = compound_concept_context_vector(
            network, ("actor", "prop"), 1
        )
        # actor appears at distance 0 in one sphere, 1 in the other; the
        # union takes distance 0, so the raw Struct weight matches the
        # single sphere's center weight before normalization.
        assert compound["actor"] > 0
        assert single["actor"] > 0
