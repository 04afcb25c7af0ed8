"""Context-based semantic disambiguation (paper Definition 10).

Compares the target node's sphere context vector in the XML tree with
the sphere context vector of each candidate sense in the semantic
network; the sense whose semantic neighborhood "looks most like" the
node's structural neighborhood wins::

    Context_Score(s_p) = cos(V_d(x), V_d(s_p))

For compound candidates the concept spheres are unioned before the
vector is built (Eq. 12).  Concept vectors — and, for cosine, their
norms — are cached per candidate: the same senses recur across target
nodes and documents.  The XML vector's norm is computed once per
sphere, not once per candidate.
"""

from __future__ import annotations

from ..semnet.network import SemanticNetwork
from ..similarity.vector import (
    VECTOR_MEASURES,
    cosine_similarity,
    cosine_with_norms,
    vector_norm,
)
from .candidates import Candidate
from .context_vector import (
    compound_concept_context_vector,
    concept_context_vector,
    context_vector,
)
from .sphere import Sphere


class ContextBasedScorer:
    """Scores candidate senses by sphere-vector comparison (Definition 10)."""

    def __init__(
        self,
        network: SemanticNetwork,
        radius: int,
        vector_measure: str = "cosine",
        strip_target_dimension: bool = False,
    ):
        if vector_measure not in VECTOR_MEASURES:
            raise ValueError(f"unknown vector measure {vector_measure!r}")
        self._network = network
        self._radius = radius
        self._measure = VECTOR_MEASURES[vector_measure]
        self._cosine = self._measure is cosine_similarity
        self._strip = strip_target_dimension
        # candidate -> (concept vector, its norm); bounded by the
        # network's candidate count, like the vectors themselves.
        self._vector_cache: dict[Candidate, tuple[dict[str, float], float]] = {}

    def _candidate_entry(
        self, candidate: Candidate
    ) -> tuple[dict[str, float], float]:
        """The candidate's concept vector and its :func:`vector_norm`."""
        cached = self._vector_cache.get(candidate)
        if cached is not None:
            return cached
        if len(candidate) == 1:
            vector = concept_context_vector(
                self._network, candidate[0], self._radius
            )
        else:
            vector = compound_concept_context_vector(
                self._network, candidate, self._radius
            )
        entry = (vector, vector_norm(vector))
        self._vector_cache[candidate] = entry
        return entry

    @staticmethod
    def _strip_target_dimensions(
        vector: dict[str, float], sphere: Sphere
    ) -> dict[str, float]:
        """Drop the target's own label/token dimensions from a vector.

        The target label appears in *every* candidate sense's sphere (it
        is the sphere center) and in the XML sphere whenever siblings
        share the label, so it carries no discriminative signal — but
        under cosine normalization it inflates the score of senses with
        *few* neighbors (their vectors concentrate on their own words).

        This is an **extension beyond the paper**: Definition 10 keeps
        the dimension, and the resulting self-word bias is a plausible
        cause of the paper's observation that the context-based process
        underperforms and is context-size-sensitive.  Enable it with
        ``XSDFConfig(strip_target_dimension=True)``; the ablation
        benchmark quantifies the effect.
        """
        drop = {sphere.center.label, *sphere.center.tokens}
        return {k: v for k, v in vector.items() if k not in drop}

    def score(self, candidate: Candidate, sphere: Sphere) -> float:
        """``Context_Score(candidate, S_d(x), SN)`` in [0, 1]."""
        return self.score_all([candidate], sphere)[candidate]

    def score_all(
        self,
        candidates: list[Candidate],
        sphere: Sphere,
        vector: dict[str, float] | None = None,
    ) -> dict[Candidate, float]:
        """Scores for every candidate against one (shared) XML vector.

        ``vector`` lets callers supply the sphere's context vector when
        they already computed it (read-only; stripping builds a new
        dict) instead of re-deriving it here.
        """
        xml_vector = vector if vector is not None else context_vector(sphere)
        strip = self._strip
        if strip:
            xml_vector = self._strip_target_dimensions(xml_vector, sphere)
        cosine = self._cosine
        xml_norm = vector_norm(xml_vector) if cosine else 0.0
        scores: dict[Candidate, float] = {}
        for candidate in candidates:
            concept_vector, concept_norm = self._candidate_entry(candidate)
            if strip:
                concept_vector = self._strip_target_dimensions(
                    concept_vector, sphere
                )
                concept_norm = vector_norm(concept_vector) if cosine else 0.0
            if cosine:
                scores[candidate] = cosine_with_norms(
                    xml_vector, concept_vector, xml_norm, concept_norm
                )
            else:
                scores[candidate] = self._measure(xml_vector, concept_vector)
        return scores
