"""Vector similarity measures over sparse label-weight vectors.

Context vectors (paper Definition 6) are sparse mappings from node
labels to weights.  The context-based disambiguation score (Definition
10) compares them with cosine similarity; Jaccard and Pearson variants
are provided because the paper explicitly notes they are drop-in
replacements.
"""

from __future__ import annotations

import math
from typing import Mapping

Vector = Mapping[str, float]


def cosine_similarity(u: Vector, v: Vector) -> float:
    """Cosine of the angle between two sparse vectors, in [0, 1]."""
    return cosine_with_norms(u, v, vector_norm(u), vector_norm(v))


def vector_norm(u: Vector) -> float:
    """Euclidean norm, summed in ``u``'s iteration order."""
    return math.sqrt(sum(w * w for w in u.values()))


def cosine_with_norms(
    u: Vector, v: Vector, norm_u: float, norm_v: float
) -> float:
    """:func:`cosine_similarity` with both norms precomputed.

    ``norm_u``/``norm_v`` must be :func:`vector_norm` of ``u``/``v``;
    the result is then bit-identical to ``cosine_similarity(u, v)``.
    Callers comparing one vector against many (the context-based
    scorer) compute each norm once instead of once per pair.
    """
    if not u or not v:
        return 0.0
    smaller, larger = (u, v) if len(u) <= len(v) else (v, u)
    larger_get = larger.get
    dot = sum(weight * larger_get(label, 0.0) for label, weight in smaller.items())
    denominator = norm_u * norm_v
    # Guard the *product*: with subnormal weights it can underflow to
    # zero even when both norms are individually non-zero.
    if denominator == 0.0:
        return 0.0
    return max(0.0, min(1.0, dot / denominator))


def jaccard_similarity(u: Vector, v: Vector) -> float:
    """Weighted (Ruzicka) Jaccard: sum of mins over sum of maxes."""
    if not u or not v:
        return 0.0
    labels = set(u) | set(v)
    numerator = sum(min(u.get(label, 0.0), v.get(label, 0.0)) for label in labels)
    denominator = sum(max(u.get(label, 0.0), v.get(label, 0.0)) for label in labels)
    if denominator == 0.0:
        return 0.0
    return max(0.0, min(1.0, numerator / denominator))


def pearson_similarity(u: Vector, v: Vector) -> float:
    """Pearson correlation over the union of dimensions, mapped to [0, 1].

    Correlation ranges [-1, 1]; it is rescaled via ``(r + 1) / 2`` so the
    function is interchangeable with :func:`cosine_similarity`.
    """
    labels = sorted(set(u) | set(v))
    if len(labels) < 2:
        return 0.0
    xs = [u.get(label, 0.0) for label in labels]
    ys = [v.get(label, 0.0) for label in labels]
    n = len(labels)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    denominator = math.sqrt(var_x) * math.sqrt(var_y)
    # Multiplying the roots (not rooting the product) avoids the product
    # underflowing to zero for subnormal variances.
    if denominator == 0.0:
        return 0.0
    r = cov / denominator
    return max(0.0, min(1.0, (r + 1.0) / 2.0))


VECTOR_MEASURES = {
    "cosine": cosine_similarity,
    "jaccard": jaccard_similarity,
    "pearson": pearson_similarity,
}
