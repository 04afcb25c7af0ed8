"""Node-based (information-content) semantic similarity measures.

These use the statistical distribution of concept occurrences in a text
corpus (the weighted network ``SN-bar``).  The paper plugs Lin's measure
(ICML 1998) in as ``Sim_Node``; Resnik and Jiang-Conrath variants are
provided for ablations.  All are normalized into [0, 1].

Each accepts an optional precomputed
:class:`repro.runtime.pack.PackedIndex` (``index=``): IC values stay
table lookups either way, but the lowest-common-subsumer query — the
taxonomy walk dominating these measures — is served from the interned
pair kernel's memo, with bit-identical results.  An explicit ``ic=``
table is still consulted for the IC values themselves, so custom-IC
semantics are preserved with an index too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from ..semnet.ic import InformationContent
from ..semnet.network import SemanticNetwork

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..runtime.pack import PackedIC, PackedIndex

    AnyIC = Union[InformationContent, PackedIC]


def _lcs_ic(index: "PackedIndex", ic: "AnyIC", a: str, b: str) -> float:
    """IC of the lowest common subsumer via the packed pair kernel.

    Reads the packed IC slot directly when ``ic`` *is* the index's own
    view; a custom table is consulted by concept id.
    """
    terms = index.pair_terms(a, b)
    if terms is None:
        return 0.0
    if getattr(ic, "_owner", None) is index:
        return index.ic_of_slot(terms[0])
    return ic.ic(index.concept_id(terms[0]))


class LinSimilarity:
    """Lin similarity ``2*IC(lcs) / (IC(a)+IC(b))`` — already in [0, 1]."""

    def __init__(
        self,
        network: SemanticNetwork,
        ic: "AnyIC | None" = None,
        index: "PackedIndex | None" = None,
    ):
        if ic is None:
            ic = index.ic if index is not None else InformationContent(network)
        self._ic = ic
        self._index = index

    def __call__(self, a: str, b: str) -> float:
        index = self._index
        if index is None:
            return self._ic.lin(a, b)
        # Same arithmetic as InformationContent.lin, with the LCS served
        # from the interned pair kernel.
        if a == b:
            return 1.0
        ic = self._ic
        denominator = ic.ic(a) + ic.ic(b)
        if denominator <= 0:
            return 0.0
        resnik = _lcs_ic(index, ic, a, b)
        return max(0.0, min(1.0, 2.0 * resnik / denominator))


class ResnikSimilarity:
    """Resnik similarity ``IC(lcs)``, normalized by the network's max IC."""

    def __init__(
        self,
        network: SemanticNetwork,
        ic: "AnyIC | None" = None,
        index: "PackedIndex | None" = None,
    ):
        if ic is None:
            ic = index.ic if index is not None else InformationContent(network)
        self._ic = ic
        self._index = index

    def __call__(self, a: str, b: str) -> float:
        if a == b:
            return min(1.0, self._ic.ic(a) / self._ic.max_ic)
        index = self._index
        if index is not None:
            raw = _lcs_ic(index, self._ic, a, b)
        else:
            raw = self._ic.resnik(a, b)
        return min(1.0, raw / self._ic.max_ic)


class JiangConrathSimilarity:
    """Jiang-Conrath distance converted to a [0, 1] similarity.

    ``sim = 1 - dist / (2 * max_ic)`` — the distance is bounded by
    ``2 * max_ic`` so the result stays in the unit interval.
    """

    def __init__(
        self,
        network: SemanticNetwork,
        ic: "AnyIC | None" = None,
        index: "PackedIndex | None" = None,
    ):
        if ic is None:
            ic = index.ic if index is not None else InformationContent(network)
        self._ic = ic
        self._index = index

    def __call__(self, a: str, b: str) -> float:
        if a == b:
            return 1.0
        index = self._index
        if index is not None:
            ic = self._ic
            resnik = _lcs_ic(index, ic, a, b)
            distance = max(0.0, ic.ic(a) + ic.ic(b) - 2.0 * resnik)
        else:
            distance = self._ic.jiang_conrath_distance(a, b)
        bound = 2.0 * self._ic.max_ic
        if bound <= 0:
            return 0.0
        return max(0.0, 1.0 - distance / bound)
