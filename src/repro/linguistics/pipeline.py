"""The linguistic pre-processing pipeline (paper Section 3.2).

Combines tokenization, stop-word removal, and stemming into the label /
value processors consumed by :func:`repro.xmltree.dom.build_tree`:

* **Individual tag names** — kept as-is; stemmed only when the word is
  not found in the reference semantic network.
* **Compound tag names** (``Directed_By``, ``FirstName``) — if the two
  terms match a *single* concept in the semantic network (e.g. the
  WordNet synset ``first name``) they become one token; otherwise each
  term is processed separately (stop words dropped, unknown words
  stemmed) but the terms stay together inside a single node label so one
  sense is eventually assigned to the whole label.
* **Text values** — tokenized, stop words removed, unknown words stemmed,
  each surviving token becoming its own leaf node.

The pipeline takes a membership predicate rather than a full network, so
it has no dependency on :mod:`repro.semnet` and is independently testable.
"""

from __future__ import annotations

from typing import Callable

from ..bounded import DEFAULT_TABLE_SIZE, BoundedTable
from .stemmer import PorterStemmer
from .stopwords import remove_stop_words
from .tokenizer import split_tag_name, split_text_value

#: Predicate answering "does the semantic network know this word/expression?"
LexiconLookup = Callable[[str], bool]


def _always_unknown(_word: str) -> bool:
    return False


class LinguisticPipeline:
    """Configurable pre-processing pipeline.

    Parameters
    ----------
    known:
        Membership predicate over the reference semantic network (e.g.
        ``network.has_word``).  Words the network knows are *not* stemmed;
        unknown words are stemmed and retried.
    stem_unknown:
        Disable to skip stemming entirely (useful in ablations).
    memo_size:
        Bound for each of the two memo tables (:meth:`normalize_word`
        by raw word, :meth:`process_label` by raw name; ``None`` for
        unbounded).  Both functions are pure given ``known`` and
        ``stem_unknown``, and labels repeat heavily across a corpus, so
        repeats cost one dict lookup instead of a tokenize/stem pass.
    """

    def __init__(
        self,
        known: LexiconLookup | None = None,
        stem_unknown: bool = True,
        memo_size: int | None = DEFAULT_TABLE_SIZE,
    ):
        self._known = known or _always_unknown
        self._stem_unknown = stem_unknown
        self._stemmer = PorterStemmer()
        self._words = BoundedTable(memo_size)
        self._labels = BoundedTable(memo_size)

    def memo_tables(self) -> dict[str, BoundedTable]:
        """The word and label memo tables, by metrics name."""
        return {"pipeline_words": self._words, "pipeline_labels": self._labels}

    # -- shared helpers ---------------------------------------------------

    def normalize_word(self, word: str) -> str:
        """Return the lexicon form of ``word``: itself if known, else its stem."""
        memo = self._words
        form = memo.data.get(word)
        if form is not None:
            memo.hits += 1
            return form
        memo.misses += 1
        form = self._normalize(word)
        memo.put(word, form)
        return form

    def _normalize(self, word: str) -> str:
        word = word.lower()
        if self._known(word):
            return word
        if not self._stem_unknown:
            return word
        stemmed = self._stemmer.stem(word)
        # Prefer the stem only when it improves lexicon coverage.
        if self._known(stemmed):
            return stemmed
        return word

    # -- label processing ---------------------------------------------------

    def process_label(self, raw: str) -> list[str]:
        """Process a tag/attribute name into its node-label tokens.

        Returns a single-element list for simple labels and for compounds
        that match one concept; a multi-element list for true compounds
        (the DOM keeps them inside one node label, see the paper's
        special-case handling in Sections 3.3 and 3.5).
        """
        memo = self._labels
        tokens = memo.data.get(raw)
        if tokens is not None:
            memo.hits += 1
            return list(tokens)
        memo.misses += 1
        tokens = tuple(self._process_label(raw))
        memo.put(raw, tokens)
        return list(tokens)

    def _process_label(self, raw: str) -> list[str]:
        parts = split_tag_name(raw)
        if not parts:
            return []
        if len(parts) == 1:
            return [self.normalize_word(parts[0])]
        # Compound: does the full expression match a single concept?
        joined = " ".join(parts)
        if self._known(joined):
            return [joined]
        kept = remove_stop_words(parts) or parts
        return [self.normalize_word(word) for word in kept]

    def process_value(self, raw: str) -> list[str]:
        """Process element/attribute text content into value tokens."""
        tokens = remove_stop_words(split_text_value(raw))
        return [self.normalize_word(token) for token in tokens]

    # -- adapters for build_tree ------------------------------------------------

    def label_processor(self) -> Callable[[str], list[str]]:
        """The label-tokenizing callable ``build_tree`` expects."""
        return self.process_label

    def value_processor(self) -> Callable[[str], list[str]]:
        """The value-tokenizing callable ``build_tree`` expects."""
        return self.process_value


def default_pipeline(network=None) -> LinguisticPipeline:
    """Build a pipeline bound to ``network`` (anything with ``has_word``)."""
    known = network.has_word if network is not None else None
    return LinguisticPipeline(known=known)
