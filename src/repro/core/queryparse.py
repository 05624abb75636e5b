"""Raw query-string parsing (segmentation against the corpus vocabulary).

The paper's test queries mix word terms with multi-word atomic terms:
"spatio temporal Christian S. Jensen" is *two* topical words plus *one*
author name.  Splitting on whitespace would shred the name, so the parser
segments a raw string greedily against what actually exists in the
corpus:

1. normalize the raw string into tokens (keeping the atomic fields'
   vocabulary matchable as token n-grams);
2. at each position prefer the **longest** token n-gram that is a known
   term (atomic names first — they are the reason segmentation exists —
   then single words);
3. unknown tokens pass through as single keywords (the candidate builder
   handles out-of-vocabulary terms gracefully).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ReproError
from repro.graph.tat import TATGraph
from repro.index.analyzer import Analyzer


@dataclass(frozen=True)
class ParsedQuery:
    """Segmentation result: the keywords plus which were multi-token."""

    keywords: Tuple[str, ...]
    multiword: Tuple[str, ...]  # the matched multi-token terms

    def __len__(self) -> int:
        return len(self.keywords)


class QueryParser:
    """Greedy longest-match segmentation against the index vocabulary.

    Parameters
    ----------
    graph:
        The TAT graph whose vocabulary defines the known terms.
    max_term_tokens:
        Longest n-gram considered (atomic names in DBLP are 2-4 tokens).
    """

    def __init__(self, graph: TATGraph, max_term_tokens: int = 5) -> None:
        if max_term_tokens < 1:
            raise ReproError("max_term_tokens must be >= 1")
        self.graph = graph
        self.max_term_tokens = max_term_tokens
        # Multi-token vocabulary, tokenized with a permissive analyzer so
        # "christian s. jensen" matches the tokens of the raw input.
        self._splitter = Analyzer(stopwords=frozenset(), min_token_len=1)
        self._multi: Dict[Tuple[str, ...], str] = {}
        for term in graph.index.terms():
            if " " not in term.text:
                continue
            tokens = tuple(self._splitter.tokenize(term.text))
            if 1 < len(tokens) <= max_term_tokens:
                # first registration wins; ties across fields are rare
                self._multi.setdefault(tokens, term.text)

    @property
    def multiword_vocabulary_size(self) -> int:
        """Number of known multi-token terms."""
        return len(self._multi)

    def parse(self, raw: str) -> ParsedQuery:
        """Segment one raw query string."""
        tokens = self._splitter.tokenize(raw)
        keywords: List[str] = []
        multiword: List[str] = []
        i = 0
        single_analyzer = self.graph.index.analyzer
        while i < len(tokens):
            match = self._longest_match(tokens, i)
            if match is not None:
                length, text = match
                keywords.append(text)
                multiword.append(text)
                i += length
                continue
            token = tokens[i]
            # apply the corpus analyzer's policy to single words
            analyzed = single_analyzer.tokenize(token)
            if analyzed:
                keywords.append(analyzed[0])
            i += 1
        # Definition 2: keywords are distinct.
        deduped: List[str] = []
        for kw in keywords:
            if kw not in deduped:
                deduped.append(kw)
        return ParsedQuery(tuple(deduped), tuple(multiword))

    def _longest_match(
        self, tokens: Sequence[str], start: int
    ) -> Optional[Tuple[int, str]]:
        limit = min(self.max_term_tokens, len(tokens) - start)
        for length in range(limit, 1, -1):
            candidate = tuple(tokens[start:start + length])
            text = self._multi.get(candidate)
            if text is not None:
                return length, text
        return None
