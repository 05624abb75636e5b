"""The ``schema`` lane: keywords that name schema elements bind fields.

Users of structured search mix *value* keywords with *schema* keywords —
"author jensen" means "jensen **as an author name**", not a paper about
authors (the schema-reference phenomenon studied by Martins et al.,
PAPERS.md).  The plain HMM treats "author" as just another term and
happily substitutes both words.  This lane instead:

1. detects schema-referencing keywords against a declared **field
   vocabulary** (``keyword → (table, column)``, emitted by the corpus
   generator or derived from any schema via
   :func:`derive_field_vocabulary`);
2. removes them from the decoded query — a schema token is an
   instruction, not content — letting each one bind the **next**
   value keyword to its field;
3. constrains the bound positions' candidate lists before decoding:
   SIMILAR candidates whose term node lives in a different field are
   filtered out (the TAT graph's ``node_class`` for a term node *is*
   its ``(table, column)``), so "author jensen" can only substitute
   "jensen" with other author names.

The constrained HMM then runs through the pipeline's normal decoder and
post-processing, so scoring semantics match the hmm lane exactly — the
lane only narrows the hypothesis space.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.candidates import CandidateState, StateKind
from repro.core.hmm import ReformulationHMM
from repro.core.reformulator import Reformulator
from repro.errors import ReformulationError
from repro.index.inverted import FieldRef
from repro.lanes.base import Lane, LaneResult
from repro.lanes.hmm import HmmLane
from repro.storage.database import Database


class SchemaLane(Lane):
    """Field-constrained reformulation driven by schema keywords."""

    name = "schema"

    def __init__(
        self,
        pipeline: Reformulator,
        field_vocabulary: Dict[str, FieldRef],
    ) -> None:
        self.pipeline = pipeline
        self.field_vocabulary = {
            keyword.lower(): tuple(field)
            for keyword, field in field_vocabulary.items()
        }
        self._hmm = HmmLane(pipeline)

    # ------------------------------------------------------------------ #
    # lane entry point
    # ------------------------------------------------------------------ #

    def reformulate(
        self,
        query: Sequence[str],
        k: int = 10,
        budget: Optional[float] = None,
        algorithm: str = "astar",
    ) -> LaneResult:
        """Field-constrained top-k after consuming schema keywords."""
        del budget  # single decode, like the hmm lane
        keywords = list(query)
        reduced, bindings, schema_tokens = self.detect_bindings(keywords)
        if not reduced:
            raise ReformulationError(
                f"query {keywords!r} contains only schema keywords; "
                "nothing to reformulate"
            )
        if not bindings:
            # No schema references: behave exactly like the hmm lane.
            base = self._hmm.reformulate(reduced, k=k, algorithm=algorithm)
            return LaneResult(
                lane=self.name,
                suggestions=base.suggestions,
                provenance=tuple(
                    {"lane": self.name, "relaxed": False, "bindings": {}}
                    for _ in base.suggestions
                ),
                relaxed=False,
                cohesion=base.cohesion,
                metadata={"bindings": {}, "schema_tokens": []},
            )
        suggestions = self._constrained_decode(reduced, bindings, k, algorithm)
        binding_map = {
            reduced[pos]: list(field) for pos, field in bindings.items()
        }
        return LaneResult(
            lane=self.name,
            suggestions=tuple(suggestions),
            provenance=tuple(
                {"lane": self.name, "relaxed": False, "bindings": binding_map}
                for _ in suggestions
            ),
            relaxed=False,
            cohesion=None,  # constrained space: hmm-lane cohesion not comparable
            metadata={
                "bindings": binding_map,
                "schema_tokens": schema_tokens,
                "decoded_query": list(reduced),
            },
        )

    # ------------------------------------------------------------------ #
    # schema-token detection
    # ------------------------------------------------------------------ #

    def detect_bindings(
        self, keywords: Sequence[str]
    ) -> Tuple[List[str], Dict[int, FieldRef], List[str]]:
        """Split *keywords* into the decoded query and field bindings.

        A keyword found in the field vocabulary is consumed as a schema
        token and binds the **next** value keyword to its field (a
        trailing schema token binds nothing).  Returns ``(reduced
        query, {reduced position: field}, consumed schema tokens)``.
        """
        reduced: List[str] = []
        bindings: Dict[int, FieldRef] = {}
        schema_tokens: List[str] = []
        pending: Optional[FieldRef] = None
        for keyword in keywords:
            field = self.field_vocabulary.get(keyword.lower())
            if field is not None:
                schema_tokens.append(keyword)
                pending = field
                continue
            if pending is not None:
                bindings[len(reduced)] = pending
                pending = None
            reduced.append(keyword)
        return reduced, bindings, schema_tokens

    # ------------------------------------------------------------------ #
    # field-constrained decode
    # ------------------------------------------------------------------ #

    def _constrained_decode(
        self,
        reduced: List[str],
        bindings: Dict[int, FieldRef],
        k: int,
        algorithm: str,
    ):
        pipeline = self.pipeline
        states = pipeline.candidates.build(reduced)
        constrained = [
            self._constrain(states[pos], bindings.get(pos))
            for pos in range(len(states))
        ]
        hmm = ReformulationHMM.build(
            query=reduced,
            states=constrained,
            closeness=pipeline.closeness,
            frequency=pipeline.frequency,
            smoothing_lambda=pipeline.config.smoothing_lambda,
        )
        return pipeline._decode(reduced, hmm, k, algorithm)[0]

    def _constrain(
        self, states: List[CandidateState], field: Optional[FieldRef]
    ) -> List[CandidateState]:
        """Filter SIMILAR candidates of a bound position to *field*.

        ORIGINAL and VOID states always survive — the user's own word is
        never wrong, and deletion stays available — so a binding with no
        in-field similar terms degrades to "keep the word as typed"
        rather than failing the decode.
        """
        if field is None:
            return states
        kept = []
        for state in states:
            if state.kind is not StateKind.SIMILAR or state.node_id is None:
                kept.append(state)  # ORIGINAL / VOID always survive
                continue
            node = self.pipeline.graph.node(state.node_id)
            if node.node_class == field:
                kept.append(state)
        return kept


def derive_field_vocabulary(database: Database) -> Dict[str, FieldRef]:
    """A field vocabulary from any schema's own names.

    Each text field ``(table, column)`` is reachable by its table name,
    the singular of the table name (trailing ``s`` stripped), and — when
    unambiguous — the column name.  Keys claimed by more than one field
    are dropped entirely: a vocabulary must never guess.
    """
    claims: Dict[str, List[FieldRef]] = {}

    def claim(keyword: str, field: FieldRef) -> None:
        keyword = keyword.lower()
        if keyword:
            claims.setdefault(keyword, []).append(field)

    for table_name, table in database.schema.tables.items():
        text_fields = list(table.text_fields)
        if not text_fields:
            continue
        # The table name points at its first declared text field.
        primary: FieldRef = (table_name, text_fields[0])
        claim(table_name, primary)
        if table_name.endswith("s") and len(table_name) > 1:
            claim(table_name[:-1], primary)
        for column in text_fields:
            claim(column, (table_name, column))

    return {
        keyword: fields[0]
        for keyword, fields in claims.items()
        if len({tuple(f) for f in fields}) == 1
    }
