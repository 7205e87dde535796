"""Dictionary encoding of RDF terms to dense integer identifiers.

Both stores map terms to integers internally: the relational triple table
stores integer columns (far cheaper to join than long IRI strings), and the
graph store uses integer vertex identifiers for its adjacency lists.  The
:class:`TermDictionary` provides a shared, append-only bidirectional mapping.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import SnapshotIntegrityError, StorageError
from repro.rdf.terms import BlankNode, IRI, Literal, TermLike, Triple

__all__ = [
    "TermDictionary",
    "EncodedTriple",
    "term_to_payload",
    "term_from_payload",
    "triple_to_payload",
    "triple_from_payload",
]


def term_to_payload(term: TermLike) -> list:
    """A JSON-serializable encoding of one concrete RDF term.

    Used by the durable-snapshot subsystem (:mod:`repro.persist`): the term
    dictionary is persisted as one payload per identifier, in identifier
    order, so a restore reassigns exactly the same dense ids.  Variables are
    never stored (they cannot occur in data).
    """
    if isinstance(term, IRI):
        return ["i", term.value]
    if isinstance(term, Literal):
        return ["l", term.lexical, term.datatype, term.language]
    if isinstance(term, BlankNode):
        return ["b", term.label]
    raise StorageError(f"term {term!r} cannot be persisted (kind {term.kind!r})")


def term_from_payload(payload: list) -> TermLike:
    """Inverse of :func:`term_to_payload`; raises on malformed payloads."""
    try:
        kind = payload[0]
        if kind == "i":
            return IRI(payload[1])
        if kind == "l":
            return Literal(payload[1], payload[2], payload[3])
        if kind == "b":
            return BlankNode(payload[1])
    except SnapshotIntegrityError:
        raise
    except Exception as exc:
        raise SnapshotIntegrityError(f"malformed term payload {payload!r}: {exc}") from exc
    raise SnapshotIntegrityError(f"unknown term payload kind {payload!r}")

#: A triple encoded as (subject_id, predicate_id, object_id).
EncodedTriple = Tuple[int, int, int]


def triple_to_payload(triple: Triple) -> list:
    """JSON-serializable encoding of one concrete triple (term payloads):
    the op encoding of the write-ahead log (:mod:`repro.persist.wal`)."""
    return [
        term_to_payload(triple.subject),
        term_to_payload(triple.predicate),
        term_to_payload(triple.object),
    ]


def triple_from_payload(payload: list) -> Triple:
    """Inverse of :func:`triple_to_payload`."""
    subject, predicate, obj = (term_from_payload(item) for item in payload)
    return Triple(subject, predicate, obj)  # type: ignore[arg-type]


class TermDictionary:
    """Bidirectional mapping between RDF terms and integer identifiers.

    Identifiers are assigned densely starting at 0 in first-seen order, so
    encoding the same data twice yields identical identifiers — important for
    deterministic tests and benchmarks.
    """

    def __init__(self) -> None:
        self._term_to_id: Dict[TermLike, int] = {}
        self._id_to_term: List[TermLike] = []
        self._fragments: List[Optional[str]] = []
        self._fragments_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._id_to_term)

    def __contains__(self, term: TermLike) -> bool:
        return term in self._term_to_id

    def encode(self, term: TermLike) -> int:
        """Return the identifier for ``term``, assigning a new one if needed."""
        existing = self._term_to_id.get(term)
        if existing is not None:
            return existing
        new_id = len(self._id_to_term)
        self._term_to_id[term] = new_id
        self._id_to_term.append(term)
        return new_id

    def encode_existing(self, term: TermLike) -> int:
        """Return the identifier for ``term`` or raise if it was never seen."""
        try:
            return self._term_to_id[term]
        except KeyError:
            raise StorageError(f"term {term!r} is not in the dictionary") from None

    def decode(self, term_id: int) -> TermLike:
        """Return the term for ``term_id``."""
        if not 0 <= term_id < len(self._id_to_term):
            raise StorageError(f"identifier {term_id} is outside the dictionary range")
        return self._id_to_term[term_id]

    def decode_many(self, term_ids: Iterable[int]) -> List[TermLike]:
        """Batch-decode identifiers in one pass.

        This is the late-materialization hook of the relational engine: the
        join pipeline runs entirely on integer identifiers and decodes, in
        batch, only the identifiers of rows a caller reads.  Bounds
        are checked exactly like :meth:`decode`.
        """
        table = self._id_to_term
        size = len(table)
        out: List[TermLike] = []
        append = out.append
        for term_id in term_ids:
            if not 0 <= term_id < size:
                raise StorageError(f"identifier {term_id} is outside the dictionary range")
            append(table[term_id])
        return out

    def fragments(self) -> List[Optional[str]]:
        """The id-indexed memo of serialized terms, grown to cover every id.

        A slot is ``None`` until a serializer (the endpoint's results
        encoder) fills it.  Identifiers are append-only and never re-bound,
        so a filled slot is valid for the life of the dictionary: the memo
        needs no generation and no invalidation, and it dies with the
        dictionary it indexes.  Concurrent serializers may fill one slot
        with equal strings; only growing the list takes the lock.
        """
        table = self._fragments
        if len(table) < len(self._id_to_term):
            with self._fragments_lock:
                table.extend([None] * (len(self._id_to_term) - len(table)))
        return table

    def lookup(self, term: TermLike) -> int | None:
        """Return the identifier for ``term`` or ``None`` when unknown."""
        return self._term_to_id.get(term)

    def lookup_many(self, terms: Iterable[TermLike]) -> List[int | None]:
        """Batch :meth:`lookup`; one entry per term, ``None`` when unknown.

        Used to resolve a plan step's constants once per bound plan instead
        of once per scanned row.
        """
        get = self._term_to_id.get
        return [get(term) for term in terms]

    def encode_triple(self, triple: Triple) -> EncodedTriple:
        return (
            self.encode(triple.subject),
            self.encode(triple.predicate),
            self.encode(triple.object),
        )

    def decode_triple(self, encoded: EncodedTriple) -> Triple:
        subject_id, predicate_id, object_id = encoded
        return Triple(
            self.decode(subject_id),
            self.decode(predicate_id),  # type: ignore[arg-type]
            self.decode(object_id),
        )

    def encode_triples(self, triples: Iterable[Triple]) -> Iterator[EncodedTriple]:
        for triple in triples:
            yield self.encode_triple(triple)

    def terms(self) -> Iterator[TermLike]:
        return iter(self._id_to_term)

    # ------------------------------------------------------------------ #
    # Durable snapshots (repro.persist)
    # ------------------------------------------------------------------ #
    def to_payload(self) -> List[list]:
        """Every term, encoded, in identifier order (id 0 first)."""
        return [term_to_payload(term) for term in self._id_to_term]

    @classmethod
    def from_payload(cls, payload: Iterable[list]) -> "TermDictionary":
        """Rebuild a dictionary assigning ids in payload order.

        Because ids are dense and first-seen ordered, restoring the payload
        written by :meth:`to_payload` reproduces the exact term↔id mapping of
        the snapshotted dictionary — the property every persisted integer row
        depends on.
        """
        dictionary = cls()
        for entry in payload:
            dictionary.encode(term_from_payload(entry))
        return dictionary

    def items(self) -> Iterator[Tuple[TermLike, int]]:
        return iter(self._term_to_id.items())
