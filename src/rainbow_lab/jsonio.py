"""Shared JSON conversions for instances, witnesses and rationals.

Rationals serialize as "num/den" strings with a positive denominator.

:func:`load_instance` is the only reader of instance JSON.  It picks the
shape by the exact key set of the object:

- ``{"k", "n", "edges"}``: a k-uniform hypergraph on ``n`` vertices;
- ``{"q", "p", "edges"}``: a (1,3)-partite 4-graph with classes of
  sizes ``q`` and ``p``;
- ``{"n", "members"}``: a family of 3-graphs, each member itself a
  ``{"k", "n", "edges"}`` object on the family's ``n`` vertices.

Every count and vertex id must be a JSON integer: floats (``6.0``),
booleans and strings are rejected, never coerced.  The vertex count
(``n``, or ``q + p``) must lie in ``[0, MAX_VERTICES]``, so a huge ``n``
is refused at once instead of exhausting memory.  ``edges`` is a list of
lists of vertex ids, each strictly increasing, so canonical files
round-trip bit-exactly; ``normalize`` instead sorts every edge and drops
repeated edges.  Range, edge size, repeated vertices and duplicate edges
are checked by the constructors.  Every schema failure is a
``ValueError`` whose message says what is wrong.
"""

from __future__ import annotations

import hashlib
import json
import reprlib
from fractions import Fraction
from typing import Optional, Union

from .constructions import HypergraphFamily, PartiteHypergraph
from .hypergraph import Hypergraph, canonical_edge
from .solvers import Matching, RainbowMatching

MAX_VERTICES = 1024
# A generator counts its edges in closed form and refuses more than
# this before enumerating any: a million 4-tuples take ~100 MB.
MAX_EDGES = 10**6

Instance = Union[Hypergraph, HypergraphFamily]

_HYPERGRAPH_KEYS = {"k", "n", "edges"}


def fraction_to_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_of(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def matching_obj(matching: Optional[Matching]) -> Optional[list[list[int]]]:
    return None if matching is None else matching.to_list()


def rainbow_obj(rm: Optional[RainbowMatching]) -> Optional[list[dict]]:
    return None if rm is None else rm.to_list()


def _int(value, name: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {reprlib.repr(value)}")
    return value


def vertex_count(count: int) -> int:
    """``count`` itself, when it lies in ``[0, MAX_VERTICES]``."""
    if not 0 <= count <= MAX_VERTICES:
        raise ValueError(f"vertex count {count} is outside [0, {MAX_VERTICES}]")
    return count


def bound_edges(count: int, what: str) -> None:
    """Refuse a build of more than ``MAX_EDGES`` edges; ``what`` names
    the build in the message."""
    if count > MAX_EDGES:
        raise ValueError(f"{what} would enumerate {count} edges, above the bound {MAX_EDGES}")


def load_vertices(data, name: str = "vertex set") -> list[int]:
    """A JSON list of vertex ids, each a JSON integer."""
    if not isinstance(data, list):
        raise ValueError(f"{name} must be a list of vertex ids, got {reprlib.repr(data)}")
    return [_int(v, "vertex id") for v in data]


def _edges(data, normalize: bool) -> list[tuple[int, ...]]:
    if not isinstance(data, list):
        raise ValueError(f"edges must be a list of edges, got {reprlib.repr(data)}")
    edges = [tuple(load_vertices(e, "edge")) for e in data]
    if normalize:
        return sorted({canonical_edge(e) for e in edges})
    for e in edges:
        if any(a >= b for a, b in zip(e, e[1:])):
            raise ValueError(
                f"edge {reprlib.repr(list(e))} is not strictly increasing; "
                "pass normalize to repair"
            )
    return edges


def _hypergraph(data: dict, normalize: bool) -> Hypergraph:
    n = vertex_count(_int(data["n"], "n"))
    return Hypergraph(_int(data["k"], "k"), n, _edges(data["edges"], normalize))


def _read(data, normalize: bool) -> Instance:
    keys = set(data) if isinstance(data, dict) else None
    if keys == _HYPERGRAPH_KEYS:
        return _hypergraph(data, normalize)
    if keys == {"q", "p", "edges"}:
        q, p = _int(data["q"], "q"), _int(data["p"], "p")
        vertex_count(q + p)
        return PartiteHypergraph(q, p, _edges(data["edges"], normalize))
    if keys == {"n", "members"}:
        n = vertex_count(_int(data["n"], "n"))
        members = data["members"]
        if not isinstance(members, list) or not all(
            isinstance(m, dict) and set(m) == _HYPERGRAPH_KEYS for m in members
        ):
            raise ValueError('members must be a list of {"k", "n", "edges"} objects')
        return HypergraphFamily(n, tuple(_hypergraph(m, normalize) for m in members))
    raise ValueError(
        'instance JSON must be an object with exactly the keys {"k", "n", "edges"} '
        '(hypergraph), {"q", "p", "edges"} (partite) or {"n", "members"} (family)'
    )


def load_instance(data, normalize: bool = False, kind: Optional[type] = None) -> Instance:
    """Build the instance a decoded JSON value describes.

    ``kind`` is the type the caller accepts; ``Hypergraph`` also accepts
    a partite instance, returned as itself, since every partite graph is
    a 4-graph.  Any other shape raises ``ValueError``.
    """
    instance = _read(data, normalize)
    if kind is not None and not isinstance(instance, kind):
        raise ValueError(
            f"expected a {kind.__name__} instance, got a {type(instance).__name__}"
        )
    return instance
