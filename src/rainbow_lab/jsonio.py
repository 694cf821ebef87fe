"""Shared JSON conversions for instances, witnesses and rationals.

Rationals serialize as "num/den" strings with a positive denominator.
Instance readers reject unsorted or duplicate edges unless asked to
normalize, so canonical files round-trip bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Optional, Union

from .constructions import HypergraphFamily, PartiteHypergraph
from .hypergraph import Hypergraph
from .solvers import Matching, RainbowMatching


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


def load_instance(
    data: dict, normalize: bool = False
) -> Union[Hypergraph, PartiteHypergraph, HypergraphFamily]:
    """Dispatch on the JSON shape: family, partite, or plain hypergraph."""
    if "members" in data:
        return HypergraphFamily.from_dict(data, normalize=normalize)
    if "q" in data:
        return PartiteHypergraph.from_dict(data, normalize=normalize)
    return Hypergraph.from_dict(data, normalize=normalize)


def as_plain_hypergraph(
    instance: Union[Hypergraph, PartiteHypergraph]
) -> Hypergraph:
    if isinstance(instance, PartiteHypergraph):
        return instance.as_hypergraph()
    return instance
