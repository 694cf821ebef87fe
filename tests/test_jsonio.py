"""The instance reader: shapes, the integer rule, the vertex limit, a fuzz."""

from __future__ import annotations

import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbow_lab.constructions import (
    HypergraphFamily,
    PartiteHypergraph,
    extremal_partite,
)
from rainbow_lab.hypergraph import Hypergraph, complete_hypergraph
from rainbow_lab.jsonio import MAX_VERTICES, canonical_json, load_instance, load_vertices


def test_family_round_trip():
    member = complete_hypergraph(3, 6)
    family = HypergraphFamily(6, (member, Hypergraph(3, 6, [(0, 1, 2)])))
    again = load_instance(json.loads(canonical_json(family.to_dict())))
    assert again == family
    assert canonical_json(again.to_dict()) == canonical_json(family.to_dict())


def test_normalize_repairs_family_members():
    data = {"n": 4, "members": [{"k": 3, "n": 4, "edges": [[2, 1, 0], [0, 1, 2]]}]}
    with pytest.raises(ValueError, match="strictly increasing"):
        load_instance(data)
    family = load_instance(data, normalize=True)
    assert family.members[0].edges == ((0, 1, 2),)


@pytest.mark.parametrize(
    "data",
    [
        {"k": 3, "n": MAX_VERTICES, "edges": []},
        {"q": MAX_VERTICES - 4, "p": 4, "edges": []},
        {"n": MAX_VERTICES, "members": []},
    ],
)
def test_vertex_limit_is_inclusive(data):
    load_instance(data)


@pytest.mark.parametrize(
    "data",
    [
        {"k": 3, "n": MAX_VERTICES + 1, "edges": []},
        {"k": 3, "n": -1, "edges": []},
        {"q": MAX_VERTICES - 3, "p": 4, "edges": []},
        {"n": MAX_VERTICES + 1, "members": []},
        {"n": 6, "members": [{"k": 3, "n": MAX_VERTICES + 1, "edges": []}]},
    ],
)
def test_vertex_limit_rejects(data):
    with pytest.raises(ValueError, match="vertex count"):
        load_instance(data)


@pytest.mark.parametrize("data", [[], None, 3, "x", {}, {"k": 3, "edges": []}])
def test_unknown_shape_names_all_three(data):
    with pytest.raises(ValueError) as err:
        load_instance(data)
    for shape in ("hypergraph", "partite", "family"):
        assert shape in str(err.value)


def test_kind_hypergraph_accepts_partite_as_its_4_graph():
    pg = extremal_partite(6)
    assert load_instance(pg.to_dict(), kind=Hypergraph) == pg


@pytest.mark.parametrize(
    "data, kind",
    [
        ({"n": 6, "members": []}, Hypergraph),
        ({"k": 3, "n": 6, "edges": []}, PartiteHypergraph),
        ({"q": 1, "p": 3, "edges": []}, HypergraphFamily),
    ],
)
def test_kind_rejects_other_shapes(data, kind):
    with pytest.raises(ValueError, match="expected a"):
        load_instance(data, kind=kind)


@pytest.mark.parametrize("data", [[0, True], [0, 1.0], [0, "1"], 3, {"0": 1}])
def test_vertex_list_rejects_non_integers(data):
    with pytest.raises(ValueError):
        load_vertices(data)


# -- fuzz -------------------------------------------------------------------

KEYS = ["k", "n", "q", "p", "edges", "members", "targets"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), children, max_size=4),
    max_leaves=25,
)


@st.composite
def plain_dicts(draw, k=None, n=None):
    k = draw(st.integers(2, 4)) if k is None else k
    n = draw(st.integers(0, 7)) if n is None else n
    pool = list(combinations(range(n), k))
    edges = draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
    return Hypergraph(k, n, edges).to_dict()


@st.composite
def partite_dicts(draw):
    q, p = draw(st.integers(0, 2)), draw(st.integers(0, 6))
    pool = [(u,) + t for u in range(q) for t in combinations(range(q, q + p), 3)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
    return PartiteHypergraph(q, p, edges).to_dict()


@st.composite
def family_dicts(draw):
    n = draw(st.integers(3, 7))
    members = draw(st.lists(plain_dicts(k=3, n=n), max_size=3))
    return {"n": n, "members": members}


valid_dicts = st.one_of(plain_dicts(), partite_dicts(), family_dicts())


def _paths(obj, path=()):
    """Every (path, value) below obj, dict keys and list indices alike."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def mutated_dicts(draw):
    """A valid instance dict with one change that makes it malformed."""
    data = draw(valid_dicts)
    paths = list(_paths(data))
    dicts = [()] + [p for p, v in paths if isinstance(v, dict)]
    ints = [p for p, v in paths if type(v) is int]
    how = draw(st.sampled_from(["retype", "drop", "add"]))
    if how == "retype":
        path = draw(st.sampled_from(ints))
        bad = draw(st.floats() | st.booleans() | st.text(max_size=2) | st.none())
        _at(data, path[:-1])[path[-1]] = bad
    else:
        target = _at(data, draw(st.sampled_from(dicts)))
        if how == "drop":
            del target[draw(st.sampled_from(sorted(target)))]
        else:
            key = draw((st.sampled_from(KEYS) | st.text(max_size=2)).filter(
                lambda key: key not in target
            ))
            target[key] = draw(json_values)
    return data


@settings(max_examples=500, deadline=None)
@given(data=json_values, normalize=st.booleans())
def test_fuzz_any_json_value_is_an_instance_or_value_error(data, normalize):
    try:
        instance = load_instance(data, normalize=normalize)
    except ValueError:
        return
    assert isinstance(instance, (Hypergraph, PartiteHypergraph, HypergraphFamily))


@settings(max_examples=500, deadline=None)
@given(data=valid_dicts, normalize=st.booleans())
def test_fuzz_valid_dicts_round_trip(data, normalize):
    assert load_instance(data, normalize=normalize).to_dict() == data


@settings(max_examples=500, deadline=None)
@given(data=mutated_dicts(), normalize=st.booleans())
def test_fuzz_one_mutation_is_a_value_error(data, normalize):
    with pytest.raises(ValueError):
        load_instance(data, normalize=normalize)
