"""The in-package schema validator against ``jsonschema``, the oracle.

``config.schema_error`` must accept exactly the instances that
``jsonschema``'s Draft 2020-12 validator accepts, and where both refuse,
state the error ``jsonschema.exceptions.best_match`` picks: the same message
and the same JSON path.  The instances are drawn from each schema the
program validates against (the config, every check's params block and the
report) and then mutated: wrong types, missing and extra keys, out-of-range
integers, integral floats, booleans and nesting.

``instances(schema)`` draws valid instances of any schema in the subset the
program uses, and ``mutated(schema)`` breaks them; both are meant for reuse.
"""

import copy
import math

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema.exceptions import best_match

from dynsamp_lab import checks, config, report

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6)

# values that sit at the edges of the schemas' integer and number rules
EDGES = st.sampled_from([
    0, -1, 1, 2, 2**53, 2**53 + 1, 10**400, 0.0, 1.0, 2.0, -1.0, 0.5, 2.5,
    math.nan, math.inf, -math.inf, True, False, None, "", "1", [], {}, [[]],
    [1], [1, 1], [1, 1.0], [1, True], [[1], [True], [1]], [0.5, 0.5],
    {"kind": "diagonal"},
])


def instances(schema: dict, root: dict | None = None, depth: int = 0):
    """A strategy for values that match ``schema`` (small, and nested at
    most two ``$ref`` levels deep)."""
    root = schema if root is None else root
    if "$ref" in schema:
        name = schema["$ref"].removeprefix("#/$defs/")
        return instances(root["$defs"][name], root, depth + 1)
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema.get("type")
    if isinstance(kind, list):
        return st.one_of(*(instances({**schema, "type": k}, root, depth)
                           for k in kind))
    if kind == "object":
        props = schema.get("properties", {})
        required = schema.get("required", [])
        extra = schema.get("additionalProperties", True)
        if not props:
            if extra is False:
                return st.just({})
            values = JSON if extra is True else instances(extra, root, depth)
            return st.dictionaries(st.text(max_size=4), values, max_size=3)
        return st.fixed_dictionaries(
            {k: instances(props[k], root, depth) for k in required},
            optional={k: instances(s, root, depth)
                      for k, s in props.items() if k not in required})
    if kind == "array":
        items = schema.get("items")
        if items is not None and "$ref" in items and depth >= 2:
            return st.just([])
        elements = JSON if items is None else instances(items, root, depth)
        return st.lists(elements, min_size=schema.get("minItems", 0),
                        max_size=3, unique=schema.get("uniqueItems", False))
    if kind == "integer":
        low = schema.get("minimum", -3)
        ints = st.integers(low, min(schema.get("maximum", low + 20), low + 20))
        return ints | ints.map(float)  # an integral float is an integer
    if kind == "number":
        return st.integers(-3, 3) | st.floats()
    if kind == "string":
        return st.text(max_size=4)
    if kind == "boolean":
        return st.booleans()
    if kind == "null":
        return st.none()
    if kind is None:
        return JSON
    raise AssertionError(f"no instances for schema type {kind!r}")


def _locations(value, parent=None, key=None):
    """(container, key) of every value inside ``value``, the root as
    (None, None)."""
    yield parent, key
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _locations(v, value, k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _locations(v, value, i)


def _keys(schema) -> set:
    """Every property name ``schema`` mentions, at any depth."""
    if isinstance(schema, dict):
        out = set(schema.get("properties", {}))
        for sub in schema.values():
            out |= _keys(sub)
        return out
    if isinstance(schema, list):
        return set().union(*map(_keys, schema))
    return set()


@st.composite
def _mutated(draw, valid, names):
    value = copy.deepcopy(draw(valid))
    for _ in range(draw(st.integers(0, 3))):
        parent, key = draw(st.sampled_from(list(_locations(value))))
        target = value if parent is None else parent[key]
        action = draw(st.sampled_from(["replace", "edge", "wrap", "delete",
                                       "add"]))
        if action == "delete" and parent is not None:
            del parent[key]
            continue
        # drawn values are copied: later mutations must not reach EDGES
        if action == "add" and isinstance(target, dict):
            target[draw(names)] = copy.deepcopy(draw(JSON | EDGES))
            continue
        new = {"replace": JSON, "edge": EDGES}.get(action)
        new = [target] if new is None else copy.deepcopy(draw(new))
        if parent is None:
            value = new
        else:
            parent[key] = new
    return value


def mutated(schema: dict):
    """A strategy for valid instances of ``schema`` with up to three
    mutations."""
    names = st.sampled_from(sorted(_keys(schema))) | st.text(max_size=4)
    return _mutated(instances(schema), names)


def _unique_schemas():
    out = {"config": config.CONFIG_SCHEMA, "report": report.REPORT_SCHEMA}
    for name, (_, schema) in checks.REGISTRY.items():
        if not any(schema is s for s in out.values()):
            out[f"params[{name}]"] = schema
    return out


SCHEMAS = _unique_schemas()
ORACLES = {name: jsonschema.Draft202012Validator(schema)
           for name, schema in SCHEMAS.items()}
VALID = {name: instances(schema) for name, schema in SCHEMAS.items()}
MUTATED = {name: mutated(schema) for name, schema in SCHEMAS.items()}


def assert_parity(name: str, instance) -> None:
    want = best_match(ORACLES[name].iter_errors(instance))
    got = config.schema_error(instance, SCHEMAS[name])
    if want is None:
        assert got is None, (instance, got.message)
    else:
        assert got is not None, (instance, want.message)
        assert (got.message, got.json_path) == (want.message, want.json_path)


@pytest.mark.parametrize("name", list(SCHEMAS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_valid_instances_are_accepted(name, data):
    instance = data.draw(VALID[name])
    assert config.schema_error(instance, SCHEMAS[name]) is None
    assert_parity(name, instance)


@pytest.mark.parametrize("name", list(SCHEMAS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_instances_get_the_error_jsonschema_picks(name, data):
    assert_parity(name, data.draw(MUTATED[name]))


@pytest.mark.parametrize("instance,message,path", [
    ([1, True], "True is not of type 'integer'", "$.subspace_coords[1]"),
    # a repeated coordinate matches the schema; checks refuses it
    ([1, 1.0], None, None),
    # of several items of the wrong type, the last is named
    ([[1], [True], [1]], "[1] is not of type 'integer'",
     "$.subspace_coords[2]"),
    ([2.0, 0], None, None),
    ([0.5], "0.5 is not of type 'integer'", "$.subspace_coords[0]"),
    ([], "[] should be non-empty", "$.subspace_coords"),
])
def test_unique_items_and_integral_floats(instance, message, path):
    name = "params[perturbation:riesz_orbit_perturbation]"
    assert_parity(name, {"subspace_coords": instance})
    got = config.schema_error({"subspace_coords": instance}, SCHEMAS[name])
    if message is None:
        assert got is None
    else:
        assert (got.message, got.json_path) == (message, path)


def test_an_unsupported_keyword_is_refused_not_ignored():
    with pytest.raises(ValueError, match="'pattern' is not supported"):
        config.schema_error("x", {"type": "string", "pattern": "y"})
    with pytest.raises(ValueError, match="'uniqueItems' is not supported"):
        config.schema_error([1], {"type": "array", "uniqueItems": True})
    # only ``false`` is supported: a schema for the extra keys is refused
    with pytest.raises(ValueError,
                       match="'additionalProperties' is not supported"):
        config.schema_error({"a": 1}, {"type": "object",
                                       "additionalProperties":
                                       {"type": "number"}})
