"""The spec codec, fuzzed: every class round-trips, every broken document
is a ``ValueError`` that says where.

For each class that crosses the JSON boundary — ``ScenarioSpec`` and its
five parts, ``LinkTiming``, ``TimeModelSpec``, ``MatrixSpec`` and
``CellResult`` — ``decode(encode(x)) == x`` and ``encode`` survives a JSON
round trip byte for byte.  A document broken in one place (a wrong type,
an unknown key, a key one level too high, a list where an object belongs, a
negative rate) is refused with a ``ValueError`` naming a path, never a
``TypeError``, ``KeyError`` or ``AttributeError`` from deep inside.
Derandomized, so tier-1 runs the same examples every time.
"""

import json
import re

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.codec import decode, encode
from repro.simtime import LinkTiming, TimeModelSpec, link_key
from repro.workload import (
    ArrivalSpec,
    CellResult,
    ChurnSpec,
    FaultRegimeSpec,
    MatrixSpec,
    PopularitySpec,
    ScenarioSpec,
    SloSpec,
)
from repro.workload.spec import (
    ARRIVAL_KINDS,
    CHURN_KINDS,
    FAULT_REGIME_KINDS,
    POPULARITY_KINDS,
)

FUZZ = settings(max_examples=20, deadline=None, derandomize=True)

positive = st.floats(min_value=1e-6, max_value=1e6)
non_negative = st.floats(min_value=0.0, max_value=1e6)
fraction = st.floats(min_value=1e-6, max_value=1.0)
open_fraction = st.floats(min_value=1e-6, max_value=0.999999)
names = st.text(alphabet="abcxyz019:/-", min_size=1, max_size=8)


def tuples(elements, **kwargs):
    return st.lists(elements, max_size=2, **kwargs).map(tuple)


arrivals = st.builds(
    ArrivalSpec, kind=st.sampled_from(ARRIVAL_KINDS), rate=positive,
    think_time=non_negative, burst_size=st.integers(1, 500),
    burst_gap=non_negative,
)
popularities = st.builds(
    PopularitySpec, kind=st.sampled_from(POPULARITY_KINDS),
    zipf_exponent=positive, hotspot_fraction=fraction,
    hotspot_interval=positive,
)
churns = st.builds(
    ChurnSpec, kind=st.sampled_from(CHURN_KINDS), rate=positive,
    downtime=positive, storm_fraction=fraction,
)
fault_regimes = st.builds(
    FaultRegimeSpec, kind=st.sampled_from(FAULT_REGIME_KINDS),
    events=st.integers(1, 9), size=st.integers(1, 9), start=non_negative,
    period=positive, downtime=positive,
)
slos = st.builds(
    SloSpec, latency_objective=positive, latency_target=open_fraction,
    availability_target=open_fraction, window=positive,
)
link_timings = st.builds(
    LinkTiming, latency=positive, jitter=non_negative,
    capacity=st.integers(1, 8),
)
time_models = st.builds(
    TimeModelSpec,
    default_link=link_timings,
    link_overrides=tuples(
        st.tuples(st.builds(link_key, st.integers(0, 40), st.integers(0, 40)),
                  link_timings),
        unique_by=lambda pair: pair[0],
    ),
    node_service=non_negative,
    node_overrides=tuples(st.tuples(names, non_negative), unique_by=lambda pair: pair[0]),
    timeout=non_negative,
)


@st.composite
def scenarios(draw):
    ports = draw(st.integers(1, 8))
    return ScenarioSpec(
        name=draw(names), topology=draw(names), strategy=draw(names),
        operations=draw(st.integers(1, 10**6)), clients=draw(st.integers(1, 64)),
        servers=draw(st.integers(ports, 16)), ports=ports,
        delivery_mode=draw(names), seed=draw(st.integers(0, 2**63 - 1)),
        max_retries=draw(st.integers(0, 5)), cache_addresses=draw(st.booleans()),
        arrival=draw(arrivals), popularity=draw(popularities),
        churn=draw(churns), faults=draw(fault_regimes),
        time_model=draw(st.none() | time_models), slo=draw(st.none() | slos),
    )


matrices = st.builds(
    MatrixSpec,
    name=names,
    topologies=st.lists(names, min_size=1, max_size=3).map(tuple),
    strategies=st.lists(names, min_size=1, max_size=3).map(tuple),
    fault_regimes=st.lists(fault_regimes, min_size=1, max_size=2).map(tuple),
    base=scenarios(),
    arrivals=tuples(arrivals),
    popularities=tuples(popularities),
    churns=tuples(churns),
    time_models=tuples(st.none() | time_models),
)
json_scalars = st.none() | st.booleans() | st.integers() | names | st.floats(
    allow_nan=False, allow_infinity=False
)
cells = st.builds(
    CellResult, topology=names, strategy=names, regime=names,
    summary=st.dictionaries(names, json_scalars | st.lists(json_scalars, max_size=2),
                            max_size=3),
    plan_cache=st.dictionaries(names, st.integers(0, 100), max_size=3),
    wall_seconds=non_negative,
)

#: Every class at the JSON boundary, with valid instances of it.
CLASSES = {
    ArrivalSpec: arrivals, PopularitySpec: popularities, ChurnSpec: churns,
    FaultRegimeSpec: fault_regimes, SloSpec: slos, ScenarioSpec: scenarios(),
    LinkTiming: link_timings, TimeModelSpec: time_models, MatrixSpec: matrices,
    CellResult: cells,
}
instances = st.sampled_from(list(CLASSES)).flatmap(CLASSES.get)

#: A value of another JSON type than each scalar.
WRONG = {bool: "false", int: "2", float: True, str: 5}
#: ``CellResult`` payloads the codec takes as they are.
OPAQUE = ("summary", "plan_cache")


def nested(document):
    """``(owner, container, slot, node)`` for every spec object below
    ``document``: ``node`` is ``container[slot]``, in a field of ``owner``."""
    for key, value in document.items():
        if key not in OPAQUE:
            yield from _held(document, document, key, value)


def _held(owner, container, slot, value):
    if isinstance(value, dict):
        yield owner, container, slot, value
        yield from nested(value)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _held(owner, value, index, item)


def scalars(document):
    """``(object, key)`` of every scalar field in the document."""
    for node in [document] + [entry[3] for entry in nested(document)]:
        for key, value in node.items():
            if key not in OPAQUE and isinstance(value, (bool, int, float, str)):
                yield node, key


def refused(cls, document):
    """The message ``decode`` refuses ``document`` with."""
    try:
        decode(cls, document)
    except ValueError as error:
        return str(error)
    raise AssertionError(f"decode accepted {document!r}")


#: Names where: ``Class.field``, ``Class: ...``, ``Class key(s)`` or
#: ``Class must be an object``.
NAMES_A_PATH = re.compile(r"\b[A-Z]\w*(\.\w+|: | key\(s\)| must be an object)")


@FUZZ
@given(instances)
def test_decode_inverts_encode(spec):
    assert decode(type(spec), encode(spec)) == spec


@FUZZ
@given(instances)
def test_encode_is_byte_stable_through_json(spec):
    text = json.dumps(encode(spec))
    assert json.dumps(encode(decode(type(spec), json.loads(text)))) == text


@FUZZ
@given(matrices)
def test_a_grid_file_with_derived_keys_decodes_back(matrix):
    assert decode(MatrixSpec, json.loads(json.dumps(matrix.to_dict()))) == matrix


@FUZZ
@given(instances, st.data())
def test_a_mistyped_scalar_is_refused_by_name(spec, data):
    document = encode(spec)
    node, key = data.draw(st.sampled_from(list(scalars(document))))
    node[key] = WRONG[type(node[key])]
    assert NAMES_A_PATH.search(refused(type(spec), document))


@FUZZ
@given(instances, st.data())
def test_an_unknown_key_is_refused_by_name(spec, data):
    document = encode(spec)
    node = data.draw(st.sampled_from([document] + [e[3] for e in nested(document)]))
    node["bogus"] = 1
    assert "key(s) ['bogus']" in refused(type(spec), document)


@FUZZ
@given(instances, st.data())
def test_a_key_one_level_up_is_refused_by_name(spec, data):
    document = encode(spec)
    movable = [(owner, node) for owner, _, _, node in nested(document)
               if set(node) - set(owner)]
    assume(movable)
    owner, node = data.draw(st.sampled_from(movable))
    key = data.draw(st.sampled_from(sorted(set(node) - set(owner))))
    owner[key] = node.pop(key)
    assert "key(s) [" in refused(type(spec), document)


@FUZZ
@given(instances, st.data())
def test_a_list_where_an_object_belongs_is_refused_by_name(spec, data):
    document = encode(spec)
    places = [(container, slot) for _, container, slot, _ in nested(document)]
    if data.draw(st.booleans()) or not places:
        message = refused(type(spec), [document])
    else:
        container, slot = data.draw(st.sampled_from(places))
        container[slot] = list(container[slot].items())
        message = refused(type(spec), document)
    assert "must be an object" in message
    assert NAMES_A_PATH.search(message)


@FUZZ
@given(st.sampled_from([ScenarioSpec, MatrixSpec, ArrivalSpec, ChurnSpec]),
       st.floats(max_value=-1e-9, min_value=-1e9))
def test_a_negative_rate_is_refused_naming_where(cls, rate):
    if cls is MatrixSpec:
        document = {"arrivals": [{"kind": "poisson", "rate": rate}]}
    elif cls is ScenarioSpec:
        document = {"arrival": {"kind": "poisson", "rate": rate}}
    else:
        document = {"kind": "migration" if cls is ChurnSpec else "poisson", "rate": rate}
    message = refused(cls, document)
    assert "rate must be positive" in message
    assert message.startswith(("MatrixSpec.arrivals[0]: ", "ScenarioSpec.arrival: ",
                               "ArrivalSpec: ", "ChurnSpec: "))
