"""Spec JSON is type-checked at the boundary, field by field.

``repro.codec.decode`` refuses, in a ``ScenarioSpec``, in every nested part
and in a ``MatrixSpec``'s axes, a scalar whose type its field's annotation
does not take, with a ``ValueError`` naming ``Class.field``.  Types match exactly: a ``bool`` is not an ``int``, and an
``int`` or ``float`` field takes no string.  Without the check,
``"cache_addresses": "false"`` ran with caching on, ``"operations": true``
ran as one operation, and ``"clients": 1.5`` failed later with a
``TypeError``.
"""

import json
import re
from dataclasses import fields

import pytest

from repro.codec import decode, encode
from repro.workload import (
    ArrivalSpec,
    ChurnSpec,
    FaultRegimeSpec,
    MatrixSpec,
    PopularitySpec,
    ScenarioSpec,
    SloSpec,
)

#: The ``ScenarioSpec`` key each nested part is written under.
PARTS = {
    ArrivalSpec: "arrival", PopularitySpec: "popularity", ChurnSpec: "churn",
    FaultRegimeSpec: "faults", SloSpec: "slo",
}

#: JSON values each scalar annotation must refuse.
WRONG = {
    "bool": ["false", 1, None],
    "int": [True, 2.5, "2", None],
    "float": [True, "0.5", None],
    "str": [5, True, None],
}


def scenario_dict(cls, name, value):
    """A scenario dict that sets ``cls.name`` to ``value``."""
    if cls is ScenarioSpec:
        return {name: value}
    return {PARTS[cls]: {name: value}}


def from_matrix_base(data):
    return decode(MatrixSpec, {"base": data}).base


ENTRY_POINTS = {
    "ScenarioSpec.from_dict": lambda data: decode(ScenarioSpec, data),
    "MatrixSpec.from_dict(base)": from_matrix_base,
}


def every_mistyped_scalar():
    for cls in (ScenarioSpec, *PARTS):
        for spec_field in fields(cls):
            for value in WRONG.get(spec_field.type, ()):
                yield pytest.param(
                    cls, spec_field.name, value,
                    id=f"{cls.__name__}.{spec_field.name}={value!r}",
                )


def rejected(where):
    return pytest.raises(ValueError, match=re.escape(where) + " must be")


class TestTheReportedCases:
    @pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
    @pytest.mark.parametrize("data, where", [
        ({"cache_addresses": "false"}, "ScenarioSpec.cache_addresses"),
        ({"arrival": {"kind": "burst", "burst_size": 2.5}}, "ArrivalSpec.burst_size"),
        ({"operations": True}, "ScenarioSpec.operations"),
        ({"clients": 1.5}, "ScenarioSpec.clients"),
        ({"ports": "2"}, "ScenarioSpec.ports"),
        ({"slo": {"window": True}}, "SloSpec.window"),
    ], ids=["bool-as-str", "int-as-float", "int-as-bool", "clients-as-float",
            "ports-as-str", "float-as-bool"])
    def test_is_a_value_error_naming_the_field(self, entry, data, where):
        with rejected(where):
            entry(data)


@pytest.mark.parametrize("cls, name, value", every_mistyped_scalar())
def test_every_scalar_field_refuses_a_mistyped_value(cls, name, value):
    with rejected(f"{cls.__name__}.{name}"):
        decode(ScenarioSpec, scenario_dict(cls, name, value))


@pytest.mark.parametrize("axis, part, entry", [
    ("arrivals", ArrivalSpec, {"rate": True}),
    ("popularities", PopularitySpec, {"zipf_exponent": "1.1"}),
    ("churns", ChurnSpec, {"kind": "migration", "rate": None}),
    ("fault_regimes", FaultRegimeSpec, {"kind": "waves", "events": 2.0}),
])
def test_a_matrix_axis_entry_is_checked_too(axis, part, entry):
    name = next(iter(set(entry) - {"kind"}))
    with rejected(f"{part.__name__}.{name}"):
        decode(MatrixSpec, {axis: [entry]})


@pytest.mark.parametrize("data", [
    {"churn": {"kind": "mixed"}, "rate": 6.0},
    {"rate": 6.0, "churn": {"kind": "mixed"}},
], ids=["stray-key-last", "stray-key-first"])
def test_a_stray_key_is_named_before_any_nested_value_is_checked(data):
    # ``rate`` belongs one level down, in ``churn``; without it the churn
    # part fails its own check.  Either key order names the stray key.
    with pytest.raises(ValueError, match=re.escape("unknown ScenarioSpec key(s) ['rate']")):
        decode(ScenarioSpec, data)


class TestWhatStaysAccepted:
    def test_a_float_field_takes_an_int(self):
        spec = decode(ScenarioSpec, {"arrival": {"kind": "poisson", "rate": 200}})
        assert spec.arrival.rate == 200
        assert type(spec.arrival.rate) is float

    def test_an_int_and_a_float_rate_encode_alike(self):
        # Equal specs used to write different JSON: "rate": 200 vs 200.0.
        int_rate, float_rate = (
            encode(decode(ScenarioSpec, {"arrival": {"kind": "poisson", "rate": rate}}))
            for rate in (200, 200.0)
        )
        assert json.dumps(int_rate) == json.dumps(float_rate)

    def test_a_false_bool_runs_uncached_and_keys_as_false(self):
        spec = decode(ScenarioSpec, {"cache_addresses": False})
        assert spec.cache_addresses is False
        assert encode(spec) == encode(ScenarioSpec(cache_addresses=False))
