"""TimeModelSpec / LinkTiming: validation, labels, lookups, round-trips.

The model is plain frozen data that rides on ScenarioSpec, so the tests
care about exactly what spec data needs: validation at construction,
stable serialized form, loss-free decoding, and deterministic
override lookup.
"""

import pytest

from repro.codec import decode, encode
from repro.simtime import LinkTiming, TimeModelSpec, link_key


class TestLinkKey:
    def test_endpoint_order_does_not_matter(self):
        assert link_key((0, 1), (1, 1)) == link_key((1, 1), (0, 1))

    def test_key_is_sorted_reprs(self):
        assert link_key(2, 10) == "10<->2"  # repr sort, not numeric

    def test_works_for_tuple_nodes(self):
        assert link_key((0, 0), (0, 1)) == "(0, 0)<->(0, 1)"


class TestLinkTiming:
    def test_defaults(self):
        timing = LinkTiming()
        assert timing.latency == 0.001
        assert timing.jitter == 0.0
        assert timing.capacity == 1

    def test_rejects_nonpositive_latency(self):
        with pytest.raises(ValueError):
            LinkTiming(latency=0.0)
        with pytest.raises(ValueError):
            LinkTiming(latency=-1.0)

    def test_rejects_negative_jitter(self):
        with pytest.raises(ValueError):
            LinkTiming(jitter=-0.1)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            LinkTiming(capacity=0)

    def test_round_trip(self):
        timing = LinkTiming(latency=0.004, jitter=0.001, capacity=3)
        assert decode(LinkTiming, encode(timing)) == timing

    def test_from_dict_defaults_missing_fields(self):
        assert decode(LinkTiming, {}) == LinkTiming()


class TestTimeModelSpec:
    def test_rejects_negative_service_and_timeout(self):
        with pytest.raises(ValueError):
            TimeModelSpec(node_service=-1.0)
        with pytest.raises(ValueError):
            TimeModelSpec(timeout=-1.0)

    def test_rejects_non_linktiming_override(self):
        with pytest.raises(TypeError):
            TimeModelSpec(link_overrides=(("a<->b", 0.5),))

    def test_rejects_a_reversed_link_key_naming_the_canonical_one(self):
        with pytest.raises(ValueError, match=r"'1<->0'.*'0<->1'"):
            TimeModelSpec(link_overrides=(("1<->0", LinkTiming(0.5)),))
        with pytest.raises(ValueError, match=r"'\(0, 1\)<->\(0, 0\)'"):
            TimeModelSpec(
                link_overrides=(("(0, 1)<->(0, 0)", LinkTiming(0.5)),)
            )

    @pytest.mark.parametrize("key", ["0-1", "0<->1<->2", ""])
    def test_rejects_a_key_that_is_not_a_link_key(self, key):
        with pytest.raises(ValueError, match="is not a link key"):
            TimeModelSpec(link_overrides=((key, LinkTiming(0.5)),))

    def test_every_key_link_key_makes_is_accepted(self):
        for u, v in ((0, 1), (1, 0), ((0, 1), (0, 0)), ("b", "a"), (10, 9)):
            model = TimeModelSpec(
                link_overrides=((link_key(u, v), LinkTiming(0.5)),)
            )
            assert model.link_timing(link_key(v, u)).latency == 0.5

    def test_rejects_duplicate_override_keys(self):
        with pytest.raises(ValueError, match="link override '0<->1' is given twice"):
            TimeModelSpec(link_overrides=(
                ("0<->1", LinkTiming(0.5)), ("0<->1", LinkTiming(0.7)),
            ))
        with pytest.raises(ValueError, match="node override '3' is given twice"):
            TimeModelSpec(node_overrides=(("3", 0.1), ("3", 0.0)))

    def test_rejects_negative_node_override(self):
        with pytest.raises(ValueError):
            TimeModelSpec(node_overrides=(("'n'", -0.5),))

    def test_link_timing_prefers_override(self):
        slow = LinkTiming(latency=0.05)
        model = TimeModelSpec(link_overrides=(("a<->b", slow),))
        assert model.link_timing("a<->b") is slow
        assert model.link_timing("c<->d") == model.default_link

    def test_service_time_prefers_override(self):
        model = TimeModelSpec(
            node_service=0.001, node_overrides=(("'hub'", 0.01),)
        )
        assert model.service_time("'hub'") == 0.01
        assert model.service_time("'leaf'") == 0.001

    def test_round_trip(self):
        model = TimeModelSpec(
            default_link=LinkTiming(latency=0.002, jitter=0.0005),
            link_overrides=(
                ("(0, 0)<->(0, 1)", LinkTiming(latency=0.02, capacity=2)),
            ),
            node_service=0.0003,
            node_overrides=(("(1, 1)", 0.002),),
            timeout=0.5,
        )
        assert decode(TimeModelSpec, encode(model)) == model

    def test_from_dict_of_empty_payload_is_default(self):
        assert decode(TimeModelSpec, {}) == TimeModelSpec()

    @pytest.mark.parametrize("payload,owner,key", [
        ({"node_servce": 3}, "TimeModelSpec", "node_servce"),
        ({"default_link": {"latncy": 0.5}}, "LinkTiming", "latncy"),
        ({"link_overrides": [["a<->b", {"latency": 0.5, "capcity": 2}]]},
         "LinkTiming", "capcity"),
    ])
    def test_from_dict_rejects_a_misspelled_key_by_name(
        self, payload, owner, key
    ):
        # Every field defaults, so a typo used to price with the default.
        with pytest.raises(ValueError) as raised:
            decode(TimeModelSpec, payload)
        message = str(raised.value)
        assert f"unknown {owner} key(s) ['{key}']" in message
        accepted = "latency" if owner == "LinkTiming" else "node_service"
        assert accepted in message  # the accepted set is spelled out

    @pytest.mark.parametrize("payload, error", [
        ({"default_link": {"capacity": 2.5, "latency": "0.002"}},
         "TimeModelSpec.default_link: LinkTiming.capacity must be int, got float 2.5"),
        ({"default_link": {"latency": "0.002"}},
         "TimeModelSpec.default_link: LinkTiming.latency must be float, got str '0.002'"),
        ({"default_link": {"capacity": True}},
         "TimeModelSpec.default_link: LinkTiming.capacity must be int, got bool True"),
        ({"node_service": "0.1"},
         "TimeModelSpec.node_service must be float, got str '0.1'"),
        ({"link_overrides": [["a<->b", {"jitter": False}]]},
         "TimeModelSpec.link_overrides[0][1]: LinkTiming.jitter must be float, got bool False"),
        ({"link_overrides": [[5, {}]]},
         "TimeModelSpec.link_overrides[0][0] must be str, got int 5"),
        ({"node_overrides": [["'n'", "0.1"]]},
         "TimeModelSpec.node_overrides[0][1] must be float, got str '0.1'"),
        ({"node_overrides": [["'n'"]]},
         "TimeModelSpec.node_overrides[0] must have 2 items, got 1"),
        ({"default_link": []},
         "TimeModelSpec.default_link must be an object, got list []"),
    ])
    def test_decode_refuses_a_mistyped_value_naming_its_path(self, payload, error):
        # These used to run, coerced: capacity 2.5 as 2, "0.002" as 0.002,
        # true as capacity 1.
        with pytest.raises(ValueError) as raised:
            decode(TimeModelSpec, payload)
        assert str(raised.value) == error

    def test_an_int_in_a_float_field_is_stored_as_a_float(self):
        model = decode(TimeModelSpec, {"default_link": {"latency": 1},
                                       "node_overrides": [["'n'", 0]]})
        assert type(model.default_link.latency) is float
        assert type(model.node_overrides[0][1]) is float

    def test_link_timing_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match=r"unknown LinkTiming key\(s\)"):
            decode(LinkTiming, {"latency": 0.5, "jiter": 0.1})

    def test_to_dict_is_json_safe(self):
        import json

        model = TimeModelSpec(
            link_overrides=(("a<->b", LinkTiming(latency=0.01)),),
            node_overrides=(("'n'", 0.001),),
        )
        rebuilt = decode(TimeModelSpec, json.loads(json.dumps(encode(model))))
        assert rebuilt == model
