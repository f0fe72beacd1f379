"""TimeModelSpec / LinkTiming: validation, labels, lookups, round-trips.

The model is plain frozen data that rides on ScenarioSpec, so the tests
care about exactly what spec data needs: validation at construction,
stable serialized form, loss-free ``from_dict``, and deterministic
override lookup.
"""

import pytest

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
        assert LinkTiming.from_dict(timing.to_dict()) == timing

    def test_from_dict_defaults_missing_fields(self):
        assert LinkTiming.from_dict({}) == LinkTiming()


class TestTimeModelSpec:
    def test_defaults_and_label(self):
        model = TimeModelSpec()
        assert model.label == "tm(l0.001)"

    def test_label_encodes_every_active_knob(self):
        model = TimeModelSpec(
            default_link=LinkTiming(latency=0.002, jitter=0.001, capacity=2),
            link_overrides=(("a<->b", LinkTiming(latency=0.05)),),
            node_service=0.0005,
            timeout=0.2,
        )
        assert model.label == "tm(l0.002,j0.001,c2,s0.0005,to0.2,o1)"

    def test_rejects_negative_service_and_timeout(self):
        with pytest.raises(ValueError):
            TimeModelSpec(node_service=-1.0)
        with pytest.raises(ValueError):
            TimeModelSpec(timeout=-1.0)

    def test_rejects_non_linktiming_override(self):
        with pytest.raises(TypeError):
            TimeModelSpec(link_overrides=(("a<->b", 0.5),))

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
        assert TimeModelSpec.from_dict(model.to_dict()) == model

    def test_from_dict_of_empty_payload_is_default(self):
        assert TimeModelSpec.from_dict({}) == TimeModelSpec()

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
            TimeModelSpec.from_dict(payload)
        message = str(raised.value)
        assert f"unknown {owner} key(s) ['{key}']" in message
        accepted = "latency" if owner == "LinkTiming" else "node_service"
        assert accepted in message  # the accepted set is spelled out

    def test_link_timing_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match=r"unknown LinkTiming key\(s\)"):
            LinkTiming.from_dict({"latency": 0.5, "jiter": 0.1})

    def test_to_dict_is_json_safe(self):
        import json

        model = TimeModelSpec(
            link_overrides=(("a<->b", LinkTiming(latency=0.01)),),
            node_overrides=(("'n'", 0.001),),
        )
        rebuilt = TimeModelSpec.from_dict(
            json.loads(json.dumps(model.to_dict()))
        )
        assert rebuilt == model
