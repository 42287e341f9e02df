"""Wire-format round-trips and typed rejection of malformed frames."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.streaming import (
    CrisisDetected,
    CrisisEnded,
    EpochUntrusted,
    IdentificationUpdate,
)
from repro.serving.wire import (
    OPS,
    MalformedFrame,
    decode_frame,
    encode_frame,
    event_from_wire,
    event_to_wire,
    parse_repl_push,
    parse_request,
)


def roundtrip(obj):
    return parse_request(decode_frame(encode_frame(obj)))


class TestRequestRoundtrip:
    def test_report(self):
        req = roundtrip({
            "op": "report", "tenant": "t", "machine": "m1",
            "epoch": 3, "values": [1.5, 2.0], "violation": True,
        })
        # A single report is sugar for the one-row batch it stands for.
        assert req == {
            "op": "report_batch", "tenant": "t", "machines": ["m1"],
            "epoch": 3, "values": [[1.5, 2.0]], "violations": [True],
        }

    def test_float_values_survive_bitwise(self):
        # JSON uses repr (shortest round-trip): float64 is preserved
        # exactly, the foundation of the recovery bit-identity proof.
        import numpy as np

        rng = np.random.default_rng(0)
        values = [float(v) for v in rng.normal(size=64) * 1e17]
        req = roundtrip({
            "op": "report", "tenant": "t", "machine": "m",
            "epoch": 0, "values": values, "violation": False,
        })
        assert all(a == b for a, b in zip(req["values"][0], values))

    def test_close_epoch_and_diagnose(self):
        assert roundtrip(
            {"op": "close_epoch", "tenant": "t", "epoch": 0}
        )["op"] == "close_epoch"
        assert roundtrip({
            "op": "diagnose", "tenant": "t", "crisis": 1, "label": "db",
        })["label"] == "db"

    def test_extra_keys_are_stripped(self):
        req = roundtrip({
            "op": "close_epoch", "tenant": "t", "epoch": 0,
            "__smuggled": "x",
        })
        assert "__smuggled" not in req


class TestMalformed:
    @pytest.mark.parametrize("line", [
        b"not json at all",
        b"[1, 2, 3]",
        b'"a string"',
        b"\xff\xfe\x00garbage",
        b"{trailing",
    ])
    def test_garbage_lines(self, line):
        with pytest.raises(MalformedFrame):
            parse_request(decode_frame(line))

    @pytest.mark.parametrize("obj", [
        {"op": "nope"},
        {"op": 42},
        {},
        {"op": "report", "tenant": "t"},  # missing fields
        {"op": "report", "tenant": "t", "machine": "m", "epoch": -1,
         "values": [1.0], "violation": False},
        {"op": "report", "tenant": "t", "machine": "m", "epoch": True,
         "values": [1.0], "violation": False},  # bool is not an epoch
        {"op": "report", "tenant": "t", "machine": "m", "epoch": 0,
         "values": [], "violation": False},
        {"op": "report", "tenant": "t", "machine": "m", "epoch": 0,
         "values": [1.0, "x"], "violation": False},
        {"op": "report", "tenant": "t", "machine": "m", "epoch": 0,
         "values": [1.0, True], "violation": False},
        {"op": "report", "tenant": "t", "machine": "", "epoch": 0,
         "values": [1.0], "violation": False},
        {"op": "report", "tenant": "a/b", "machine": "m", "epoch": 0,
         "values": [1.0], "violation": False},  # path-unsafe tenant
        {"op": "report", "tenant": "..", "machine": "m", "epoch": 0,
         "values": [1.0], "violation": False},
        {"op": "close_epoch", "tenant": "t"},
        {"op": "diagnose", "tenant": "t", "crisis": 1, "label": ""},
        {"op": "state"},
    ])
    def test_invalid_requests(self, obj):
        with pytest.raises(MalformedFrame):
            parse_request(obj)


class TestReplicationOps:
    def test_repl_subscribe_roundtrip(self):
        req = roundtrip({
            "op": "repl_subscribe",
            "cursors": {"a": 0, "b": 17},
            "fence": 3,
            "__smuggled": "x",
        })
        assert req == {
            "op": "repl_subscribe",
            "cursors": {"a": 0, "b": 17},
            "fence": 3,
        }

    def test_repl_ack_roundtrip(self):
        req = roundtrip({"op": "repl_ack", "cursors": {"t": 9}})
        assert req == {"op": "repl_ack", "cursors": {"t": 9}}

    def test_fence_and_unquarantine_roundtrip(self):
        assert roundtrip({"op": "fence", "epoch": 2}) == {
            "op": "fence", "epoch": 2,
        }
        assert roundtrip({"op": "unquarantine", "tenant": "t"}) == {
            "op": "unquarantine", "tenant": "t",
        }

    def test_journaled_ops_carry_optional_fence(self):
        req = roundtrip({
            "op": "close_epoch", "tenant": "t", "epoch": 4, "fence": 7,
        })
        assert req["fence"] == 7
        # Absent is absent, not zero: 0 is a valid (pre-failover) token.
        req = roundtrip({"op": "close_epoch", "tenant": "t", "epoch": 4})
        assert "fence" not in req

    @pytest.mark.parametrize("obj", [
        {"op": "repl_subscribe"},  # missing cursors
        {"op": "repl_subscribe", "cursors": [1, 2]},
        {"op": "repl_subscribe", "cursors": {"t": -1}},
        {"op": "repl_subscribe", "cursors": {"t": True}},
        {"op": "repl_subscribe", "cursors": {"": 0}},
        {"op": "repl_subscribe", "cursors": {}, "fence": -1},
        {"op": "repl_subscribe", "cursors": {}, "fence": "3"},
        {"op": "repl_ack", "cursors": {"t": "9"}},
        {"op": "fence"},
        {"op": "fence", "epoch": 0},  # epoch 0 is never minted
        {"op": "fence", "epoch": True},
        {"op": "unquarantine"},
        {"op": "unquarantine", "tenant": "a/b"},
    ])
    def test_invalid_replication_requests(self, obj):
        with pytest.raises(MalformedFrame):
            parse_request(obj)


def seq_rec(seq, tenant="t"):
    return {
        "op": "report", "tenant": tenant, "machine": "m0",
        "epoch": 0, "values": [1.0], "violation": False,
        "seq": seq,
    }


class TestReplPush:
    def test_frames_roundtrip_preserves_seqs(self):
        push = parse_repl_push(decode_frame(encode_frame({
            "op": "repl_frames", "tenant": "t",
            "records": [seq_rec(4), seq_rec(5)],
        })))
        assert push["tenant"] == "t"
        assert [r["seq"] for r in push["records"]] == [4, 5]
        assert all(r["op"] == "report_batch" for r in push["records"])

    def test_heartbeat_roundtrip(self):
        push = parse_repl_push({"op": "repl_heartbeat"})
        assert push == {"op": "repl_heartbeat"}

    @pytest.mark.parametrize("obj", [
        {"op": "report"},  # not a push op
        {"op": "repl_frames", "tenant": "t"},  # missing records
        {"op": "repl_frames", "tenant": "t", "records": []},
        {"op": "repl_frames", "tenant": "t", "records": ["x"]},
        # Record missing its journal seq.
        {"op": "repl_frames", "tenant": "t", "records": [{
            "op": "report", "tenant": "t", "machine": "m0",
            "epoch": 0, "values": [1.0], "violation": False,
        }]},
        # Seq must be a positive integer, not a bool.
        {"op": "repl_frames", "tenant": "t", "records": [seq_rec(0)]},
        {"op": "repl_frames", "tenant": "t",
         "records": [{**seq_rec(1), "seq": True}]},
        # A record for a different tenant smuggled into the frame.
        {"op": "repl_frames", "tenant": "t",
         "records": [seq_rec(1, tenant="other")]},
        # Non-journalable verbs cannot ride the replication stream.
        {"op": "repl_frames", "tenant": "t", "records": [{
            "op": "state", "tenant": "t", "seq": 1}]},
    ])
    def test_invalid_pushes(self, obj):
        with pytest.raises(MalformedFrame):
            parse_repl_push(obj)


class TestEventRoundtrip:
    @pytest.mark.parametrize("event", [
        CrisisDetected(epoch=4, crisis_number=2),
        CrisisEnded(epoch=9, crisis_number=2, duration_epochs=5),
        EpochUntrusted(epoch=3, reasons=("quorum-failed", "low-coverage")),
        IdentificationUpdate(
            epoch=5, crisis_number=2, identification_epoch=1,
            label="overload", distance=0.12345678901234567,
        ),
        IdentificationUpdate(
            epoch=5, crisis_number=2, identification_epoch=0,
            label="unknown crisis", distance=None,
        ),
    ])
    def test_roundtrip_is_identity(self, event):
        wire_obj = event_to_wire(event)
        # ... and through actual JSON bytes, as the server sends it.
        decoded = decode_frame(encode_frame(wire_obj))
        assert event_from_wire(decoded) == event

    def test_unknown_event_type_is_typed(self):
        with pytest.raises(MalformedFrame):
            event_from_wire({"type": "mystery"})


def batch_req(**overrides):
    base = {
        "op": "report_batch", "tenant": "t", "epoch": 2,
        "machines": ["m0", "m1", "m2"],
        "values": [[1.0, 2.0], [3.0, 4.5], [5.0, 6.0]],
        "violations": [False, True, False],
    }
    base.update(overrides)
    return base


class TestReportBatch:
    def test_roundtrip(self):
        req = roundtrip(batch_req(__smuggled="x"))
        assert req == batch_req()

    def test_integer_values_are_canonicalized_to_floats(self):
        req = roundtrip(batch_req(values=[[1, 2], [3, 4], [5, 6]]))
        assert req["values"] == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        assert all(
            type(v) is float for row in req["values"] for v in row
        )

    def test_float_values_survive_bitwise(self):
        import numpy as np

        rng = np.random.default_rng(1)
        matrix = (rng.normal(size=(3, 16)) * 1e17).tolist()
        req = roundtrip(batch_req(values=matrix))
        assert req["values"] == matrix

    def test_carries_optional_fence(self):
        assert roundtrip(batch_req(fence=5))["fence"] == 5
        assert "fence" not in roundtrip(batch_req())

    def test_rides_the_replication_stream(self):
        push = parse_repl_push({
            "op": "repl_frames", "tenant": "t",
            "records": [{**batch_req(), "seq": 3}],
        })
        assert push["records"][0]["op"] == "report_batch"

    @pytest.mark.parametrize("obj", [
        batch_req(epoch=-1),
        batch_req(epoch=True),
        batch_req(machines=[]),
        batch_req(machines=["m0", "", "m2"]),
        batch_req(machines=["m0", 1, "m2"]),
        # Duplicate machine ids within one frame are ambiguous (which
        # row wins?) and would break the idempotent-resend accounting.
        batch_req(machines=["m0", "m1", "m0"]),
        # values/violations must match machines one-to-one.
        batch_req(values=[[1.0, 2.0], [3.0, 4.0]]),
        batch_req(violations=[False, True]),
        # Ragged rows are not a matrix.
        batch_req(values=[[1.0, 2.0], [3.0], [5.0, 6.0]]),
        batch_req(values=[[], [], []]),
        batch_req(values=[[1.0, 2.0], [3.0, "x"], [5.0, 6.0]]),
        batch_req(values=[[1.0, 2.0], [3.0, None], [5.0, 6.0]]),
        # Regression (mirrors the single-report rule): bool is an int
        # subclass, but ``true`` is not a metric sample.
        batch_req(values=[[1.0, 2.0], [3.0, True], [5.0, 6.0]]),
        batch_req(values=[[1.0, [2.0]], [3.0, 4.0], [5.0, 6.0]]),
        batch_req(violations=[False, 1, False]),
        batch_req(violations=[False, "true", False]),
    ])
    def test_invalid_batches(self, obj):
        with pytest.raises(MalformedFrame):
            parse_request(obj)


class TestBoolValueRegression:
    """``True``/``False`` pass ``isinstance(v, int)`` — pin that every
    report path rejects them explicitly instead of journaling 1.0/0.0."""

    @pytest.mark.parametrize("values", [[True], [0.5, False], [True, True]])
    def test_single_report_rejects_bools(self, values):
        with pytest.raises(MalformedFrame):
            parse_request({
                "op": "report", "tenant": "t", "machine": "m",
                "epoch": 0, "values": values, "violation": False,
            })

    def test_batch_rejects_all_bool_matrix(self):
        # An all-bool matrix would survive a dtype=float64 cast cleanly
        # (numpy coerces to 1.0/0.0), so the type check must fire first.
        with pytest.raises(MalformedFrame):
            parse_request(batch_req(
                values=[[True, False]] * 3,
            ))


class TestIncidentsOp:
    def test_roundtrip(self):
        req = roundtrip({"op": "incidents", "tenant": "acme", "x": 1})
        assert req == {"op": "incidents", "tenant": "acme"}

    @pytest.mark.parametrize("obj", [
        {"op": "incidents"},
        {"op": "incidents", "tenant": ""},
        {"op": "incidents", "tenant": "a/b"},
        {"op": "incidents", "tenant": ".."},
    ])
    def test_invalid(self, obj):
        with pytest.raises(MalformedFrame):
            parse_request(obj)


def report_req(**overrides):
    base = {
        "op": "report", "tenant": "t", "machine": "m0", "epoch": 0,
        "values": [1.0, 2.0], "violation": False,
    }
    base.update(overrides)
    return base


class TestOutOfRangeNumbers:
    """Numbers JSON can carry but float64 or the decoder cannot are
    malformed frames, never a stray exception that drops the link."""

    @pytest.mark.parametrize("obj", [
        report_req(values=[1.0, 10 ** 400]),
        batch_req(values=[[1.0, 2.0], [3.0, -(10 ** 400)], [5.0, 6.0]]),
    ])
    def test_integer_beyond_float64_range(self, obj):
        with pytest.raises(MalformedFrame):
            parse_request(decode_frame(encode_frame(obj)))

    def test_integer_literal_past_the_digit_limit(self):
        line = encode_frame(report_req(values=[1.0, 7])).replace(
            b",7]", b"," + b"1" * 5000 + b"]"
        )
        with pytest.raises(MalformedFrame):
            decode_frame(line)

    def test_nesting_deeper_than_the_decoder(self):
        with pytest.raises(MalformedFrame):
            decode_frame(b"[" * 200_000 + b"]" * 200_000)


# -- property: the one untrusted-input parser never crashes ----------------

# Integers past float64 range (~1.8e308), inside the decoder's limit.
_huge = st.builds(
    lambda sign, exp: sign * 10 ** exp,
    st.sampled_from([1, -1]), st.integers(309, 400),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _huge,
    st.floats(),
    st.text(max_size=6),
)
_json = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=12,
)
_numbers = st.one_of(st.floats(), st.integers(), _huge)
_names = st.one_of(st.text(max_size=5), st.sampled_from(["t", "..", "a/b"]))

#: Near-valid values per field, so mutated frames reach deep validation.
_FIELDS = {
    "tenant": _names,
    "machine": _names,
    "epoch": st.integers(-2, 2 ** 64),
    "crisis": st.integers(-2, 50),
    "label": _names,
    "values": st.lists(_numbers, min_size=1, max_size=4),
    "violation": st.booleans(),
    # Same three-machine shape as :func:`batch_req`.
    "machines": st.lists(_names, min_size=3, max_size=3),
    "matrix": st.lists(
        st.lists(_numbers, min_size=2, max_size=2), min_size=3, max_size=3,
    ),
    "violations": st.lists(st.booleans(), min_size=3, max_size=3),
    "cursors": st.dictionaries(_names, st.integers(-1, 10 ** 6)),
    "fence": st.integers(-1, 10 ** 6),
}

#: One valid request per verb with fields, the starting points for
#: mutation; field-less verbs are reached by mutating ``op``.
_VALID = [
    report_req(),
    batch_req(),
    {"op": "close_epoch", "tenant": "t", "epoch": 1},
    {"op": "diagnose", "tenant": "t", "crisis": 1, "label": "x"},
    {"op": "state", "tenant": "t"},
    {"op": "repl_subscribe", "cursors": {"t": 1}},
    {"op": "repl_ack", "cursors": {"t": 1}},
    {"op": "fence", "epoch": 1},
]


@st.composite
def _request_objects(draw):
    """A valid request with one or two fields dropped or replaced."""
    obj = dict(draw(st.sampled_from(_VALID)))
    for _ in range(draw(st.integers(1, 2))):
        key = draw(st.sampled_from(sorted(obj) + ["fence"]))
        how = draw(st.sampled_from(["drop", "near", "any"]))
        if how == "drop":
            obj.pop(key, None)
        elif how == "any" or key == "op":
            obj[key] = draw(st.one_of(st.sampled_from(OPS), _json))
        elif key == "values" and obj.get("op") == "report_batch":
            obj[key] = draw(_FIELDS["matrix"])
        else:
            obj[key] = draw(_FIELDS[key])
    return obj


def _canonical_or_malformed(line: bytes) -> None:
    try:
        req = parse_request(decode_frame(line))
    except MalformedFrame:
        return
    assert req["op"] in OPS and req["op"] != "report"
    # Canonical: a fixed point of the parser, also across the wire.
    # (Compared as encoded bytes, since a NaN value is never ==.)
    assert encode_frame(parse_request(dict(req))) == encode_frame(req)
    assert encode_frame(roundtrip(req)) == encode_frame(req)


class TestParseRequestProperties:
    @given(line=st.one_of(
        st.binary(max_size=64), _json.map(lambda v: json.dumps(v).encode()),
    ))
    @settings(max_examples=300, deadline=None)
    def test_any_bytes_are_canonical_or_malformed(self, line):
        _canonical_or_malformed(line)

    @given(obj=_request_objects())
    @settings(max_examples=500, deadline=None)
    def test_mutated_requests_are_canonical_or_malformed(self, obj):
        _canonical_or_malformed(json.dumps(obj).encode())

    @given(
        tenant=st.text(min_size=1, max_size=5).filter(
            lambda t: "/" not in t and t not in (".", "..")
        ),
        machine=st.text(min_size=1, max_size=5),
        epoch=st.integers(0, 2 ** 64),
        values=st.lists(
            st.one_of(
                st.floats(allow_nan=False),
                st.integers(-(10 ** 300), 10 ** 300),
            ),
            min_size=1, max_size=6,
        ),
        violation=st.booleans(),
        fence=st.one_of(st.none(), st.integers(0, 10 ** 6)),
    )
    @settings(max_examples=200, deadline=None)
    def test_report_parses_as_its_one_row_batch(
        self, tenant, machine, epoch, values, violation, fence
    ):
        report = {
            "op": "report", "tenant": tenant, "machine": machine,
            "epoch": epoch, "values": values, "violation": violation,
        }
        batch = {
            "op": "report_batch", "tenant": tenant, "epoch": epoch,
            "machines": [machine], "values": [values],
            "violations": [violation],
        }
        if fence is not None:
            report["fence"] = batch["fence"] = fence
        assert roundtrip(report) == roundtrip(batch)
