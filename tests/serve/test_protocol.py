"""Wire-protocol contract: every rejection names the offending field."""

import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.protocol import (
    MAX_QUANTITY,
    MAX_TASKS_PER_REQUEST,
    ProtocolError,
    parse_observe_request,
    parse_predict_request,
)


def _predict_body(**overrides):
    task = {"task_type": "align", "input_size_mb": 512.0}
    task.update(overrides)
    return {"tenant": "alice", "tasks": [task]}


def _observe_body(**overrides):
    obs = {
        "task_type": "align",
        "input_size_mb": 512.0,
        "peak_memory_mb": 2048.0,
    }
    obs.update(overrides)
    return {"tenant": "alice", "observations": [obs]}


class TestPredictParsing:
    def test_minimal_request_fills_defaults(self):
        tenant, tasks = parse_predict_request(_predict_body())
        assert tenant == "alice"
        (sub,) = tasks
        assert sub.task_type == "align"
        assert sub.workflow == "serve"
        assert sub.machine == "default"
        assert sub.preset_memory_mb == 4096.0
        assert sub.instance_id == -1

    def test_non_object_body(self):
        with pytest.raises(ProtocolError) as exc:
            parse_predict_request([1, 2])
        assert exc.value.field == "body"

    def test_missing_tenant(self):
        with pytest.raises(ProtocolError) as exc:
            parse_predict_request({"tasks": []})
        assert exc.value.field == "tenant"

    @pytest.mark.parametrize(
        "tenant", ["", "has space", "tab\there", 129 * "x", 42]
    )
    def test_bad_tenant_names(self, tenant):
        with pytest.raises(ProtocolError) as exc:
            parse_predict_request({"tenant": tenant, "tasks": [{}]})
        assert exc.value.field == "tenant"

    def test_empty_task_list(self):
        with pytest.raises(ProtocolError) as exc:
            parse_predict_request({"tenant": "a", "tasks": []})
        assert exc.value.field == "tasks"

    def test_oversized_task_list(self):
        body = {
            "tenant": "a",
            "tasks": [{}] * (MAX_TASKS_PER_REQUEST + 1),
        }
        with pytest.raises(ProtocolError) as exc:
            parse_predict_request(body)
        assert exc.value.field == "tasks"

    def test_missing_input_size_names_indexed_field(self):
        body = {"tenant": "a", "tasks": [{"task_type": "align"}]}
        with pytest.raises(ProtocolError) as exc:
            parse_predict_request(body)
        assert exc.value.field == "tasks[0].input_size_mb"

    def test_wrong_type_names_indexed_field(self):
        with pytest.raises(ProtocolError) as exc:
            parse_predict_request(_predict_body(input_size_mb="big"))
        assert exc.value.field == "tasks[0].input_size_mb"

    def test_bool_is_not_a_number(self):
        with pytest.raises(ProtocolError) as exc:
            parse_predict_request(_predict_body(input_size_mb=True))
        assert exc.value.field == "tasks[0].input_size_mb"

    def test_negative_input_rejected(self):
        with pytest.raises(ProtocolError) as exc:
            parse_predict_request(_predict_body(input_size_mb=-1.0))
        assert exc.value.field == "tasks[0].input_size_mb"

    def test_zero_preset_rejected(self):
        with pytest.raises(ProtocolError) as exc:
            parse_predict_request(_predict_body(preset_memory_mb=0.0))
        assert exc.value.field == "tasks[0].preset_memory_mb"

    def test_error_payload_shape(self):
        try:
            parse_predict_request(_predict_body(input_size_mb="big"))
        except ProtocolError as exc:
            payload = exc.to_payload()
        assert payload["error"]["field"] == "tasks[0].input_size_mb"
        assert "number" in payload["error"]["message"]


class TestObserveParsing:
    def test_minimal_request(self):
        tenant, items = parse_observe_request(_observe_body())
        assert tenant == "alice"
        (item,) = items
        assert item.record.peak_memory_mb == 2048.0
        assert item.record.success is True
        assert item.allocated_mb == 0.0

    def test_missing_peak(self):
        body = {
            "tenant": "a",
            "observations": [{"task_type": "t", "input_size_mb": 1.0}],
        }
        with pytest.raises(ProtocolError) as exc:
            parse_observe_request(body)
        assert exc.value.field == "observations[0].peak_memory_mb"

    def test_success_with_under_allocation_rejected(self):
        with pytest.raises(ProtocolError) as exc:
            parse_observe_request(
                _observe_body(success=True, allocated_mb=1024.0)
            )
        assert exc.value.field == "observations[0].allocated_mb"

    def test_failure_with_sufficient_allocation_rejected(self):
        with pytest.raises(ProtocolError) as exc:
            parse_observe_request(
                _observe_body(success=False, allocated_mb=4096.0)
            )
        assert exc.value.field == "observations[0].allocated_mb"

    def test_failure_with_under_allocation_accepted(self):
        _, items = parse_observe_request(
            _observe_body(success=False, allocated_mb=1024.0)
        )
        assert items[0].record.success is False
        assert items[0].allocated_mb == 1024.0

    def test_non_boolean_success(self):
        with pytest.raises(ProtocolError) as exc:
            parse_observe_request(_observe_body(success="yes"))
        assert exc.value.field == "observations[0].success"


# ---------------------------------------------------------------------------
# Numbers a float cannot hold: json.loads accepts NaN and +-Infinity, and
# a Python int may be any size.  A finite float past MAX_QUANTITY holds,
# but the models' sums of squares over it do not.

NUMERIC_FIELDS = [
    (_predict_body, parse_predict_request, "tasks", "input_size_mb"),
    (_predict_body, parse_predict_request, "tasks", "preset_memory_mb"),
    (_predict_body, parse_predict_request, "tasks", "instance_id"),
    (_predict_body, parse_predict_request, "tasks", "timestamp"),
    (_observe_body, parse_observe_request, "observations", "peak_memory_mb"),
    (_observe_body, parse_observe_request, "observations", "allocated_mb"),
    (_observe_body, parse_observe_request, "observations", "input_size_mb"),
    (_observe_body, parse_observe_request, "observations", "runtime_hours"),
    (_observe_body, parse_observe_request, "observations", "timestamp"),
    (_observe_body, parse_observe_request, "observations", "attempt"),
    (_observe_body, parse_observe_request, "observations", "instance_id"),
]


@pytest.mark.parametrize(
    "value",
    [math.nan, math.inf, -math.inf, 10**400, 1e308],
    ids=["nan", "inf", "-inf", "10**400", "1e308"],
)
@pytest.mark.parametrize(
    "body,parse,items,name",
    NUMERIC_FIELDS,
    ids=[f"{items}.{name}" for _, _, items, name in NUMERIC_FIELDS],
)
def test_unrepresentable_numbers_are_typed_errors(body, parse, items, name, value):
    with pytest.raises(ProtocolError) as exc:
        parse(body(**{name: value}))
    assert exc.value.field == f"{items}[0].{name}"


def test_quantities_accept_up_to_the_ceiling():
    _, (item,) = parse_observe_request(
        _observe_body(
            input_size_mb=MAX_QUANTITY,
            peak_memory_mb=MAX_QUANTITY,
            allocated_mb=MAX_QUANTITY,
            runtime_hours=MAX_QUANTITY,
        )
    )
    assert item.record.peak_memory_mb == MAX_QUANTITY
    with pytest.raises(ProtocolError) as exc:
        parse_predict_request(_predict_body(input_size_mb=MAX_QUANTITY * 2))
    assert exc.value.field == "tasks[0].input_size_mb"


def test_integer_fields_accept_the_int64_range():
    _, (sub,) = parse_predict_request(
        _predict_body(timestamp=2**63 - 1, instance_id=-(2**63))
    )
    assert sub.timestamp == 2**63 - 1 and sub.instance_id == -(2**63)
    with pytest.raises(ProtocolError) as exc:
        parse_predict_request(_predict_body(timestamp=2**63))
    assert exc.value.field == "tasks[0].timestamp"


# ---------------------------------------------------------------------------
# Fuzz: bad bodies yield typed errors, never anything else.

_SCHEMA_KEYS = (
    "tenant",
    "tasks",
    "observations",
    "task_type",
    "workflow",
    "machine",
    "instance_id",
    "input_size_mb",
    "preset_memory_mb",
    "timestamp",
    "peak_memory_mb",
    "allocated_mb",
    "runtime_hours",
    "success",
    "attempt",
)
_BIG_INTS = st.builds(  # past int64, up to far past what a float holds
    lambda sign, bits: sign * 2**bits,
    st.sampled_from([1, -1]),
    st.integers(63, 1400),
)
_INTS = st.integers() | _BIG_INTS
_NUMBERS = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | _INTS
)
_SCALARS = st.none() | st.booleans() | _NUMBERS | st.text(max_size=6)
_KEYS = st.sampled_from(_SCHEMA_KEYS) | st.text(max_size=6)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_KEYS, inner, max_size=5),
    max_leaves=12,
)
#: Schema-shaped items hold well-typed values (any number for a numeric
#: key), so the fuzz reaches the number checks instead of stopping at
#: the first mistyped key; mistyped keys come from the free-form dicts.
_NAME = st.text(min_size=1, max_size=6)
_TYPED = {
    "workflow": _NAME,
    "machine": _NAME,
    "success": st.booleans(),
    "instance_id": _INTS,
    "timestamp": _INTS,
    "attempt": _INTS,
}
_ITEM = st.fixed_dictionaries(
    {"task_type": _NAME, "input_size_mb": _NUMBERS, "peak_memory_mb": _NUMBERS},
    optional={
        key: _TYPED.get(key, _NUMBERS)
        for key in _SCHEMA_KEYS[4:]
        if key not in ("input_size_mb", "peak_memory_mb")
    },
) | st.dictionaries(_KEYS, _JSON, max_size=6)
_ITEMS = st.lists(_ITEM, min_size=1, max_size=3)
_BODY = st.fixed_dictionaries(
    {"tenant": st.just("fuzz"), "tasks": _ITEMS, "observations": _ITEMS}
) | st.dictionaries(_KEYS, _JSON | _ITEMS, max_size=4) | _JSON


def _assert_representable(record) -> None:
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if isinstance(value, float):
            assert math.isfinite(value), (f.name, value)
        else:
            assert -(2**63) <= value < 2**63, (f.name, value)


@settings(max_examples=150, deadline=None)
@given(_BODY)
def test_fuzzed_bodies_parse_or_raise_protocol_errors(body):
    try:
        _, submissions = parse_predict_request(body)
    except ProtocolError:
        pass
    else:
        for sub in submissions:
            _assert_representable(sub)
    try:
        _, observations = parse_observe_request(body)
    except ProtocolError:
        pass
    else:
        for item in observations:
            _assert_representable(item)
            _assert_representable(item.record)
