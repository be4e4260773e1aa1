"""The sizing service's JSON wire protocol.

Request parsing is strict and *typed*: every rejection is a
:class:`ProtocolError` naming the offending field (``tasks[2].
input_size_mb``), which the server maps to an HTTP 400 whose body
carries the field path — so a misbehaving client learns exactly which
key to fix instead of guessing from a blanket "bad request".

The parsers return the repo's native types
(:class:`~repro.sim.interface.TaskSubmission`,
:class:`~repro.provenance.records.TaskRecord`), keeping the server and
the simulation backends on one predictor-facing vocabulary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.provenance.records import TaskRecord
from repro.sim.interface import TaskSubmission

__all__ = [
    "ProtocolError",
    "ObserveItem",
    "parse_predict_request",
    "parse_observe_request",
    "parse_tenant",
]

#: Upper bounds keeping one request from monopolizing the event loop.
MAX_TASKS_PER_REQUEST = 4096
MAX_TENANT_NAME_LEN = 128

#: Ceiling of every memory (MB), input size (MB) and runtime (h) field:
#: far past any real task, yet small enough that the models' sums and
#: squares over a tenant's history stay finite (a 1e308 peak made the
#: tree grower raise OverflowError on every later observe of its type).
MAX_QUANTITY = 2.0**40

_PRESET_DEFAULT_MB = 4096.0

#: Integer fields end up in int64 columns (the provenance database's
#: timestamps), so a wider value is a typed 400, not an OverflowError.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


class ProtocolError(ValueError):
    """A malformed request, pinned to the field that broke the contract."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message

    def to_payload(self) -> dict:
        """The HTTP 400 response body."""
        return {"error": {"field": self.field, "message": self.message}}


@dataclass(frozen=True)
class ObserveItem:
    """One parsed ``/observe`` entry: the record plus ledger context.

    ``allocated_mb > 0`` opts the observation into the tenant's wastage
    ledger; ``0`` (the default) trains the models without accounting —
    for callers that know peaks but not what was provisioned.
    """

    record: TaskRecord
    allocated_mb: float
    attempt: int


def _require_object(payload: object, field: str) -> dict:
    if not isinstance(payload, dict):
        raise ProtocolError(
            field, f"expected a JSON object, got {type(payload).__name__}"
        )
    return payload


def _require_list(value: object, field: str) -> list:
    if not isinstance(value, list):
        raise ProtocolError(
            field, f"expected a JSON array, got {type(value).__name__}"
        )
    if not value:
        raise ProtocolError(field, "must not be empty")
    if len(value) > MAX_TASKS_PER_REQUEST:
        raise ProtocolError(
            field,
            f"at most {MAX_TASKS_PER_REQUEST} items per request, "
            f"got {len(value)}",
        )
    return value


def _str_field(obj: dict, name: str, path: str, default: str | None = None) -> str:
    value = obj.get(name, default)
    if value is None:
        raise ProtocolError(f"{path}.{name}", "is required")
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"{path}.{name}", "must be a non-empty string")
    return value


def _num_field(
    obj: dict,
    name: str,
    path: str,
    default: float | None = None,
    *,
    minimum: float | None = None,
    exclusive: bool = False,
) -> float:
    value = obj.get(name, default)
    if value is None:
        raise ProtocolError(f"{path}.{name}", "is required")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{path}.{name}", "must be a number")
    try:
        value = float(value)
    except OverflowError:
        raise ProtocolError(f"{path}.{name}", "is too large for a float") from None
    # json.loads accepts NaN and +-Infinity; one NaN peak would poison
    # the tenant's model pool for good, and so would a huge finite one.
    if not math.isfinite(value):
        raise ProtocolError(f"{path}.{name}", "must be a finite number")
    if value > MAX_QUANTITY:
        raise ProtocolError(f"{path}.{name}", f"must be <= {MAX_QUANTITY:g}")
    if minimum is not None:
        if exclusive and value <= minimum:
            raise ProtocolError(f"{path}.{name}", f"must be > {minimum:g}")
        if not exclusive and value < minimum:
            raise ProtocolError(f"{path}.{name}", f"must be >= {minimum:g}")
    return value


def _int_field(obj: dict, name: str, path: str, default: int) -> int:
    value = obj.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"{path}.{name}", "must be an integer")
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise ProtocolError(f"{path}.{name}", "must fit in 64 bits")
    return value


def _bool_field(obj: dict, name: str, path: str, default: bool) -> bool:
    value = obj.get(name, default)
    if not isinstance(value, bool):
        raise ProtocolError(f"{path}.{name}", "must be a boolean")
    return value


def parse_tenant(payload: dict) -> str:
    """Validate the ``tenant`` routing key shared by both POST bodies."""
    tenant = payload.get("tenant")
    if tenant is None:
        raise ProtocolError("tenant", "is required")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError("tenant", "must be a non-empty string")
    if len(tenant) > MAX_TENANT_NAME_LEN:
        raise ProtocolError(
            "tenant", f"at most {MAX_TENANT_NAME_LEN} characters"
        )
    if any(c.isspace() or not c.isprintable() for c in tenant):
        raise ProtocolError(
            "tenant", "must not contain whitespace or control characters"
        )
    return tenant


def parse_predict_request(
    payload: object,
) -> tuple[str, list[TaskSubmission]]:
    """Parse a ``POST /predict`` body into (tenant, submissions)."""
    body = _require_object(payload, "body")
    tenant = parse_tenant(body)
    tasks = _require_list(body.get("tasks"), "tasks")
    submissions: list[TaskSubmission] = []
    for i, item in enumerate(tasks):
        path = f"tasks[{i}]"
        obj = _require_object(item, path)
        submissions.append(
            TaskSubmission(
                task_type=_str_field(obj, "task_type", path),
                workflow=_str_field(obj, "workflow", path, default="serve"),
                machine=_str_field(obj, "machine", path, default="default"),
                instance_id=_int_field(obj, "instance_id", path, -1),
                input_size_mb=_num_field(
                    obj, "input_size_mb", path, minimum=0.0
                ),
                preset_memory_mb=_num_field(
                    obj,
                    "preset_memory_mb",
                    path,
                    _PRESET_DEFAULT_MB,
                    minimum=0.0,
                    exclusive=True,
                ),
                timestamp=_int_field(obj, "timestamp", path, 0),
            )
        )
    return tenant, submissions


def parse_observe_request(payload: object) -> tuple[str, list[ObserveItem]]:
    """Parse a ``POST /observe`` body into (tenant, observations)."""
    body = _require_object(payload, "body")
    tenant = parse_tenant(body)
    items = _require_list(body.get("observations"), "observations")
    observations: list[ObserveItem] = []
    for i, item in enumerate(items):
        path = f"observations[{i}]"
        obj = _require_object(item, path)
        success = _bool_field(obj, "success", path, True)
        peak = _num_field(
            obj, "peak_memory_mb", path, minimum=0.0, exclusive=True
        )
        allocated = _num_field(obj, "allocated_mb", path, 0.0, minimum=0.0)
        # The ledger enforces these invariants by raising; validating
        # here instead turns an inconsistent report into a typed 400.
        if allocated > 0.0 and success and allocated < peak:
            raise ProtocolError(
                f"{path}.allocated_mb",
                f"successful run cannot have allocated < peak "
                f"({allocated:g} < {peak:g} MB)",
            )
        if allocated > 0.0 and not success and allocated >= peak:
            raise ProtocolError(
                f"{path}.allocated_mb",
                f"failed run requires allocated < peak "
                f"({allocated:g} >= {peak:g} MB)",
            )
        record = TaskRecord(
            task_type=_str_field(obj, "task_type", path),
            workflow=_str_field(obj, "workflow", path, default="serve"),
            machine=_str_field(obj, "machine", path, default="default"),
            timestamp=_int_field(obj, "timestamp", path, 0),
            input_size_mb=_num_field(obj, "input_size_mb", path, minimum=0.0),
            peak_memory_mb=peak,
            runtime_hours=_num_field(
                obj, "runtime_hours", path, 0.0, minimum=0.0
            ),
            success=success,
            attempt=max(_int_field(obj, "attempt", path, 1), 1),
            allocated_mb=allocated,
            instance_id=_int_field(obj, "instance_id", path, -1),
        )
        observations.append(
            ObserveItem(
                record=record, allocated_mb=allocated, attempt=record.attempt
            )
        )
    return tenant, observations
