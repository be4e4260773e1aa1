"""Structured run logging on stdlib ``logging``.

All repro loggers live under the ``"repro"`` namespace and are silent
by default (the root ``repro`` logger gets a ``NullHandler``), so
importing the library never writes to stderr.  The CLI opts in with
``--log-level`` / ``--log-json`` via :func:`configure_logging`.

Context fields — ``run_id``, ``tenant``, ``shard`` — are carried in a
:mod:`contextvars` variable, so they survive thread hand-offs in the
serve executor and can be bound once around a whole run::

    log = get_logger(__name__)
    with log_context(run_id="grid-17", shard=3):
        log.info("kernel run finished", extra={"n_events": 12345})

With ``--log-json`` every record renders as one JSON object per line
(``ts``, ``level``, ``logger``, ``msg``, context fields, and any
``extra=`` keys); without it, a human-readable line with ``key=value``
suffixes.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import logging
import time

from repro.errors import ConfigError

__all__ = [
    "CONTEXT_FIELDS",
    "JsonFormatter",
    "configure_logging",
    "get_logger",
    "log_context",
]

#: Context fields merged into every record (when bound).
CONTEXT_FIELDS = ("run_id", "tenant", "shard")

#: Attributes present on every vanilla LogRecord — anything else on a
#: record was supplied via ``extra=`` and belongs in the payload.
_RESERVED = set(
    logging.LogRecord("", 0, "", 0, "", (), None).__dict__
) | {"message", "asctime", "taskName"}

_context: contextvars.ContextVar[dict] = contextvars.ContextVar(
    "repro_log_context", default={}
)


@contextlib.contextmanager
def log_context(**fields):
    """Bind context fields onto every record emitted inside the block."""
    merged = {**_context.get(), **fields}
    token = _context.set(merged)
    try:
        yield
    finally:
        _context.reset(token)


class ContextFilter(logging.Filter):
    """Stamp the bound context fields onto each record."""

    def filter(self, record: logging.LogRecord) -> bool:
        for key, value in _context.get().items():
            if not hasattr(record, key):
                setattr(record, key, value)
        return True


def _extra_fields(record: logging.LogRecord) -> dict:
    return {
        key: value
        for key, value in record.__dict__.items()
        if key not in _RESERVED and not key.startswith("_")
    }


class JsonFormatter(logging.Formatter):
    """One JSON object per line; ``extra=`` keys become payload fields."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "msg": record.getMessage(),
        }
        payload.update(_extra_fields(record))
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, default=str)


class TextFormatter(logging.Formatter):
    """Human-readable line with ``key=value`` suffixes for extras."""

    default_msec_format = "%s.%03d"

    def format(self, record: logging.LogRecord) -> str:
        base = (
            f"{self.formatTime(record)} {record.levelname.lower():7s} "
            f"{record.name}: {record.getMessage()}"
        )
        extras = _extra_fields(record)
        if extras:
            suffix = " ".join(f"{k}={v}" for k, v in extras.items())
            base = f"{base} [{suffix}]"
        if record.exc_info:
            base = f"{base}\n{self.formatException(record.exc_info)}"
        return base

    def converter(self, timestamp):  # local time is fine for a CLI tool
        return time.localtime(timestamp)


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` namespace (idempotent)."""
    if name == "repro" or name.startswith("repro."):
        return logging.getLogger(name)
    return logging.getLogger(f"repro.{name}")


def configure_logging(
    level: str | int = "warning",
    json_mode: bool = False,
    stream=None,
) -> logging.Logger:
    """Install a handler on the root ``repro`` logger (replacing ours).

    Called by the CLI from ``--log-level`` / ``--log-json``; safe to
    call repeatedly (tests reconfigure freely).  Returns the root
    ``repro`` logger.
    """
    root = logging.getLogger("repro")
    if isinstance(level, str):
        resolved = logging.getLevelName(level.upper())
        if not isinstance(resolved, int):
            raise ConfigError(f"unknown log level {level!r}")
        level = resolved
    handler = logging.StreamHandler(stream)
    handler.setFormatter(JsonFormatter() if json_mode else TextFormatter())
    handler.addFilter(ContextFilter())
    for old in list(root.handlers):
        root.removeHandler(old)
    root.addHandler(handler)
    root.setLevel(level)
    root.propagate = False
    return root


# Library default: silent unless configured.
logging.getLogger("repro").addHandler(logging.NullHandler())
