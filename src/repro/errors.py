"""The typed error for bad run options.

:class:`ConfigError` is what a layer raises when the caller asked for
something it cannot run: an option value out of range, two options
that exclude each other, a spec string that does not parse, or a file
that is not what it claims to be.  The CLI turns it into a usage error
(exit 2) with the layer's message, as the sizing server turns a
:class:`~repro.serve.protocol.ProtocolError` into a 400.

It subclasses :class:`ValueError`, so callers that caught the generic
error keep working.  A bare ``ValueError`` is not caught as one: numpy
raises ``LinAlgError`` and broadcasting errors as ``ValueError``\\ s,
and those are bugs, not usage errors.

This module imports nothing from :mod:`repro`, so every layer can raise
the error without importing the simulator.
"""

from __future__ import annotations

__all__ = ["ConfigError"]


class ConfigError(ValueError):
    """A run option, spec string or input file the caller must fix."""
