"""Wire protocol of the QoR prediction service.

The daemon (:mod:`repro.serve.server`) speaks newline-delimited JSON over a
plain TCP stream: every request is one JSON object on one line, every
response is one JSON object on one line.  This module is the shared
vocabulary — request/response helpers, the structured error codes, and the
JSON representation of a :class:`~repro.frontend.pragmas.PragmaConfig` —
used by the server, the blocking client and the tests, so the three can
never drift apart.

A ``predict`` request looks like::

    {"type": "predict", "id": 7, "kernel": "gemm",
     "configs": [{"loops": {"L0_0": {"pipeline": true, "unroll": 2}},
                  "arrays": {"A": {"type": "cyclic", "factor": 4, "dim": 2}}}]}

``source`` (raw HLS-C text) may replace ``kernel``; configurations may also
be given in the CLI's spec-string form
(``{"loops": ["L0_0=pipeline+unroll:2"], "arrays": ["A=cyclic:4:2"]}``).
The response echoes ``id`` and carries one metrics dict per configuration::

    {"id": 7, "ok": true, "results": [{"latency": ..., "lut": ..., ...}]}

Failures are structured: ``{"id": 7, "ok": false, "error": "<code>",
"message": "..."}`` with ``error`` one of :data:`ERROR_CODES` — clients
dispatch on the code (``overloaded`` means back off and retry, ``draining``
means the daemon is shutting down) and show the message to humans.
"""

from __future__ import annotations

import json

from repro.frontend.pragmas import (
    ArrayDirective,
    LoopDirective,
    PartitionType,
    PragmaConfig,
    config_from_specs,
)

#: structured error codes a response's ``error`` field may carry
ERROR_CODES: tuple[str, ...] = (
    "bad-request",     # malformed JSON / unknown type / invalid config payload
    "unknown-kernel",  # ``kernel`` names nothing in the registry
    "overloaded",      # admission control rejected the request; retry later
    "draining",        # the daemon is shutting down; no new work accepted
    "internal",        # the prediction itself failed; message has the cause
)


class ProtocolError(ValueError):
    """A request payload that cannot be interpreted (maps to ``bad-request``)."""


def encode_message(message: dict) -> bytes:
    """Serialize one protocol message to its wire form (JSON + newline)."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def decode_message(line: bytes | str) -> dict:
    """Parse one wire line into a message dict.

    Raises :class:`ProtocolError` on anything that is not a single JSON
    object — the server maps that to a ``bad-request`` response instead of
    dropping the connection.
    """
    try:
        message = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"expected a JSON object, got {type(message).__name__}"
        )
    return message


def error_response(request_id, code: str, message: str) -> dict:
    """A structured failure response (``code`` must be in ERROR_CODES)."""
    assert code in ERROR_CODES, code
    return {"id": request_id, "ok": False, "error": code, "message": message}


# --------------------------------------------------------------------------- #
# PragmaConfig <-> JSON
# --------------------------------------------------------------------------- #
def config_to_payload(config: PragmaConfig) -> dict:
    """The canonical JSON form of one design point (see module docstring)."""
    loops = {
        label: {
            "pipeline": directive.pipeline,
            "ii": directive.ii,
            "unroll": directive.unroll_factor,
            "flatten": directive.flatten,
        }
        for label, directive in config.loops
    }
    arrays = {
        name: {
            "type": directive.partition_type.value,
            "factor": directive.factor,
            "dim": directive.dim,
        }
        for name, directive in config.arrays
    }
    return {"loops": loops, "arrays": arrays}


def _integral(spec: dict, key: str, default: int) -> int:
    """``spec[key]`` as an int: only an integral JSON number is accepted.

    A boolean, a string or a non-integral number is rejected naming the
    field, never coerced (``"2"`` or ``true`` would score a design nobody
    asked for); an integral float such as ``4.0`` reads as 4.
    """
    value = spec.get(key, default)
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ProtocolError(f"{key} must be an integer, got {value!r}")


def _flag(spec: dict, key: str) -> bool:
    """``spec[key]`` as a bool: only a JSON boolean is accepted.

    ``"false"`` or ``0`` is rejected naming the field rather than read by
    truthiness (``bool("false")`` would switch the directive on).
    """
    value = spec.get(key, False)
    if not isinstance(value, bool):
        raise ProtocolError(f"{key} must be true or false, got {value!r}")
    return value


#: the keys each object of the dict form may carry (``unroll_factor`` is an
#: accepted alias of ``unroll``); anything else is a typo that would
#: otherwise score the baseline design silently
_CONFIG_KEYS = frozenset({"loops", "arrays"})
_LOOP_KEYS = frozenset({"pipeline", "ii", "unroll", "unroll_factor", "flatten"})
_ARRAY_KEYS = frozenset({"type", "factor", "dim"})


def _reject_unknown_keys(payload: dict, allowed: frozenset, what: str) -> None:
    """Raise :class:`ProtocolError` naming the first key outside ``allowed``."""
    unknown = sorted(str(key) for key in payload if key not in allowed)
    if unknown:
        raise ProtocolError(
            f"unknown {what} key {unknown[0]!r} "
            f"(expected one of {', '.join(sorted(allowed))})"
        )


def _loop_from_spec(spec: dict) -> LoopDirective:
    if not isinstance(spec, dict):
        raise ProtocolError(f"loop directive must be an object, got {spec!r}")
    _reject_unknown_keys(spec, _LOOP_KEYS, "loop directive")
    try:
        return LoopDirective(
            pipeline=_flag(spec, "pipeline"),
            ii=_integral(spec, "ii", 0),
            unroll_factor=_integral(
                spec, "unroll" if "unroll" in spec else "unroll_factor", 1
            ),
            flatten=_flag(spec, "flatten"),
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid loop directive {spec!r}: {exc}") from exc


def _array_from_spec(spec: dict) -> ArrayDirective:
    if not isinstance(spec, dict):
        raise ProtocolError(f"array directive must be an object, got {spec!r}")
    _reject_unknown_keys(spec, _ARRAY_KEYS, "array directive")
    try:
        return ArrayDirective(
            partition_type=PartitionType(str(spec.get("type", "cyclic")).lower()),
            factor=_integral(spec, "factor", 1),
            dim=_integral(spec, "dim", 1),
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid array directive {spec!r}: {exc}") from exc


def config_from_payload(payload) -> PragmaConfig:
    """Parse one configuration payload into a :class:`PragmaConfig`.

    Accepts the canonical dict form produced by :func:`config_to_payload`,
    the CLI's spec-string form (``loops``/``arrays`` as lists of strings
    like ``"L0=pipeline+unroll:2"`` / ``"A=cyclic:4:2"``), ``None`` / ``{}``
    for the baseline configuration, and raises :class:`ProtocolError` for
    everything else — including unknown keys (a misspelt ``"unrol"`` would
    otherwise score the baseline design), and values of the wrong JSON type:
    ``pipeline``/``flatten`` must be booleans and ``unroll``/``ii``/
    ``factor``/``dim`` integral numbers.
    """
    if payload is None:
        return PragmaConfig()
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"configuration must be a JSON object, got {type(payload).__name__}"
        )
    _reject_unknown_keys(payload, _CONFIG_KEYS, "configuration")
    loops_payload = payload.get("loops")
    arrays_payload = payload.get("arrays")
    if isinstance(loops_payload, list) or isinstance(arrays_payload, list):
        # CLI spec-string form, parsed by the parser behind the CLI's
        # --loop/--array options so the two notations can never diverge.
        # A missing/empty half ({} or None alongside a spec list) means "no
        # directives of that kind", matching the canonical form.
        loop_specs = loops_payload if loops_payload else []
        array_specs = arrays_payload if arrays_payload else []
        if not isinstance(loop_specs, list) or not all(
            isinstance(item, str) for item in loop_specs
        ):
            raise ProtocolError(f"invalid loop spec list {loops_payload!r}")
        if not isinstance(array_specs, list) or not all(
            isinstance(item, str) for item in array_specs
        ):
            raise ProtocolError(f"invalid array spec list {arrays_payload!r}")
        try:
            return config_from_specs(loop_specs, array_specs)
        except ValueError as exc:
            raise ProtocolError(f"invalid directive spec: {exc}") from exc
    loops_payload = loops_payload or {}
    arrays_payload = arrays_payload or {}
    if not isinstance(loops_payload, dict) or not isinstance(arrays_payload, dict):
        raise ProtocolError("loops/arrays must both be objects (or both lists)")
    loops = {
        str(label): _loop_from_spec(spec)
        for label, spec in loops_payload.items()
    }
    arrays = {
        str(name): _array_from_spec(spec)
        for name, spec in arrays_payload.items()
    }
    return PragmaConfig.from_dicts(loops, arrays)


__all__ = [
    "ERROR_CODES", "ProtocolError", "encode_message", "decode_message",
    "error_response", "config_to_payload", "config_from_payload",
]
