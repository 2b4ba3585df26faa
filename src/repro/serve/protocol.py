"""JSON wire format of the circuit-serving daemon.

One module owns every encode/decode pair the HTTP layer speaks, so the
daemon (:mod:`repro.serve.daemon`) and the client
(:mod:`repro.serve.client`) stay bit-compatible by construction:

* netlists ride as :meth:`~repro.circuits.netlist.Netlist.to_dict`
  payloads (insertion order preserved, so the server-side rebuild has
  the *same* content hash and coalesces with identical submissions);
* faults and noise flatten to plain dicts mirroring
  :class:`~repro.circuits.engine.CellFault` /
  :class:`~repro.waveguide.NoiseModel` fields;
* results flatten outputs, expected, failure flags, per-level margin
  reports and (on request) per-cell decode detail;
* errors map onto HTTP statuses by class -- request/validation errors
  (:class:`~repro.errors.NetlistError`,
  :class:`~repro.errors.EncodingError`) are 400s, physics-level strict
  failures (:class:`~repro.errors.SimulationError`,
  :class:`~repro.errors.ReadoutError`) are 422s, anything unexpected is
  a 500 -- and round-trip back into the same exception classes on the
  client, so ``client.run(...)`` raises exactly what the in-process
  ``executor.run(...)`` would have.

Dead decodes carry ``NaN`` margins; payloads therefore use Python's
JSON dialect (``allow_nan``), which both ends of this stack parse.

>>> from repro.circuits.netlist import Netlist
>>> netlist = Netlist("wire")
>>> _ = netlist.add_input("a")
>>> _ = netlist.add_cell("na", "INV", ("a",))
>>> _ = netlist.mark_output("na")
>>> payload = encode_run_request(netlist, [{"a": 1}])
>>> request = decode_run_request(payload)
>>> request.netlist.evaluate({"a": 1})
{'na': 0}
>>> request.mode, request.strict
('phasor', True)
>>> from repro.errors import SimulationError
>>> status, wire = error_to_wire(SimulationError("cell 'y' is dead"))
>>> status
422
>>> raised = error_from_wire(wire, status)
>>> type(raised).__name__, str(raised)
('SimulationError', "cell 'y' is dead")
"""

from dataclasses import dataclass

from repro import errors as _errors
from repro.circuits.engine import (
    CellFault,
    CellRecord,
    CircuitRunResult,
    LevelReport,
)
from repro.circuits.executor import RequestTrace
from repro.circuits.netlist import Netlist
from repro.core.faults import TransducerFault
from repro.errors import (
    EncodingError,
    NetlistError,
    ReadoutError,
    ReproError,
    SimulationError,
)
from repro.waveguide.noise import NoiseModel

#: Wire protocol version, echoed by ``/healthz``.
PROTOCOL_VERSION = 1


# ----------------------------------------------------------------------
# Faults and noise
# ----------------------------------------------------------------------
def fault_to_wire(cell_fault):
    """Flatten one :class:`CellFault` to a JSON-pure dict."""
    fault = cell_fault.fault
    return {
        "cell": cell_fault.cell,
        "kind": fault.kind,
        "channel": fault.channel,
        "input_index": fault.input_index,
        "severity": fault.severity,
    }


def fault_from_wire(payload):
    """Rebuild one :class:`CellFault`; validation happens in the
    :class:`~repro.core.faults.TransducerFault` constructor."""
    if isinstance(payload, CellFault):
        return payload
    if not isinstance(payload, dict):
        raise NetlistError(f"malformed fault entry {payload!r}")
    try:
        fault = TransducerFault(
            kind=payload["kind"],
            channel=int(payload["channel"]),
            input_index=int(payload["input_index"]),
            severity=float(payload.get("severity", 0.5)),
        )
        return CellFault(cell=payload["cell"], fault=fault)
    except (KeyError, TypeError, ValueError) as exc:
        raise NetlistError(f"malformed fault entry {payload!r}") from exc


def noise_to_wire(noise):
    """Flatten a :class:`NoiseModel` (or None) to a dict (or None)."""
    if noise is None:
        return None
    return {
        "amplitude_sigma": noise.amplitude_sigma,
        "phase_sigma": noise.phase_sigma,
        "position_sigma": noise.position_sigma,
        "trace_sigma": noise.trace_sigma,
        "seed": noise.seed,
    }


#: NoiseModel field order of the wire dict.
_NOISE_FIELDS = (
    "amplitude_sigma", "phase_sigma", "position_sigma", "trace_sigma",
)


def noise_from_wire(payload):
    """Rebuild a :class:`NoiseModel` from its wire dict (or None)."""
    if payload is None or isinstance(payload, NoiseModel):
        return payload
    if not isinstance(payload, dict):
        raise NetlistError(f"malformed noise entry {payload!r}")
    unknown = set(payload) - set(_NOISE_FIELDS) - {"seed"}
    if unknown:
        raise NetlistError(
            f"unknown noise fields {sorted(unknown)!r}"
        )
    try:
        kwargs = {
            name: float(payload[name])
            for name in _NOISE_FIELDS if name in payload
        }
        return NoiseModel(seed=int(payload.get("seed", 0)), **kwargs)
    except (TypeError, ValueError) as exc:
        raise NetlistError(f"malformed noise entry {payload!r}") from exc


# ----------------------------------------------------------------------
# Run requests
# ----------------------------------------------------------------------
@dataclass
class RunRequest:
    """One decoded ``POST /v1/run`` body, ready for the executor."""

    netlist: Netlist
    assignments: list
    faults: list
    noise: object
    strict: bool
    mode: str
    cells: bool


def encode_run_request(netlist, assignments, faults=(), noise=None,
                       strict=True, mode="phasor", cells=False):
    """The ``POST /v1/run`` body for one evaluation request."""
    return {
        "netlist": netlist.to_dict(),
        "assignments": [dict(a) for a in assignments],
        "faults": [
            fault_to_wire(f) if isinstance(f, CellFault) else dict(f)
            for f in faults
        ],
        "noise": noise_to_wire(noise) if not isinstance(noise, dict)
        else dict(noise),
        "strict": bool(strict),
        "mode": mode,
        "cells": bool(cells),
    }


def decode_run_request(payload):
    """Parse one ``/v1/run`` body into a :class:`RunRequest`.

    Malformed payloads raise :class:`~repro.errors.NetlistError` (a
    400); semantic validation -- input presence, 0/1 values, fault
    ranges, mode names -- is left to ``CircuitExecutor.submit`` so the
    daemon raises byte-identical messages to the in-process path.
    """
    if not isinstance(payload, dict):
        raise NetlistError("run request body must be a JSON object")
    if "netlist" not in payload or "assignments" not in payload:
        raise NetlistError(
            "run request needs 'netlist' and 'assignments' fields"
        )
    assignments = payload["assignments"]
    if not isinstance(assignments, list) or not all(
        isinstance(a, dict) for a in assignments
    ):
        raise NetlistError(
            "'assignments' must be a list of {input: bit} objects"
        )
    return RunRequest(
        netlist=Netlist.from_dict(payload["netlist"]),
        assignments=assignments,
        faults=[fault_from_wire(f) for f in payload.get("faults", ())],
        noise=noise_from_wire(payload.get("noise")),
        strict=bool(payload.get("strict", True)),
        mode=payload.get("mode", "phasor"),
        cells=bool(payload.get("cells", False)),
    )


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def result_to_wire(result, include_cells=False):
    """Flatten one :class:`CircuitRunResult` for the HTTP response.

    Level reports (the margin data the conformance tests pin) always
    ride along; the full per-cell decode detail is opt-in
    (``include_cells`` / the request's ``"cells": true``) because it
    dwarfs the outputs for deep circuits.
    """
    wire = {
        "outputs": result.outputs,
        "expected": result.expected,
        "failed": list(result.failed),
        "n_entries": result.n_entries,
        "mode": result.mode,
        "correct": result.correct,
        "min_margin": result.min_margin,
        "faults": [fault_to_wire(f) for f in result.faults],
        "levels": [
            {
                "level": report.level,
                "n_cells": report.n_cells,
                "n_physical": report.n_physical,
                "min_margin": report.min_margin,
            }
            for report in result.levels
        ],
        # Per-request executor timing breakdown (None when the serving
        # executor runs with trace_requests=False).
        "trace": (
            result.trace.as_dict() if result.trace is not None else None
        ),
    }
    if include_cells:
        wire["cells"] = {
            name: {
                "operation": record.operation,
                "level": record.level,
                "bits": record.bits,
                "margins": record.margins,
                "amplitudes": record.amplitudes,
            }
            for name, record in result.cells.items()
        }
    return wire


def result_from_wire(payload):
    """Rebuild a :class:`CircuitRunResult` from a ``/v1/run`` response.

    The reconstruction carries everything the wire does -- outputs,
    expected, failure flags, level reports, faults and (when the
    request asked for them) per-cell records -- so client-side code
    consumes the same result type as in-process callers.
    """
    levels = [
        LevelReport(
            level=entry["level"],
            n_cells=entry["n_cells"],
            n_physical=entry["n_physical"],
            min_margin=entry["min_margin"],
        )
        for entry in payload.get("levels", ())
    ]
    cells = {
        name: CellRecord(
            name=name,
            operation=entry["operation"],
            level=entry["level"],
            bits=entry["bits"],
            margins=entry.get("margins"),
            amplitudes=entry.get("amplitudes"),
        )
        for name, entry in payload.get("cells", {}).items()
    }
    trace = payload.get("trace")
    if isinstance(trace, dict):
        trace = RequestTrace.from_dict(trace)
    return CircuitRunResult(
        outputs=payload["outputs"],
        expected=payload["expected"],
        failed=payload["failed"],
        levels=levels,
        cells=cells,
        n_entries=payload["n_entries"],
        faults=[fault_from_wire(f) for f in payload.get("faults", ())],
        mode=payload.get("mode", "phasor"),
        trace=trace,
    )


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------
#: Error class -> HTTP status.  First match in order wins, so the
#: request-shaped 400 classes list before the physics-shaped 422s and
#: the ReproError catch-all.
ERROR_STATUS = (
    (NetlistError, 400),
    (EncodingError, 400),
    (SimulationError, 422),
    (ReadoutError, 422),
    (ReproError, 400),
)


def error_to_wire(exc):
    """``(http status, error payload)`` of one raised exception."""
    for klass, status in ERROR_STATUS:
        if isinstance(exc, klass):
            break
    else:
        status = 500
    return status, {
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


def error_from_wire(payload, status):
    """The exception one error payload round-trips back into.

    Known :mod:`repro.errors` classes rebuild as themselves, so a
    remote strict decode failure raises the same
    :class:`~repro.errors.SimulationError` a local run would; anything
    else (daemon-side 500s included) surfaces as ``RuntimeError``.
    """
    entry = payload.get("error", {}) if isinstance(payload, dict) else {}
    name = entry.get("type", "")
    message = entry.get("message", f"server returned HTTP {status}")
    klass = getattr(_errors, name, None)
    if isinstance(klass, type) and issubclass(klass, ReproError):
        return klass(message)
    return RuntimeError(f"{name or 'HTTPError'} (HTTP {status}): {message}")
