"""``repro.serve`` -- the network serving layer over the circuit stack.

The first multi-process scenario in the repository: a stdlib-only
JSON-over-HTTP daemon (:class:`~repro.serve.daemon.CircuitServer`,
``swgate serve``) in front of the coalescing
:class:`~repro.circuits.executor.CircuitExecutor`, a matching client
(:class:`~repro.serve.client.ServeClient`, ``swgate serve --send``) and
the wire codecs both share (:mod:`repro.serve.protocol`).  Concurrent
clients' word batches coalesce into shared packed GEMM blocks; a
background flush thread enforces the executor's ``max_latency`` bound;
``/metrics`` and ``/stats`` export the ``repro.obs`` registry the
executor already records into (``?format=prometheus`` for scrapers);
every ``/v1/run`` returns a per-request timing trace and lands in a
structured event log (``/logs``, ``--access-log``); ``swgate top``
(:mod:`repro.serve.monitor`) renders live throughput from the same
endpoints; and workers warm-start by compiling netlists (``swgate
serve --warm`` reads ``Netlist.to_dict`` JSON) before the first
request, so it skips compile + calibration.
"""

from repro.serve.client import ServeClient
from repro.serve.daemon import CircuitServer
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    decode_run_request,
    encode_run_request,
    error_from_wire,
    error_to_wire,
    result_from_wire,
    result_to_wire,
)

__all__ = [
    "CircuitServer",
    "ServeClient",
    "PROTOCOL_VERSION",
    "encode_run_request",
    "decode_run_request",
    "result_to_wire",
    "result_from_wire",
    "error_to_wire",
    "error_from_wire",
]
