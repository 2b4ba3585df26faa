"""Seeded request streams and their Boolean references.

Every workload's inputs come from :func:`make_stream` and nothing else:
the same ``(workload, seed)`` gives the same requests, word for word,
and the same reference outputs.  References are computed here, at
generation time and outside every timed region, with
:meth:`Netlist.evaluate` one word at a time -- never from the server's
own ``correct`` flag or ``expected`` field.

Stream mixes are *stratified*: each cycle of a stream holds a fixed
number of requests of every class, in a seeded order with seeded input
bits.  A different seed reorders the traffic and redraws every bit,
but it never changes the mix, so a percentile does not jump between request classes from one
seed to the next.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from perfbench import WORKLOADS
from repro.circuits import (
    CellFault,
    majority_tree,
    random_netlist,
    ripple_carry_adder,
)
from repro.core.faults import TransducerFault
from repro.serve.protocol import encode_run_request
from repro.waveguide.noise import NoiseModel

#: Distinct netlists ``serve-mixed`` cycles through; the daemon's
#: ``--cache-size`` (:data:`MIXED_CACHE_SIZE`) is smaller, so the
#: compile cache churns.
MIXED_NETLISTS = ("rca4", "rca8", "maj9", "maj27", "rand0", "rand1")
MIXED_CACHE_SIZE = 4


@dataclass
class Request:
    """One generated request: what to send and what must come back."""

    index: int
    kind: str            # "nominal" | "fault" | "noise"
    netlist_key: str
    netlist: object
    mode: str
    words: list
    faults: list = field(default_factory=list)
    noise: object = None
    strict: bool = True
    reference: dict = None
    body: bytes = b""

    @property
    def n_words(self):
        return len(self.words)


def netlists():
    """The netlists the streams draw from, by key.

    The two random DAGs are fixed as well: a seed changes the traffic
    (order and input bits), never how much work a request class is.
    """
    return {
        "rca4": ripple_carry_adder(4),
        "rca8": ripple_carry_adder(8),
        "maj9": majority_tree(9),
        "maj27": majority_tree(27),
        "rand0": random_netlist(1, n_inputs=6, n_cells=16, n_outputs=3),
        "rand1": random_netlist(2, n_inputs=6, n_cells=16, n_outputs=3),
    }


def reference_outputs(netlist, words):
    """{output: [bit per word]} from the scalar Boolean model."""
    reference = {name: [] for name in netlist.outputs}
    for word in words:
        for name, bit in netlist.evaluate(word).items():
            reference[name].append(bit)
    return reference


def _words(rng, netlist, n_words):
    bits = rng.integers(0, 2, size=(n_words, len(netlist.inputs)))
    return [
        dict(zip(netlist.inputs, map(int, row))) for row in bits
    ]


def _fault(rng, netlist):
    """One seeded transducer fault on a physical (MAJ3/XOR2) cell."""
    cells = [c for c in netlist.cells() if c.kind in ("MAJ3", "XOR2")]
    cell = cells[int(rng.integers(len(cells)))]
    kind = ("dead-source", "stuck-phase-0", "stuck-phase-1",
            "weak-source")[int(rng.integers(4))]
    return CellFault(cell=cell.name, fault=TransducerFault(
        kind=kind, channel=int(rng.integers(8)),
        input_index=int(rng.integers(3 if cell.kind == "MAJ3" else 2)),
        severity=0.5,
    ))


# One stratum of each workload: (kind, mode, netlist keys, words).
# Every entry is one request per listed netlist key.
_STRATA = {
    # Closed loop: every request is a 32-word rca4 phasor request, so
    # two in flight fill the daemon's 64-word max_block.
    "serve-rca4": [("nominal", "phasor", ("rca4",) * 8, 32)],
    # Open loop, 40 requests per stratum: 30 phasor over all six
    # netlists, 4 fault, 3 trace (maj9) and 3 placement-noise (rca4,
    # served by the fallback engine).  Each slow class is one netlist,
    # so it is one latency population.
    "serve-mixed": [
        ("nominal", "phasor", MIXED_NETLISTS * 3, 8),
        ("nominal", "phasor", MIXED_NETLISTS * 2, 16),
        ("fault", "phasor", ("rca4", "rca8", "maj27", "rand0"), 8),
        ("nominal", "trace", ("maj9",) * 3, 8),
        ("noise", "phasor", ("rca4",) * 3, 8),
    ],
}

#: Strata per stream; streams are cycled when a run outlasts them.
_N_STRATA = {"serve-rca4": 16, "serve-mixed": 12}

_WORKLOAD_TAG = {name: i for i, name in enumerate(WORKLOADS)}


def make_stream(workload, seed):
    """The seeded request stream of ``workload`` (a list of Request),
    each with its ``POST /v1/run`` body rendered by the public wire
    codec (:func:`encode_run_request`)."""
    if workload not in _STRATA:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([int(seed), _WORKLOAD_TAG[workload]])
    by_key = netlists()
    requests = []
    for _ in range(_N_STRATA[workload]):
        stratum = [
            (kind, mode, key, n_words)
            for kind, mode, keys, n_words in _STRATA[workload]
            for key in keys
        ]
        for position in rng.permutation(len(stratum)):
            kind, mode, key, n_words = stratum[position]
            netlist = by_key[key]
            request = Request(
                index=len(requests), kind=kind, netlist_key=key,
                netlist=netlist, mode=mode,
                words=_words(rng, netlist, n_words),
            )
            if kind == "fault":
                request.faults = [_fault(rng, netlist)]
                request.strict = False
            elif kind == "noise":
                request.noise = NoiseModel(
                    position_sigma=2e-9, seed=int(rng.integers(2**31)),
                )
                request.strict = False
            request.reference = reference_outputs(netlist, request.words)
            request.body = json.dumps(encode_run_request(
                netlist, request.words, faults=request.faults,
                noise=request.noise, strict=request.strict, mode=mode,
            )).encode("utf-8")
            requests.append(request)
    return requests


def check_result(request, status, outputs, failed, n_entries):
    """True when one response is right for ``request``.

    Nominal requests must come back 200 and bit-exact against the
    generator's reference, with no failed word.  Fault and noise
    requests (sent with ``strict=False``) must come back 200 and well
    formed: every output present, one entry per word, bits 0/1 or
    ``None`` for a failed word.
    """
    n = request.n_words
    if status != 200 or n_entries != n or len(failed) != n:
        return False
    if request.kind == "nominal":
        return outputs == request.reference and not any(failed)
    if set(outputs) != set(request.reference):
        return False
    return all(
        len(bits) == n and all(b in (0, 1, None) for b in bits)
        for bits in outputs.values()
    )
