"""Transducer fault models and fault simulation.

A DATE-audience extension: manufacturing test of spin-wave gates.  The
dominant defect sites are the transducers; we model the classic set:

* ``dead-source`` -- an excitation cell that never launches a wave
  (amplitude stuck at 0);
* ``stuck-phase-0`` / ``stuck-phase-1`` -- a cell whose phase encoder is
  stuck at logic 0 / logic 1 regardless of the applied input;
* ``weak-source`` -- a cell launching at a fraction of nominal amplitude.

:func:`simulate_fault` evaluates a faulty gate on a test pattern;
:func:`fault_coverage` runs a pattern set against the whole fault list
and reports which faults are detected (some output word differs from
the fault-free response).  The classic result reproduces nicely here:
exhaustive patterns detect all phase faults, but ``weak-source`` faults
below the majority threshold are *undetectable by logic testing* --
they only shrink the analogue margin, motivating parametric tests.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import EncodingError, ReproError
from repro.core.simulate import GateSimulator

_FAULT_KINDS = ("dead-source", "stuck-phase-0", "stuck-phase-1", "weak-source")


@dataclass(frozen=True)
class TransducerFault:
    """One fault at source ``(channel, input_index)`` of a gate.

    ``severity`` only applies to ``weak-source`` (the remaining
    amplitude fraction).
    """

    kind: str
    channel: int
    input_index: int
    severity: float = 0.5

    def __post_init__(self):
        if self.kind not in _FAULT_KINDS:
            raise EncodingError(
                f"unknown fault kind {self.kind!r}; "
                f"supported: {_FAULT_KINDS}"
            )
        if self.kind == "weak-source" and not 0.0 < self.severity < 1.0:
            raise EncodingError(
                f"weak-source severity must be in (0, 1), got {self.severity!r}"
            )

    def check_site(self, n_bits, n_inputs):
        """Raise :class:`EncodingError` unless the faulted source exists
        on a gate of ``n_bits`` channels and ``n_inputs`` inputs."""
        if not 0 <= self.channel < n_bits:
            raise EncodingError(f"fault channel {self.channel} out of range")
        if not 0 <= self.input_index < n_inputs:
            raise EncodingError(
                f"fault input index {self.input_index} out of range"
            )

    def describe(self):
        """Short label for reports."""
        text = f"{self.kind}@ch{self.channel}.in{self.input_index}"
        if self.kind == "weak-source":
            text += f"({self.severity:g})"
        return text


def enumerate_faults(gate, kinds=_FAULT_KINDS, weak_severity=0.5):
    """The full single-fault list of ``gate`` (every source x kind)."""
    faults = []
    for kind in kinds:
        if kind not in _FAULT_KINDS:
            raise EncodingError(f"unknown fault kind {kind!r}")
        for channel in range(gate.n_bits):
            for input_index in range(gate.layout.n_inputs):
                faults.append(
                    TransducerFault(
                        kind=kind,
                        channel=channel,
                        input_index=input_index,
                        severity=weak_severity,
                    )
                )
    return faults


class FaultySimulator(GateSimulator):
    """A gate simulator whose source list is corrupted by one fault."""

    def __init__(self, gate, fault, **kwargs):
        super().__init__(gate, **kwargs)
        fault.check_site(gate.n_bits, gate.layout.n_inputs)
        self.fault = fault

    def build_sources(self, words):
        sources = super().build_sources(words)
        fault = self.fault
        # Sources are emitted channel-major by the parent class.
        flat_index = fault.channel * self.layout.n_inputs + fault.input_index
        victim = sources[flat_index]
        if fault.kind == "dead-source":
            victim = replace(victim, amplitude=0.0)
        elif fault.kind == "stuck-phase-0":
            victim = replace(victim, phase=0.0)
        elif fault.kind == "stuck-phase-1":
            victim = replace(victim, phase=math.pi)
        elif fault.kind == "weak-source":
            victim = replace(
                victim, amplitude=victim.amplitude * fault.severity
            )
        sources[flat_index] = victim
        return sources

    def mutate_source_bank(self, bank):
        """Corrupt the victim source's column across the whole batch.

        The array-native twin of :meth:`build_sources`: the fault lands
        after any noise, exactly as the scalar path replaces the victim
        in the already-perturbed source list.
        """
        fault = self.fault
        flat_index = fault.channel * self.layout.n_inputs + fault.input_index
        if fault.kind in ("dead-source", "weak-source"):
            amplitude = np.array(bank.amplitude)
            if fault.kind == "dead-source":
                amplitude[:, flat_index] = 0.0
            else:
                amplitude[:, flat_index] *= fault.severity
            return bank.replace(amplitude=amplitude)
        phase = np.array(bank.phase)
        phase[:, flat_index] = 0.0 if fault.kind == "stuck-phase-0" else math.pi
        return bank.replace(phase=phase)


def simulate_fault(gate, fault, words):
    """Output word of ``gate`` under ``fault`` for one input pattern.

    Faults can silence a channel entirely; decoding failures surface as
    ``None`` entries so callers can still compare words.
    """
    simulator = FaultySimulator(gate, fault)
    try:
        return simulator.run_phasor(words).decoded
    except ReproError:
        return [None] * gate.n_bits


def default_patterns(gate):
    """Exhaustive uniform patterns: every (I1..Im) combo on all channels.

    For an m-input gate this is 2^m word-tuples where every channel of
    input j carries the same bit -- the natural functional test set for
    a bit-sliced gate (delegates to
    :meth:`~repro.core.gate.DataParallelGate.exhaustive_patterns`).
    """
    return gate.exhaustive_patterns()


def _batch_responses(simulator, patterns):
    """Decoded words of ``simulator`` over ``patterns``, batched.

    One vectorised :meth:`~repro.core.simulate.GateSimulator.run_phasor_batch`
    call evaluates the whole pattern set; entries whose decode fails
    (a fault silenced a phase-readout channel outright) come back as
    ``[None] * n_bits`` so callers can still compare words.
    """
    runs = simulator.run_phasor_batch(patterns, strict=False)
    return [
        run.decoded if run is not None else [None] * simulator.gate.n_bits
        for run in runs
    ]


def parametric_coverage(
    gate, faults=None, patterns=None, amplitude_tolerance=0.1
):
    """Amplitude-based (parametric) fault detection.

    Logic testing cannot catch ``weak-source`` faults at all in the
    noiseless model: the interference phasors are exactly colinear, so
    any nonzero weak source still casts its deciding vote with phase 0
    or pi -- the decoded bits and even the phase margin are unchanged.
    What *does* change is the carrier **amplitude** at the detector.  A
    parametric test measures it and flags any channel whose amplitude
    deviates from the fault-free reference by more than
    ``amplitude_tolerance`` (relative) on some pattern.

    Returns the same record shape as :func:`fault_coverage` plus
    ``amplitude_tolerance``.
    """
    if faults is None:
        faults = enumerate_faults(gate)
    if patterns is None:
        patterns = default_patterns(gate)
    if not patterns:
        raise EncodingError("need at least one test pattern")
    if amplitude_tolerance <= 0:
        raise EncodingError(
            f"amplitude_tolerance must be positive, got {amplitude_tolerance!r}"
        )

    golden_sim = GateSimulator(gate)
    golden_runs = golden_sim.run_phasor_batch(patterns)
    golden_amplitudes = [
        [decode.amplitude for decode in run.decodes] for run in golden_runs
    ]
    scale = max(max(row) for row in golden_amplitudes)

    detected = []
    undetected = []
    for fault in faults:
        simulator = FaultySimulator(gate, fault)
        runs = simulator.run_phasor_batch(patterns, strict=False)
        hit = None
        for pattern_index, run in enumerate(runs):
            if run is None:
                hit = pattern_index  # channel died outright
                break
            amplitudes = [decode.amplitude for decode in run.decodes]
            reference = golden_amplitudes[pattern_index]
            deviation = max(
                abs(a - r) for a, r in zip(amplitudes, reference)
            )
            if deviation > amplitude_tolerance * scale:
                hit = pattern_index
                break
        if hit is None:
            undetected.append(fault)
        else:
            detected.append((fault, hit))
    total = len(faults)
    return {
        "coverage": len(detected) / total if total else 1.0,
        "detected": detected,
        "undetected": undetected,
        "n_patterns": len(patterns),
        "n_faults": total,
        "amplitude_tolerance": amplitude_tolerance,
    }


def fault_coverage(gate, faults=None, patterns=None):
    """Run ``patterns`` against every fault; returns the coverage record.

    A fault is *detected* when at least one pattern produces an output
    word different from the fault-free gate's output for that pattern.

    Returns a dict: ``coverage`` (fraction detected), ``detected`` /
    ``undetected`` (lists of (fault, first detecting pattern or None)),
    ``n_patterns``.
    """
    if faults is None:
        faults = enumerate_faults(gate)
    if patterns is None:
        patterns = default_patterns(gate)
    if not patterns:
        raise EncodingError("need at least one test pattern")

    golden_sim = GateSimulator(gate)
    golden = [run.decoded for run in golden_sim.run_phasor_batch(patterns)]

    detected = []
    undetected = []
    for fault in faults:
        responses = _batch_responses(FaultySimulator(gate, fault), patterns)
        hit = None
        for pattern_index, response in enumerate(responses):
            if response != golden[pattern_index]:
                hit = pattern_index
                break
        if hit is None:
            undetected.append(fault)
        else:
            detected.append((fault, hit))
    total = len(faults)
    return {
        "coverage": len(detected) / total if total else 1.0,
        "detected": detected,
        "undetected": undetected,
        "n_patterns": len(patterns),
        "n_faults": total,
    }
