"""Exception hierarchy for the repro library.

Every error raised intentionally by this package derives from
:class:`ReproError`, so downstream users can catch library failures
without masking genuine bugs (``TypeError`` and friends still propagate).
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class MaterialError(ReproError):
    """Invalid or inconsistent material parameters."""


class DispersionError(ReproError):
    """A dispersion relation could not be evaluated or inverted."""


class MeshError(ReproError):
    """Invalid finite-difference mesh specification."""

class FieldError(ReproError):
    """Invalid effective-field term configuration."""


class SimulationError(ReproError):
    """A micromagnetic simulation was mis-configured or diverged."""


class LayoutError(ReproError):
    """An in-line gate layout constraint cannot be satisfied."""


class EncodingError(ReproError):
    """Invalid logic-value or phase-encoding request."""


class ReadoutError(ReproError):
    """Signal decoding failed (no carrier, ambiguous phase, ...)."""


class NetlistError(ReproError):
    """Invalid circuit netlist operation."""


class OommfFormatError(ReproError):
    """Malformed MIF or OVF content."""


class SynthesisError(ReproError):
    """Invalid logic-synthesis request (MIG, parser, passes, mapping)."""


class ServeError(ReproError):
    """The serving daemon cannot be reached (connection refused, DNS
    failure, socket timeout).  Raised by :class:`repro.serve.ServeClient`
    in place of raw ``urllib`` transport errors; daemon-side failures
    that *were* served still raise their own typed classes."""
