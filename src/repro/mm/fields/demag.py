"""Demagnetising field terms.

:class:`DemagField` computes the full magnetostatic field by FFT-based
convolution of the Newell tensor with the magnetisation -- the exact
(within discretisation) treatment OOMMF uses.  :class:`ThinFilmDemagField`
is the local thin-film approximation H = -Ms*m_z*z_hat (demag factor
N_zz = 1), adequate for laterally extended ultrathin films and orders of
magnitude cheaper; the ablation benchmark quantifies the difference.
Both evaluate in float64; the FFT convolution runs on ``np.fft`` with
preallocated ``out=`` buffers.
"""

import warnings

import numpy as np

from repro import obs
from repro.mm.fields.base import FieldTerm
from repro.mm.fields.newell import demag_tensor


class DemagField(FieldTerm):
    """Full demagnetisation via Newell tensor + FFT convolution.

    The tensor FFTs are precomputed at construction for a given mesh, so
    each field evaluation costs 3 forward and 3 inverse real FFTs.  The
    padded input, spectral and inverse-transform buffers are
    preallocated once and filled through ``np.fft``'s ``out=`` argument,
    so a field evaluation performs no heap allocation at all.
    """

    _TENSOR_ROWS = (("xx", "xy", "xz"), ("xy", "yy", "yz"), ("xz", "yz", "zz"))

    def __init__(self, mesh):
        self.mesh = mesh
        self._padded = tuple(2 * n if n > 1 else 1 for n in mesh.shape)
        tensor = demag_tensor(mesh, self._padded)
        self._axes = (0, 1, 2)
        self._n_hat = {
            key: np.fft.rfftn(component, s=self._padded, axes=self._axes)
            for key, component in tensor.items()
        }
        # Reusable FFT workspaces: the zero padding of ``_pad`` is
        # written once here and never touched again (field evaluations
        # only overwrite the [:nx,:ny,:nz] corner); the magnetisation
        # spectra, the accumulators and the inverse-transform output all
        # live in preallocated buffers the FFTs fill in place.
        spectral_shape = self._n_hat["xx"].shape
        self._pad = np.zeros(self._padded)
        self._m_hat = [
            np.empty(spectral_shape, dtype=complex) for _ in range(3)
        ]
        self._acc = np.empty(spectral_shape, dtype=complex)
        self._spec_tmp = np.empty(spectral_shape, dtype=complex)
        self._full = np.empty(self._padded)

    def _check_state(self, state):
        mesh = state.mesh
        if mesh.shape != self.mesh.shape or (
            (mesh.dx, mesh.dy, mesh.dz)
            != (self.mesh.dx, self.mesh.dy, self.mesh.dz)
        ):
            # Cell geometry matters as much as shape: the precomputed
            # Newell tensor encodes dx/dy/dz, so a same-shape mesh with
            # different cells would silently convolve against the wrong
            # tensor.
            raise ValueError(
                f"state mesh (shape {mesh.shape}, cell "
                f"({mesh.dx!r}, {mesh.dy!r}, {mesh.dz!r})) does not match "
                f"the mesh this DemagField was built for (shape "
                f"{self.mesh.shape}, cell ({self.mesh.dx!r}, "
                f"{self.mesh.dy!r}, {self.mesh.dz!r}))"
            )

    def _spectra(self, state):
        """Forward FFTs of Ms*m into the preallocated spectral buffers."""
        nx, ny, nz = self.mesh.shape
        ms = state.material.ms
        corner = self._pad[:nx, :ny, :nz]
        for comp in range(3):
            np.multiply(state.m[..., comp], ms, out=corner)
            np.fft.rfftn(self._pad, s=self._padded, axes=self._axes,
                         out=self._m_hat[comp])
        return self._m_hat

    def field(self, state, t=0.0):
        h = np.empty(self.mesh.shape + (3,), dtype=float)
        h.fill(0.0)
        return self.add_field_into(state, h, t)

    def add_field_into(self, state, out, t=0.0):
        """Accumulate the FFT-convolution demag field into ``out``.

        The padded real input buffer, the spectral accumulators and the
        inverse-transform output are all reused across calls; the tensor
        contraction runs through in-place ufuncs, so the whole evaluation
        is allocation-free.
        """
        self._check_state(state)
        with obs.span("mm/demag_fft"):
            m_hat = self._spectra(state)
            nx, ny, nz = self.mesh.shape
            acc, tmp = self._acc, self._spec_tmp
            for comp, row in enumerate(self._TENSOR_ROWS):
                np.multiply(self._n_hat[row[0]], m_hat[0], out=acc)
                np.multiply(self._n_hat[row[1]], m_hat[1], out=tmp)
                acc += tmp
                np.multiply(self._n_hat[row[2]], m_hat[2], out=tmp)
                acc += tmp
                np.fft.irfftn(acc, s=self._padded, axes=self._axes,
                              out=self._full)
                out[..., comp] -= self._full[:nx, :ny, :nz]
        return out


class ThinFilmDemagField(FieldTerm):
    """Local thin-film demag approximation: H = -Ms * m_z * z_hat.

    Exact for an infinite uniformly magnetised film; for the paper's
    1 nm x 50 nm cross-section waveguides it captures the dominant
    perpendicular shape anisotropy at negligible cost.  A general
    diagonal factor tuple ``(n_x, n_y, n_z)`` may be supplied for other
    shapes; the factors must sum to ~1 (the demag tensor's trace), and
    clearly unphysical sums (<= 0 or > 1.5, e.g. a transposed or typo'd
    tuple) are rejected outright while mild deviations only warn.
    """

    def __init__(self, factors=(0.0, 0.0, 1.0)):
        factors = tuple(float(f) for f in factors)
        if len(factors) != 3:
            raise ValueError(f"need 3 demag factors, got {factors!r}")
        if any(f < 0 for f in factors):
            raise ValueError(f"demag factors must be non-negative: {factors!r}")
        total = sum(factors)
        if total <= 0.0 or total > 1.5:
            raise ValueError(
                f"demag factors should sum to ~1 (tensor trace), got sum "
                f"{total!r} from {factors!r}"
            )
        if abs(total - 1.0) > 1e-6:
            warnings.warn(
                f"demag factors {factors!r} sum to {total!r}, not 1; the "
                "diagonal approximation then violates the demag tensor's "
                "trace and skews the anisotropy fusion",
                stacklevel=2,
            )
        self.factors = factors

    def field(self, state, t=0.0):
        ms = state.material.ms
        h = np.empty(state.mesh.shape + (3,), dtype=float)
        for comp in range(3):
            h[..., comp] = -ms * self.factors[comp] * state.m[..., comp]
        return h

    def add_field_into(self, state, out, t=0.0):
        """In-place accumulation of the diagonal demag tensor."""
        ms = state.material.ms
        (scaled,) = self._scratch(state.mesh.shape)
        for comp in range(3):
            factor = -ms * self.factors[comp]
            if factor != 0.0:
                np.multiply(state.m[..., comp], factor, out=scaled)
                out[..., comp] += scaled
        return out

    def cell_linear_operator(self, state):
        """``diag(-Ms * factors)`` (enables workspace fusion)."""
        return np.diag(-state.material.ms * np.asarray(self.factors))
