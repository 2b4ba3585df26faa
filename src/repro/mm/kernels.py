"""Zero-allocation kernel layer for the LLG hot path.

Profiling the micromagnetic solver shows the wall-clock is dominated by
the NumPy allocator, not by FLOPs: every ``effective_field`` call
allocates a fresh ``(nx, ny, nz, 3)`` array per term, and each RK stage
allocates several more full-mesh temporaries.  This module provides the
in-place counterpart:

* :class:`LLGWorkspace` preallocates every scratch array the LLG
  right-hand side and the Runge-Kutta schemes need for a given mesh, so
  steady-state stepping performs no heap allocation at all;
* :func:`cross_into` / :func:`llg_rhs_from_field_into` compute the two
  LLG cross products and the damping combination directly into caller
  buffers, replacing three ``np.cross``/arithmetic temporaries;
* field terms contribute through ``FieldTerm.add_field_into(state, out,
  t)`` (see :mod:`repro.mm.fields.base`), accumulating into the shared
  field buffer instead of returning fresh arrays.

Every buffer is float64, like the state it steps.  The reference allocating API (:func:`repro.mm.llg.llg_rhs`,
``FieldTerm.field``) is unchanged and remains the ground truth the
equivalence tests compare against.
"""

import numpy as np

from repro.constants import MU0
from repro.errors import SimulationError
from repro.mm.fields.exchange import (
    TRAILING_FUSE_LIMIT,
    trailing_laplacian_operator,
)
from repro.mm.integrators import RKScratch

_CROSS_INDICES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def cross_into(a, b, out, tmp):
    """``out[...] = a x b`` over the last axis, allocation-free.

    ``tmp`` is a scalar scratch array of shape ``a.shape[:-1]``.  ``out``
    must not alias ``a`` or ``b``.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    for i, (aj, ak), (bj, bk) in (
        (0, (a1, a2), (b1, b2)),
        (1, (a2, a0), (b2, b0)),
        (2, (a0, a1), (b0, b1)),
    ):
        component = out[..., i]
        np.multiply(aj, bk, out=component)
        np.multiply(ak, bj, out=tmp)
        component -= tmp
    return out


def damping_prefactors(material, alpha=None):
    """``(alpha, prefactor)`` of the Landau-Lifshitz form, broadcastable.

    ``alpha`` may override the material damping with a scalar or a
    per-cell array of mesh shape (returned expanded to ``(..., 1)`` so it
    broadcasts over the vector components, exactly as
    :func:`repro.mm.llg.llg_rhs_from_field` does).
    """
    if alpha is None:
        alpha = float(material.alpha)
    else:
        alpha = np.asarray(alpha, dtype=float)
        if alpha.ndim > 0:
            alpha = alpha[..., np.newaxis]
        else:
            alpha = float(alpha)
    prefactor = -material.gamma * MU0 / (1.0 + alpha * alpha)
    return alpha, prefactor


def llg_rhs_from_field_into(m, h_eff, out, alpha, prefactor, mxh, tmp):
    """Fused LLG right-hand side written into ``out``.

    Computes ``prefactor * (m x H + alpha * m x (m x H))`` without
    allocating: ``mxh`` is a vector scratch (shape of ``m``), ``tmp`` a
    scalar scratch (mesh shape), and ``alpha``/``prefactor`` come from
    :func:`damping_prefactors`.
    """
    cross_into(m, h_eff, mxh, tmp)
    cross_into(m, mxh, out, tmp)
    if isinstance(alpha, float):
        out *= alpha
    else:
        np.multiply(out, alpha, out=out)
    out += mxh
    if isinstance(prefactor, float):
        out *= prefactor
    else:
        np.multiply(out, prefactor, out=out)
    return out


class LLGWorkspace:
    """Preallocated scratch arrays for the LLG hot path of one mesh.

    One workspace binds a mesh shape, a term list and the damping
    parameters; it owns

    * ``h`` -- the shared effective-field accumulator,
    * ``mxh`` + a scalar scratch for the fused cross products,
    * an :class:`~repro.mm.integrators.RKScratch` (``.rk``) with the six
      slope buffers and stage/output buffers the in-place Runge-Kutta
      kernels use.

    The workspace-driven right-hand side :meth:`rhs_into` is the drop-in
    replacement for the allocating closure the simulation driver used to
    build; it rebinds ``state.m`` to the stage buffer (no copy) so
    time-dependent terms see the staged magnetisation.
    """

    def __init__(self, mesh, material, terms=(), alpha=None):
        self.mesh = mesh
        self.terms = list(terms)
        shape = mesh.shape + (3,)
        size = int(np.prod(shape))
        self.h = np.empty(shape)
        # m x H and m x (m x H) live as rows of one (2, size) matrix so
        # the damping combination pref * (row0 + alpha * row1) collapses
        # into a single BLAS vector-matrix product (scalar alpha only).
        self._cross_pair = np.empty((2, size))
        self.mxh = self._cross_pair[0].reshape(shape)
        self.mxmxh = self._cross_pair[1].reshape(shape)
        self.tmp_cell = np.empty(mesh.shape)
        self.rk = RKScratch(shape)
        # The hot path cycles over a handful of fixed arrays (this
        # workspace's buffers, the integrator's stage/slope buffers, the
        # caller's state array), so component views and flat views are
        # cached by array identity instead of being recreated per call.
        self._view_cache = {}
        self._mxh_views = tuple(self.mxh[..., i] for i in range(3))
        self._mxmxh_views = tuple(self.mxmxh[..., i] for i in range(3))
        self.configure(material, alpha=alpha)

    def configure(self, material, alpha=None):
        """(Re)bind the material/damping constants; returns self.

        Cheap for scalar damping; for per-cell ``alpha`` the broadcast
        prefactor array is recomputed once here rather than per step.
        """
        if alpha is not None:
            alpha = np.asarray(alpha, dtype=float)
            if alpha.ndim > 0 and alpha.shape != self.mesh.shape:
                raise SimulationError(
                    f"alpha shape {alpha.shape} != mesh {self.mesh.shape}"
                )
        self.material = material
        self.alpha, self.prefactor = damping_prefactors(material, alpha)
        if isinstance(self.alpha, float):
            self._damping_coeffs = np.array(
                [self.prefactor, self.prefactor * self.alpha]
            )
        else:
            self._damping_coeffs = None
        self._plan = None
        self._plan_material = None
        return self

    # ------------------------------------------------------------------
    # Fused field-evaluation plan
    # ------------------------------------------------------------------
    def _build_plan(self, state):
        """Compile the term list into a fused evaluation plan.

        Splits the terms three ways, keyed on the material identity (the
        plan is rebuilt when the material object changes):

        * cell-linear terms (``cell_linear_operator``) sum into one
          ``3x3`` matrix,
        * the first exchange-like term (``laplacian_scales``) contributes
          its x stencil as a contiguous diff kernel plus, when the
          trailing block is small enough, a dense y/z operator that is
          merged with the linear matrix into a single right-multiplied
          ``(ny*nz*3)^2`` matrix -- the whole local physics then costs
          two BLAS products per evaluation,
        * everything else stays on the generic ``add_field_into`` path.
        """
        nx, ny, nz = self.mesh.shape
        k = ny * nz * 3
        linear = None
        exchange = None
        general = []
        for term in self.terms:
            operator = term.cell_linear_operator(state)
            if operator is not None:
                linear = operator if linear is None else linear + operator
                continue
            if exchange is None and hasattr(term, "laplacian_scales"):
                exchange = term
                continue
            general.append(term)

        x_scale = 0.0
        scale_y = scale_z = 0.0
        if exchange is not None:
            x_scale, scale_y, scale_z = exchange.laplacian_scales(state)
            if (scale_y or scale_z) and k > TRAILING_FUSE_LIMIT:
                # Trailing block too wide for the dense fusion: run the
                # whole exchange term through its own kernel instead.
                general.insert(0, exchange)
                x_scale = scale_y = scale_z = 0.0

        right = None
        if scale_y or scale_z:
            right = trailing_laplacian_operator(ny, nz, scale_y, scale_z)
            if linear is not None:
                right += np.kron(np.eye(ny * nz), linear)
                linear = None
            # The fused operator is a per-step GEMM operand.
            right = np.ascontiguousarray(right.T)
            self._right_buf = np.empty((nx, k))
        linear_t = None
        if linear is not None:
            linear_t = np.ascontiguousarray(linear.T)
            self._right_buf = np.empty((nx * ny * nz, 3))
        if x_scale != 0.0:
            self._diff_buf = np.empty((nx - 1, ny, nz, 3))

        self._plan = (x_scale, right, linear_t, tuple(general))
        self._plan_material = state.material
        return self._plan

    def effective_field_into(self, state, t=0.0, out=None):
        """Accumulate every term into ``out`` (default: the ``h`` buffer)."""
        out = self.h if out is None else out
        m = state.m
        if not (m.flags.c_contiguous and out.flags.c_contiguous):
            out.fill(0.0)
            for term in self.terms:
                term.add_field_into(state, out, t)
            return out
        if self._plan is None or self._plan_material is not state.material:
            self._build_plan(state)
        x_scale, right, linear_t, general = self._plan
        written = False
        if x_scale != 0.0:
            # x exchange: two contiguous first-difference passes writing
            # the full buffer (interior second difference + the free
            # Neumann boundary planes), no zero fill needed.
            d = self._diff_buf
            np.subtract(m[1:], m[:-1], out=d)
            np.subtract(d[1:], d[:-1], out=out[1:-1])
            out[1:-1] *= x_scale
            np.multiply(d[0], x_scale, out=out[0])
            np.multiply(d[-1], -x_scale, out=out[-1])
            written = True
        if right is not None:
            m2 = m.reshape(self.mesh.shape[0], -1)
            flat = out.reshape(self.mesh.shape[0], -1)
            if written:
                np.matmul(m2, right, out=self._right_buf)
                flat += self._right_buf
            else:
                np.matmul(m2, right, out=flat)
                written = True
        elif linear_t is not None:
            m2 = m.reshape(-1, 3)
            flat = out.reshape(-1, 3)
            if written:
                np.matmul(m2, linear_t, out=self._right_buf)
                flat += self._right_buf
            else:
                np.matmul(m2, linear_t, out=flat)
                written = True
        if not written:
            out.fill(0.0)
        for term in general:
            term.add_field_into(state, out, t)
        return out

    def _cached_views(self, array):
        """``(comp0, comp1, comp2, flat)`` views of ``array``, id-cached.

        The cache pins the array (keeping ``id`` stable) and is cleared
        when it outgrows the handful of hot-path buffers it is meant for.
        """
        key = id(array)
        entry = self._view_cache.get(key)
        if entry is None:
            if len(self._view_cache) > 32:
                self._view_cache.clear()
            flat = array.reshape(-1) if array.flags.c_contiguous else None
            entry = (
                array[..., 0],
                array[..., 1],
                array[..., 2],
                flat,
                array,  # pin: keeps id(array) valid for the cache's life
            )
            self._view_cache[key] = entry
        return entry

    def rhs_from_field_into(self, m, h_eff, out):
        """Fused dm/dt for ``m`` in ``h_eff``, written into ``out``."""
        if self._damping_coeffs is not None and out.flags.c_contiguous:
            m0, m1, m2, _, _ = self._cached_views(m)
            h0, h1, h2, _, _ = self._cached_views(h_eff)
            x0, x1, x2 = self._mxh_views
            y0, y1, y2 = self._mxmxh_views
            tmp = self.tmp_cell
            # m x H into the pair's first row ...
            np.multiply(m1, h2, out=x0)
            np.multiply(m2, h1, out=tmp)
            x0 -= tmp
            np.multiply(m2, h0, out=x1)
            np.multiply(m0, h2, out=tmp)
            x1 -= tmp
            np.multiply(m0, h1, out=x2)
            np.multiply(m1, h0, out=tmp)
            x2 -= tmp
            # ... m x (m x H) into the second ...
            np.multiply(m1, x2, out=y0)
            np.multiply(m2, x1, out=tmp)
            y0 -= tmp
            np.multiply(m2, x0, out=y1)
            np.multiply(m0, x2, out=tmp)
            y1 -= tmp
            np.multiply(m0, x1, out=y2)
            np.multiply(m1, x0, out=tmp)
            y2 -= tmp
            # ... and one BLAS product applies damping and prefactor.
            _, _, _, out_flat, _ = self._cached_views(out)
            np.matmul(self._damping_coeffs, self._cross_pair, out=out_flat)
            return out
        return llg_rhs_from_field_into(
            m, h_eff, out, self.alpha, self.prefactor, self.mxh, self.tmp_cell
        )

    def rhs_into(self, state, t, m, out):
        """Full dm/dt at ``(t, m)`` written into ``out``.

        Rebinds ``state.m = m`` (reference only) so field terms evaluate
        at the staged magnetisation, matching the allocating driver.
        """
        state.m = m
        self.effective_field_into(state, t)
        return self.rhs_from_field_into(m, self.h, out)

    def bound_rhs(self, state):
        """``rhs_into(t, y, out)`` closure over ``state`` for the integrators."""

        def rhs_into(t, y, out):
            return self.rhs_into(state, t, y, out)

        return rhs_into
