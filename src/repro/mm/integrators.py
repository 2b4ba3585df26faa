"""Time integrators for the LLG equation.

Two schemes are provided:

* :func:`rk4_step` -- classic fixed-step fourth-order Runge-Kutta, the
  default for driven (excited) simulations where the forcing frequency
  fixes the natural step anyway;
* :func:`rkf45_step` -- Runge-Kutta-Fehlberg 4(5) with an embedded error
  estimate, used by the adaptive :func:`integrate` driver for relaxation
  runs where the stiffness varies over time.

Each scheme exists in two forms: the original allocating form
(``rhs(t, y) -> dy/dt``, independently testable on scalar ODEs) and a
buffer-reusing ``*_into`` form (``rhs_into(t, y, out)``) that evaluates
every stage into preallocated :class:`RKScratch` buffers -- the hot path
the micromagnetic drivers run through
:class:`~repro.mm.kernels.LLGWorkspace`.  The allocating functions are
kept as the reference implementation the kernel-equivalence tests
compare against.
"""

import numpy as np

from repro import obs
from repro.errors import SimulationError

# Runge-Kutta-Fehlberg 4(5) Butcher tableau.
_RKF_A = (
    (),
    (1.0 / 4.0,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_RKF_C = (0.0, 1.0 / 4.0, 3.0 / 8.0, 12.0 / 13.0, 1.0, 1.0 / 2.0)
_RKF_B5 = (16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0)
_RKF_B4 = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0, 0.0)


class RKScratch:
    """Preallocated slope/stage buffers for the in-place RK kernels.

    Sized for the largest scheme (six RKF45 stages); RK4 uses the first
    four slope buffers.  One instance serves any number of steps on
    arrays of the given ``shape``.

    The slope buffers ``k[i]`` are rows of one stacked ``(6, size)``
    matrix (``k_matrix``), so every Runge-Kutta stage combination
    ``sum_i c_i * k_i`` runs as a single BLAS vector-matrix product
    instead of one multiply-add pass per tableau coefficient.
    """

    def __init__(self, shape):
        size = int(np.prod(shape))
        self.k_matrix = np.empty((6, size))
        self.k = [self.k_matrix[i].reshape(shape) for i in range(6)]
        self.stage = np.empty(shape)
        self.out = np.empty(shape)
        self.y4 = np.empty(shape)
        self.stage_flat = self.stage.reshape(size)
        self.out_flat = self.out.reshape(size)
        self.y4_flat = self.y4.reshape(size)


def rk4_step(rhs, t, y, dt):
    """One classic RK4 step; returns ``y(t + dt)``."""
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = rhs(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_RK4_B = np.array([1.0 / 6.0, 2.0 / 6.0, 2.0 / 6.0, 1.0 / 6.0])


def rk4_step_into(rhs_into, t, y, dt, work):
    """Buffer-reusing RK4 step: writes ``y(t + dt)`` into ``work.out``.

    ``rhs_into(t, y, out)`` must write dy/dt into ``out``; ``work`` is an
    :class:`RKScratch`.  Returns ``work.out`` (do not retain it across
    steps -- copy into your own array or swap buffers).
    """
    k1, k2, k3, k4 = work.k[0], work.k[1], work.k[2], work.k[3]
    stage, out = work.stage, work.out
    rhs_into(t, y, k1)
    np.multiply(k1, 0.5 * dt, out=stage)
    stage += y
    rhs_into(t + 0.5 * dt, stage, k2)
    np.multiply(k2, 0.5 * dt, out=stage)
    stage += y
    rhs_into(t + 0.5 * dt, stage, k3)
    np.multiply(k3, dt, out=stage)
    stage += y
    rhs_into(t + dt, stage, k4)
    np.matmul(dt * _RK4_B, work.k_matrix[:4], out=work.out_flat)
    out += y
    return out


def rkf45_step(rhs, t, y, dt):
    """One RKF45 step; returns ``(y5, error_estimate)``.

    ``y5`` is the fifth-order solution, ``error_estimate`` the max-norm
    difference between the embedded fourth- and fifth-order results.
    """
    ks = []
    for stage in range(6):
        yi = y
        for coeff, k in zip(_RKF_A[stage], ks):
            yi = yi + dt * coeff * k
        ks.append(rhs(t + _RKF_C[stage] * dt, yi))
    y5 = y
    y4 = y
    for b5, b4, k in zip(_RKF_B5, _RKF_B4, ks):
        y5 = y5 + dt * b5 * k
        y4 = y4 + dt * b4 * k
    error = float(np.max(np.abs(y5 - y4)))
    return y5, error


_RKF_A_ROWS = tuple(np.array(row[:s]) for s, row in enumerate(_RKF_A))
_RKF_B5_ARR = np.array(_RKF_B5)
_RKF_B4_ARR = np.array(_RKF_B4)


def rkf45_step_into(rhs_into, t, y, dt, work):
    """Buffer-reusing RKF45 step: ``(work.out, error_estimate)``.

    Same contract as :func:`rk4_step_into`; every tableau combination is
    one BLAS product against the stacked slope matrix, and the embedded
    fourth-order solution reuses ``work.y4``.
    """
    ks = work.k
    k_matrix = work.k_matrix
    stage, out, y4 = work.stage, work.out, work.y4
    rhs_into(t, y, ks[0])
    for s in range(1, 6):
        np.matmul(dt * _RKF_A_ROWS[s], k_matrix[:s], out=work.stage_flat)
        stage += y
        rhs_into(t + _RKF_C[s] * dt, stage, ks[s])
    np.matmul(dt * _RKF_B5_ARR, k_matrix, out=work.out_flat)
    out += y
    np.matmul(dt * _RKF_B4_ARR, k_matrix, out=work.y4_flat)
    y4 += y
    np.subtract(out, y4, out=y4)
    np.abs(y4, out=y4)
    error = float(y4.max())
    return out, error


def _validate_span(t0, t_end, dt):
    if t_end < t0:
        raise SimulationError(f"t_end ({t_end!r}) before t0 ({t0!r})")
    if dt <= 0:
        raise SimulationError(f"dt must be positive, got {dt!r}")


def integrate(
    rhs,
    t0,
    y0,
    t_end,
    dt,
    adaptive=False,
    tol=1e-4,
    dt_min=None,
    dt_max=None,
    callback=None,
    max_steps=50_000_000,
):
    """Integrate ``dy/dt = rhs(t, y)`` from ``t0`` to ``t_end``.

    With ``adaptive=False``, fixed RK4 steps of ``dt`` are taken (the last
    step is shortened to land exactly on ``t_end``).  With
    ``adaptive=True``, RKF45 with standard step-size control targeting a
    local max-norm error of ``tol`` per step is used; ``dt`` is the
    initial step.

    Every right-hand-side evaluation attempt counts against
    ``max_steps`` -- including *rejected* adaptive steps, so a
    persistently failing step exhausts the budget instead of spinning
    forever.

    ``callback(t, y)`` is invoked after every accepted step.  Returns the
    final ``(t, y)``.
    """
    _validate_span(t0, t_end, dt)
    dt_min = dt * 1e-6 if dt_min is None else dt_min
    dt_max = (t_end - t0) if dt_max is None else dt_max

    t, y = t0, y0
    steps = 0
    rejections = 0
    # Step/rejection counters flush to the obs registry once per call
    # (in the ``finally``), never per step -- the hot loop stays free of
    # locking.
    try:
        while t < t_end:
            if steps >= max_steps:
                raise SimulationError(
                    f"integration exceeded max_steps={max_steps} "
                    f"({rejections} rejected; t={t:.4g} of {t_end:.4g})"
                )
            step = min(dt, t_end - t)
            if adaptive:
                y_new, error = rkf45_step(rhs, t, y, step)
                scale = max(error / tol, 1e-10)
                if error > tol and step > dt_min:
                    # Reject and retry with a smaller step; the attempt
                    # still consumes budget so a stuck step cannot loop
                    # forever.
                    dt = max(0.9 * step * scale ** (-0.25), dt_min)
                    steps += 1
                    rejections += 1
                    continue
                t, y = t + step, y_new
                dt = min(max(0.9 * step * scale ** (-0.2), dt_min), dt_max)
            else:
                y = rk4_step(rhs, t, y, step)
                t = t + step
            steps += 1
            if callback is not None:
                callback(t, y)
    finally:
        if steps:
            obs.inc("llg.steps", steps)
        if rejections:
            obs.inc("llg.rejected", rejections)
    return t, y


def integrate_into(
    rhs_into,
    t0,
    y,
    t_end,
    dt,
    work,
    adaptive=False,
    tol=1e-4,
    dt_min=None,
    dt_max=None,
    callback=None,
    max_steps=50_000_000,
):
    """In-place counterpart of :func:`integrate`: advances ``y`` itself.

    ``rhs_into(t, y, out)`` writes dy/dt into ``out``; ``work`` is an
    :class:`RKScratch` matching ``y``'s shape.  Accepted steps are copied
    back into ``y`` (one memcpy per step -- negligible next to the four
    to six field evaluations), so ``callback(t, y)`` always observes the
    same array object and no per-step allocation occurs.  The step/
    rejection budget behaves exactly like :func:`integrate`.  Returns the
    final ``(t, y)``.
    """
    _validate_span(t0, t_end, dt)
    dt_min = dt * 1e-6 if dt_min is None else dt_min
    dt_max = (t_end - t0) if dt_max is None else dt_max

    t = t0
    steps = 0
    rejections = 0
    try:
        while t < t_end:
            if steps >= max_steps:
                raise SimulationError(
                    f"integration exceeded max_steps={max_steps} "
                    f"({rejections} rejected; t={t:.4g} of {t_end:.4g})"
                )
            step = min(dt, t_end - t)
            if adaptive:
                out, error = rkf45_step_into(rhs_into, t, y, step, work)
                scale = max(error / tol, 1e-10)
                if error > tol and step > dt_min:
                    dt = max(0.9 * step * scale ** (-0.25), dt_min)
                    steps += 1
                    rejections += 1
                    continue
                y[...] = out
                t = t + step
                dt = min(max(0.9 * step * scale ** (-0.2), dt_min), dt_max)
            else:
                y[...] = rk4_step_into(rhs_into, t, y, step, work)
                t = t + step
            steps += 1
            if callback is not None:
                callback(t, y)
    finally:
        if steps:
            obs.inc("llg.steps", steps)
        if rejections:
            obs.inc("llg.rejected", rejections)
    return t, y
