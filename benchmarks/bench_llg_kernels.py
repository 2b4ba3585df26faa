"""Bench: micromagnetic solver kernel throughput (ablation support).

Not a paper artefact -- this keeps the OOMMF-substitute kernels honest
and quantifies two ablations: the full Newell FFT demag versus the local
thin-film approximation, and the allocating reference path versus the
zero-allocation kernel layer (:mod:`repro.mm.kernels`).  Each
``*_into`` bench is the in-place twin of the allocating bench above it,
on the identical 128x16x1 film problem, so their ratio is the measured
speedup of the workspace path.
"""

import numpy as np
import pytest

from repro.materials import FECOB_PMA
from repro.mm import (
    DemagField,
    ExchangeField,
    LLGWorkspace,
    Mesh,
    State,
    ThinFilmDemagField,
    UniaxialAnisotropyField,
)
from repro.mm.integrators import (
    RKScratch,
    rk4_step,
    rk4_step_into,
    rkf45_step,
    rkf45_step_into,
)
from repro.mm.llg import effective_field, llg_rhs_from_field

FILM_TERMS = (ExchangeField, UniaxialAnisotropyField, ThinFilmDemagField)


@pytest.fixture()
def film_state():
    """A fresh random film state per test.

    Function-scoped on purpose: the RK benches rebind ``state.m`` to
    integrator buffers, so a shared (module-scoped) state would leak
    mutations between benchmark tests and silently change what later
    benches measure.
    """
    mesh = Mesh(128, 16, 1, 4e-9, 4e-9, 1e-9)
    return State.random(mesh, FECOB_PMA, seed=0)


# ----------------------------------------------------------------------
# Field-term throughput: allocating reference vs in-place kernel
# ----------------------------------------------------------------------

def test_exchange_field_throughput(benchmark, film_state):
    term = ExchangeField()
    benchmark(term.field, film_state)


def test_exchange_field_into_throughput(benchmark, film_state):
    """Workspace-driven exchange evaluation -- the production hot path
    (diff-kernel overwrite + fused trailing operator, no zero fill)."""
    workspace = LLGWorkspace(
        film_state.mesh, film_state.material, [ExchangeField()]
    )
    benchmark(workspace.effective_field_into, film_state)


def test_exchange_add_field_into_throughput(benchmark, film_state):
    """Standalone accumulating kernel (term used outside a workspace)."""
    term = ExchangeField()
    out = np.zeros(film_state.mesh.shape + (3,))

    def kernel():
        out.fill(0.0)
        term.add_field_into(film_state, out)

    benchmark(kernel)


def test_anisotropy_field_throughput(benchmark, film_state):
    term = UniaxialAnisotropyField()
    benchmark(term.field, film_state)


def test_anisotropy_field_into_throughput(benchmark, film_state):
    term = UniaxialAnisotropyField()
    out = np.zeros(film_state.mesh.shape + (3,))

    def kernel():
        out.fill(0.0)
        term.add_field_into(film_state, out)

    benchmark(kernel)


def test_full_demag_throughput(benchmark, film_state):
    term = DemagField(film_state.mesh)
    benchmark(term.field, film_state)


def test_full_demag_into_throughput(benchmark, film_state):
    term = DemagField(film_state.mesh)
    out = np.zeros(film_state.mesh.shape + (3,))

    def kernel():
        out.fill(0.0)
        term.add_field_into(film_state, out)

    benchmark(kernel)


def test_thin_film_demag_throughput(benchmark, film_state):
    term = ThinFilmDemagField()
    benchmark(term.field, film_state)


def test_demag_ablation_accuracy(film_state):
    """The ablation itself: how far is the local approximation from the
    full Newell solution on the paper-like film?  (Printed, not timed.)"""
    full = DemagField(film_state.mesh).field(film_state)
    local = ThinFilmDemagField().field(film_state)
    scale = float(np.max(np.abs(full)))
    error = float(np.max(np.abs(full - local))) / scale
    print(f"\nthin-film demag max relative error vs Newell FFT: {error:.3f}")
    # A *random* state is the worst case for the local approximation
    # (every cell fluctuates, so non-local contributions are maximal);
    # same order of magnitude is all it promises there.
    assert error < 1.0


# ----------------------------------------------------------------------
# Full RK step throughput: allocating closure vs LLGWorkspace kernels
# ----------------------------------------------------------------------

def _allocating_rhs(state, terms):
    def rhs(t, m):
        state.m = m
        h = effective_field(state, terms, t)
        return llg_rhs_from_field(m, h, state.material)

    return rhs


def test_rk4_step_throughput(benchmark, film_state):
    terms = [cls() for cls in FILM_TERMS]
    rhs = _allocating_rhs(film_state, terms)
    benchmark(rk4_step, rhs, 0.0, film_state.m.copy(), 1e-14)


def test_rk4_step_into_throughput(benchmark, film_state):
    terms = [cls() for cls in FILM_TERMS]
    workspace = LLGWorkspace(film_state.mesh, film_state.material, terms)
    rhs_into = workspace.bound_rhs(film_state)
    m = film_state.m.copy()
    benchmark(rk4_step_into, rhs_into, 0.0, m, 1e-14, workspace.rk)


def test_rkf45_step_throughput(benchmark, film_state):
    terms = [cls() for cls in FILM_TERMS]
    rhs = _allocating_rhs(film_state, terms)
    benchmark(rkf45_step, rhs, 0.0, film_state.m.copy(), 1e-14)


def test_rkf45_step_into_throughput(benchmark, film_state):
    terms = [cls() for cls in FILM_TERMS]
    workspace = LLGWorkspace(film_state.mesh, film_state.material, terms)
    rhs_into = workspace.bound_rhs(film_state)
    m = film_state.m.copy()
    benchmark(rkf45_step_into, rhs_into, 0.0, m, 1e-14, workspace.rk)


def test_rk_scratch_reuse_no_alloc(film_state):
    """One workspace serves repeated steps without growing (smoke check
    that the scratch buffers really are reused, printed not timed)."""
    terms = [cls() for cls in FILM_TERMS]
    workspace = LLGWorkspace(film_state.mesh, film_state.material, terms)
    rhs_into = workspace.bound_rhs(film_state)
    m = film_state.m.copy()
    first = rk4_step_into(rhs_into, 0.0, m, 1e-14, workspace.rk)
    buffer_id = id(workspace.rk.out)
    second = rk4_step_into(rhs_into, 0.0, m, 1e-14, workspace.rk)
    assert id(first) == id(second) == buffer_id
    assert isinstance(RKScratch(film_state.mesh.shape + (3,)), RKScratch)
