"""Equivalence tests for the zero-allocation kernel layer.

The fused in-place path (:mod:`repro.mm.kernels`, the ``*_into``
integrators, the batched gate backend) must reproduce the allocating
reference implementations bit-for-bit up to floating-point reassociation
(<= 1e-12 relative).  Every fusion mechanism gets a case here: the
contiguous diff stencil, the dense trailing operator (and its
large-mesh fallback), the merged cell-linear matrix, the stacked-slope
Runge-Kutta kernels, scalar and per-cell damping, and the batched
waveguide evaluation.
"""

import numpy as np
import pytest

from repro.core.frequency_plan import FrequencyPlan
from repro.core.gate import DataParallelGate
from repro.core.layout import InlineGateLayout
from repro.core.simulate import GateSimulator
from repro.errors import SimulationError
from repro.materials import FECOB_PMA
from repro.mm import (
    AppliedField,
    DemagField,
    ExchangeField,
    LLGWorkspace,
    Mesh,
    SineWaveform,
    State,
    ThinFilmDemagField,
    UniaxialAnisotropyField,
    ZeemanField,
    integrate,
    rk4_step,
    rk4_step_into,
    rkf45_step,
    rkf45_step_into,
)
from repro.mm.integrators import RKScratch, integrate_into
from repro.mm.llg import effective_field, llg_rhs_from_field
from repro.units import GHZ
from repro.waveguide import Waveguide

RTOL = 1e-12

MESHES = {
    "1d": ((64, 1, 1), (4e-9, 50e-9, 1e-9)),
    "film": ((24, 8, 1), (4e-9, 4e-9, 1e-9)),
    "3d": ((8, 6, 5), (4e-9, 4e-9, 4e-9)),
    "wide": ((4, 80, 1), (4e-9, 4e-9, 1e-9)),  # trailing-fusion fallback
}


def _make_state(mesh_key, seed=3):
    shape, cell = MESHES[mesh_key]
    mesh = Mesh(*shape, *cell)
    return State.random(mesh, FECOB_PMA, seed=seed)


def _term_factories(mesh):
    applied_mask = np.zeros(mesh.shape, dtype=bool)
    applied_mask[: max(mesh.shape[0] // 4, 1)] = True
    return {
        "exchange": lambda: ExchangeField(),
        "anisotropy": lambda: UniaxialAnisotropyField(),
        "thinfilm": lambda: ThinFilmDemagField(),
        "zeeman": lambda: ZeemanField((1.2e4, -3.0e3, 2.0e4)),
        "demag": lambda: DemagField(mesh),
        "applied": lambda: AppliedField(
            applied_mask, (1.0, 0.0, 0.0), SineWaveform(5e3, 10 * GHZ)
        ),
    }


def _assert_field_equivalent(state, terms, t=0.0):
    workspace = LLGWorkspace(state.mesh, state.material, terms)
    reference = effective_field(state, terms, t)
    fused = workspace.effective_field_into(state, t).copy()
    scale = max(float(np.max(np.abs(reference))), 1.0)
    np.testing.assert_allclose(fused, reference, rtol=0, atol=RTOL * scale)


class TestFieldEquivalence:
    @pytest.mark.parametrize("mesh_key", sorted(MESHES))
    @pytest.mark.parametrize(
        "name",
        ["exchange", "anisotropy", "thinfilm", "zeeman", "demag", "applied"],
    )
    def test_single_term(self, mesh_key, name):
        state = _make_state(mesh_key)
        term = _term_factories(state.mesh)[name]()
        _assert_field_equivalent(state, [term], t=0.3e-10)

    @pytest.mark.parametrize("mesh_key", sorted(MESHES))
    @pytest.mark.parametrize(
        "combo",
        [
            ("exchange", "anisotropy"),
            ("exchange", "thinfilm"),
            ("anisotropy", "thinfilm"),
            ("exchange", "anisotropy", "thinfilm"),
            ("exchange", "anisotropy", "thinfilm", "zeeman"),
            ("exchange", "anisotropy", "thinfilm", "zeeman", "applied"),
            ("exchange", "anisotropy", "thinfilm", "zeeman", "demag", "applied"),
        ],
        ids="+".join,
    )
    def test_term_combinations(self, mesh_key, combo):
        state = _make_state(mesh_key)
        factories = _term_factories(state.mesh)
        terms = [factories[name]() for name in combo]
        _assert_field_equivalent(state, terms, t=0.3e-10)

    def test_add_field_into_accumulates(self):
        state = _make_state("film")
        base = np.full(state.mesh.shape + (3,), 123.0)
        out = base.copy()
        term = ExchangeField()
        term.add_field_into(state, out)
        np.testing.assert_allclose(
            out - base,
            term.field(state),
            rtol=0,
            atol=RTOL * float(np.max(np.abs(term.field(state)))),
        )

    def test_noncontiguous_state_falls_back(self):
        state = _make_state("film")
        terms = [ExchangeField(), UniaxialAnisotropyField()]
        workspace = LLGWorkspace(state.mesh, state.material, terms)
        reference = effective_field(state, terms)
        state.m = np.asfortranarray(state.m)  # break C-contiguity
        fused = workspace.effective_field_into(state).copy()
        scale = float(np.max(np.abs(reference)))
        np.testing.assert_allclose(fused, reference, rtol=0, atol=RTOL * scale)

    def test_plan_follows_material_change(self):
        state = _make_state("film")
        terms = [ExchangeField(), UniaxialAnisotropyField(), ThinFilmDemagField()]
        workspace = LLGWorkspace(state.mesh, state.material, terms)
        workspace.effective_field_into(state)  # builds the fused plan
        state.material = state.material.with_(ku=2.0 * state.material.ku)
        workspace.configure(state.material)
        reference = effective_field(state, terms)
        fused = workspace.effective_field_into(state).copy()
        scale = float(np.max(np.abs(reference)))
        np.testing.assert_allclose(fused, reference, rtol=0, atol=RTOL * scale)


class TestRhsEquivalence:
    @pytest.mark.parametrize("mesh_key", ["1d", "film", "3d"])
    @pytest.mark.parametrize("alpha_kind", ["material", "scalar", "percell"])
    def test_llg_rhs(self, mesh_key, alpha_kind):
        state = _make_state(mesh_key)
        terms = [ExchangeField(), UniaxialAnisotropyField(), ThinFilmDemagField()]
        if alpha_kind == "material":
            alpha = None
        elif alpha_kind == "scalar":
            alpha = 0.37
        else:
            alpha = np.linspace(0.02, 0.5, state.mesh.shape[0]).reshape(
                -1, 1, 1
            ) * np.ones(state.mesh.shape)
        workspace = LLGWorkspace(
            state.mesh, state.material, terms, alpha=alpha
        )
        h = effective_field(state, terms)
        reference = llg_rhs_from_field(state.m, h, state.material, alpha=alpha)
        fused = workspace.rhs_from_field_into(
            state.m, h, np.empty_like(state.m)
        )
        scale = float(np.max(np.abs(reference)))
        np.testing.assert_allclose(fused, reference, rtol=0, atol=RTOL * scale)

    @pytest.mark.parametrize("mesh_key", ["1d", "film"])
    def test_rk_steps(self, mesh_key):
        state = _make_state(mesh_key)
        terms = [ExchangeField(), UniaxialAnisotropyField(), ThinFilmDemagField()]
        workspace = LLGWorkspace(state.mesh, state.material, terms)

        def rhs(t, m):
            state.m = m
            h = effective_field(state, terms, t)
            return llg_rhs_from_field(m, h, state.material)

        rhs_into = workspace.bound_rhs(state)
        m0 = state.m.copy()
        dt = 1e-13

        reference = rk4_step(rhs, 0.0, m0.copy(), dt)
        fused = rk4_step_into(rhs_into, 0.0, m0.copy(), dt, workspace.rk)
        scale = float(np.max(np.abs(reference)))
        np.testing.assert_allclose(fused, reference, rtol=0, atol=RTOL * scale)

        ref5, ref_err = rkf45_step(rhs, 0.0, m0.copy(), dt)
        got5, got_err = rkf45_step_into(
            rhs_into, 0.0, m0.copy(), dt, workspace.rk
        )
        scale = float(np.max(np.abs(ref5)))
        np.testing.assert_allclose(got5, ref5, rtol=0, atol=RTOL * scale)
        # The error estimate is a difference of near-equal solutions, so
        # reassociation noise is amplified relative to its tiny value.
        assert got_err == pytest.approx(ref_err, rel=1e-6, abs=RTOL * scale)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_integrate_into_matches_integrate(self, adaptive):
        def rhs(t, y):
            return -2.0 * y + np.sin(40.0 * t)

        def rhs_into(t, y, out):
            np.multiply(y, -2.0, out=out)
            out += np.sin(40.0 * t)
            return out

        y0 = np.linspace(0.5, 1.5, 12)
        work = RKScratch(y0.shape)
        t_ref, y_ref = integrate(
            rhs, 0.0, y0.copy(), 0.5, 1e-3, adaptive=adaptive, tol=1e-8
        )
        y_live = y0.copy()
        t_got, _ = integrate_into(
            rhs_into, 0.0, y_live, 0.5, 1e-3, work, adaptive=adaptive, tol=1e-8
        )
        assert t_got == pytest.approx(t_ref)
        np.testing.assert_allclose(y_live, y_ref, rtol=1e-12, atol=1e-15)


class TestRejectionBudget:
    """A persistently rejected adaptive step must exhaust ``max_steps``
    instead of spinning forever (historically it never counted)."""

    @staticmethod
    def _thrashing_rhs():
        # Alternating huge slopes keep the embedded error estimate large
        # at any step size, so every attempt is rejected while the step
        # stays above dt_min.
        calls = {"n": 0}

        def rhs(t, y):
            calls["n"] += 1
            sign = 1.0 if calls["n"] % 2 else -1.0
            return sign * 1e30 * np.ones_like(y)

        return rhs

    def test_integrate_raises(self):
        with pytest.raises(SimulationError, match="max_steps"):
            integrate(
                self._thrashing_rhs(),
                0.0,
                np.zeros(4),
                1.0,
                0.1,
                adaptive=True,
                tol=1e-8,
                dt_min=0.0,
                max_steps=64,
            )

    def test_integrate_into_raises(self):
        rhs = self._thrashing_rhs()

        def rhs_into(t, y, out):
            out[...] = rhs(t, y)
            return out

        with pytest.raises(SimulationError, match="max_steps"):
            integrate_into(
                rhs_into,
                0.0,
                np.zeros(4),
                1.0,
                0.1,
                RKScratch((4,)),
                adaptive=True,
                tol=1e-8,
                dt_min=0.0,
                max_steps=64,
            )


class TestBatchedGateEquivalence:
    @staticmethod
    def _majority_gate(n_bits=2):
        plan = FrequencyPlan.uniform(n_bits, 10 * GHZ, 10 * GHZ)
        layout = InlineGateLayout(Waveguide(), plan, n_inputs=3)
        return DataParallelGate(layout)

    def test_run_phasor_batch_all_words(self):
        gate = self._majority_gate()
        simulator = GateSimulator(gate)
        patterns = gate.exhaustive_patterns()
        assert len(patterns) == 8  # every input word of the 3-input gate
        sequential = [simulator.run_phasor(words) for words in patterns]
        batched = simulator.run_phasor_batch(patterns)
        for serial, batch in zip(sequential, batched):
            assert batch.decoded == serial.decoded
            assert batch.expected == serial.expected
            for a, b in zip(serial.decodes, batch.decodes):
                assert b.phase == pytest.approx(a.phase, abs=1e-9)
                assert b.amplitude == pytest.approx(a.amplitude, rel=1e-9)
                assert b.margin == pytest.approx(a.margin, abs=1e-9)

    def test_run_batch_all_words(self):
        gate = self._majority_gate()
        simulator = GateSimulator(gate)
        patterns = gate.exhaustive_patterns()
        sequential = [simulator.run(words) for words in patterns]
        batched = simulator.run_batch(patterns)
        assert len(batched) == len(patterns)
        for serial, batch in zip(sequential, batched):
            assert batch.decoded == serial.decoded
            assert batch.correct == serial.correct
            for channel, trace in serial.traces.items():
                np.testing.assert_allclose(
                    batch.traces[channel], trace, rtol=0, atol=1e-9
                )

    def test_batch_length_mismatch_rejected(self):
        gate = self._majority_gate()
        simulator = GateSimulator(gate)
        patterns = gate.exhaustive_patterns()[:2]
        with pytest.raises(SimulationError, match="noise models"):
            simulator.run_phasor_batch(patterns, noises=[None])
