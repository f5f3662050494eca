"""Parity of LpaAllocator's Equation (1) decision path with the generic one.

``LpaAllocator.initial_allocation`` resolves models admitted by
:func:`repro.core.lpa_batch.eq1_eligible` through ``_initial_eq1``, which
writes ``time(p)`` out inline instead of probing the model.  The oracle is
the generic path it replaces: ``GeneralModel.max_useful_processors``
followed by ``LpaAllocator._initial_monotonic``.  Both must agree exactly,
and every model or allocator the twin cannot mirror must keep the generic
path.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import instance_for_family
from repro.core.allocator import LpaAllocator
from repro.core.constants import MU_MAX, MU_STAR
from repro.core.lpa_batch import eq1_eligible
from repro.exceptions import InvalidParameterError
from repro.sim.allocation import Allocation
from repro.speedup import (
    AmdahlModel,
    CommunicationModel,
    GeneralModel,
    RooflineModel,
)

RTOLS = (0.0, 1e-9, 1e-3)


def generic_allocation(allocator, model, P):
    """The generic Algorithm-2 path, probing ``model.time`` point by point."""
    p_max = model.max_useful_processors(P)
    t_min = model.time(p_max)
    threshold = allocator.delta * t_min * (1.0 + allocator.rtol)
    initial = allocator._initial_monotonic(model, p_max, threshold)
    cap = math.ceil(allocator.mu * P)
    return Allocation(initial=initial, final=min(initial, cap))


def assert_parity(allocator, model, P):
    assert eq1_eligible(model)
    assert allocator.allocate(model, P) == generic_allocation(allocator, model, P)


@pytest.fixture
def eq1_calls(monkeypatch):
    """Count calls to ``LpaAllocator._initial_eq1``."""
    calls = []
    original = LpaAllocator._initial_eq1

    def spy(self, model, P):
        calls.append(model)
        return original(self, model, P)

    monkeypatch.setattr(LpaAllocator, "_initial_eq1", spy)
    return calls


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
platforms = st.one_of(st.sampled_from([1, 2, 3, 4096]), st.integers(1, 4096))
mus = st.floats(min_value=0.0, max_value=MU_MAX, exclude_min=True)
rtols = st.sampled_from(RTOLS)
works = st.floats(min_value=1e-3, max_value=1e7)
seq_works = st.floats(min_value=1e-4, max_value=1e4)
comm_costs = st.floats(min_value=1e-9, max_value=1e2)


@st.composite
def eq1_models(draw, P):
    """One model of any Equation (1) family, with ``p̃`` placed around ``P``."""
    family = draw(st.sampled_from(["roofline", "communication", "amdahl", "general"]))
    w = draw(works)
    if family == "communication":
        return CommunicationModel(w, draw(comm_costs))
    if family == "amdahl":
        return AmdahlModel(w, draw(seq_works))
    p_tilde = draw(
        st.sampled_from(["below", "above", "none"])
        if family == "general"
        else st.sampled_from(["below", "above"])
    )
    if p_tilde == "below":
        pt = draw(st.integers(1, max(1, P - 1)))
    elif p_tilde == "above":
        pt = draw(st.integers(P + 1, 2 * P + 8))
    else:
        pt = None
    if family == "roofline":
        return RooflineModel(w, pt)
    d = draw(st.one_of(st.just(0.0), seq_works))
    c = draw(st.one_of(st.just(0.0), comm_costs))
    return GeneralModel(w, d=d, c=c, max_parallelism=pt)


@st.composite
def cases(draw):
    P = draw(platforms)
    return draw(eq1_models(P)), P, draw(mus), draw(rtols)


# ----------------------------------------------------------------------
# Parity
# ----------------------------------------------------------------------
class TestParity:
    @settings(max_examples=600, deadline=None)
    @given(cases())
    def test_random_models(self, case):
        model, P, mu, rtol = case
        assert_parity(LpaAllocator(mu, rtol=rtol), model, P)

    @pytest.mark.parametrize("rtol", RTOLS)
    @pytest.mark.parametrize("pt", [None, 3, 100, 5000])
    @pytest.mark.parametrize("P", [1, 2, 3, 64, 4096])
    def test_interior_optimum_beyond_platform(self, P, pt, rtol):
        # sqrt(w/c) = 1e5 exceeds every P: p_max is clamped by P or p̃.
        model = GeneralModel(1e7, d=1.0, c=1e-3, max_parallelism=pt)
        assert math.sqrt(model.w / model.c) > P
        for mu in (1e-6, 0.1, MU_STAR["general"], MU_MAX):
            assert_parity(LpaAllocator(mu, rtol=rtol), model, P)

    @pytest.mark.parametrize("rtol", RTOLS)
    def test_every_platform_size(self, rtol):
        models = [
            RooflineModel(300.0, 40),
            CommunicationModel(500.0, 0.2),
            AmdahlModel(800.0, 3.0),
            GeneralModel(900.0, d=2.0, c=0.05, max_parallelism=70),
        ]
        allocator = LpaAllocator(MU_MAX, rtol=rtol)
        for P in range(1, 130):
            for model in models:
                assert_parity(allocator, model, P)

    @pytest.mark.parametrize("rtol", RTOLS)
    @pytest.mark.parametrize(
        ("family", "size"),
        [
            ("roofline", 16),
            ("roofline", 100),
            ("communication", 16),
            ("communication", 64),
            ("amdahl", 6),
            ("amdahl", 12),
            ("general", 6),
            ("general", 12),
        ],
    )
    def test_adversarial_instances(self, family, size, rtol):
        # Theorems 5-8 place their tasks on the beta boundary by design.
        instance = instance_for_family(family, size)
        allocator = LpaAllocator(instance.mu, rtol=rtol)
        for task in instance.graph.tasks():
            assert_parity(allocator, task.model, instance.P)

    def test_exact_beta_boundary(self):
        # delta(mu) == 2.0 exactly and t(16) == 2 * t_min in floats, so the
        # time constraint is met with equality at rtol = 0.
        allocator = LpaAllocator(0.2928932188134525, rtol=0.0)
        assert allocator.delta == 2.0
        model = GeneralModel(64.0, d=2.0, max_parallelism=64)
        assert model.time(16) == allocator.delta * model.time(64)
        assert allocator.allocate(model, 64).initial == 16
        assert_parity(allocator, model, 64)

    def test_non_int_platform_validated_like_generic(self):
        allocator = LpaAllocator(0.3)
        model = AmdahlModel(100.0, 1.0)
        assert allocator.initial_allocation(model, 64.0) == allocator.initial_allocation(
            model, 64
        )
        for bad in (0, -2, 2.5, True):
            with pytest.raises(InvalidParameterError) as fast:
                allocator.initial_allocation(model, bad)
            with pytest.raises(InvalidParameterError) as generic:
                GeneralModel.max_useful_processors(model, bad)
            assert str(fast.value) == str(generic.value)


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
class TestRouting:
    def test_eligible_models_take_the_eq1_path(self, eq1_calls):
        allocator = LpaAllocator(0.3)
        model = CommunicationModel(200.0, 0.5)
        allocator.allocate(model, 64)
        assert eq1_calls == [model]

    def test_no_time_probes_on_the_eq1_path(self, monkeypatch):
        probes = []
        original = GeneralModel.time

        def counting(self, p):
            probes.append(p)
            return original(self, p)

        monkeypatch.setattr(GeneralModel, "time", counting)
        LpaAllocator(0.3).allocate(GeneralModel(500.0, d=1.0, c=0.01), 4096)
        assert probes == []

    def test_overridden_time_keeps_the_generic_path(self, eq1_calls):
        class Slower(GeneralModel):
            def time(self, p):
                return 2.0 * super().time(p)

        model = Slower(120.0, d=1.0, c=0.1)
        assert not eq1_eligible(model)
        allocator = LpaAllocator(0.3)
        alloc = allocator.allocate(model, 64)
        assert eq1_calls == []
        assert alloc == generic_allocation(allocator, model, 64)

    def test_unhinted_instance_keeps_the_generic_path(self, eq1_calls):
        model = GeneralModel(120.0, d=1.0, c=0.1)
        model.monotonic_hint = False
        assert not eq1_eligible(model)
        # The class stays eligible: the hint is read per instance.
        assert eq1_eligible(GeneralModel(120.0, d=1.0, c=0.1))
        LpaAllocator(0.3).allocate(model, 64)
        assert eq1_calls == []

    def test_overridden_decision_method_keeps_the_generic_path(self, eq1_calls):
        seen = []

        class Recording(LpaAllocator):
            def _initial_monotonic(self, model, p_max, threshold):
                seen.append(p_max)
                return super()._initial_monotonic(model, p_max, threshold)

        model = AmdahlModel(400.0, 2.0)
        Recording(0.3).allocate(model, 64)
        assert eq1_calls == []
        assert seen == [64]
        assert not Recording._own_decisions
        assert LpaAllocator._own_decisions
