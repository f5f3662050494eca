"""Parity of LpaAllocator's Equation (1) decision path with the generic one.

``LpaAllocator.initial_allocation`` resolves models admitted by
:func:`repro.core.allocator.eq1_eligible` through ``_initial_eq1``, which
writes ``time(p)`` out inline instead of probing the model.  The oracle is
the generic path it replaces: ``GeneralModel.max_useful_processors``
followed by ``LpaAllocator._initial_monotonic``.  Both must agree exactly,
and every model or allocator the twin cannot mirror must keep the generic
path.  For ``c = 0`` the twin proposes both boundaries in closed form and
keeps a proposal only after probing it, so its decisions stay the
bisection's; the tests below also force bad proposals and check that the
search falls back.
"""

import math
import pickle
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import instance_for_family
import repro.core.allocator as allocator_module
from repro.core.allocator import LpaAllocator, eq1_eligible
from repro.core.constants import MU_MAX, MU_STAR
from repro.exceptions import AllocationError, InvalidParameterError
from repro.sim.allocation import Allocation
from repro.speedup import (
    AmdahlModel,
    CommunicationModel,
    GeneralModel,
    PowerLawModel,
    RooflineModel,
    TabulatedModel,
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


@st.composite
def c0_cases(draw):
    """A ``c = 0`` model (roofline or Amdahl shape) with ``d/w`` over 30 decades."""
    P = draw(st.one_of(st.sampled_from([1, 2, 3, 4096, 10**6]), st.integers(1, 10**6)))
    w = draw(works)
    ratio = draw(st.one_of(st.just(0.0), st.floats(-18.0, 12.0).map(lambda e: 10.0**e)))
    p_tilde = draw(st.sampled_from(["below", "above", "none"]))
    if p_tilde == "below":
        pt = draw(st.integers(1, max(1, P - 1)))
    elif p_tilde == "above":
        pt = draw(st.integers(P + 1, 2 * P + 8))
    else:
        pt = None
    mu = draw(st.one_of(st.just(MU_MAX), mus))
    return GeneralModel(w, d=w * ratio, c=0.0, max_parallelism=pt), P, mu, draw(rtols)


def time_guess(allocator, model, P):
    """``_initial_eq1``'s proposed time boundary for a ``c = 0`` model, and
    whether it passes its check (``None`` when ``t(1)`` is feasible)."""
    w, d = model.w, model.d
    p_max = model.max_useful_processors(P)
    threshold = allocator.delta * (w / p_max + d) * (1.0 + allocator.rtol)
    if w + d <= threshold:
        return None
    q = w / (threshold - d)
    g = p_max if q >= p_max else max(2, math.ceil(q))
    return g, (g == 2 or w / (g - 1) + d > threshold) and (
        g == p_max or w / g + d <= threshold
    )


def shifted_math(shift=0, floor=None):
    """``math`` with ``ceil``/``floor`` moved by ``shift``, or ``floor`` replaced."""
    shim = types.SimpleNamespace(**vars(math))
    shim.ceil = lambda x: math.ceil(x) + shift
    shim.floor = floor or (lambda x: math.floor(x) + shift)
    return shim


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

    @settings(max_examples=600, deadline=None)
    @given(c0_cases())
    def test_closed_form_boundaries_for_c0(self, case):
        model, P, mu, rtol = case
        assert_parity(LpaAllocator(mu, rtol=rtol), model, P)

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
# Closed-form proposals for c = 0
# ----------------------------------------------------------------------
class TestClosedFormProposals:
    def test_a_rejected_time_guess_falls_back_to_the_bisection(self):
        # d/w = 1e12 at delta(MU_MAX) ~ 1: threshold - d is a few ulps of d,
        # so w / (threshold - d) is far from the boundary.
        allocator = LpaAllocator(MU_MAX, rtol=0.0)
        model = AmdahlModel(1.0, 1e12)
        guess, accepted = time_guess(allocator, model, 4096)
        assert not accepted
        assert_parity(allocator, model, 4096)
        assert allocator.allocate(model, 4096).initial != guess

    @pytest.mark.parametrize("shift", [-1000, -3, -1, 1, 3, 1000])
    @settings(max_examples=60, deadline=None)
    @given(case=c0_cases())
    def test_every_wrong_guess_falls_back(self, shift, case):
        # Moving ceil/floor moves both proposals off the boundary (or out of
        # range); _initial_eq1 computes no cap, so nothing else moves.
        model, P, mu, rtol = case
        allocator = LpaAllocator(mu, rtol=rtol)
        expected = generic_allocation(allocator, model, P).initial
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(allocator_module, "math", shifted_math(shift))
            assert allocator._initial_eq1(model, P) == expected

    def test_area_shortcut_is_skipped_under_the_guard(self, monkeypatch):
        def no_floor(x):
            raise AssertionError("area shortcut taken")

        allocator = LpaAllocator(0.3, rtol=0.0)
        # d = 1e-16 w: each step adds less than the float area's rounding
        # error, so the float area need not be monotone and the guard
        # d > 1e-15 (w + (p_max + 1) d) keeps the bisection.
        guarded = GeneralModel(1.0, d=1e-16, c=0.0)
        steep = GeneralModel(1.0, d=1e-3, c=0.0)
        assert not guarded.d > 1e-15 * (guarded.w + (10**6 + 1) * guarded.d)
        monkeypatch.setattr(allocator_module, "math", shifted_math(floor=no_floor))
        assert allocator._initial_eq1(guarded, 10**6) == (
            generic_allocation(allocator, guarded, 10**6).initial
        )
        with pytest.raises(AssertionError, match="area shortcut taken"):
            allocator._initial_eq1(steep, 10**6)

    def test_tightest_budget(self):
        # delta(MU_MAX) exceeds 1 by two ulps and rtol = 0: the time
        # budget is as tight as it gets, and the guesses land at or next
        # to p_max, which the bisection takes as feasible unprobed.
        allocator = LpaAllocator(MU_MAX, rtol=0.0)
        for P in (2, 3, 64, 4096):
            for d in (0.0, 1e-3, 1.0, 1e9):
                assert_parity(allocator, GeneralModel(1.0, d=d), P)


# ----------------------------------------------------------------------
# The unchecked Allocation of the Equation (1) path
# ----------------------------------------------------------------------
class TestTrustedAllocation:
    @pytest.mark.parametrize(("initial", "final"), [(1, 1), (7, 3), (4096, 4096)])
    def test_behaves_like_a_validated_one(self, eq1_calls, initial, final):
        # A roofline model's Step 1 picks p_max = p̃, and mu = 1/4 on
        # P = 4 * final caps it at final.
        model = RooflineModel(100.0, initial)
        trusted = LpaAllocator(0.25).allocate(model, 4 * final)
        assert eq1_calls == [model]
        checked = Allocation(initial=initial, final=final)
        assert type(trusted) is Allocation
        assert trusted == checked and hash(trusted) == hash(checked)
        assert repr(trusted) == repr(checked)
        assert pickle.loads(pickle.dumps(trusted)) == checked
        assert pickle.dumps(trusted) == pickle.dumps(checked)
        assert vars(trusted) == vars(checked)

    def test_eq1_decisions_are_allocations(self):
        alloc = LpaAllocator(0.3).allocate(AmdahlModel(400.0, 2.0), 64)
        assert alloc == generic_allocation(LpaAllocator(0.3), AmdahlModel(400.0, 2.0), 64)
        with pytest.raises(AttributeError):
            alloc.final = 1

    def test_overridden_step_one_is_still_validated(self):
        class Broken(LpaAllocator):
            def initial_allocation(self, model, P):
                return 0

        with pytest.raises(AllocationError, match="invalid allocation"):
            Broken(0.3).allocate(AmdahlModel(400.0, 2.0), 64)


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


# ----------------------------------------------------------------------
# Eligibility
# ----------------------------------------------------------------------
class TestEligibility:
    def test_eq1_families_are_eligible(self):
        assert eq1_eligible(GeneralModel(50.0, d=3.0, c=0.25, max_parallelism=40))
        assert eq1_eligible(RooflineModel(60.0, 12))
        assert eq1_eligible(CommunicationModel(60.0, 0.4))
        assert eq1_eligible(AmdahlModel(60.0, 2.0))

    def test_non_general_models_are_not(self):
        assert not eq1_eligible(PowerLawModel(60.0))
        assert not eq1_eligible(TabulatedModel([10.0, 6.0, 5.0]))

    def test_overriding_the_closed_forms_disqualifies(self):
        class CustomTime(GeneralModel):
            def time(self, p):
                return super().time(p) * 1.0

        class CustomPmax(GeneralModel):
            def max_useful_processors(self, P):
                return super().max_useful_processors(P)

        class CustomArea(GeneralModel):
            def area(self, p):
                return super().area(p)

        assert not eq1_eligible(CustomTime(60.0))
        assert not eq1_eligible(CustomPmax(60.0))
        assert not eq1_eligible(CustomArea(60.0))

    def test_non_monotonic_hint_disqualifies(self):
        class Unhinted(GeneralModel):
            monotonic_hint = False

        assert not eq1_eligible(Unhinted(60.0))
