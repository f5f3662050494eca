"""RL009 cache-key soundness: fixtures plus the real model/allocator tree."""

from tests.lint.conftest import lint_semantic_fixture, tree_findings

#: The whole source tree: the Allocator hierarchy (sim/baselines/core),
#: the SpeedupModel hierarchy, and everything either reaches.
TREE = ["src/repro"]

ALLOC_ANCHOR = "initial = self.initial_allocation(model, P)"
EQ1_ANCHOR = "        c = model.c\n"
INIT_ANCHOR = 'self.w = check_positive(w, "w")'
KEY_ANCHOR = 'return ("eq1", self.w, self.d, self.c, self.max_parallelism)'
TIMES_ANCHOR = "        p = np.arange(1, P + 1, dtype=np.float64)\n"
TIME_ANCHOR = "        if type(p) is not int or p < 1:  # else already a valid allocation\n"


class TestFixtures:
    def test_uncovered_closure_read_fires(self):
        report = lint_semantic_fixture("rl009_bad.txt", "RL009")
        assert {f.code for f in report.findings} == {"RL009"}
        assert any("hidden_factor" in f.message for f in report.findings)

    def test_finding_anchors_at_the_read_site(self):
        report = lint_semantic_fixture("rl009_bad.txt", "RL009")
        closure = [f for f in report.findings if "via _scaled" in f.message]
        assert len(closure) == 1
        # Line 31 is ``return self.w * self.hidden_factor`` in _scaled.
        assert closure[0].line == 31

    def test_covered_and_exempt_models_are_clean(self):
        report = lint_semantic_fixture("rl009_good.txt", "RL009")
        assert report.findings == []


class TestRealTree:
    def test_shipped_models_proven_sound(self):
        # The acceptance criterion: every attribute the allocator decision
        # path reads from a cacheable model is derivable from cache_key().
        assert tree_findings("RL009", TREE) == []

    def test_injected_uncovered_read_fires(self):
        # Seeded mutation: the allocator reads a model attribute that
        # exists on GeneralModel but is not covered by its cache_key().
        def inject(path, source):
            if path.name == "allocator.py" and ALLOC_ANCHOR in source:
                source = source.replace(
                    ALLOC_ANCHOR, ALLOC_ANCHOR + "\n        _ = model.secret_knob", 1
                )
            if path.name == "general.py" and INIT_ANCHOR in source:
                source = source.replace(
                    INIT_ANCHOR, INIT_ANCHOR + "\n        self.secret_knob = 1.0", 1
                )
            return source

        findings = tree_findings("RL009", TREE, mutate=inject)
        assert findings, "seeded uncovered read was not detected"
        assert all("secret_knob" in f.message for f in findings)
        # Fires for GeneralModel and the Equation (1) subclasses that
        # inherit the injected instance attribute.
        assert any(f.path.endswith("general.py") for f in findings)

    def test_eq1_decision_path_reads_are_checked(self):
        # Seeded mutation inside LpaAllocator._initial_eq1, which reads
        # w/d/c/max_parallelism straight off the model: the rule must reach
        # it from allocate(), so an uncovered read there fires too.
        def inject(path, source):
            if path.name == "allocator.py":
                assert EQ1_ANCHOR in source, "Equation (1) read anchor drifted"
                source = source.replace(
                    EQ1_ANCHOR, EQ1_ANCHOR + "        _ = model.eq1_knob\n", 1
                )
            if path.parent.name == "speedup" and path.name == "general.py":
                source = source.replace(
                    INIT_ANCHOR, INIT_ANCHOR + "\n        self.eq1_knob = 1.0", 1
                )
            return source

        findings = tree_findings("RL009", TREE, mutate=inject)
        assert findings, "uncovered read in the Equation (1) path was not detected"
        assert all("eq1_knob" in f.message for f in findings)

    def test_narrowed_cache_key_fires(self):
        # Seeded mutation: drop max_parallelism from GeneralModel's key;
        # time() still reads it, so coverage must break.
        def narrow(path, source):
            # Match the speedup model file, not src/repro/adversary/general.py.
            if path.parent.name == "speedup" and path.name == "general.py":
                assert KEY_ANCHOR in source, "cache_key anchor drifted"
                return source.replace(
                    KEY_ANCHOR, 'return ("eq1", self.w, self.d, self.c)', 1
                )
            return source

        findings = tree_findings("RL009", TREE, mutate=narrow)
        assert findings, "narrowed cache_key was not detected"
        assert all("max_parallelism" in f.message for f in findings)

    def test_uncovered_read_in_times_does_not_fire(self):
        # The vectorized times() is no decision entry point: no allocator
        # or engine reads it.  The same uncovered read fires from time().
        def inject(anchor):
            def mutate(path, source):
                if path.parent.name == "speedup" and path.name == "general.py":
                    assert anchor in source, "time()/times() anchor drifted"
                    source = source.replace(anchor, "        _ = self.times_knob\n" + anchor, 1)
                    source = source.replace(
                        INIT_ANCHOR, INIT_ANCHOR + "\n        self.times_knob = 1.0", 1
                    )
                return source

            return mutate

        assert tree_findings("RL009", TREE, mutate=inject(TIMES_ANCHOR)) == []
        findings = tree_findings("RL009", TREE, mutate=inject(TIME_ANCHOR))
        assert findings, "the uncovered read in time() was not detected"
        assert all("times_knob" in f.message for f in findings)
