"""Domain-aware lint rules for the repro codebase.

Importing this package registers every rule, of both kinds, into the
one registry in :mod:`repro.lint.registry`; the registry triggers the
import lazily, so rule modules must never import the registry's
*consumers* (engine, reporters).

RL001–RL008 and RL012 are per-file :class:`~repro.lint.registry.Rule`
subclasses (one AST at a time); RL009 is the whole-program
:class:`~repro.lint.registry.SemanticRule`, run over the
:class:`~repro.lint.semantic.project.Project` model built from the same
parsed files when the engine is asked for semantic analysis
(``python -m repro.lint --semantic``).

| Code  | Name                    | Invariant protected                          |
|-------|-------------------------|----------------------------------------------|
| RL001 | unseeded-rng            | campaign determinism (seeded RNG everywhere) |
| RL002 | wall-clock              | reproducible engine (no wall clock in hot paths) |
| RL003 | float-equality          | exact-schedule guarantee (golden digests)    |
| RL004 | cache-key-contract      | allocation-cache soundness (per-file shape)  |
| RL005 | mutable-state           | process-pool safety                          |
| RL006 | public-annotations      | typed public API (mypy strict surface)       |
| RL007 | frozen-events           | immutable, schema-complete event vocabulary  |
| RL008 | batch-vectorization     | whole-array batch engine (no per-task loops) |
| RL009 | cache-key-soundness     | cache_key() covers every decision-path read  |
| RL012 | emit-guard              | zero-cost disabled tracing (guarded emits)   |
"""

from repro.lint.rules import (
    rl001_unseeded_rng,
    rl002_wall_clock,
    rl003_float_equality,
    rl004_cache_key,
    rl005_mutable_state,
    rl006_annotations,
    rl007_frozen_events,
    rl008_batch_vectorization,
    rl009_cache_key_soundness,
    rl012_emit_guards,
)

__all__ = [
    "rl001_unseeded_rng",
    "rl002_wall_clock",
    "rl003_float_equality",
    "rl004_cache_key",
    "rl005_mutable_state",
    "rl006_annotations",
    "rl007_frozen_events",
    "rl008_batch_vectorization",
    "rl009_cache_key_soundness",
    "rl012_emit_guards",
]
