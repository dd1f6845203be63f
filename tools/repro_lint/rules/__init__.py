"""Bundled repro-lint rules.

Importing this package registers every bundled rule with the registry; a new
checker only needs a module here plus an import line below.
"""

from tools.repro_lint.rules import (  # noqa: F401
    rl001_ambient_rng,
    rl002_wall_clock,
    rl003_sorted_precondition,
    rl004_minute_literals,
    rl005_fraction_validation,
    rl006_no_direct_output,
    rl008_per_event_rebuild,
    rl009_model_persistence,
    rl010_layering,
    rl011_determinism_taint,
    rl012_process_boundary,
    rl013_async_blocking,
    rl014_store_column_write,
    rl015_lifecycle_scratch_mining,
    rl016_cost_arithmetic,
)
