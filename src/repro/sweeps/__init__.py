"""Declarative sweep DAGs over the sqlite result store.

``python -m repro.sweeps run`` expands a checked-in JSON spec into a
deduplicated DAG of :class:`~repro.engine.job.SimJob` s plus dependent
experiment records, executes only what the store does not already
hold, and re-renders the paper's tables bit-identically from stored
rows.  See ``docs/sweeps.md``.
"""

from repro.sweeps.dag import ExperimentNode, SweepDag
from repro.sweeps.executor import (
    StoredResult,
    SweepOutcome,
    render_from_store,
    report_markdown,
    run_sweep,
)
from repro.sweeps.spec import (
    SPECS_DIR,
    SWEEP_SCHEMA,
    SweepInstance,
    SweepSpec,
    SweepSpecError,
    builtin_spec_names,
    load_spec,
    record_key,
    resolve_instance,
    settings_dict,
)

__all__ = [
    "SPECS_DIR",
    "SWEEP_SCHEMA",
    "ExperimentNode",
    "StoredResult",
    "SweepDag",
    "SweepInstance",
    "SweepOutcome",
    "SweepSpec",
    "SweepSpecError",
    "builtin_spec_names",
    "load_spec",
    "record_key",
    "render_from_store",
    "report_markdown",
    "resolve_instance",
    "run_sweep",
    "settings_dict",
]
