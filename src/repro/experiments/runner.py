"""Run paper experiments by id: a one-spec alias of ``sweeps run``.

``python -m repro.experiments`` runs the full suite at the default
settings (this is how the EXPERIMENTS.md numbers are produced);
``python -m repro.experiments --quick`` runs a reduced sizing for a
fast sanity pass.  Individual experiments can be selected by id, e.g.
``python -m repro.experiments table3 figure8``.

The selection becomes a one-instance sweep spec
(:func:`selection_spec`) run through the body of ``python -m
repro.sweeps run`` (:func:`repro.sweeps.cli.run_specs`) against an
in-memory result store: both commands take the same run flags, print
the same per-experiment blocks and write the same ``--markdown``
report.  Nothing persists between runs unless ``--cache-dir`` is
given; use ``python -m repro.sweeps run`` for a persistent store and
resume.

Sizing flags compose in a fixed order: defaults, then ``--quick``
(scales the default sizing to 1/5), then ``--branches N`` (overrides
the trace length outright, warm-up at one third).  ``--extensions``
*adds* the extension set to whatever is selected -- with no explicit
ids that is every experiment, with ids it appends the extensions after
them.

``--jobs N`` fans replay execution out over N worker processes and
``--cache-dir PATH`` persists replays across invocations; neither
changes any result (see :mod:`repro.engine`).
"""

from __future__ import annotations

import argparse
import importlib
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments.common import DEFAULT_SETTINGS, ExperimentSettings

__all__ = ["PAPER_IDS", "EXTENSION_IDS", "PAPER_EXPERIMENTS",
           "EXTENSION_EXPERIMENTS", "EXPERIMENTS", "EXPERIMENT_JOBS",
           "select_experiments", "selection_spec", "resolve_settings",
           "main"]

#: The paper's tables and figures, in report order.  Each id names its
#: module under :mod:`repro.experiments`.
PAPER_IDS = (
    "table2", "table3", "table4", "table5", "table6",
    "figure4_5", "figure6_7", "figure8", "figure9", "latency",
)

#: Beyond-the-paper ablations and extensions (run with --extensions or
#: by name), in report order.
EXTENSION_IDS = (
    "oracle_bound", "energy", "smt", "ablation_training",
    "ablation_combined", "ablation_history", "ablation_indexing",
    "seed_stability", "throttle", "warmup_curve", "h2p_confidence",
)

# Importing the runner imports every experiment module, so planning and
# running a selection never pays for an import.
_MODULES = {
    name: importlib.import_module(f"repro.experiments.{name}")
    for name in PAPER_IDS + EXTENSION_IDS
}

#: Each experiment's ``run(settings)``, by id.
PAPER_EXPERIMENTS: Dict[str, Callable[[ExperimentSettings], object]] = {
    name: _MODULES[name].run for name in PAPER_IDS
}
EXTENSION_EXPERIMENTS: Dict[str, Callable[[ExperimentSettings], object]] = {
    name: _MODULES[name].run for name in EXTENSION_IDS
}
EXPERIMENTS: Dict[str, Callable[[ExperimentSettings], object]] = {
    **PAPER_EXPERIMENTS,
    **EXTENSION_EXPERIMENTS,
}

#: Per-experiment job planners: each returns the exact ``SimJob`` list
#: its ``run()`` submits (empty for in-process experiments like
#: ``warmup_curve``).  The sweep layer expands these into a DAG without
#: executing anything (see :mod:`repro.sweeps`).
EXPERIMENT_JOBS: Dict[str, Callable[[ExperimentSettings], list]] = {
    name: module.jobs for name, module in _MODULES.items()
}


def select_experiments(
    names: Optional[Sequence[str]] = None, extensions: bool = False
) -> List[str]:
    """Resolve the experiment selection, preserving order, no repeats.

    No ids and no ``--extensions``: the paper set.  ``--extensions``
    appends the extension set to the selection (explicit or default).
    """
    selected = list(names) if names else list(PAPER_EXPERIMENTS)
    unknown = [n for n in selected if n not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}")
    if extensions:
        selected += [n for n in EXTENSION_EXPERIMENTS if n not in selected]
    return selected


def resolve_settings(
    quick: bool = False,
    branches: Optional[int] = None,
    backend: Optional[str] = None,
) -> ExperimentSettings:
    """Apply sizing flags in their documented precedence order."""
    settings = DEFAULT_SETTINGS
    if quick:
        settings = settings.scaled(0.2)
    if branches is not None:
        settings = replace(
            settings, n_branches=branches, warmup=branches // 3
        )
    if backend is not None:
        settings = replace(settings, backend=backend)
    return settings


def selection_spec(
    names: Optional[Sequence[str]] = None, extensions: bool = False
):
    """The one-instance sweep spec ``python -m repro.experiments`` runs."""
    from repro.sweeps import SweepInstance, SweepSpec

    return SweepSpec(
        name="experiments",
        description="the experiments selected on the command line",
        experiments=tuple(select_experiments(names, extensions=extensions)),
        instances=(SweepInstance("default"),),
    )


def main(argv=None) -> int:
    from repro.sweeps.cli import add_run_args, run_specs

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help=f"experiment ids to run (default: all of {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--extensions",
        action="store_true",
        help=(
            "also run the beyond-the-paper ablations/extensions "
            "(appended to any explicit selection)"
        ),
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help=(
            "run the verification suite (python -m repro.verify) first "
            "and abort if it fails; --quick selects the quick profile"
        ),
    )
    add_run_args(parser)
    args = parser.parse_args(argv)
    try:
        spec = selection_spec(args.experiments, extensions=args.extensions)
    except KeyError as exc:
        parser.error(f"{exc.args[0]}; known ids: {', '.join(EXPERIMENTS)}")
    if args.verify:
        from repro.verify.cli import run_verification

        status = run_verification(
            "quick" if args.quick else "full", jobs=args.jobs
        )
        if status != 0:
            print(
                "\naborting: verification failed -- experiment numbers "
                "from this tree would not be trustworthy"
            )
            return status
    return run_specs(args, [spec], ":memory:")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
