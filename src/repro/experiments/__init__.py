"""Experiment harness: one module per paper table/figure.

Each experiment module exposes a ``jobs(settings)`` planner and a
``run(settings)`` function returning a structured result object with
rows and a ``format()`` summary, so the command line
(``python -m repro.experiments``), the sweeps and the Markdown report
print the same paper-shaped tables.

The experiment ids are declared once, as ``PAPER_IDS`` and
``EXTENSION_IDS`` in :mod:`repro.experiments.runner`.  This package
re-exports only :class:`ExperimentSettings` and
:func:`replay_benchmark`; import an experiment as a submodule
(``from repro.experiments import table3``).

Experiment index (see DESIGN.md section 4 for the full mapping):

========  ==================================================  =================
Exp id    What it reproduces                                  Module
========  ==================================================  =================
Table 2   wasted speculative execution per pipeline           table2
Table 3   enhanced JRS vs perceptron PVN/Spec                 table3
Table 4   pipeline gating U/P, JRS vs perceptron              table4
Table 5   effect of a better baseline predictor               table5
Table 6   perceptron size sensitivity                         table6
Fig 4/5   perceptron_cic output density (full + zoom)         figure4_5
Fig 6/7   perceptron_tnt output density (full + zoom)         figure6_7
Fig 8     gating+reversal per benchmark, 40c/4w               figure8
Fig 9     gating+reversal per benchmark, 20c/8w               figure9
s5.4.2    estimator latency sensitivity                       latency
========  ==================================================  =================
"""

from repro.experiments.common import ExperimentSettings, replay_benchmark

__all__ = ["ExperimentSettings", "replay_benchmark"]
