"""Which component specs the fast backend runs, and with what arguments.

The reference constructors decide what a component accepts: a spec
runs fast only if its kind has a fast pass and ``spec.build()``
succeeds, so the fast path keeps no copy of any default or range
check.  On top of that it adds its own rules:

- each explicit param has the exact type of the constructor's default
  (an ``int`` may stand for a ``float``; a ``None`` default takes
  anything but a ``bool``; nested specs are checked on their own), so
  a pass never sees ``10.0`` history bits or ``1`` for ``True``;
- the passes' word-width limits (:func:`_within_limits`).

Each verdict and argument dict is computed once per process.  The memo
is keyed by ``repr(spec.canonical())``, not by the spec: spec equality
treats ``1``, ``1.0`` and ``True`` as one value, the repr does not.
"""

from __future__ import annotations

import inspect
from typing import Dict, Optional

from repro.engine.specs import EstimatorSpec, PredictorSpec, Spec
from repro.fastpath.kernels import swar_supported

__all__ = ["arguments", "supported"]

#: ``repr(spec.canonical())`` -> the spec's constructor arguments when
#: it runs fast, else ``None``.
_COMPONENTS: Dict[str, Optional[dict]] = {}


def _component(spec) -> Optional[dict]:
    key = repr(spec.canonical())
    try:
        return _COMPONENTS[key]
    except KeyError:
        args = _COMPONENTS[key] = _fast_arguments(spec)
        return args


def supported(spec) -> bool:
    """True when a fast pass runs ``spec`` bit-identically."""
    return _component(spec) is not None


def arguments(spec) -> dict:
    """``spec.arguments()`` of a supported spec (memoised; do not mutate).

    Raises :class:`~repro.fastpath.FastPathUnsupported` for any other.
    """
    args = _component(spec)
    if args is None:
        from repro.fastpath import FastPathUnsupported

        raise FastPathUnsupported(f"no fast pass for {spec!r}")
    return args


def _typed_like(value, default) -> bool:
    if isinstance(value, Spec):
        return True
    if default is None:
        return not isinstance(value, bool)
    return type(value) is type(default) or (
        type(value) is int and type(default) is float
    )


def _within_limits(kind: str, args: dict) -> bool:
    if kind == "perceptron":
        return swar_supported(args["history_length"], args["weight_bits"])
    if kind == "gshare_perceptron_hybrid":
        # Its direction perceptron keeps 8-bit weights.
        return swar_supported(args["perceptron_history"], 8)
    if kind == "jrs":
        # Enhanced indexing appends the prediction bit to the history
        # word, which must still fit the uint64 fold input.
        return not args["enhanced"] or args["history_length"] <= 63
    return True


def _fast_arguments(spec) -> Optional[dict]:
    # The pass modules import this one, so their kind tables load late.
    from repro.fastpath import estimators, predictors

    if isinstance(spec, PredictorSpec):
        kinds = predictors._RUNNERS.keys()
    else:
        kinds = estimators._RUNNERS.keys() | estimators._FUSIONS.keys()
    if spec.kind not in kinds:
        return None
    try:
        args = spec.arguments()
        defaults = inspect.signature(spec.constructor()).parameters
        if not all(_typed_like(v, defaults[k].default) for k, v in spec.params):
            return None
        spec.build()
    except (TypeError, ValueError):
        # The reference loop then raises the constructor's own error.
        return None
    if spec.kind in estimators._FUSIONS:
        parts = (args["primary"], args["secondary"])
        if not all(isinstance(p, EstimatorSpec) and supported(p) for p in parts):
            return None
    return args if _within_limits(spec.kind, args) else None
