"""Declarative component specs: named, parameterized constructors.

A spec is a frozen, hashable, picklable description of a predictor,
estimator or policy -- ``EstimatorSpec.of("perceptron", threshold=0)``
instead of ``lambda: PerceptronConfidenceEstimator(threshold=0)``.
Closures cannot be fingerprinted or shipped to worker processes; specs
can, which is what makes the engine's content-addressed replay cache
and multiprocess fan-out possible.

Each spec class owns a registry of kinds.  Registering a kind binds a
zero-argument loader that imports and returns the kind's constructor,
so importing this module pulls in no component code.  The constructor
is the one place a component's parameters, defaults and valid ranges
live: ``spec.build()`` calls it with the spec's params, and
``spec.arguments()`` binds them to its signature with the defaults
filled in.  Params may themselves be specs (e.g. the fusion estimators
take component estimator specs); ``build()`` builds those first, so
arbitrarily nested configurations remain declarative.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, Optional, Tuple

__all__ = [
    "Spec",
    "PredictorSpec",
    "EstimatorSpec",
    "PolicySpec",
    "SpecError",
]

#: Canonical parameter storage: name-sorted tuple of (name, value).
Params = Tuple[Tuple[str, Any], ...]


class SpecError(ValueError):
    """Unknown kind, unbuildable params, or invalid param value."""


def _freeze_value(value: Any) -> Any:
    """Validate/normalise one param value into hashable canonical form."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Spec):
        return value
    if isinstance(value, (tuple, list)):
        return tuple(_freeze_value(v) for v in value)
    raise SpecError(
        f"spec params must be scalars, specs, or sequences thereof; "
        f"got {type(value).__name__}: {value!r}"
    )


def _freeze_params(params: Dict[str, Any]) -> Params:
    return tuple(sorted((k, _freeze_value(v)) for k, v in params.items()))


@dataclass(frozen=True)
class Spec:
    """A named constructor plus its keyword arguments.

    Attributes:
        kind: Registered constructor name (e.g. ``"perceptron"``).
        params: Name-sorted ``(name, value)`` pairs; construct via
            :meth:`of` rather than by hand so values are validated.
    """

    kind: str
    params: Params = ()

    #: Per-class kind registry; each subclass gets its own.
    _registry: ClassVar[Optional[Dict[str, Callable[..., Any]]]] = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._registry = {}

    @classmethod
    def of(cls, kind: str, **params: Any) -> "Spec":
        """Construct a spec, validating the kind and freezing params."""
        if cls._registry is not None and kind not in cls._registry:
            raise SpecError(
                f"unknown {cls.__name__} kind {kind!r}; "
                f"registered: {sorted(cls._registry)}"
            )
        return cls(kind=kind, params=_freeze_params(params))

    @classmethod
    def register(cls, kind: str) -> Callable[[Callable], Callable]:
        """Decorator: bind ``kind`` to a zero-argument loader that
        returns the kind's constructor."""

        def decorate(loader: Callable) -> Callable:
            if kind in cls._registry:
                raise SpecError(
                    f"{cls.__name__} kind {kind!r} already registered"
                )
            cls._registry[kind] = loader
            return loader

        return decorate

    @classmethod
    def kinds(cls) -> Tuple[str, ...]:
        """Registered kind names."""
        return tuple(sorted(cls._registry))

    def param_dict(self) -> Dict[str, Any]:
        """Params as a plain dict (copies; specs stay frozen)."""
        return dict(self.params)

    def constructor(self) -> Callable[..., Any]:
        """The callable ``kind`` is registered to (loaded on first use)."""
        registry = type(self)._registry
        if registry is None or self.kind not in registry:
            raise SpecError(
                f"unknown {type(self).__name__} kind {self.kind!r}; "
                f"registered: {sorted(registry or ())}"
            )
        return registry[self.kind]()

    def build(self) -> Any:
        """Instantiate the described component (nested specs first)."""
        return self.constructor()(
            **{k: v.build() if isinstance(v, Spec) else v for k, v in self.params}
        )

    def arguments(self) -> Dict[str, Any]:
        """Every constructor argument by name: the params, with the
        constructor's defaults filled in.  Nested specs stay specs.

        Raises :class:`SpecError` when the params do not bind to the
        constructor's signature (a name it does not take, or a required
        one missing).
        """
        try:
            bound = inspect.signature(self.constructor()).bind(**self.param_dict())
        except TypeError as exc:
            raise SpecError(f"{type(self).__name__} {self.kind!r}: {exc}") from None
        bound.apply_defaults()
        return dict(bound.arguments)

    def canonical(self) -> tuple:
        """Recursion-safe canonical form used by job fingerprints."""
        return (
            type(self).__name__,
            self.kind,
            tuple(
                (k, v.canonical() if isinstance(v, Spec) else v)
                for k, v in self.params
            ),
        )


@dataclass(frozen=True)
class PredictorSpec(Spec):
    """Spec for a :class:`repro.predictors.base.BranchPredictor`."""


@dataclass(frozen=True)
class EstimatorSpec(Spec):
    """Spec for a :class:`repro.core.estimator.ConfidenceEstimator`."""


@dataclass(frozen=True)
class PolicySpec(Spec):
    """Spec for a :class:`repro.core.reversal.SpeculationPolicy`."""


# --------------------------------------------------------------------------
# Built-in kinds.  Each loader imports its constructor on first use, so
# importing repro.engine.specs does not pull in numpy-heavy modules.
# --------------------------------------------------------------------------


@PredictorSpec.register("baseline_hybrid")
def _baseline_hybrid():
    from repro.predictors.hybrid import make_baseline_hybrid

    return make_baseline_hybrid


@PredictorSpec.register("gshare_perceptron_hybrid")
def _gshare_perceptron_hybrid():
    from repro.predictors.hybrid import make_gshare_perceptron_hybrid

    return make_gshare_perceptron_hybrid


@PredictorSpec.register("tage")
def _tage():
    from repro.predictors.tage import TagePredictor

    return TagePredictor


@EstimatorSpec.register("always_high")
def _always_high():
    from repro.core.estimator import AlwaysHighEstimator

    return AlwaysHighEstimator


@EstimatorSpec.register("jrs")
def _jrs():
    from repro.core.jrs import JRSEstimator

    return JRSEstimator


@EstimatorSpec.register("perceptron")
def _perceptron():
    from repro.core.perceptron_estimator import PerceptronConfidenceEstimator

    return PerceptronConfidenceEstimator


@EstimatorSpec.register("path_perceptron")
def _path_perceptron():
    from repro.core.path_perceptron import PathPerceptronConfidenceEstimator

    return PathPerceptronConfidenceEstimator


@EstimatorSpec.register("agreement")
def _agreement():
    from repro.core.combined_estimator import AgreementEstimator

    return AgreementEstimator


@EstimatorSpec.register("cascade")
def _cascade():
    from repro.core.combined_estimator import CascadeEstimator

    return CascadeEstimator


@PolicySpec.register("none")
def _no_control():
    from repro.core.reversal import NoSpeculationControl

    return NoSpeculationControl


@PolicySpec.register("gating")
def _gating():
    from repro.core.reversal import GatingOnlyPolicy

    return GatingOnlyPolicy


@PolicySpec.register("three_region")
def _three_region():
    from repro.core.reversal import ThreeRegionPolicy

    return ThreeRegionPolicy


#: Common ready-made specs (the defaults of nearly every experiment).
BASELINE_PREDICTOR = PredictorSpec.of("baseline_hybrid")
ALWAYS_HIGH = EstimatorSpec.of("always_high")
NO_POLICY = PolicySpec.of("none")
GATING_POLICY = PolicySpec.of("gating")
THREE_REGION_POLICY = PolicySpec.of("three_region")

__all__ += [
    "BASELINE_PREDICTOR",
    "ALWAYS_HIGH",
    "NO_POLICY",
    "GATING_POLICY",
    "THREE_REGION_POLICY",
]
