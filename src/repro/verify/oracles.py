"""Reference oracles: slow, obviously-correct reimplementations.

Every predictor, estimator and policy kind registered in
:mod:`repro.engine.specs` has a pure-Python twin here, written straight
from the paper's prose with no numpy, no shared helper code and no
clever indexing -- the point is that a bug would have to be made
*twice, independently* to survive the differential cross-check.  Do not
"optimise" these or refactor them to share code with the production
modules; their value is their independence.

Each reference mirrors the production component's protocol
(``predict``/``update`` for predictors, ``estimate``/``train``/
``shift_history`` for estimators) and exposes the same
``state_canonical()`` tuple so whole-table state can be compared by
digest at checkpoints, not just per-branch outputs.

:class:`RefPipelineSimulator` is the pipeline timing model written
helper by helper, with a linear scan of the in-flight branches for
every question; the production simulator must return the same
:class:`~repro.pipeline.stats.SimStats`, field for field.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

# The output record only; the timing logic below shares no code with
# repro.pipeline.simulator.
from repro.pipeline.stats import SimStats

__all__ = [
    "RefSignal",
    "RefDecision",
    "RefFrontEnd",
    "RefPipelineSimulator",
    "reference_predictor",
    "reference_estimator",
    "reference_policy",
]

_U64 = (1 << 64) - 1


def _fold(value: int, width: int) -> int:
    """XOR successive ``width``-bit slices of ``value`` together."""
    if width <= 0:
        return 0
    out = 0
    while value:
        out ^= value & ((1 << width) - 1)
        value >>= width
    return out


def _mix(value: int) -> int:
    """Splitmix64-style finalizer (independent restatement)."""
    v = (value + 0x9E3779B97F4A7C15) & _U64
    v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & _U64
    return v ^ (v >> 31)


def _log2_exact(entries: int, what: str) -> int:
    width = entries.bit_length() - 1
    if (1 << width) != entries:
        raise ValueError(f"{what} entries must be a power of two, got {entries}")
    return width


class _RefHistory:
    """Global history as a plain integer shift register."""

    def __init__(self, length: int):
        self.length = length
        self.bits = 0

    def push(self, taken: bool) -> None:
        self.bits = ((self.bits << 1) | (1 if taken else 0)) & (
            (1 << self.length) - 1
        )

    def pm1(self, i: int) -> int:
        """+/-1 view of bit ``i`` (0 = most recent branch)."""
        return 1 if (self.bits >> i) & 1 else -1


# ---------------------------------------------------------------------------
# Signals, decisions, and the reference front-end protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RefSignal:
    """Reference confidence signal (level as a plain string)."""

    low_confidence: bool
    raw: float
    level: str  # "high" | "weak_low" | "strong_low"

    @classmethod
    def high(cls, raw) -> "RefSignal":
        return cls(False, raw, "high")

    @classmethod
    def weak_low(cls, raw) -> "RefSignal":
        return cls(True, raw, "weak_low")

    @classmethod
    def strong_low(cls, raw) -> "RefSignal":
        return cls(True, raw, "strong_low")


@dataclass(frozen=True)
class RefDecision:
    """Reference policy verdict (action as a plain string)."""

    action: str  # "normal" | "gate" | "reverse"
    final_prediction: bool


@dataclass(frozen=True)
class RefEvent:
    """What the reference front-end observed for one branch."""

    pc: int
    taken: bool
    prediction: bool
    final_prediction: bool
    signal: RefSignal
    action: str


def _digest(canonical: tuple) -> str:
    return hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Reference predictors
# ---------------------------------------------------------------------------


class RefBimodal:
    """Per-address saturating-counter predictor (Smith)."""

    def __init__(self, entries: int = 16384, counter_bits: int = 2):
        self.entries = entries
        self.bits = counter_bits
        self.max = (1 << counter_bits) - 1
        self.table = [(1 << counter_bits) // 2] * entries

    def _i(self, pc: int) -> int:
        return (pc >> 2) % self.entries

    def predict(self, pc: int) -> bool:
        return bool(self.table[self._i(pc)] >> (self.bits - 1))

    def train(self, pc: int, taken: bool, prediction: bool) -> None:
        i = self._i(pc)
        v = self.table[i]
        if taken:
            if v < self.max:
                v += 1
        elif v > 0:
            v -= 1
        self.table[i] = v

    def shift(self, taken: bool) -> None:
        pass  # no history of its own

    def state_canonical(self) -> tuple:
        return ("bimodal", tuple(self.table))


class RefGShare:
    """pc XOR folded-history indexed counter table (McFarling)."""

    def __init__(
        self,
        entries: int = 65536,
        history_length: int = 14,
        counter_bits: int = 2,
        history: Optional[_RefHistory] = None,
    ):
        self.index_bits = _log2_exact(entries, "gshare")
        self.bits = counter_bits
        self.max = (1 << counter_bits) - 1
        self.table = [(1 << counter_bits) // 2] * entries
        self.hl = history_length
        self.history = history if history is not None else _RefHistory(history_length)
        self.owns_history = history is None

    def _i(self, pc: int) -> int:
        h = self.history.bits & ((1 << self.hl) - 1)
        return _fold(pc >> 2, self.index_bits) ^ _fold(h, self.index_bits)

    def predict(self, pc: int) -> bool:
        return bool(self.table[self._i(pc)] >> (self.bits - 1))

    def train(self, pc: int, taken: bool, prediction: bool) -> None:
        i = self._i(pc)
        v = self.table[i]
        if taken:
            if v < self.max:
                v += 1
        elif v > 0:
            v -= 1
        self.table[i] = v

    def shift(self, taken: bool) -> None:
        if self.owns_history:
            self.history.push(taken)

    def state_canonical(self) -> tuple:
        return ("gshare", self.hl, tuple(self.table), self.history.bits)


class RefPerceptronPredictor:
    """Jimenez-Lin perceptron trained on branch direction."""

    def __init__(
        self,
        entries: int = 512,
        history_length: int = 24,
        weight_bits: int = 8,
        theta: Optional[int] = None,
        history: Optional[_RefHistory] = None,
    ):
        self.entries = entries
        self.hl = history_length
        self.w_max = (1 << (weight_bits - 1)) - 1
        self.w_min = -(1 << (weight_bits - 1))
        self.theta = int(1.93 * history_length + 14) if theta is None else theta
        # Row layout matches the hardware array: bias first.
        self.weights = [[0] * (history_length + 1) for _ in range(entries)]
        self.history = history if history is not None else _RefHistory(history_length)
        self.owns_history = history is None

    def output(self, pc: int) -> int:
        row = self.weights[(pc >> 2) % self.entries]
        y = row[0]
        for i in range(self.hl):
            y += row[i + 1] * self.history.pm1(i)
        return y

    def predict(self, pc: int) -> bool:
        return self.output(pc) >= 0

    def _clamp(self, v: int) -> int:
        return min(max(v, self.w_min), self.w_max)

    def train(self, pc: int, taken: bool, prediction: bool) -> None:
        y = self.output(pc)
        if prediction != taken or abs(y) <= self.theta:
            target = 1 if taken else -1
            row = self.weights[(pc >> 2) % self.entries]
            row[0] = self._clamp(row[0] + target)
            for i in range(self.hl):
                row[i + 1] = self._clamp(row[i + 1] + target * self.history.pm1(i))

    def shift(self, taken: bool) -> None:
        if self.owns_history:
            self.history.push(taken)

    def state_canonical(self) -> tuple:
        return (
            "perceptron_predictor",
            tuple(tuple(row) for row in self.weights),
            self.history.bits,
        )


class RefCombined:
    """Two components arbitrated by a 2-bit chooser (McFarling hybrid)."""

    def __init__(self, component_a, component_b, history: _RefHistory,
                 meta_entries: int = 65536):
        self.a = component_a
        self.b = component_b
        self.history = history
        self.meta_entries = meta_entries
        self.meta = [2] * meta_entries  # weakly prefer component B

    def _mi(self, pc: int) -> int:
        return (pc >> 2) % self.meta_entries

    def predict(self, pc: int) -> bool:
        use_b = bool(self.meta[self._mi(pc)] >> 1)
        return self.b.predict(pc) if use_b else self.a.predict(pc)

    def update(self, pc: int, taken: bool, prediction: bool) -> None:
        """Retire one branch: chooser, components, shared history."""
        pred_a = self.a.predict(pc)
        pred_b = self.b.predict(pc)
        if pred_a != pred_b:
            i = self._mi(pc)
            v = self.meta[i]
            if pred_b == taken:
                if v < 3:
                    v += 1
            elif v > 0:
                v -= 1
            self.meta[i] = v
        self.a.train(pc, taken, pred_a)
        self.b.train(pc, taken, pred_b)
        # The hybrid owns the single shared history register.
        self.history.push(taken)

    def state_canonical(self) -> tuple:
        return (
            "combined",
            self.a.state_canonical(),
            self.b.state_canonical(),
            tuple(self.meta),
            self.history.bits,
        )

    def state_digest(self) -> str:
        return _digest(self.state_canonical())


def _ref_baseline_hybrid(
    bimodal_entries: int = 16384,
    gshare_entries: int = 65536,
    meta_entries: int = 65536,
    history_length: int = 10,
) -> RefCombined:
    history = _RefHistory(max(history_length, 1))
    return RefCombined(
        RefBimodal(bimodal_entries),
        RefGShare(gshare_entries, history_length, history=history),
        history,
        meta_entries,
    )


def _ref_gshare_perceptron_hybrid(
    gshare_entries: int = 65536,
    gshare_history: int = 14,
    perceptron_entries: int = 512,
    perceptron_history: int = 24,
    meta_entries: int = 65536,
) -> RefCombined:
    history = _RefHistory(max(gshare_history, perceptron_history))
    return RefCombined(
        RefGShare(gshare_entries, gshare_history, history=history),
        RefPerceptronPredictor(
            perceptron_entries, perceptron_history, history=history
        ),
        history,
        meta_entries,
    )


class RefTage:
    """TAGE (Seznec-Michaud): bimodal base + tagged geometric tables.

    Restates ``repro.predictors.tage.TagePredictor`` from its docstring:
    longest tag match provides, next-longest (or base) is the alternate,
    allocation on mispredict takes the shortest longer-history table
    with a dead useful counter, useful counters halve every
    ``u_reset_period`` retires.
    """

    def __init__(
        self,
        base_entries: int = 4096,
        tagged_entries: int = 1024,
        n_tables: int = 4,
        tag_bits: int = 9,
        counter_bits: int = 3,
        min_history: int = 5,
        max_history: int = 40,
        u_reset_period: int = 16384,
    ):
        self.index_bits = _log2_exact(tagged_entries, "tage tagged-table")
        self.tagged_entries = tagged_entries
        self.tag_bits = tag_bits
        self.counter_bits = counter_bits
        self.midpoint = 1 << (counter_bits - 1)
        self.ctr_max = (1 << counter_bits) - 1
        self.u_reset_period = u_reset_period
        # Geometric history series, re-derived independently.
        if n_tables == 1:
            self.lengths = [min_history]
        else:
            ratio = (max_history / min_history) ** (1.0 / (n_tables - 1))
            self.lengths = []
            for i in range(n_tables):
                length = int(round(min_history * ratio**i))
                if self.lengths and length <= self.lengths[-1]:
                    length = self.lengths[-1] + 1
                self.lengths.append(length)
        self.base_entries = base_entries
        self.base = [2] * base_entries
        self.ctr = [[self.midpoint] * tagged_entries for _ in self.lengths]
        self.tags = [[0] * tagged_entries for _ in self.lengths]
        self.useful = [[0] * tagged_entries for _ in self.lengths]
        self.history = _RefHistory(self.lengths[-1])
        self.retired = 0

    def _idx(self, table: int, pc: int) -> int:
        h = self.history.bits & ((1 << self.lengths[table]) - 1)
        return _fold(pc >> 2, self.index_bits) ^ _fold(h, self.index_bits)

    def _tg(self, table: int, pc: int) -> int:
        h = self.history.bits & ((1 << self.lengths[table]) - 1)
        return (
            _fold(pc >> 2, self.tag_bits)
            ^ (_fold(h, self.tag_bits - 1) << 1)
        ) & ((1 << self.tag_bits) - 1)

    def _hits(self, pc: int):
        return [
            (t, self._idx(t, pc))
            for t in range(len(self.lengths))
            if self.tags[t][self._idx(t, pc)] == self._tg(t, pc)
        ]

    def predict(self, pc: int) -> bool:
        hits = self._hits(pc)
        if hits:
            t, slot = hits[-1]
            return self.ctr[t][slot] >= self.midpoint
        return bool(self.base[(pc >> 2) % self.base_entries] >> 1)

    def update(self, pc: int, taken: bool, prediction: bool) -> None:
        hits = self._hits(pc)
        provider = None
        if hits:
            t, slot = hits[-1]
            provider = t
            provider_pred = self.ctr[t][slot] >= self.midpoint
            if len(hits) >= 2:
                at, aslot = hits[-2]
                alt_pred = self.ctr[at][aslot] >= self.midpoint
            else:
                alt_pred = bool(
                    self.base[(pc >> 2) % self.base_entries] >> 1
                )
            v = self.ctr[t][slot]
            if taken:
                if v < self.ctr_max:
                    v += 1
            elif v > 0:
                v -= 1
            self.ctr[t][slot] = v
            if provider_pred != alt_pred:
                u = self.useful[t][slot]
                if provider_pred == taken:
                    if u < 3:
                        u += 1
                elif u > 0:
                    u -= 1
                self.useful[t][slot] = u
        else:
            i = (pc >> 2) % self.base_entries
            v = self.base[i]
            if taken:
                if v < 3:
                    v += 1
            elif v > 0:
                v -= 1
            self.base[i] = v
        if prediction != taken:
            start = 0 if provider is None else provider + 1
            allocated = False
            for t in range(start, len(self.lengths)):
                slot = self._idx(t, pc)
                if self.useful[t][slot] == 0:
                    self.tags[t][slot] = self._tg(t, pc)
                    self.ctr[t][slot] = (
                        self.midpoint if taken else self.midpoint - 1
                    )
                    allocated = True
                    break
            if not allocated:
                for t in range(start, len(self.lengths)):
                    slot = self._idx(t, pc)
                    if self.useful[t][slot] > 0:
                        self.useful[t][slot] -= 1
        self.retired += 1
        if self.retired % self.u_reset_period == 0:
            for table in self.useful:
                for slot in range(len(table)):
                    if table[slot]:
                        table[slot] >>= 1
        self.history.push(taken)

    def state_canonical(self) -> tuple:
        return (
            "tage",
            tuple(self.lengths),
            tuple(self.base),
            tuple(
                (tuple(c), tuple(g), tuple(u))
                for c, g, u in zip(self.ctr, self.tags, self.useful)
            ),
            self.history.bits,
            self.retired,
        )

    def state_digest(self) -> str:
        return _digest(self.state_canonical())


_PREDICTORS: Dict[str, Callable] = {
    "baseline_hybrid": _ref_baseline_hybrid,
    "gshare_perceptron_hybrid": _ref_gshare_perceptron_hybrid,
    "tage": RefTage,
}


# ---------------------------------------------------------------------------
# Reference estimators
# ---------------------------------------------------------------------------


class RefAlwaysHigh:
    def estimate(self, pc: int, prediction: bool) -> RefSignal:
        return RefSignal.high(0.0)

    def train(self, pc, prediction, correct, signal) -> None:
        pass

    def shift_history(self, taken: bool) -> None:
        pass

    def state_canonical(self) -> tuple:
        return ("always_high",)

    def state_digest(self) -> str:
        return _digest(self.state_canonical())


class RefJRS:
    """Miss-distance resetting counters, gshare-style indexed."""

    def __init__(
        self,
        entries: int = 8192,
        counter_bits: int = 4,
        threshold: int = 7,
        history_length: int = 13,
        enhanced: bool = True,
    ):
        self.index_bits = _log2_exact(entries, "JRS")
        self.max = (1 << counter_bits) - 1
        self.table = [0] * entries
        self.threshold = threshold
        self.enhanced = enhanced
        self.history = _RefHistory(history_length)

    def _i(self, pc: int, prediction: bool) -> int:
        context = self.history.bits
        if self.enhanced:
            context = (context << 1) | (1 if prediction else 0)
        m = (1 << self.index_bits) - 1
        return (_fold(pc >> 2, self.index_bits) ^ _fold(context, self.index_bits)) & m

    def estimate(self, pc: int, prediction: bool) -> RefSignal:
        v = self.table[self._i(pc, prediction)]
        if v >= self.threshold:
            return RefSignal.high(float(v))
        return RefSignal.weak_low(float(v))

    def train(self, pc, prediction, correct, signal) -> None:
        i = self._i(pc, prediction)
        if correct:
            if self.table[i] < self.max:
                self.table[i] += 1
        else:
            self.table[i] = 0

    def shift_history(self, taken: bool) -> None:
        self.history.push(taken)

    def state_canonical(self) -> tuple:
        return ("jrs", bool(self.enhanced), tuple(self.table), self.history.bits)

    def state_digest(self) -> str:
        return _digest(self.state_canonical())


class RefPerceptronEstimator:
    """The paper's estimator: cic (correct/incorrect) or tnt training."""

    def __init__(
        self,
        entries: int = 128,
        history_length: int = 32,
        weight_bits: int = 8,
        threshold: float = 0.0,
        training_threshold: int = 96,
        strong_threshold: Optional[float] = None,
        mode: str = "cic",
    ):
        self.entries = entries
        self.hl = history_length
        self.w_max = (1 << (weight_bits - 1)) - 1
        self.w_min = -(1 << (weight_bits - 1))
        self.threshold = threshold
        self.training_threshold = training_threshold
        self.strong_threshold = strong_threshold
        self.mode = mode
        self.tnt_theta = int(1.93 * history_length + 14)
        self.weights = [[0] * (history_length + 1) for _ in range(entries)]
        self.history = _RefHistory(history_length)

    def output(self, pc: int) -> int:
        row = self.weights[(pc >> 2) % self.entries]
        y = row[0]
        for i in range(self.hl):
            y += row[i + 1] * self.history.pm1(i)
        return y

    def estimate(self, pc: int, prediction: bool) -> RefSignal:
        y = self.output(pc)
        if self.mode == "cic":
            if y <= self.threshold:
                return RefSignal.high(y)
            if self.strong_threshold is not None and y > self.strong_threshold:
                return RefSignal.strong_low(y)
            return RefSignal.weak_low(y)
        if abs(y) <= self.threshold:
            return RefSignal.weak_low(y)
        return RefSignal.high(y)

    def _clamp(self, v: int) -> int:
        return min(max(v, self.w_min), self.w_max)

    def _step(self, pc: int, target: int) -> None:
        row = self.weights[(pc >> 2) % self.entries]
        row[0] = self._clamp(row[0] + target)
        for i in range(self.hl):
            row[i + 1] = self._clamp(row[i + 1] + target * self.history.pm1(i))

    def train(self, pc, prediction, correct, signal) -> None:
        y = signal.raw
        if self.mode == "cic":
            p = -1 if correct else 1
            c = 1 if signal.low_confidence else -1
            if c != p or abs(y) <= self.training_threshold:
                self._step(pc, p)
        else:
            taken = prediction if correct else not prediction
            if (y >= 0) != taken or abs(y) <= self.tnt_theta:
                self._step(pc, 1 if taken else -1)

    def shift_history(self, taken: bool) -> None:
        self.history.push(taken)

    def state_canonical(self) -> tuple:
        return (
            "perceptron_estimator",
            self.mode,
            tuple(tuple(row) for row in self.weights),
            self.history.bits,
        )

    def state_digest(self) -> str:
        return _digest(self.state_canonical())


class RefPathPerceptron:
    """cic-trained perceptron with path-hashed per-position weights."""

    def __init__(
        self,
        table_entries: int = 256,
        history_length: int = 16,
        weight_bits: int = 8,
        threshold: float = 0.0,
        training_threshold: int = 64,
    ):
        self.entries = table_entries
        self.hl = history_length
        self.w_max = (1 << (weight_bits - 1)) - 1
        self.w_min = -(1 << (weight_bits - 1))
        self.threshold = threshold
        self.training_threshold = training_threshold
        self.weights = [[0] * table_entries for _ in range(history_length)]
        self.bias = [0] * table_entries
        self.history = _RefHistory(history_length)
        self.path: List[int] = []

    def _indices(self, pc: int) -> List[int]:
        out = []
        for i in range(self.hl):
            past = self.path[-(i + 1)] if i < len(self.path) else 0
            out.append(
                _mix(((pc >> 2) << 20) ^ ((past >> 2) << 4) ^ i) % self.entries
            )
        return out

    def output(self, pc: int) -> int:
        y = self.bias[(pc >> 2) % self.entries]
        for i, idx in enumerate(self._indices(pc)):
            y += self.weights[i][idx] * self.history.pm1(i)
        return y

    def estimate(self, pc: int, prediction: bool) -> RefSignal:
        y = self.output(pc)
        if y > self.threshold:
            return RefSignal.weak_low(float(y))
        return RefSignal.high(float(y))

    def _clamp(self, v: int) -> int:
        return min(max(v, self.w_min), self.w_max)

    def train(self, pc, prediction, correct, signal) -> None:
        y = signal.raw
        p = -1 if correct else 1
        c = 1 if signal.low_confidence else -1
        if c != p or abs(y) <= self.training_threshold:
            for i, idx in enumerate(self._indices(pc)):
                self.weights[i][idx] = self._clamp(
                    self.weights[i][idx] + p * self.history.pm1(i)
                )
            slot = (pc >> 2) % self.entries
            self.bias[slot] = self._clamp(self.bias[slot] + p)
        self.path.append(pc)
        if len(self.path) > self.hl:
            self.path.pop(0)

    def shift_history(self, taken: bool) -> None:
        self.history.push(taken)

    def state_canonical(self) -> tuple:
        return (
            "path_perceptron",
            tuple(tuple(row) for row in self.weights),
            tuple(self.bias),
            self.history.bits,
            tuple(self.path),
        )

    def state_digest(self) -> str:
        return _digest(self.state_canonical())


class RefAgreement:
    """Boolean fusion of two reference estimators."""

    def __init__(self, primary, secondary, mode: str = "intersection"):
        self.primary = primary
        self.secondary = secondary
        self.mode = mode
        self._pending = None

    def estimate(self, pc: int, prediction: bool) -> RefSignal:
        first = self.primary.estimate(pc, prediction)
        second = self.secondary.estimate(pc, prediction)
        self._pending = (first, second)
        if self.mode == "union":
            low = first.low_confidence or second.low_confidence
        else:
            low = first.low_confidence and second.low_confidence
        if not low:
            return RefSignal.high(first.raw)
        if first.level == "strong_low":
            return RefSignal.strong_low(first.raw)
        return RefSignal.weak_low(first.raw)

    def train(self, pc, prediction, correct, signal) -> None:
        if self._pending is not None:
            first, second = self._pending
            self._pending = None
        else:
            first = self.primary.estimate(pc, prediction)
            second = self.secondary.estimate(pc, prediction)
        self.primary.train(pc, prediction, correct, first)
        self.secondary.train(pc, prediction, correct, second)

    def shift_history(self, taken: bool) -> None:
        self.primary.shift_history(taken)
        self.secondary.shift_history(taken)

    def state_canonical(self) -> tuple:
        return (
            "agreement",
            self.mode,
            self.primary.state_canonical(),
            self.secondary.state_canonical(),
        )

    def state_digest(self) -> str:
        return _digest(self.state_canonical())


class RefCascade:
    """Primary decides outside its neutral band; secondary inside."""

    def __init__(self, primary, secondary, neutral_band: float = 30.0,
                 primary_threshold: float = 0.0):
        self.primary = primary
        self.secondary = secondary
        self.neutral_band = neutral_band
        self.primary_threshold = primary_threshold
        self._pending = None

    def estimate(self, pc: int, prediction: bool) -> RefSignal:
        first = self.primary.estimate(pc, prediction)
        second = self.secondary.estimate(pc, prediction)
        self._pending = (first, second)
        if abs(first.raw - self.primary_threshold) > self.neutral_band:
            return first
        if second.low_confidence:
            return RefSignal.weak_low(first.raw)
        return RefSignal.high(first.raw)

    def train(self, pc, prediction, correct, signal) -> None:
        if self._pending is not None:
            first, second = self._pending
            self._pending = None
        else:
            first = self.primary.estimate(pc, prediction)
            second = self.secondary.estimate(pc, prediction)
        self.primary.train(pc, prediction, correct, first)
        self.secondary.train(pc, prediction, correct, second)

    def shift_history(self, taken: bool) -> None:
        self.primary.shift_history(taken)
        self.secondary.shift_history(taken)

    def state_canonical(self) -> tuple:
        return (
            "cascade",
            self.primary.state_canonical(),
            self.secondary.state_canonical(),
        )

    def state_digest(self) -> str:
        return _digest(self.state_canonical())


def _ref_agreement(primary, secondary, mode="intersection"):
    return RefAgreement(
        reference_estimator(primary), reference_estimator(secondary), mode=mode
    )


def _ref_cascade(primary, secondary, neutral_band=30.0, primary_threshold=0.0):
    return RefCascade(
        reference_estimator(primary),
        reference_estimator(secondary),
        neutral_band=neutral_band,
        primary_threshold=primary_threshold,
    )


_ESTIMATORS: Dict[str, Callable] = {
    "always_high": RefAlwaysHigh,
    "jrs": RefJRS,
    "perceptron": RefPerceptronEstimator,
    "path_perceptron": RefPathPerceptron,
    "agreement": _ref_agreement,
    "cascade": _ref_cascade,
}


# ---------------------------------------------------------------------------
# Reference policies
# ---------------------------------------------------------------------------


class _RefNoControl:
    def decide(self, signal: RefSignal, prediction: bool) -> RefDecision:
        return RefDecision("normal", prediction)


class _RefGatingOnly:
    def decide(self, signal: RefSignal, prediction: bool) -> RefDecision:
        if signal.low_confidence:
            return RefDecision("gate", prediction)
        return RefDecision("normal", prediction)


class _RefThreeRegion:
    def decide(self, signal: RefSignal, prediction: bool) -> RefDecision:
        if signal.level == "strong_low":
            return RefDecision("reverse", not prediction)
        if signal.level == "weak_low":
            return RefDecision("gate", prediction)
        return RefDecision("normal", prediction)


_POLICIES: Dict[str, Callable] = {
    "none": _RefNoControl,
    "gating": _RefGatingOnly,
    "three_region": _RefThreeRegion,
}


# ---------------------------------------------------------------------------
# Spec -> reference builders and the reference front-end
# ---------------------------------------------------------------------------


def reference_predictor(spec):
    """Build the reference twin of a :class:`PredictorSpec`."""
    try:
        builder = _PREDICTORS[spec.kind]
    except KeyError:
        raise KeyError(
            f"no reference oracle for predictor kind {spec.kind!r}; "
            f"add one to repro.verify.oracles"
        ) from None
    return builder(**spec.param_dict())


def reference_estimator(spec):
    """Build the reference twin of an :class:`EstimatorSpec`."""
    try:
        builder = _ESTIMATORS[spec.kind]
    except KeyError:
        raise KeyError(
            f"no reference oracle for estimator kind {spec.kind!r}; "
            f"add one to repro.verify.oracles"
        ) from None
    return builder(**spec.param_dict())


def reference_policy(spec):
    """Build the reference twin of a :class:`PolicySpec`."""
    try:
        builder = _POLICIES[spec.kind]
    except KeyError:
        raise KeyError(
            f"no reference oracle for policy kind {spec.kind!r}; "
            f"add one to repro.verify.oracles"
        ) from None
    return builder(**spec.param_dict())


class RefFrontEnd:
    """The reference restatement of the per-branch protocol.

    Mirrors :meth:`repro.core.frontend.FrontEnd.process`: predict,
    estimate, decide, then retire (train predictor, train estimator on
    the *raw* prediction outcome, shift the estimator history).
    """

    def __init__(self, predictor, estimator, policy):
        self.predictor = predictor
        self.estimator = estimator
        self.policy = policy

    def process(self, record) -> RefEvent:
        pc = record.pc
        prediction = self.predictor.predict(pc)
        signal = self.estimator.estimate(pc, prediction)
        decision = self.policy.decide(signal, prediction)
        correct = prediction == record.taken
        self.predictor.update(pc, record.taken, prediction)
        self.estimator.train(pc, prediction, correct, signal)
        self.estimator.shift_history(record.taken)
        return RefEvent(
            pc=pc,
            taken=record.taken,
            prediction=prediction,
            final_prediction=decision.final_prediction,
            signal=signal,
            action=decision.action,
        )


# ---------------------------------------------------------------------------
# Pipeline timing model
# ---------------------------------------------------------------------------

_INFINITY = float("inf")


@dataclass
class _RefInFlight:
    """One unresolved branch inside the machine."""

    resolve_time: float
    activation_time: float  # when the LC estimate can gate fetch
    counts_gating: bool

    def __lt__(self, other: "_RefInFlight") -> bool:
        return self.resolve_time < other.resolve_time


class RefPipelineSimulator:
    """The two-clock timing model, one helper per question.

    Takes the production :class:`~repro.pipeline.config.PipelineConfig`
    and :class:`~repro.core.frontend.FrontEndEvent` stream and returns a
    :class:`SimStats`.  Every in-flight query scans the whole in-flight
    list, and every fetch span is split at every branch resolution and
    low-confidence activation.
    """

    def __init__(self, config):
        self.config = config
        self._reset()

    def _reset(self) -> None:
        self._fetch_time = 0.0
        self._retire_time = 0.0
        self._inflight = []  # heap of _RefInFlight by resolve_time
        self._seq = 0
        # Window occupancy: (retire_time, uops) per retired group, plus
        # the running totals needed for ROB back-pressure.
        self._retire_queue = deque()
        self._fetched_uops = 0.0
        self._retired_uops = 0.0

    # -- in-flight branch bookkeeping ---------------------------------------

    def _resolve_until(self, t: float) -> None:
        """Drop every branch whose resolution time has passed."""
        heap = self._inflight
        while heap and heap[0].resolve_time <= t:
            heapq.heappop(heap)

    def _active_lc_count(self, t: float) -> int:
        """Unresolved gating-counted branches with live estimates at ``t``."""
        return sum(
            1
            for b in self._inflight
            if b.counts_gating and b.activation_time <= t
        )

    def _earliest_lc_resolve(self, t: float) -> float:
        """Next resolution among active gating-counted branches."""
        times = [
            b.resolve_time
            for b in self._inflight
            if b.counts_gating and b.activation_time <= t
        ]
        return min(times) if times else _INFINITY

    def _next_event_after(self, t: float) -> float:
        """Next resolution or LC activation strictly after ``t``."""
        next_time = _INFINITY
        for b in self._inflight:
            if b.resolve_time > t:
                next_time = min(next_time, b.resolve_time)
            if b.counts_gating and b.activation_time > t:
                next_time = min(next_time, b.activation_time)
        return next_time

    # -- window (ROB) occupancy ---------------------------------------------

    def _drain_retired(self, t: float) -> None:
        """Account groups that have retired by time ``t``."""
        queue = self._retire_queue
        while queue and queue[0][0] <= t:
            _, uops = queue.popleft()
            self._retired_uops += uops

    def _window_free(self, t: float) -> float:
        """Free window slots at time ``t``."""
        self._drain_retired(t)
        return self.config.rob_size - (self._fetched_uops - self._retired_uops)

    def _wait_for_window(self, t: float, uops: float) -> float:
        """Earliest time >= ``t`` at which ``uops`` slots are free."""
        while self._window_free(t) < uops and self._retire_queue:
            t = max(t, self._retire_queue[0][0])
        return t

    # -- fetch engine -------------------------------------------------------

    def _fetch_span(self, start, uop_budget, deadline, stats, wrong_path):
        """Advance fetch from ``start`` until the budget or deadline runs out.

        Returns ``(end_time, uops_fetched)``.  Fetch stalls while the
        low-confidence counter is at or above the gating threshold and
        while the instruction window is full.  Gating stall time is
        charged to ``stats.gated_cycles`` only on the correct path.
        """
        cfg = self.config
        per_uop = 1.0 / cfg.fetch_width
        throttling = cfg.gating_mode == "throttle" and cfg.throttle_factor > 0
        throttled_per_uop = (
            per_uop / cfg.throttle_factor if throttling else float("inf")
        )
        threshold = cfg.gating_threshold
        t = start
        fetched = 0.0
        stalled = False
        while uop_budget > 1e-9 and t < deadline - 1e-9:
            self._resolve_until(t)
            gated = self._active_lc_count(t) >= threshold
            if gated and not throttling:
                resume = min(self._earliest_lc_resolve(t), deadline)
                if not stalled:
                    stats.gating_stalls += 1
                    stalled = True
                if not wrong_path:
                    stats.gated_cycles += resume - t
                t = resume
                continue
            step_per_uop = throttled_per_uop if gated else per_uop
            stalled = False
            if not wrong_path:
                # Window back-pressure applies to correct-path fetch:
                # wait for one fetch group of room.
                group = min(uop_budget, float(cfg.fetch_width))
                t_ready = self._wait_for_window(t, group)
                if t_ready > t:
                    t = min(t_ready, deadline)
                    continue
            horizon = t + uop_budget * step_per_uop
            step_end = min(horizon, deadline, self._next_event_after(t))
            if step_end <= t:
                break
            span_uops = min((step_end - t) / step_per_uop, uop_budget)
            if not wrong_path:
                free = self._window_free(t)
                if span_uops > free:
                    span_uops = free
                    step_end = t + span_uops * step_per_uop
                if span_uops <= 1e-9:
                    # Window full, nothing retiring before the deadline.
                    if not self._retire_queue:
                        break
                    t = min(max(t, self._retire_queue[0][0]), deadline)
                    continue
                self._fetched_uops += span_uops
                if gated:
                    stats.throttled_cycles += step_end - t
            fetched += span_uops
            uop_budget -= span_uops
            t = step_end
        return t, fetched

    def _wrong_path_episode(self, t_fetch, t_resolve, stats) -> None:
        """Account one misprediction's wrong-path fetch window."""
        cfg = self.config
        cap = float(cfg.wrong_path_cap)
        _, fetched = self._fetch_span(
            t_fetch, cap, t_resolve, stats, wrong_path=True
        )
        potential = min(cap, (t_resolve - t_fetch) * cfg.fetch_width)
        stats.wrong_path_uops += fetched
        stats.wrong_path_uops_saved += max(0.0, potential - fetched)

    # -- per-branch processing ----------------------------------------------

    def _resolve_latency(self, pc: int) -> float:
        """Depth plus deterministic per-instance jitter."""
        cfg = self.config
        if cfg.resolve_jitter == 0:
            return float(cfg.depth)
        jitter = _mix((pc << 17) ^ self._seq) % (cfg.resolve_jitter + 1)
        return float(cfg.depth + jitter)

    def _retire_group(self, uops: int, fetch_done: float, floor: float) -> None:
        """Advance the retire clock over one correct-path uop group."""
        cfg = self.config
        backend = max(
            self._retire_time + uops * cfg.base_uop_cycles,
            fetch_done + cfg.depth,
        )
        self._retire_time = max(backend, floor)
        self._retire_queue.append((self._retire_time, float(uops)))

    def _process(self, event, stats: SimStats) -> None:
        cfg = self.config
        uops = event.uops_before + 1
        end, _ = self._fetch_span(
            self._fetch_time, float(uops), _INFINITY, stats, wrong_path=False
        )
        self._fetch_time = end
        stats.correct_path_uops += uops

        t_fetch = self._fetch_time
        t_resolve = t_fetch + self._resolve_latency(event.pc)
        self._seq += 1

        action = event.decision.action.value
        predictor_correct = event.prediction == event.taken
        final_correct = event.final_prediction == event.taken
        counts_gating = action == "gate"
        heapq.heappush(
            self._inflight,
            _RefInFlight(
                resolve_time=t_resolve,
                activation_time=t_fetch + cfg.estimator_latency,
                counts_gating=counts_gating,
            ),
        )

        stats.branches += 1
        if counts_gating:
            stats.gated_branches += 1
        if not predictor_correct:
            stats.raw_mispredictions += 1
        if action == "reverse":
            stats.reversals += 1
            if not predictor_correct and final_correct:
                stats.reversals_correcting += 1
            elif predictor_correct and not final_correct:
                stats.reversals_breaking += 1

        if not final_correct:
            stats.mispredictions += 1
            self._wrong_path_episode(t_fetch, t_resolve, stats)
            # Recovery: fetch restarts at resolution; the branch group
            # cannot retire before it resolved.
            stats.squash_cycles += t_resolve - self._fetch_time
            self._fetch_time = t_resolve
            self._retire_group(uops, t_fetch, floor=t_resolve)
        else:
            self._retire_group(uops, t_fetch, floor=0.0)

    def simulate(self, events) -> SimStats:
        """Replay a front-end event stream from a reset machine."""
        self._reset()
        result = SimStats()
        for event in events:
            self._process(event, result)
        result.total_cycles = self._retire_time
        return result
