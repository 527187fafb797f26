"""Golden-metrics regression gate.

For every job in the verification matrix we check in a baseline record:
the job's content-address (fingerprint), the canonical integer metrics,
and their sha256 digest.  Timing entries (``timing/...``) do the same
for the pipeline model: the fingerprint covers the timed job and the
machine, and the metrics are every :class:`SimStats` field, ints as
ints and floats as ``float.hex()`` so they compare exactly.
``python -m repro.verify`` re-runs the matrix and diffs.  Three
distinct failure modes are distinguished:

- **fingerprint mismatch** -- the *job itself* changed (spec params,
  trace sizing, fingerprint schema).  The baseline no longer describes
  the same experiment; refresh deliberately.
- **metrics drift** -- same job, different numbers.  A behavioural
  change in a predictor, estimator, policy or the front end.  The
  report names the case, the metric and the delta.
- **matrix drift** -- cases added/removed without a refresh.

Baselines are JSON (stable key order, no timestamps) so a refresh with
unchanged behaviour is byte-identical and diffs stay reviewable.  Every
refresh must record a reason; it is stored in the file and therefore in
git history.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.engine.canonical import METRICS_SCHEMA, metrics_digest
from repro.engine.job import FINGERPRINT_SCHEMA
from repro.pipeline.simulator import PipelineSimulator
from repro.verify.matrix import (
    VerifyError,
    VerifyProfile,
    jobs_for_profile,
    timing_jobs_for_profile,
)

__all__ = [
    "GOLDEN_SCHEMA",
    "GoldenEntry",
    "GateReport",
    "golden_path",
    "compute_entries",
    "timing_fingerprint",
    "timing_metrics",
    "load_baseline",
    "write_baseline",
    "compare",
]

GOLDEN_SCHEMA = 1

_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: A recorded metric: an int, or a float as its ``float.hex()`` string.
Metric = Union[int, str]


@dataclass(frozen=True)
class GoldenEntry:
    """One job's identity and canonical results."""

    label: str
    fingerprint: str
    digest: str
    metrics: Dict[str, Metric]


def _drift_delta(expected, actual) -> str:
    if isinstance(expected, int) and isinstance(actual, int):
        return f"{actual - expected:+d}"
    if expected is None or actual is None:
        return "n/a"
    # Timing floats are recorded as float.hex() strings.
    if isinstance(expected, str):
        expected = float.fromhex(expected)
    if isinstance(actual, str):
        actual = float.fromhex(actual)
    return f"{actual - expected:+g}"


@dataclass
class GateReport:
    """Result of diffing a fresh run against a baseline."""

    profile: str
    drifts: List[Tuple[str, str, int, int]] = field(default_factory=list)
    fingerprint_mismatches: List[str] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    unexpected: List[str] = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not (
            self.drifts
            or self.fingerprint_mismatches
            or self.missing
            or self.unexpected
        )

    def format(self) -> str:
        if self.ok:
            return (
                f"ok   golden[{self.profile}]: {self.checked} entries match "
                f"the baseline"
            )
        lines = [f"FAIL golden[{self.profile}]:"]
        for label in self.fingerprint_mismatches:
            lines.append(
                f"  {label}: job fingerprint changed -- the baseline "
                f"describes a different experiment (refresh deliberately)"
            )
        for label, metric, expected, actual in self.drifts:
            lines.append(
                f"  {label}: metric {metric!r} drifted: "
                f"expected {expected}, got {actual} "
                f"(delta {_drift_delta(expected, actual)})"
            )
        for label in self.missing:
            lines.append(f"  {label}: in baseline but not in the matrix")
        for label in self.unexpected:
            lines.append(f"  {label}: in the matrix but not in baseline")
        return "\n".join(lines)


def golden_path(profile_name: str) -> str:
    """Checked-in baseline location for a profile."""
    return os.path.join(_GOLDEN_DIR, f"{profile_name}.json")


def timing_metrics(stats) -> Dict[str, Metric]:
    """Every :class:`SimStats` field, exactly: floats as ``float.hex()``.

    The hex form keeps the type as well as the value, so an int ``0``
    and a float ``0.0`` are different records.
    """
    return {
        name: value.hex() if isinstance(value, float) else value
        for name, value in asdict(stats).items()
    }


def timing_fingerprint(job_fingerprint: str, machine) -> str:
    """Content address of one timing entry: the timed job plus the machine."""
    canonical = ("timing", job_fingerprint, repr(machine))
    return hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()


def compute_entries(
    profile: VerifyProfile, engine, backend: str = "reference"
) -> List[GoldenEntry]:
    """Run the matrix for ``profile`` and collect canonical entries.

    ``backend`` selects the execution backend for the runs while entry
    *identity* stays pinned to the reference job's fingerprint: both
    backends are checked against the same baseline, so a
    ``--backend fast`` pass proves the fast kernels reproduce the
    golden metrics byte for byte.  The timing entries follow the
    front-end ones and time the event streams those runs produced.
    """
    labelled = jobs_for_profile(profile)
    executed = [
        job if backend == "reference" else job.with_(backend=backend)
        for _, job in labelled
    ]
    outcomes = engine.run(executed)
    entries = []
    streams = {}
    for (label, job), outcome in zip(labelled, outcomes):
        entries.append(
            GoldenEntry(
                label=label,
                fingerprint=job.fingerprint,
                digest=outcome.metrics_digest(),
                metrics=dict(outcome.canonical_metrics()),
            )
        )
        streams[label] = (job, outcome)
    for label, stream, machine in timing_jobs_for_profile(profile):
        job, outcome = streams[stream]
        metrics = timing_metrics(
            PipelineSimulator(machine).simulate(outcome.events)
        )
        entries.append(
            GoldenEntry(
                label=label,
                fingerprint=timing_fingerprint(job.fingerprint, machine),
                digest=metrics_digest(metrics),
                metrics=metrics,
            )
        )
    return entries


def load_baseline(profile_name: str, path: Optional[str] = None) -> dict:
    """Load and sanity-check a baseline document."""
    path = path if path is not None else golden_path(profile_name)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise VerifyError(
            f"no golden baseline for profile {profile_name!r} at {path}; "
            f"create it with: python -m repro.verify --refresh "
            f"--reason '<why>'"
        ) from None
    except json.JSONDecodeError as exc:
        raise VerifyError(f"golden baseline {path} is not valid JSON: {exc}")
    if doc.get("schema") != GOLDEN_SCHEMA:
        raise VerifyError(
            f"golden baseline {path} has schema {doc.get('schema')!r}, "
            f"expected {GOLDEN_SCHEMA}; refresh it"
        )
    return doc


def write_baseline(
    profile: VerifyProfile,
    entries: List[GoldenEntry],
    reason: str,
    path: Optional[str] = None,
) -> str:
    """Write a baseline document; returns the path written.

    The document carries no timestamps: refreshing with unchanged
    behaviour must produce a byte-identical file.  The refresh reason
    lives in the file so git history explains every baseline change.
    """
    if not reason or not reason.strip():
        raise VerifyError("a golden refresh requires a non-empty --reason")
    path = path if path is not None else golden_path(profile.name)
    doc = {
        "schema": GOLDEN_SCHEMA,
        "profile": profile.name,
        "fingerprint_schema": FINGERPRINT_SCHEMA,
        "metrics_schema": METRICS_SCHEMA,
        "refresh": {"reason": reason.strip()},
        "entries": {
            e.label: {
                "fingerprint": e.fingerprint,
                "digest": e.digest,
                "metrics": e.metrics,
            }
            for e in entries
        },
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def compare(baseline: dict, entries: List[GoldenEntry], profile_name: str) -> GateReport:
    """Diff a fresh matrix run against a loaded baseline."""
    report = GateReport(profile=profile_name)
    recorded = baseline.get("entries", {})
    fresh = {e.label: e for e in entries}
    for label in sorted(set(recorded) - set(fresh)):
        report.missing.append(label)
    for label in sorted(set(fresh) - set(recorded)):
        report.unexpected.append(label)
    for label in sorted(set(fresh) & set(recorded)):
        entry = fresh[label]
        want = recorded[label]
        report.checked += 1
        if entry.fingerprint != want.get("fingerprint"):
            report.fingerprint_mismatches.append(label)
            continue
        if entry.digest == want.get("digest"):
            continue
        want_metrics = want.get("metrics", {})
        drifted = False
        for metric, actual in entry.metrics.items():
            expected = want_metrics.get(metric)
            if expected != actual:
                report.drifts.append((label, metric, expected, actual))
                drifted = True
        if not drifted:
            # Digest mismatch without a per-metric diff: schema skew.
            report.drifts.append((label, "<digest>", 0, 1))
    return report
