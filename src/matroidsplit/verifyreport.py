"""Structured pass/fail records emitted by every verification check."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CaseFailure:
    """One failing case: enough serialized input to re-run it in isolation."""

    matroid: str
    params: tuple[tuple[str, str], ...]
    expected: str
    got: str

    def param(self, key: str) -> str:
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)

    def describe(self) -> str:
        params = " ".join(f"{k}={v}" for k, v in self.params)
        return (f"matroid[{self.matroid}] {params}: "
                f"expected {self.expected}, got {self.got}")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check over a stated universe.

    ``verdict`` is "pass" iff no failures were recorded; checks that only
    gather data carry verdict "observational" and never gate anything.
    Observational findings live in ``observations`` regardless of verdict.
    """

    name: str
    universe: str
    cases: int
    failures: tuple[CaseFailure, ...]
    wall_time: float
    verdict: str
    observations: dict = field(default_factory=dict)

    @classmethod
    def from_failures(cls, name: str, universe: str, cases: int, failures,
                      start: float, observations: dict | None = None
                      ) -> "VerificationReport":
        """A gating report: verdict "pass" iff ``failures`` is empty, wall
        time measured from ``start``, a :func:`time.perf_counter` reading.

        A sweep whose members were evaluated before its check ran (in the
        one pass of ``verify.run_checks``) passes ``start`` moved back by
        the seconds its evaluator spent on them, as timed where it ran, so
        the wall time is that work plus the check's own tally."""
        failures = tuple(failures)
        return cls(name=name, universe=universe, cases=cases, failures=failures,
                   wall_time=time.perf_counter() - start,
                   verdict="fail" if failures else "pass",
                   observations=observations or {})

    def __post_init__(self):
        if self.verdict == "pass" and self.failures:
            raise ValueError("a passing report cannot carry failures")
        if self.verdict == "fail" and not self.failures:
            raise ValueError("a failing report must carry failures")

    def to_text(self) -> str:
        lines = [
            f"check:    {self.name}",
            f"universe: {self.universe}",
            f"cases:    {self.cases}",
            f"verdict:  {self.verdict}",
            f"time:     {self.wall_time:.3f}s",
        ]
        if self.failures:
            lines.append(f"failures ({len(self.failures)}):")
            lines.extend(f"  - {f.describe()}" for f in self.failures)
        if self.observations:
            lines.append("observations:")
            for key in sorted(self.observations):
                lines.append(f"  {key}: {self.observations[key]}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "check": self.name,
            "universe": self.universe,
            "cases": self.cases,
            "verdict": self.verdict,
            "wall_time": self.wall_time,
            "failures": [
                {"matroid": f.matroid, "params": dict(f.params),
                 "expected": f.expected, "got": f.got}
                for f in self.failures
            ],
            "observations": _jsonable(self.observations),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_jsonable(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items.sort(key=repr)
        return items
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def make_failure(matroid: str, params: dict, expected, got) -> CaseFailure:
    return CaseFailure(
        matroid=matroid,
        params=tuple(sorted((str(k), str(v)) for k, v in params.items())),
        expected=str(expected),
        got=str(got),
    )
