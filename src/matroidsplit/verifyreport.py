"""Structured pass/fail records emitted by every verification check."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import lru_cache


@dataclass(frozen=True, slots=True)
class CaseFailure:
    """One failing case: enough serialized input to re-run it in isolation.

    A pass records hundreds of these (624 at n <= 9), so they carry no
    ``__dict__``."""

    matroid: str
    params: tuple[tuple[str, str], ...]
    expected: str
    got: str

    def describe(self) -> str:
        params = " ".join(f"{k}={v}" for k, v in self.params)
        return (f"matroid[{self.matroid}] {params}: "
                f"expected {self.expected}, got {self.got}")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check over a stated universe.

    ``verdict`` is "pass" iff no failures were recorded, else "fail".
    Findings that gate nothing live in ``observations`` under either verdict.
    Observations must be JSON-native (str keys; str, int, bool, None, lists
    and dicts of those): ``to_json`` writes them as they are, and a value
    that ``json`` cannot write, such as a set, raises TypeError.
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
        if self.verdict not in ("pass", "fail"):
            raise ValueError(f"verdict must be 'pass' or 'fail', not {self.verdict!r}")
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
            "observations": dict(self.observations),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


@lru_cache(maxsize=1024)
def _shared(params: tuple) -> tuple:
    """The first params tuple equal to ``params``: a sweep's failures
    repeat a few, such as (("k", "1"),) on every gf-empty-k1 record, and
    hold one copy of each."""
    return params


def make_failure(matroid: str, params: dict, expected, got) -> CaseFailure:
    return CaseFailure(
        matroid=matroid,
        params=_shared(tuple(sorted((str(k), str(v)) for k, v in params.items()))),
        expected=str(expected),
        got=str(got),
    )
