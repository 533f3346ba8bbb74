"""Check reports: the uniform pass/fail record emitted by every verifier."""

from __future__ import annotations

import json
import time
from typing import NamedTuple


class CheckReport(NamedTuple):
    check_id: str
    inputs: dict
    lhs: str
    rhs: str
    deviation: float
    tolerance: float
    passed: bool
    runtime_ms: int

    def to_json_dict(self) -> dict:
        """The fields in order, with `passed` written as "pass"."""
        return {"pass" if name == "passed" else name: value for name, value in self._asdict().items()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def summary(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (
            f"[{tag}] {self.check_id}: lhs={self.lhs} rhs={self.rhs} "
            f"deviation={self.deviation:.3e} tolerance={self.tolerance:.1e} "
            f"({self.runtime_ms} ms)"
        )


def make_report(check_id, inputs, lhs, rhs, deviation, tolerance, started) -> CheckReport:
    """Assemble a report; pass holds exactly when deviation <= tolerance."""
    return CheckReport(
        check_id=check_id,
        inputs=inputs,
        lhs=str(lhs),
        rhs=str(rhs),
        deviation=float(deviation),
        tolerance=float(tolerance),
        passed=float(deviation) <= float(tolerance),
        runtime_ms=int(round((time.perf_counter() - started) * 1000)),
    )
