"""Shared verification report record for sweep and claim runners."""

from dataclasses import dataclass, field
from typing import Any, Dict, List

PASS = "pass"
FAIL = "fail"


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification sweep.

    status is "pass" exactly when counterexamples is empty; construction
    enforces the equivalence.
    """

    claim_id: str
    range: str
    status: str
    counterexamples: List[Dict[str, Any]] = field(default_factory=list)
    elapsed: float = 0.0

    def __post_init__(self):
        if (self.status == PASS) != (len(self.counterexamples) == 0):
            raise ValueError(
                f"inconsistent report: status={self.status!r} with "
                f"{len(self.counterexamples)} counterexamples"
            )

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_dict(self) -> Dict[str, Any]:
        return {
            "claim": self.claim_id,
            "range": self.range,
            "status": self.status,
            "counterexamples": self.counterexamples,
            "elapsed": self.elapsed,
        }


def make_report(claim_id: str, range_desc: str, counterexamples, elapsed: float) -> VerificationReport:
    """Report with status derived from whether counterexamples is empty."""
    status = PASS if not counterexamples else FAIL
    return VerificationReport(claim_id, range_desc, status, list(counterexamples), elapsed)
