"""Violation reports returned by the structural validators.

Validators never raise on bad structures; they collect every failed axiom
instance together with a witness so callers (and the CLI) can show exactly
which triple or partition broke.
"""

from __future__ import annotations

from typing import NamedTuple

# Seed of the law suites' random samples (`suite run --seed`).  It lives here
# so that the CLI can show it without loading the suites.
DEFAULT_SEED = 20260811


class Violation(NamedTuple):
    kind: str
    witness: tuple
    detail: str

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "witness": [str(w) for w in self.witness],
            "detail": self.detail,
        }


class Report:
    def __init__(self, subject: str) -> None:
        self.subject = subject
        self.violations: list[Violation] = []

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, witness: tuple, detail: str) -> None:
        self.violations.append(Violation(kind, witness, detail))

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "violations": [v.to_json() for v in self.violations],
        }
