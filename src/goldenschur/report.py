"""Check records and report documents for the verification suites.

A report is a flat list of check records, each carrying a basis tag saying
where its expected value comes from: ``reference`` (an external reference
table), ``direct`` (self-evident arithmetic), or ``derived`` (computed here
by an independent route).  Status ``info`` marks reference-only numbers that
are surfaced but never gate the exit code.

Rendering is deterministic: no timestamps, stable key order, fixed column
layout — rerunning with the same inputs and seed gives byte-identical output.
"""

from __future__ import annotations

import io
from typing import NamedTuple, Sequence

__all__ = ["CheckRecord", "ReportDocument", "BASIS_TAGS", "STATUSES"]

BASIS_TAGS = ("reference", "direct", "derived")
STATUSES = ("pass", "fail", "info")


class _CheckFields(NamedTuple):
    check_id: str
    description: str
    status: str
    expected: str
    actual: str
    basis: str


class CheckRecord(_CheckFields):
    """One verified (or reported) fact; ``status`` is one of STATUSES and
    ``basis`` one of BASIS_TAGS.  A record is the tuple of its fields and
    equals any tuple of the same values; the constructor, ``_replace``, copy
    and pickle all check ``status`` and ``basis``."""

    __slots__ = ()

    def __new__(
        cls, check_id: str, description: str, status: str, expected: str, actual: str, basis: str
    ) -> CheckRecord:
        if status not in STATUSES:
            raise ValueError(f"bad status {status!r}")
        if basis not in BASIS_TAGS:
            raise ValueError(f"bad basis tag {basis!r}")
        return super().__new__(cls, check_id, description, status, expected, actual, basis)

    @classmethod
    def _make(cls, fields: Sequence[str]) -> CheckRecord:
        return cls(*fields)

    def __reduce__(self) -> tuple:
        # copy and every pickle protocol rebuild through the constructor: a
        # tuple's own reduction skips it at protocols 0 and 1
        return type(self), tuple(self)


class ReportDocument:
    """A suite's check records, in the order they were added."""

    def __init__(self, suite: str, seed: int, records: list[CheckRecord] | None = None) -> None:
        self.suite = suite
        self.seed = seed
        self.records = [] if records is None else records

    def __repr__(self) -> str:
        return f"ReportDocument(suite={self.suite!r}, seed={self.seed!r}, records={self.records!r})"

    def __eq__(self, other: object) -> bool:  # also makes a document unhashable
        if other.__class__ is self.__class__:
            return (self.suite, self.seed, self.records) == (other.suite, other.seed, other.records)
        return NotImplemented

    def add(
        self,
        check_id: str,
        description: str,
        ok: bool | None,
        expected: str,
        actual: str,
        basis: str,
    ) -> None:
        """Append a record; ``ok=None`` marks an informational row."""
        status = "info" if ok is None else ("pass" if ok else "fail")
        self.records.append(CheckRecord(check_id, description, status, expected, actual, basis))

    @property
    def n_pass(self) -> int:
        return sum(r.status == "pass" for r in self.records)

    @property
    def n_fail(self) -> int:
        return sum(r.status == "fail" for r in self.records)

    @property
    def n_info(self) -> int:
        return sum(r.status == "info" for r in self.records)

    @property
    def ok(self) -> bool:
        return self.n_fail == 0

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    # -- rendering ----------------------------------------------------------

    def to_json(self) -> str:
        import json

        doc = {
            "suite": self.suite,
            "seed": self.seed,
            "summary": {
                "pass": self.n_pass,
                "fail": self.n_fail,
                "info": self.n_info,
                "ok": self.ok,
            },
            "checks": [
                {
                    "id": r.check_id,
                    "description": r.description,
                    "status": r.status,
                    "expected": r.expected,
                    "actual": r.actual,
                    "basis": r.basis,
                }
                for r in self.records
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)

    def to_csv(self) -> str:
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "status", "basis", "description", "expected", "actual"])
        for r in self.records:
            writer.writerow([r.check_id, r.status, r.basis, r.description, r.expected, r.actual])
        return buf.getvalue()

    def to_table(self) -> str:
        lines = [f"suite: {self.suite}  (seed {self.seed})", ""]
        width = max((len(r.check_id) for r in self.records), default=2)
        for r in self.records:
            marker = {"pass": "PASS", "fail": "FAIL", "info": "INFO"}[r.status]
            lines.append(f"[{marker}] {r.check_id:<{width}}  {r.description}")
            if r.status == "fail" or r.expected != r.actual:
                lines.append(f"{'':{width + 9}}expected: {r.expected}")
                lines.append(f"{'':{width + 9}}actual:   {r.actual}")
        lines.append("")
        lines.append(
            f"{self.n_pass} passed, {self.n_fail} failed, {self.n_info} informational"
        )
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json() + "\n"
        if fmt == "csv":
            return self.to_csv()
        if fmt == "table":
            return self.to_table()
        raise ValueError(f"unknown format {fmt!r}")
