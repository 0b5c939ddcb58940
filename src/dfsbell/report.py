"""Structured verification reports with deterministic serialization.

A report is a tree of named checks grouped into sections.  Serialization is
byte-stable for a fixed configuration and seed: fields are emitted in a fixed
order, floats use their shortest round-trip representation, and nothing
time- or host-dependent is included unless explicitly requested.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from . import __version__


@dataclass(frozen=True)
class Check:
    """One verified quantity.

    ``source`` states how the value was obtained, one of the four labels
    the README defines and the schema admits ("closed form", "exact
    rational arithmetic", "frozen numerical solve", "sampled estimate");
    ``approx_check`` and ``bound_check`` require it, and the ``""`` default
    of a bare Check does not validate.  ``detail`` carries free-form
    evidence such as a certificate.
    The fields are declared in the order the JSON report emits them.
    """

    name: str
    passed: bool
    description: str = ""
    source: str = ""
    value: float | int | None = None
    expected: float | int | None = None
    tolerance: float | None = None
    detail: str | None = None


def approx_check(name: str, value: float, expected: float, tolerance: float,
                 description: str = "", *, source: str,
                 detail: str | None = None) -> Check:
    """A |value - expected| <= tolerance check."""
    return Check(name=name, passed=bool(abs(value - expected) <= tolerance),
                 description=description, source=source, value=float(value),
                 expected=float(expected), tolerance=float(tolerance),
                 detail=detail)


def bound_check(name: str, value: float, below: float, description: str = "",
                *, source: str, detail: str | None = None) -> Check:
    """A value <= bound check; ``expected`` records the bound."""
    return Check(name=name, passed=bool(value <= below), description=description,
                 source=source, value=float(value), expected=float(below),
                 tolerance=0.0, detail=detail)


@dataclass(frozen=True)
class Section:
    name: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class Report:
    title: str
    seed: int | None
    config: dict
    sections: tuple
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.sections)

    def n_checks(self) -> int:
        return sum(len(s.checks) for s in self.sections)

    def n_passed(self) -> int:
        return sum(1 for s in self.sections for c in s.checks if c.passed)


def to_dict(report: Report) -> dict:
    return {
        "title": report.title,
        "version": __version__,
        "seed": report.seed,
        "config": dict(report.config),
        "passed": report.passed,
        "sections": [
            {
                "name": s.name,
                "passed": s.passed,
                "checks": [asdict(c) for c in s.checks],
            }
            for s in report.sections
        ],
        "metadata": dict(report.metadata),
    }


def to_json(report: Report) -> str:
    return json.dumps(to_dict(report), indent=2, allow_nan=False) + "\n"


def render_text(report: Report) -> str:
    lines = [report.title]
    if report.seed is not None:
        lines.append(f"seed {report.seed}")
    for key, val in report.config.items():
        lines.append(f"  {key} = {val}")
    for s in report.sections:
        lines.append("")
        lines.append(f"[{'PASS' if s.passed else 'FAIL'}] {s.name}")
        for c in s.checks:
            tail = ""
            if c.value is not None:
                tail = f"  value={c.value!r}"
                if c.expected is not None:
                    tail += f" expected={c.expected!r}"
                if c.tolerance is not None:
                    tail += f" tol={c.tolerance!r}"
            lines.append(f"  [{'PASS' if c.passed else 'FAIL'}] {c.name}{tail}")
            if c.detail:
                for row in c.detail.splitlines():
                    lines.append(f"        {row}")
    for key, val in report.metadata.items():
        lines.append(f"{key}: {val}")
    lines.append("")
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(f"overall: {verdict} ({report.n_passed()}/{report.n_checks()} checks)")
    return "\n".join(lines) + "\n"

