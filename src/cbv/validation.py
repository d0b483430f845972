"""Finding/report containers shared by network checks and package validation."""

from __future__ import annotations

from dataclasses import dataclass, field

SEVERITIES = ("error", "warning", "note")


@dataclass(frozen=True)
class Finding:
    """One validation finding.

    rule      short rule identifier (e.g. "D2", "hash", "column-sum")
    severity  one of "error", "warning", "note"
    message   human-readable explanation
    location  file / node / entry the finding points at, when known
    """

    rule: str
    severity: str
    message: str
    location: str | None = None

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def render(self) -> str:
        loc = f" [{self.location}]" if self.location else ""
        return f"{self.severity.upper()} {self.rule}: {self.message}{loc}"


@dataclass
class ValidationReport:
    """Ordered collection of findings; empty findings means the check passed."""

    findings: list[Finding] = field(default_factory=list)

    def add(self, rule: str, severity: str, message: str, location: str | None = None):
        self.findings.append(Finding(rule, severity, message, location))

    @property
    def ok(self) -> bool:
        return not self.findings

    def by_severity(self, severity: str) -> list[Finding]:
        return [f for f in self.findings if f.severity == severity]

    @property
    def has_errors(self) -> bool:
        return bool(self.by_severity("error"))

    def render(self) -> str:
        if self.ok:
            return "no findings"
        return "\n".join(f.render() for f in self.findings)
