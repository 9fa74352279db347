"""Author-side network analysis (toward the paper's "advanced authoring
tool" future work).

The elicitation builder guarantees structural validity; this module goes
further and tells the *author* what her preference statements actually
mean operationally:

* **holes** — parent assignments no rule answers (lookups would fail);
* **ambiguities** — parent assignments where two incomparable rules tie;
* **unreachable rules** — statements that are never the most specific
  applicable rule for any parent assignment (dead preference text);
* **never-default values** — presentation alternatives that top no CPT
  row, i.e. will never be shown unless a viewer explicitly requests them
  (often a surprise to authors who *intended* a form to appear);
* **isolated variables** — components whose preferences neither affect
  nor depend on anything (possibly missing couplings).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import IncompleteTableError
from repro.cpnet.cpt import PreferenceRule
from repro.cpnet.network import CPNet


@dataclass(frozen=True)
class Finding:
    """One audit finding."""

    kind: str        # 'hole' | 'ambiguity' | 'unreachable-rule' | 'never-default' | 'isolated'
    variable: str
    detail: str


@dataclass
class AuditReport:
    """All findings for one network."""

    network: str
    findings: list[Finding] = field(default_factory=list, init=False)
    checked_assignments: int = field(default=0, init=False)
    skipped_variables: list[str] = field(default_factory=list, init=False)

    @property
    def ok(self) -> bool:
        """True when nothing blocking was found (holes/ambiguities)."""
        return not any(f.kind in ("hole", "ambiguity") for f in self.findings)

    def by_kind(self, kind: str) -> list[Finding]:
        return [f for f in self.findings if f.kind == kind]

    def summary(self) -> str:
        lines = [f"audit of {self.network!r}: {len(self.findings)} finding(s)"]
        for finding in self.findings:
            lines.append(f"  [{finding.kind}] {finding.variable}: {finding.detail}")
        if self.skipped_variables:
            lines.append(
                f"  (skipped large parent spaces: {', '.join(self.skipped_variables)})"
            )
        return "\n".join(lines)


#: Largest parent space :func:`audit_network` enumerates.
AUDIT_SPACE_LIMIT = 4096


def audit_network(net: CPNet) -> AuditReport:
    """Audit every CPT of *net*; parent spaces above :data:`AUDIT_SPACE_LIMIT`
    are skipped (reported in the result) rather than enumerated."""
    report = AuditReport(network=net.name)
    for name in net.topological_order():
        cpt = net.cpt(name)
        space = cpt.parent_space_size()
        if space > AUDIT_SPACE_LIMIT:
            report.skipped_variables.append(name)
            continue
        selected: set[PreferenceRule] = set()
        top_values: set[str] = set()
        for assignment in cpt.iter_parent_assignments():
            report.checked_assignments += 1
            try:
                rule = cpt.rule_for(assignment)
            except IncompleteTableError as exc:
                kind = "ambiguity" if "ambiguous" in str(exc) else "hole"
                report.findings.append(
                    Finding(kind=kind, variable=name, detail=str(exc))
                )
                continue
            selected.add(rule)
            top_values.add(rule.order[0])
        for rule in cpt.rules:
            if rule not in selected:
                report.findings.append(
                    Finding(
                        kind="unreachable-rule",
                        variable=name,
                        detail=f"rule {rule} is shadowed by more specific rules",
                    )
                )
        for value in net.variable(name).domain:
            if value not in top_values:
                report.findings.append(
                    Finding(
                        kind="never-default",
                        variable=name,
                        detail=(
                            f"{value!r} tops no preference row; it appears only "
                            "on explicit viewer request"
                        ),
                    )
                )
        if not cpt.parents and not net.children(name):
            report.findings.append(
                Finding(
                    kind="isolated",
                    variable=name,
                    detail="no preference coupling with any other component",
                )
            )
    return report
