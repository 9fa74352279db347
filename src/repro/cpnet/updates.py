"""Online document-update policies for the CP-network (paper Section 4.2).

Three kinds of update can happen while a document is open in a room:

1. *Adding a component* — the new component becomes a fresh variable with a
   simple unconditional preference (present preferred, by default).
2. *Removing a component* — the variable disappears; CPTs of its children
   are projected so the rest of the network keeps working.
3. *Performing an operation on a component* — the paper's interesting
   case. If a viewer segments an X-ray that was presented in form
   ``c2``, a new variable ``c.segmentation`` is added with ``Π = {c}`` and
   the CPT "segmented ≻ flat iff ``c = c2``". The operated variable's own
   domain and CPT — and those of everything depending on it — are left
   untouched, which is the efficiency claim benchmark E8 checks.

The viewer then decides whether the operation matters to everyone (update
the shared network) or only to herself; the latter is a
:class:`ViewerExtension`, which stores *only* the new variables and tables,
never a duplicate of the base network.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Mapping

from repro.errors import CPNetError, UnknownVariableError
from repro.cpnet.cpt import CPT, PreferenceRule
from repro.cpnet.network import CPNet
from repro.cpnet.variable import Variable
from repro.obs import LATENCY_BUCKETS, get_registry

Assignment = Mapping[str, str]

#: Domain values used for operation variables: the operation result shown,
#: or the plain (un-operated) form shown.
OPERATION_APPLIED = "applied"
OPERATION_PLAIN = "plain"


@dataclass(frozen=True)
class OperationVariable:
    """Record of an operation variable created by :func:`apply_operation`."""

    name: str
    component: str
    operation: str
    active_value: str


def operation_variable_name(component: str, operation: str) -> str:
    """Canonical name of the variable tracking *operation* on *component*."""
    return f"{component}.{operation}"


def add_component_variable(
    net: CPNet,
    name: str,
    domain: Iterable[str],
    parents: Iterable[str] = (),
    preferred_order: Iterable[str] | None = None,
    description: str = "",
) -> Variable:
    """Policy for update kind 1: add a component with a default preference.

    Without an explicit *preferred_order* the domain order itself is used
    (first value most preferred) — a "simple yet reasonable" default, as
    the paper puts it. Parents, if given, make the default order
    unconditional on them (a single catch-all rule).
    """
    variable = net.add_variable(name, domain, parents=parents, description=description)
    order = tuple(preferred_order) if preferred_order is not None else variable.domain
    net.add_rule(name, {}, order)
    return variable


def remove_component_variable(net: CPNet, name: str) -> None:
    """Policy for update kind 2: drop the variable, projecting children CPTs."""
    net.remove_variable(name, reparent_children=True)


def apply_operation(
    net: CPNet,
    component: str,
    operation: str,
    active_value: str,
    prefer_applied: bool = True,
) -> OperationVariable:
    """Policy for update kind 3: record an operation as a new child variable.

    Adds ``component.operation`` with parent ``component`` and the CPT from
    the paper: the applied form is preferred exactly when the component is
    presented by *active_value* (the form it had when the viewer performed
    the operation); in every other presentation the plain form is
    preferred. Neither ``D(component)`` nor any existing CPT changes.
    """
    started = perf_counter()
    parent = net.variable(component)
    parent.check_value(active_value)
    name = operation_variable_name(component, operation)
    if name in net:
        raise CPNetError(f"operation variable {name!r} already exists")
    net.add_variable(
        name,
        (OPERATION_APPLIED, OPERATION_PLAIN),
        parents=(component,),
        description=f"{operation} applied to {component}",
    )
    applied_first = (OPERATION_APPLIED, OPERATION_PLAIN)
    plain_first = (OPERATION_PLAIN, OPERATION_APPLIED)
    when_active = applied_first if prefer_applied else plain_first
    net.add_rule(name, {component: active_value}, when_active)
    net.add_rule(name, {}, plain_first)
    obs = get_registry()
    obs.counter("cpnet.operations").inc()
    obs.histogram("cpnet.operation_latency_s", LATENCY_BUCKETS).observe(
        perf_counter() - started
    )
    return OperationVariable(
        name=name, component=component, operation=operation, active_value=active_value
    )


class ViewerExtension:
    """A per-viewer overlay on a shared CP-network.

    Stores only the viewer's *extra* variables and CPTs; reasoning consults
    the base network for everything else, so the base "should not be
    duplicated" (paper §4.2). Extension variables may take base variables
    (or earlier extension variables) as parents, but base variables never
    depend on extension variables — so the combined graph stays acyclic and
    the combined topological order is simply base-order followed by
    extension insertion order resolved among extension variables.
    """

    def __init__(self, base: CPNet, viewer_id: str) -> None:
        self.base = base
        self.viewer_id = viewer_id
        self._variables: dict[str, Variable] = {}
        self._cpts: dict[str, CPT] = {}
        self._operations: list[OperationVariable] = []
        # Overlay version: bumped by every viewer-local mutation, so the
        # compiled overlay (repro.cpnet.compiled) invalidates precisely
        # while the shared base compilation stays untouched.
        self._version = 0

    # ----- structure ---------------------------------------------------------

    @property
    def extension_version(self) -> int:
        """Monotonic counter of viewer-local mutations (compilation key)."""
        return self._version

    @property
    def extension_names(self) -> tuple[str, ...]:
        """Names of the viewer-local variables, in insertion order."""
        return tuple(self._variables)

    @property
    def operations(self) -> tuple[OperationVariable, ...]:
        return tuple(self._operations)

    def variable(self, name: str) -> Variable:
        """Look up a variable in the extension first, then the base."""
        if name in self._variables:
            return self._variables[name]
        return self.base.variable(name)

    def __contains__(self, name: str) -> bool:
        return name in self._variables or name in self.base

    def size(self) -> int:
        """Number of *extension* variables (storage cost of this viewer)."""
        return len(self._variables)

    def add_variable(
        self,
        name: str,
        domain: Iterable[str],
        parents: Iterable[str] = (),
        description: str = "",
    ) -> Variable:
        """Add a viewer-local variable; parents resolve against base+extension."""
        if name in self:
            raise ValueError(f"variable {name!r} already exists (base or extension)")
        parent_vars = tuple(self.variable(p) for p in parents)
        variable = Variable(name=name, domain=tuple(domain), description=description)
        self._variables[name] = variable
        self._cpts[name] = CPT(variable=variable, parents=parent_vars)
        self._version += 1
        return variable

    def add_rule(
        self, name: str, condition: Assignment, order: Iterable[str]
    ) -> PreferenceRule:
        """Append a rule to a viewer-local CPT (base CPTs are read-only here)."""
        if name not in self._variables:
            raise UnknownVariableError(
                f"{name!r} is not a viewer-local variable of {self.viewer_id!r}"
            )
        rule = self._cpts[name].add_rule(condition, order)
        self._version += 1
        return rule

    def apply_operation(
        self,
        component: str,
        operation: str,
        active_value: str,
        prefer_applied: bool = True,
    ) -> OperationVariable:
        """Viewer-local version of :func:`apply_operation` (same CPT policy)."""
        parent = self.variable(component)
        parent.check_value(active_value)
        name = operation_variable_name(component, operation)
        if name in self:
            raise CPNetError(f"operation variable {name!r} already exists")
        self.add_variable(
            name,
            (OPERATION_APPLIED, OPERATION_PLAIN),
            parents=(component,),
            description=f"{operation} applied to {component} (viewer {self.viewer_id})",
        )
        applied_first = (OPERATION_APPLIED, OPERATION_PLAIN)
        plain_first = (OPERATION_PLAIN, OPERATION_APPLIED)
        self.add_rule(name, {component: active_value}, applied_first if prefer_applied else plain_first)
        self.add_rule(name, {}, plain_first)
        record = OperationVariable(
            name=name, component=component, operation=operation, active_value=active_value
        )
        self._operations.append(record)
        return record

    # ----- reasoning -----------------------------------------------------------

    def best_completion(self, evidence: Assignment) -> dict[str, str]:
        """Best outcome over base + extension variables, given *evidence*.

        Uses the compiled overlay (one shared base compilation, flat
        viewer-local tables) unless compiled evaluation is globally
        disabled; both paths produce byte-identical outcomes.
        """
        from repro.cpnet.compiled import compile_extension, compiled_enabled

        if compiled_enabled():
            return compile_extension(self).best_completion(evidence)
        return self.interpreted_best_completion(evidence)

    def interpreted_best_completion(self, evidence: Assignment) -> dict[str, str]:
        """The reference sweep (fresh topo order, per-query rule scans)."""
        fixed: dict[str, str] = {}
        for name, value in evidence.items():
            self.variable(name).check_value(value)
            fixed[name] = value
        outcome: dict[str, str] = {}
        for name in self.base.topological_order():
            if name in fixed:
                outcome[name] = fixed[name]
            else:
                outcome[name] = self.base.cpt(name).best_value(outcome)
        for name in self._variables:  # insertion order respects parent creation
            if name in fixed:
                outcome[name] = fixed[name]
            else:
                outcome[name] = self._cpts[name].best_value(outcome)
        # Same demand metric as reasoning.best_completion: one counted
        # sweep per completion, whichever engine ran it.
        get_registry().counter("cpnet.completions").inc()
        return outcome

    def optimal_outcome(self) -> dict[str, str]:
        """Best outcome with no evidence."""
        return self.best_completion({})

    def promote_to_base(self) -> None:
        """Make every viewer-local variable global (the viewer decided her
        operation "is important to all potential viewers").

        The extension is emptied; the base network gains the variables.
        """
        for name, variable in self._variables.items():
            cpt = self._cpts[name]
            self.base.add_variable(
                variable.name, variable.domain, cpt.parent_names, variable.description
            )
            for rule in cpt.rules:
                self.base.add_rule(variable.name, dict(rule.condition), rule.order)
        self._variables.clear()
        self._cpts.clear()
        self._operations.clear()
        self._version += 1
