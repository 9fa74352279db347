"""CP-network preference engine (the paper's core contribution, Section 4).

A CP-network (Boutilier et al. 1999) is a directed acyclic graph over
*variables* — here, the components of a multimedia document. Each node
carries a *conditional preference table* (CPT): for every assignment to the
node's parents, a total order over the node's own values, read under a
ceteris-paribus ("all else equal") assumption.

The engine supports exactly the operations the paper's presentation module
needs:

* building a network from author preference statements
  (:class:`~repro.cpnet.elicitation.CPNetBuilder`),
* computing the preferentially optimal outcome by a forward sweep
  (:func:`~repro.cpnet.reasoning.optimal_outcome`),
* computing the best completion of viewer-imposed evidence
  (:func:`~repro.cpnet.reasoning.best_completion`),
* dominance queries via improving-flip search
  (:func:`~repro.cpnet.dominance.dominates`),
* the Section 4.2 online-update policies
  (:mod:`repro.cpnet.updates`),
* compiled evaluation — flat tables over a frozen topological order,
  each compilation owning a memo of its completions
  (:mod:`repro.cpnet.compiled`), and
* JSON round-tripping (:mod:`repro.cpnet.serialize`).
"""

from repro.cpnet.compiled import (
    CompiledCPNet,
    CompiledExtension,
    CompletionCache,
    compile_cpnet,
    compile_extension,
    compiled_enabled,
    completion_key,
    interpreted_mode,
    set_compiled_enabled,
)
from repro.cpnet.cpt import CPT, PreferenceRule
from repro.cpnet.dominance import compare, dominates, improving_flips
from repro.cpnet.elicitation import CPNetBuilder
from repro.cpnet.examples import figure2_network
from repro.cpnet.network import CPNet
from repro.cpnet.reasoning import (
    best_completion,
    iter_outcomes,
    optimal_outcome,
    outcome_rank_vector,
)
from repro.cpnet.serialize import network_from_dict, network_from_json, network_to_dict, network_to_json
from repro.cpnet.updates import (
    OperationVariable,
    ViewerExtension,
    add_component_variable,
    apply_operation,
    remove_component_variable,
)
from repro.cpnet.variable import Variable

__all__ = [
    "CPT",
    "CPNet",
    "CPNetBuilder",
    "CompiledCPNet",
    "CompiledExtension",
    "CompletionCache",
    "OperationVariable",
    "PreferenceRule",
    "Variable",
    "ViewerExtension",
    "add_component_variable",
    "apply_operation",
    "best_completion",
    "compare",
    "compile_cpnet",
    "compile_extension",
    "compiled_enabled",
    "completion_key",
    "interpreted_mode",
    "set_compiled_enabled",
    "dominates",
    "figure2_network",
    "improving_flips",
    "iter_outcomes",
    "network_from_dict",
    "network_from_json",
    "network_to_dict",
    "network_to_json",
    "optimal_outcome",
    "outcome_rank_vector",
    "remove_component_variable",
]
