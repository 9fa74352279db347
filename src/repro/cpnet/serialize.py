"""JSON (de)serialization of CP-networks.

The CP-net is "a static part of the multimedia document" (paper §4), so it
must be storable next to the document's blobs in the database. The format
is a plain JSON object — stable, diffable and schema-checked on load.
"""

from __future__ import annotations

from typing import Any

from repro.errors import CPNetError
from repro.cpnet.network import CPNet

FORMAT_VERSION = 1


def network_to_dict(net: CPNet) -> dict[str, Any]:
    """Render *net* as a JSON-compatible dict (topological variable order)."""
    variables = []
    for name in net.topological_order():
        variable = net.variable(name)
        cpt = net.cpt(name)
        variables.append(
            {
                "name": variable.name,
                "domain": list(variable.domain),
                "description": variable.description,
                "parents": list(cpt.parent_names),
                "rules": [
                    {"condition": dict(rule.condition), "order": list(rule.order)}
                    for rule in cpt.rules
                ],
            }
        )
    return {"format": FORMAT_VERSION, "name": net.name, "variables": variables}


def network_from_dict(data: dict[str, Any]) -> CPNet:
    """Rebuild a network from :func:`network_to_dict` output."""
    if not isinstance(data, dict):
        raise CPNetError(f"expected a dict, got {type(data).__name__}")
    version = data.get("format")
    if version != FORMAT_VERSION:
        raise CPNetError(f"unsupported CP-net format version: {version!r}")
    net = CPNet(name=data.get("name", "cpnet"))
    variables = data.get("variables")
    if not isinstance(variables, list):
        raise CPNetError("missing or invalid 'variables' list")
    for entry in variables:
        try:
            name = entry["name"]
            domain = entry["domain"]
            parents = entry.get("parents", [])
            description = entry.get("description", "")
            rules = entry.get("rules", [])
        except (TypeError, KeyError) as exc:
            raise CPNetError(f"malformed variable entry: {entry!r}") from exc
        net.add_variable(name, domain, parents=parents, description=description)
        for rule in rules:
            net.add_rule(name, rule["condition"], rule["order"])
    return net
