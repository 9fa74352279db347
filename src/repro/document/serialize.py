"""JSON (de)serialization of multimedia documents.

A document is stored in the database as one JSON blob: the component tree
(with every presentation alternative) plus the author CP-network. This is
the unit the interaction server fetches into a room and the unit clients
receive on join (minus payloads, which stream separately by blob ref).
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import Any

from repro.errors import DocumentError
from repro.cpnet.serialize import network_from_dict, network_to_dict
from repro.document.component import (
    CompositeMultimediaComponent,
    MultimediaComponent,
    PrimitiveMultimediaComponent,
)
from repro.document.document import MultimediaDocument
from repro.document.presentation import (
    AudioFragment,
    Hidden,
    Icon,
    JPGImage,
    MMPresentation,
    SegmentedJPGImage,
    Text,
)

FORMAT_VERSION = 1

_PRESENTATION_CLASSES: dict[str, type[MMPresentation]] = {
    cls.__name__: cls
    for cls in (Text, JPGImage, SegmentedJPGImage, Icon, AudioFragment, Hidden, MMPresentation)
}


def presentation_to_dict(presentation: MMPresentation) -> dict[str, Any]:
    data: dict[str, Any] = {
        "kind": presentation.kind,
        "label": presentation.label,
        "size_bytes": presentation.size_bytes,
        "media_ref": presentation.media_ref,
        "metadata": presentation.meta,
    }
    if isinstance(presentation, JPGImage):
        data["resolution"] = presentation.resolution
    if isinstance(presentation, AudioFragment):
        data["duration_s"] = presentation.duration_s
    return data


def presentation_from_dict(data: dict[str, Any]) -> MMPresentation:
    kind = data.get("kind")
    cls = _PRESENTATION_CLASSES.get(kind or "")
    if cls is None:
        raise DocumentError(f"unknown presentation kind {kind!r}")
    values: dict[str, Any] = {
        "label": data["label"],
        "size_bytes": data.get("size_bytes", 0),
        "media_ref": data.get("media_ref"),
        "metadata": tuple(sorted((data.get("metadata") or {}).items())),
        "resolution": data.get("resolution", 0),
        "duration_s": data.get("duration_s", 0.0),
    }
    return cls(**{f.name: values[f.name] for f in fields(cls) if f.init})


def component_to_dict(component: MultimediaComponent) -> dict[str, Any]:
    if isinstance(component, CompositeMultimediaComponent):
        return {
            "type": "composite",
            "name": component.name,
            "description": component.description,
            "children": [component_to_dict(child) for child in component.children],
        }
    if isinstance(component, PrimitiveMultimediaComponent):
        return {
            "type": "primitive",
            "name": component.name,
            "description": component.description,
            "presentations": [presentation_to_dict(p) for p in component.presentations],
        }
    raise DocumentError(f"cannot serialize component type {type(component).__name__}")


def component_from_dict(data: dict[str, Any]) -> MultimediaComponent:
    kind = data.get("type")
    if kind == "composite":
        node = CompositeMultimediaComponent(data["name"], data.get("description", ""))
        for child in data.get("children", []):
            node.add(component_from_dict(child))
        return node
    if kind == "primitive":
        return PrimitiveMultimediaComponent(
            data["name"],
            [presentation_from_dict(p) for p in data.get("presentations", [])],
            data.get("description", ""),
        )
    raise DocumentError(f"unknown component type {kind!r}")


def document_to_dict(document: MultimediaDocument) -> dict[str, Any]:
    return {
        "format": FORMAT_VERSION,
        "doc_id": document.doc_id,
        "title": document.title,
        "root": component_to_dict(document.get_content()),
        "network": network_to_dict(document.network),
    }


def document_from_dict(data: dict[str, Any]) -> MultimediaDocument:
    if data.get("format") != FORMAT_VERSION:
        raise DocumentError(f"unsupported document format {data.get('format')!r}")
    root = component_from_dict(data["root"])
    if not isinstance(root, CompositeMultimediaComponent):
        raise DocumentError("document root must be composite")
    return MultimediaDocument(
        doc_id=data["doc_id"],
        root=root,
        network=network_from_dict(data["network"]),
        title=data.get("title", ""),
    )


def document_to_json(document: MultimediaDocument) -> str:
    return json.dumps(document_to_dict(document))


def document_from_json(text: str | bytes) -> MultimediaDocument:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid document JSON: {exc}") from exc
    return document_from_dict(data)
