"""Generated medical-record documents of controlled size.

"The amount of information (the number of different components) in a
multimedia document may be very large ... it arrives from different
clinics, diagnostic centers, home and nursing care, laboratories" — this
generator produces records with that growth pattern: a configurable
number of sections, each holding image/text/audio components with
realistic payload sizes, plus author preferences that couple components
within a section (so CP-net reasoning has real structure to chew on).
"""

from __future__ import annotations

import random

from repro.document.builder import DocumentBuilder
from repro.document.document import MultimediaDocument
from repro.document.presentation import AudioFragment, Hidden, Icon, JPGImage, Text

KB = 1024

_SECTIONS = ("imaging", "labs", "consult", "nursing", "pathology", "pharmacy", "homecare")
_IMAGE_KINDS = ("ct", "xray", "mri", "ultrasound")


def generate_record(
    doc_id: str,
    sections: int = 3,
    components_per_section: int = 3,
    seed: int = 0,
) -> MultimediaDocument:
    """One synthetic medical record.

    Every section is a composite; components alternate between images
    (flat/icon/hidden with multi-hundred-KB flats), texts and audio
    notes. The first image of a section is its "centrepiece": later
    components in the same section prefer to shrink when it is shown
    (the paper's CT/X-ray coupling, generalized).
    """
    if sections < 1 or components_per_section < 1:
        raise ValueError("need >= 1 sections and components per section")
    rng = random.Random(seed)
    builder = DocumentBuilder(doc_id, title=f"Generated record {doc_id}")
    for section_index in range(sections):
        section = f"{_SECTIONS[section_index % len(_SECTIONS)]}{section_index}"
        builder.composite(section)
        builder.prefer(section, ["shown", "hidden"])
        centrepiece: str | None = None
        for component_index in range(components_per_section):
            path = f"{section}.item{component_index}"
            kind = rng.choice(("image", "image", "text", "audio"))
            if kind == "image":
                flat_size = rng.randint(128, 768) * KB
                builder.primitive(
                    path,
                    [
                        JPGImage("flat", size_bytes=flat_size, resolution=2),
                        Icon("icon", size_bytes=rng.randint(4, 12) * KB),
                        Hidden(),
                    ],
                    description=rng.choice(_IMAGE_KINDS),
                )
            elif kind == "text":
                builder.primitive(
                    path,
                    [
                        Text("full", size_bytes=rng.randint(2, 24) * KB),
                        Text("summary", size_bytes=rng.randint(1, 2) * KB),
                        Hidden(),
                    ],
                )
            else:
                builder.primitive(
                    path,
                    [
                        AudioFragment(
                            "play",
                            size_bytes=rng.randint(256, 1024) * KB,
                            duration_s=rng.uniform(20, 90),
                        ),
                        Text("transcript", size_bytes=rng.randint(2, 8) * KB),
                        Hidden(),
                    ],
                )
            # A record is too large for total exposure (paper §4): authors
            # default each component to its compact form; viewers expand.
            if kind == "image":
                domain = ("icon", "flat", "hidden")
            elif kind == "text":
                domain = ("summary", "full", "hidden")
            else:
                domain = ("transcript", "play", "hidden")
            builder.depends(path, on=[section])
            builder.prefer_when(path, {section: "shown"}, list(domain))
            builder.prefer_when(
                path, {section: "hidden"}, ["hidden", domain[0], domain[1]]
            )
            if kind == "image" and centrepiece is None:
                centrepiece = path
            elif centrepiece is not None and rng.random() < 0.5:
                # Couple to the centrepiece (the paper's CT/X-ray example):
                # when it is expanded to full size, this component yields
                # screen space — hidden or compact preferred.
                builder.depends(path, on=[section, centrepiece])
                builder.prefer_when(
                    path,
                    {section: "shown", centrepiece: "flat"},
                    ["hidden", domain[0], domain[1]],
                )
    return builder.build()
