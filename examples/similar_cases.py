"""Similar-case retrieval during a consultation (the paper's §1 scenario).

"While discussing the case, some of them would like to consider similar
cases either from the same database or from other medical databases."

A clinic database holds a small corpus of prior cases (CT / X-ray /
ultrasound studies with patient attributes). During a consultation on a
new patient, the physicians:

  1. query by example — which stored studies *look* like this CT?
  2. refine with a fuzzy attribute query — "age about 60, lesion at
     least 8 mm, preferably ICU" (Fagin-style graded top-k);
  3. and search past consultation marks spatially — "what did previous
     reviewers note near this lesion?"

Run:  python examples/similar_cases.py
"""

import tempfile

from repro.db import Column, Database, INTEGER, MultimediaObjectStore, REAL, TEXT, TableSchema
from repro.media.image import ct_phantom, ultrasound_phantom, xray_phantom
from repro.retrieval import (
    AnnotationSpatialIndex,
    FuzzyQuery,
    SimilarImageIndex,
    about,
    at_least,
    fuzzy_and,
)
from repro.retrieval.fuzzy import equals, fuzzy_or


def build_corpus(db, store, index):
    """Prior cases: images + an attribute table, linked by media_ref."""
    db.create_table(
        TableSchema(
            "cases",
            [
                Column("id", INTEGER, primary_key=True, autoincrement=True),
                Column("patient", TEXT, nullable=False),
                Column("media_ref", TEXT, nullable=False),
                Column("age", INTEGER),
                Column("lesion_mm", REAL),
                Column("ward", TEXT),
            ],
        )
    )
    corpus = [
        ("pt-101", ct_phantom(128, seed=1), 63, 9.5, "icu"),
        ("pt-102", ct_phantom(128, seed=2), 44, 4.0, "er"),
        ("pt-103", ct_phantom(128, seed=3), 59, 11.0, "icu"),
        ("pt-104", xray_phantom(128, 128, seed=1), 71, 0.0, "ward"),
        ("pt-105", xray_phantom(128, 128, seed=2), 35, 0.0, "er"),
        ("pt-106", ultrasound_phantom(128, seed=1), 58, 7.0, "icu"),
    ]
    for patient, image, age, lesion, ward in corpus:
        handle = index.add_image(image, label=patient)
        db.insert(
            "cases",
            {
                "patient": patient,
                "media_ref": handle.media_ref,
                "age": age,
                "lesion_mm": lesion,
                "ward": ward,
            },
        )
    # Past consultation marks on pt-101's CT.
    store.store_annotation("case-101", "ct", "dr-prior", {"type": "text", "text": "calcification", "x": 40, "y": 44})
    store.store_annotation("case-101", "ct", "dr-prior", {"type": "text", "text": "9mm lesion", "x": 150, "y": 118})
    store.store_annotation("case-101", "ct", "dr-later", {"type": "line", "x": 152, "y": 122})


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        db = Database(f"{workdir}/clinic")
        store = MultimediaObjectStore(db)
        index = SimilarImageIndex(store)
        build_corpus(db, store, index)
        print(f"Corpus: {len(index)} indexed studies, "
              f"{db.count('cases')} case records\n")

        # 1. query by example with the new patient's CT
        new_ct = ct_phantom(128, seed=42)
        print("Step 1 — studies that look like the new CT:")
        hits = index.query(new_ct, k=3)
        for hit in hits:
            print(f"  {hit.label:8s} similarity {hit.similarity:.3f}")

        # 2. fuzzy refinement over the attribute table
        print("\nStep 2 — fuzzy refinement: age~60, lesion>=8mm, prefer ICU")
        rows = db.select("cases")
        visual = {hit.media_ref: hit.similarity for hit in index.query(new_ct, k=10)}
        query = FuzzyQuery(
            fuzzy_and(
                about("age", 60, 12),
                at_least("lesion_mm", 8.0, 4.0),
                fuzzy_or(equals("ward", "icu"), lambda row: 0.5),  # any other ward: half
            )
        )
        for scored in query.top_k(rows, k=3):
            row = scored.row
            look = visual.get(row["media_ref"], 0.0)
            print(f"  {row['patient']:8s} attribute score {scored.score:.2f} "
                  f"(visual similarity {look:.3f})")

        # 3. spatial search of prior marks on the best match
        print("\nStep 3 — prior consultation marks near the lesion on pt-101:")
        marks = AnnotationSpatialIndex.from_store(store, "case-101", "ct", 256, 256)
        near = marks.mark_near(148, 120)
        region = marks.marks_in_region(130, 100, 180, 140)
        print(f"  nearest mark to the click: {near['text'] if 'text' in near else near}")
        print(f"  marks in the zoom region: {len(region)}")
        for mark in region:
            print(f"    ({mark['x']},{mark['y']}) {mark.get('text', mark['type'])} "
                  f"by {mark['viewer']}")
        db.close()


if __name__ == "__main__":
    main()
