"""Similar-case retrieval (the paper's Section 1 scenario).

"While discussing the case, some of them would like to consider similar
cases either from the same database or from other medical databases" —
and the related-work section points at fuzzy multimedia queries (Fagin
[14]) and image/spatial indexing (Samet [16]). This package provides
those retrieval capabilities over the embedded database:

* :mod:`repro.retrieval.features` — compact image descriptors
  (intensity histogram + wavelet sub-band energy signature);
* :mod:`repro.retrieval.image_index` — query-by-example over stored
  images, descriptors persisted next to the Fig. 7 tables;
* :mod:`repro.retrieval.fuzzy` — graded predicates with t-norm scoring
  and Fagin-style top-k evaluation over relational rows;
* :mod:`repro.retrieval.spatial` — a point quadtree over stored image
  annotations ("marks on the images ... for future search").
"""

from repro.retrieval.features import descriptor_distance, image_descriptor
from repro.retrieval.fuzzy import (
    FuzzyQuery,
    about,
    at_least,
    fuzzy_and,
    fuzzy_or,
)
from repro.retrieval.image_index import SimilarImageIndex
from repro.retrieval.spatial import AnnotationSpatialIndex, Quadtree

__all__ = [
    "AnnotationSpatialIndex",
    "FuzzyQuery",
    "Quadtree",
    "SimilarImageIndex",
    "about",
    "at_least",
    "descriptor_distance",
    "fuzzy_and",
    "fuzzy_or",
    "image_descriptor",
]
