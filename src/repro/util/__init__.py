"""Small shared utilities: id generation, validation helpers, sizes,
failpoints."""

from repro.util.failpoints import (
    Failpoints,
    get_failpoints,
    set_failpoints,
    use_failpoints,
)
from repro.util.ids import IdGenerator
from repro.util.sizes import human_size
from repro.util.validation import check_identifier, check_positive, check_probability

__all__ = [
    "Failpoints",
    "IdGenerator",
    "get_failpoints",
    "human_size",
    "check_identifier",
    "check_positive",
    "check_probability",
    "set_failpoints",
    "use_failpoints",
]
