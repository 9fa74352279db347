"""One parsed-source index for the AST audits.

The name, option and series audits (``tests/test_every_name_has_a_caller.py``,
``tests/test_every_option_is_set.py``,
``tests/obs/test_every_series_has_a_reader.py``) read the same ``src``,
benchmark and example files; each file is parsed once per test session
here, whichever audit asks first. The audits only walk trees, never
change them, so one tree serves them all.
"""

from __future__ import annotations

import ast
from functools import lru_cache


@lru_cache(maxsize=None)
def parse(source: str) -> ast.Module:
    """The tree of *source*, parsed on first request."""
    return ast.parse(source)
