"""One parsed-source index for the AST audits.

The name, option and series audits (``tests/test_every_name_has_a_caller.py``,
``tests/test_every_option_is_set.py``,
``tests/obs/test_every_series_has_a_reader.py``) read the same ``src``,
benchmark and example files; each file is parsed once per test session
here, whichever audit asks first. The audits only walk trees, never
change them, so one tree serves them all. The run census's module is
loaded here too, once, for the name audit and the census's own tests.
"""

from __future__ import annotations

import ast
import importlib.util
from functools import lru_cache
from pathlib import Path
from types import ModuleType


@lru_cache(maxsize=None)
def parse(source: str) -> ast.Module:
    """The tree of *source*, parsed on first request."""
    return ast.parse(source)


@lru_cache(maxsize=None)
def function_census() -> ModuleType:
    """``benchmarks/function_census.py``, loaded by path (it installs no
    profiler at import): the run census and the allowlist it shares."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "function_census.py"
    spec = importlib.util.spec_from_file_location("function_census", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
