"""numpy, bound at import but loaded at its first attribute access.

Every command but verify builds no arrays, so only verify pays for importing
numpy; the library's array routes load it at their first array.  `np` goes
through `importlib.util.LazyLoader`: an already imported numpy is used
unchanged, and a missing one raises `ModuleNotFoundError` here, as
`import numpy` would.  On Python 3.11 the first
attribute access of a lazy module is not thread-safe; the CLI is single-threaded.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
