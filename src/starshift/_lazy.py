"""Modules bound at import but run at their first attribute access.

`lazy_module(name)` registers a module in `sys.modules` through
`importlib.util.LazyLoader` and returns it unrun: its code runs at the first
attribute access, so a command pays only for the modules it calls.  A module
already imported or registered is returned unchanged, and a missing one
raises `ModuleNotFoundError` here, as `import` would.  An `import` or
`from m import name` of a registered module runs it at once, since the
import system reads its `__spec__`; a caller that wants it unrun binds the
module object instead (`from . import m`).

`np` is numpy, registered when this module is imported, so a missing numpy
still fails `import starshift`.  Every command but verify builds no arrays,
so only verify pays for running numpy.

On Python 3.11 the first attribute access of a lazy module is not
thread-safe.  That covers numpy and starshift's own submodules, so a
threaded caller touches the modules it needs before starting threads; the
CLI is single-threaded.
"""

import importlib.util
import sys


def lazy_module(name: str):
    """`sys.modules[name]`, registered there as a lazy module if it is not yet."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        if spec is None:
            raise ModuleNotFoundError("No module named %r" % name, name=name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


np = lazy_module("numpy")
