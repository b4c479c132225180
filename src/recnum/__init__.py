"""Linear recurrence number systems: digit expansions, exponential sums,
certified supremum bounds, and sieve experiments.

The submodules blockcert, bounds, experiments and expsum are lazy: each is in
sys.modules and on the package from `import recnum` on, and its body runs on
its first attribute access, so a command executes only the modules it uses."""

import importlib.util
import sys

from .base import (
    BaseContext,
    CostGuardError,
    IntegerWidthError,
    PreconditionError,
    RecurrenceSpec,
    dominant_root,
    make_context,
    strengthened_initials,
    validate_spec,
)
from .digits import Expansion, expand, is_parry_admissible, sum_of_digits, value_of


def _lazy(name: str):
    """Register the submodule `name` with a LazyLoader and return it.

    The first attribute access runs the module's body, and Python 3.11's
    LazyLoader does that without a lock: two threads touching a fresh lazy
    module at once can each see it half run. So every lazy module is first
    touched on the main thread, in a cli `cmd_*` handler or an import, before
    any pool starts. blockcert is the only module that starts threads; its
    pool starts after blockcert has run, and blockcert binds its bounds
    names at import, so the workers never touch a lazy module."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


blockcert = _lazy("blockcert")
bounds = _lazy("bounds")
experiments = _lazy("experiments")
expsum = _lazy("expsum")

__all__ = [
    "BaseContext",
    "CostGuardError",
    "Expansion",
    "IntegerWidthError",
    "PreconditionError",
    "RecurrenceSpec",
    "dominant_root",
    "expand",
    "is_parry_admissible",
    "make_context",
    "strengthened_initials",
    "sum_of_digits",
    "validate_spec",
    "value_of",
]

__version__ = "0.1.0"
