"""Run-scoped settings and resource limits for runaway computations.

Three settings hold for a whole run: the degree cap, the abort hook and the
on-disk cache.  They live in one frozen ``RunSettings`` held by one context
variable, so they are scoped to the current context and no run leaves state
behind.  Every long-running loop reads ``current()`` once per call, compares
each new term's degree with the cap (raising ``degree_cap_error``) and calls
the hook once per step, so a single setting bounds the whole engine;
``groebner_basis`` reads the cache from the same settings.

``run_scope(**changes)`` replaces the named fields for its block, inherits
the rest, and puts the enclosing settings back when the block ends, also
when it raises.

``GENERATOR_CAP`` bounds the generators of a module the engine builds in
one step (a tensor product, a restriction of scalars), so an input that
would take hours fails at once with a typed error instead.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Tuple

from .errors import InputError, ResourceLimitError

if TYPE_CHECKING:
    from .cache import ComputationCache

DEFAULT_DEGREE_CAP = 64
GENERATOR_CAP = 4096

AbortHook = Callable[[], bool]


def checked_degree_cap(cap: int) -> int:
    if cap < 1:
        raise InputError("degree cap must be positive")
    return cap


@dataclass(frozen=True)
class RunSettings:
    """The settings of a run.  ``abort_hook`` is a cooperative cancellation
    hook (return True to abort); ``cache`` is None when no cache is used."""

    degree_cap: int = DEFAULT_DEGREE_CAP
    abort_hook: Optional[AbortHook] = None
    cache: Optional["ComputationCache"] = None

    def __post_init__(self):
        checked_degree_cap(self.degree_cap)


_settings: ContextVar[RunSettings] = ContextVar("run_settings", default=RunSettings())


def current() -> RunSettings:
    return _settings.get()


@contextmanager
def run_scope(**changes) -> Iterator[RunSettings]:
    """Replace the named fields of the current settings for the block; a
    cap below 1 raises ``InputError`` before anything is replaced."""
    settings = replace(current(), **changes)
    token = _settings.set(settings)
    try:
        yield settings
    finally:
        _settings.reset(token)


def degree_cap_error(
    total_degree: int, cap: int, where: Tuple[str, int, int, int]
) -> ResourceLimitError:
    """The error for a term over the cap; ``where`` is the layer, and the
    number of variables, the rank and the number of generators it works on."""
    layer, nvars, rank, ngens = where
    try:
        degree = f"term degree {total_degree}"
    except ValueError:
        # str() refuses an int of more than sys.get_int_max_str_digits()
        # digits, so such a degree is shown by its digit count
        degree = f"a term degree of {_digit_count(total_degree)} digits"
    return ResourceLimitError(
        f"{degree} exceeds the degree cap {cap} in the {layer} "
        f"({nvars} variables, rank {rank}, generators: {ngens})"
    )


def _digit_count(n: int) -> int:
    """The number of decimal digits of the positive int ``n``, without
    ``str``; the float estimate is corrected exactly."""
    digits = int(math.log10(n)) + 1
    if 10 ** (digits - 1) > n:
        digits -= 1
    elif 10**digits <= n:
        digits += 1
    return digits
