"""Run-scoped settings and resource limits for runaway computations.

Three settings hold for a whole run: the degree cap, the abort hook and the
on-disk cache.  They live in one frozen ``RunSettings`` held by one context
variable, so they are scoped to the current context and no run leaves state
behind.  Every long-running loop reads ``current()`` once per call, compares
each new term's degree with the cap (raising ``degree_cap_error``) and calls
the hook once per step, so a single setting bounds the whole engine;
``cache.groebner_request``, on the one route
``groebner._reduced_completion``, reads the cache from the same settings.
These are the only run settings: ``engine.execute`` runs under the
caller's and sets none of its own.

``run_scope(**changes)`` replaces the named fields for its block, inherits
the rest, and puts the enclosing settings back when the block ends, also
when it raises.

``GENERATOR_CAP`` bounds the generators of a module the engine builds in
one step (a tensor product, a restriction of scalars), so an input that
would take hours fails at once with a typed error instead.
``INTEGER_BIT_CAP`` bounds the integers a script writes or computes, far
below the length at which ``str()`` refuses an int.  ``NESTING_CAP`` bounds
how deep brackets nest in an expression, so parsing, evaluating and
printing one stay far inside Python's recursion limit.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Tuple

from .errors import InputError, ResourceLimitError

if TYPE_CHECKING:
    from .cache import ComputationCache

DEFAULT_DEGREE_CAP = 64
GENERATOR_CAP = 4096
INTEGER_BIT_CAP = 4096
NESTING_CAP = 64

AbortHook = Callable[[], bool]


def checked_degree_cap(cap: int) -> int:
    if cap < 1:
        raise InputError("degree cap must be positive")
    return cap


class RunSettings:
    """The settings of a run.  ``abort_hook`` is a cooperative cancellation
    hook (return True to abort); ``cache`` is None when no cache is used.
    Immutable, and compared by value."""

    __slots__ = ("degree_cap", "abort_hook", "cache")

    def __init__(
        self,
        degree_cap: int = DEFAULT_DEGREE_CAP,
        abort_hook: Optional[AbortHook] = None,
        cache: Optional["ComputationCache"] = None,
    ):
        store = object.__setattr__
        store(self, "degree_cap", checked_degree_cap(degree_cap))
        store(self, "abort_hook", abort_hook)
        store(self, "cache", cache)

    def __setattr__(self, *_) -> None:
        raise AttributeError("run settings are immutable; change them with run_scope")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.degree_cap, self.abort_hook, self.cache) == (
            other.degree_cap,
            other.abort_hook,
            other.cache,
        )


_settings: ContextVar[RunSettings] = ContextVar("run_settings", default=RunSettings())


def current() -> RunSettings:
    return _settings.get()


@contextmanager
def run_scope(**changes) -> Iterator[RunSettings]:
    """Replace the named fields of the current settings for the block; a
    cap below 1 raises ``InputError`` before anything is replaced."""
    old = current()
    fields = {name: getattr(old, name) for name in RunSettings.__slots__}
    fields.update(changes)
    settings = RunSettings(**fields)
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


def checked_integer(value: int) -> int:
    """``value``, or ``ResourceLimitError`` past ``INTEGER_BIT_CAP`` bits."""
    if value.bit_length() > INTEGER_BIT_CAP:
        raise _integer_cap_error()
    return value


def check_power_size(base: int, exponent: int) -> None:
    """Refuse |base|^exponent, exponent >= 0, before it is computed: it has
    at least (bit_length - 1) * exponent + 1 bits, and less than twice as
    many when that is within ``INTEGER_BIT_CAP``."""
    if (abs(base).bit_length() - 1) * exponent >= INTEGER_BIT_CAP:
        raise _integer_cap_error()


def _integer_cap_error() -> ResourceLimitError:
    return ResourceLimitError(f"an integer exceeds the bound of {INTEGER_BIT_CAP} bits")


def _digit_count(n: int) -> int:
    """The number of decimal digits of the positive int ``n``, without
    ``str``; the float estimate is corrected exactly."""
    digits = int(math.log10(n)) + 1
    if 10 ** (digits - 1) > n:
        digits -= 1
    elif 10**digits <= n:
        digits += 1
    return digits
