"""Global resource limits for runaway computations.

Every long-running loop reads the degree cap and the abort hook once per
call, compares each new term's degree with the cap (raising
``degree_cap_error``) and calls the hook once per step, so a single setting
bounds the whole engine.  Both are scoped to the current context:
``set_degree_cap`` and ``set_abort_hook`` return tokens that
``reset_degree_cap`` and ``reset_abort_hook`` use to put the previous value
back.
"""

from __future__ import annotations

from contextvars import ContextVar, Token
from typing import Callable, Optional, Tuple

from .errors import ResourceLimitError

DEFAULT_DEGREE_CAP = 64

AbortHook = Callable[[], bool]

_degree_cap: ContextVar[int] = ContextVar("degree_cap", default=DEFAULT_DEGREE_CAP)
_abort_hook: ContextVar[Optional[AbortHook]] = ContextVar("abort_hook", default=None)


def degree_cap() -> int:
    return _degree_cap.get()


def set_degree_cap(cap: int) -> Token:
    if cap < 1:
        raise ValueError("degree cap must be positive")
    return _degree_cap.set(cap)


def reset_degree_cap(token: Token) -> None:
    _degree_cap.reset(token)


def abort_hook() -> Optional[AbortHook]:
    return _abort_hook.get()


def set_abort_hook(hook: Optional[AbortHook]) -> Token:
    """Install a cooperative cancellation hook (return True to abort), or
    clear it with None."""
    return _abort_hook.set(hook)


def reset_abort_hook(token: Token) -> None:
    _abort_hook.reset(token)


def degree_cap_error(
    total_degree: int, cap: int, where: Tuple[str, int, int, int]
) -> ResourceLimitError:
    """The error for a term over the cap; ``where`` is the layer, and the
    number of variables, the rank and the number of generators it works on."""
    layer, nvars, rank, ngens = where
    return ResourceLimitError(
        f"term degree {total_degree} exceeds the degree cap {cap} in the {layer} "
        f"({nvars} variables, rank {rank}, generators: {ngens})"
    )
