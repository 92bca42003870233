"""Global resource limits for runaway computations.

Every long-running loop funnels through ``check_term_degree`` and
``abort_point``, so a single setting bounds the whole engine.  The degree
cap is scoped to the current context: ``set_degree_cap`` returns a token
that ``reset_degree_cap`` uses to put the previous cap back.
"""

from __future__ import annotations

from contextvars import ContextVar, Token
from typing import Callable, Optional

from .errors import AbortedError, ResourceLimitError

DEFAULT_DEGREE_CAP = 64

_degree_cap: ContextVar[int] = ContextVar("degree_cap", default=DEFAULT_DEGREE_CAP)
_abort_hook: Optional[Callable[[], bool]] = None


def degree_cap() -> int:
    return _degree_cap.get()


def set_degree_cap(cap: int) -> Token:
    if cap < 1:
        raise ValueError("degree cap must be positive")
    return _degree_cap.set(cap)


def reset_degree_cap(token: Token) -> None:
    _degree_cap.reset(token)


def set_abort_hook(hook: Optional[Callable[[], bool]]) -> None:
    """Install a cooperative cancellation hook; return True to abort."""
    global _abort_hook
    _abort_hook = hook


def check_term_degree(total_degree: int, cap: int) -> None:
    if total_degree > cap:
        raise ResourceLimitError(
            f"term degree {total_degree} exceeds the degree cap {cap}"
        )


def abort_point() -> None:
    if _abort_hook is not None and _abort_hook():
        raise AbortedError("computation cancelled")
