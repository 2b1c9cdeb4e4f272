"""The route table a protocol picks each round's runner from.

A :class:`Route` is a name, a ``check`` and a ``run``. ``check`` returns
``None`` when the route can run the round and a short reason when it
cannot; a protocol lists its routes in preference order, the last one
(the event engine) accepting every round. :func:`choose_route` takes the
first route that accepts and records the refusals before it, so every
round says which route it took and why the faster ones declined.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable, NamedTuple

from repro.obs.profiler import Profiler

__all__ = ["Route", "RouteChoice", "always", "choose_route", "round_span"]

_NO_SPAN = nullcontext()


class Route(NamedTuple):
    """One way to run a round: ``check(protocol, ...)`` and
    ``run(protocol, round_index, costs, ...)`` are unbound methods."""

    name: str
    check: Callable[..., "str | None"]
    run: Callable[..., Any]


class RouteChoice(NamedTuple):
    """The route one round took and why each earlier route refused it
    (route name -> reason, in table order)."""

    name: str
    refusals: dict[str, str]


def always(*args) -> None:
    """The check of a route that runs any round (the event engine)."""
    return None


def choose_route(routes: tuple[Route, ...], *args) -> tuple[Route, RouteChoice]:
    """The first of ``routes`` whose ``check(*args)`` accepts the round."""
    refusals: dict[str, str] = {}
    for route in routes:
        reason = route.check(*args)
        if reason is None:
            return route, RouteChoice(route.name, refusals)
        refusals[route.name] = reason
    raise AssertionError(f"no route accepted the round: {refusals}")


def round_span(profiler: Profiler | None, route: Route):
    """The ``protocol.<route>_round`` profiler span (a no-op without a
    profiler)."""
    if profiler is None:
        return _NO_SPAN
    return profiler.span(f"protocol.{route.name}_round")
