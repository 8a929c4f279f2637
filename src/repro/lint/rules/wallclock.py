"""``no-wallclock-in-sim``: virtual-time code never reads host time.

The cluster and simulator are *event-driven virtual-time* models: every
millisecond flows through :class:`~repro.sim.clock.VirtualClock`, which
is what makes runs bit-reproducible and machine-independent.  One
``time.time()`` (or ``perf_counter``, or ``datetime.now``) inside
``sim/`` or ``cluster/`` couples results to host speed and destroys
that.  Profiling instrumentation belongs outside these directories.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.rules import FileContext, Rule, iter_calls, register

_BANNED = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.thread_time",
        "time.clock_gettime",
        "time.sleep",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register
class NoWallclockInSim(Rule):
    id = "no-wallclock-in-sim"
    description = (
        "forbid host-clock reads (time.*, datetime.now) in virtual-time "
        "directories"
    )
    hint = (
        "charge costs to a VirtualClock instead; wall-clock profiling "
        "belongs outside the virtual-time directories"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.config.is_wallclock_banned(ctx.rel_path):
            return
        assert ctx.imports is not None
        for call in iter_calls(ctx.tree):
            name = ctx.imports.resolve(call.func)
            if name in _BANNED:
                yield ctx.finding(
                    self,
                    call,
                    f"{name}() reads the host clock inside virtual-time "
                    "code",
                )
