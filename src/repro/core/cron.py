"""Cron-style calendar cadence for the daemonized control plane.

The daemon's fixed ``interval_s`` cadence answers "every N seconds"; a
production compaction service usually wants "03:30 every night" or
"on the hour, weekdays" — off-peak windows expressed on the calendar.
:class:`CronSchedule` parses the classic five-field crontab spec
(``minute hour day-of-month month day-of-week``) and answers the one
question a scheduler loop needs: :meth:`CronSchedule.next_after`.

Semantics follow Vixie cron:

* fields accept ``*``, single values, ranges (``a-b``), steps (``*/n``,
  ``a-b/n``) and comma lists, all combinable (``0,30 2-4 * * 1-5``);
* day-of-week runs 0–7 with both 0 and 7 meaning Sunday;
* when *both* day-of-month and day-of-week are restricted, a time
  matches if **either** field matches (the classic cron OR rule);
  when only one is restricted, that one decides.

Times are local (``time.localtime`` / ``time.mktime``), matching what an
operator writing a crontab expects.  The daemon treats a cron cadence as
calendar-anchored rather than completion-anchored: a cycle that runs past
the next boundary skips to the following one instead of stacking overdue
firings — the same no-stacking guarantee the fixed interval gives.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import ValidationError

#: (name, lo, hi) per field, in spec order.
_FIELDS = (
    ("minute", 0, 59),
    ("hour", 0, 23),
    ("day-of-month", 1, 31),
    ("month", 1, 12),
    ("day-of-week", 0, 7),
)

#: Search horizon in seconds of calendar time: a spec with no matching time
#: within 8 years is rejected as unsatisfiable.  Eight years is the longest
#: gap between two Feb 29s (2096 → 2104, as 2100 is no leap year).
_MAX_SEARCH_SECONDS = 8 * 366 * 24 * 60 * 60


def _parse_field(text: str, name: str, lo: int, hi: int) -> tuple[frozenset[int], bool]:
    """One crontab field → (allowed values, was it ``*``).

    The star flag matters only for the day fields (the OR rule); values
    are normalised so day-of-week 7 folds onto 0 (Sunday).
    """
    is_star = text == "*"
    values: set[int] = set()
    for part in text.split(","):
        if not part:
            raise ValidationError(f"empty item in cron {name} field {text!r}")
        step = 1
        if "/" in part:
            part, _, step_text = part.partition("/")
            try:
                step = int(step_text)
            except ValueError:
                raise ValidationError(
                    f"bad step {step_text!r} in cron {name} field"
                ) from None
            if step <= 0:
                raise ValidationError(f"cron {name} step must be positive")
        if part == "*":
            first, last = lo, hi
        elif "-" in part:
            first_text, _, last_text = part.partition("-")
            try:
                first, last = int(first_text), int(last_text)
            except ValueError:
                raise ValidationError(
                    f"bad range {part!r} in cron {name} field"
                ) from None
        else:
            try:
                first = last = int(part)
            except ValueError:
                raise ValidationError(
                    f"bad value {part!r} in cron {name} field"
                ) from None
        if first > last:
            raise ValidationError(
                f"inverted range {part!r} in cron {name} field"
            )
        if first < lo or last > hi:
            raise ValidationError(
                f"cron {name} value out of range {lo}-{hi}: {part!r}"
            )
        values.update(range(first, last + 1, step))
    if name == "day-of-week" and 7 in values:
        values.discard(7)
        values.add(0)
    return frozenset(values), is_star


@dataclass(frozen=True)
class CronSchedule:
    """A parsed five-field crontab spec; build via :meth:`parse`.

    Instances are immutable and hashable; ``str()`` round-trips the
    original spec text.  Anything with a compatible
    ``next_after(ts) -> float`` method is accepted wherever the daemon
    takes a schedule, so tests can substitute fast fakes.
    """

    spec: str
    minutes: frozenset[int]
    hours: frozenset[int]
    days: frozenset[int]
    months: frozenset[int]
    weekdays: frozenset[int]
    #: Star flags drive the classic dom/dow OR rule.
    dom_star: bool
    dow_star: bool

    @classmethod
    def parse(cls, spec: str) -> "CronSchedule":
        """Parse ``"m h dom mon dow"`` into a schedule.

        Raises:
            ValidationError: malformed spec, out-of-range values, or a
                spec with no satisfiable time (e.g. ``0 0 31 2 *``).
        """
        fields = spec.split()
        if len(fields) != 5:
            raise ValidationError(
                f"cron spec needs 5 fields (m h dom mon dow), got {len(fields)}: "
                f"{spec!r}"
            )
        parsed = [
            _parse_field(text, name, lo, hi)
            for text, (name, lo, hi) in zip(fields, _FIELDS)
        ]
        schedule = cls(
            spec=spec,
            minutes=parsed[0][0],
            hours=parsed[1][0],
            days=parsed[2][0],
            months=parsed[3][0],
            weekdays=parsed[4][0],
            dom_star=parsed[2][1],
            dow_star=parsed[4][1],
        )
        # Fail unsatisfiable specs at parse time, not in the daemon loop.
        schedule.next_after(time.time())
        return schedule

    def __str__(self) -> str:
        return self.spec

    def _day_matches(self, lt: time.struct_time) -> bool:
        dom_ok = lt.tm_mday in self.days
        # struct_time counts Monday=0; cron counts Sunday=0.
        dow_ok = (lt.tm_wday + 1) % 7 in self.weekdays
        if self.dom_star and self.dow_star:
            return True
        if self.dom_star:
            return dow_ok
        if self.dow_star:
            return dom_ok
        return dom_ok or dow_ok  # both restricted: Vixie cron ORs them

    def matches(self, ts: float) -> bool:
        """Whether local time ``ts`` falls on the schedule (minute granularity)."""
        lt = time.localtime(ts)
        return (
            lt.tm_min in self.minutes
            and lt.tm_hour in self.hours
            and lt.tm_mon in self.months
            and self._day_matches(lt)
        )

    def next_after(self, ts: float) -> float:
        """The first scheduled time strictly after ``ts`` (epoch seconds).

        Walks forward by skipping whole non-matching months, days and
        hours (via ``mktime`` field normalisation), so far-future matches
        like "Feb 29" resolve in a few hundred steps rather than
        minute-by-minute.
        """
        # Start at the next whole minute boundary after ts.
        t = (int(ts) // 60 + 1) * 60
        horizon = t + _MAX_SEARCH_SECONDS
        while t <= horizon:
            lt = time.localtime(t)
            if lt.tm_mon not in self.months:
                # First minute of the next month.
                t = time.mktime((lt.tm_year, lt.tm_mon + 1, 1, 0, 0, 0, 0, 0, -1))
                continue
            if not self._day_matches(lt):
                t = time.mktime(
                    (lt.tm_year, lt.tm_mon, lt.tm_mday + 1, 0, 0, 0, 0, 0, -1)
                )
                continue
            if lt.tm_hour not in self.hours:
                t = time.mktime(
                    (lt.tm_year, lt.tm_mon, lt.tm_mday, lt.tm_hour + 1, 0, 0, 0, 0, -1)
                )
                continue
            if lt.tm_min not in self.minutes:
                t += 60
                continue
            return float(t)
        raise ValidationError(
            f"cron spec {self.spec!r} has no matching time within 8 years"
        )


def as_schedule(spec) -> "CronSchedule | object | None":
    """Normalise a daemon ``schedule`` argument.

    ``None`` passes through (fixed-interval cadence), strings are parsed
    as crontab specs, and any object already exposing ``next_after`` is
    accepted as-is (duck-typed — tests use fast fakes).
    """
    if spec is None:
        return None
    if isinstance(spec, str):
        return CronSchedule.parse(spec)
    if hasattr(spec, "next_after"):
        return spec
    raise ValidationError(
        "schedule must be a crontab string, an object with next_after(), or None"
    )
