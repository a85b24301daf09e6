"""The shared retry policy: backoff, jitter, deadlines, classification.

Every networked loop waits under it — the service client's polls, the
pull worker's lease and completion loops, worker registration — so they
all back off and classify failures the same way.  :class:`RetryPolicy`
provides:

* **exponential backoff with jitter** — delays start at ``initial`` and
  multiply up to ``max_delay``; a ``jitter`` fraction decorrelates a
  fleet of retriers so they stop hammering a recovering coordinator in
  lock-step;
* **one total deadline** — a policy with ``deadline`` set hands out
  delays only until the budget is spent (and never sleeps past it), so
  callers get a single overall bound instead of per-attempt timeouts
  compounding unpredictably;
* **retryable-error classification** — :func:`retryable_fault` is the
  shared answer to "is this failure worth retrying?": transport faults
  (connection refused/reset, timeouts, truncated reads) and HTTP 5xx
  are transient, HTTP 4xx is a real answer from a live server and is
  not.  Protocol-level :class:`~repro.errors.RemoteError` is *optionally*
  transient (:func:`retryable_exchange`): a corrupted or truncated
  response usually means the network mangled the exchange, which is
  exactly what the chaos proxy injects.

Two consumption styles.  :meth:`RetryPolicy.call` wraps one idempotent
callable and retries it to the deadline.  :meth:`RetryPolicy.backoff`
returns a stateful :class:`Backoff` for loops that interleave retrying
with other work (poll loops, lease loops); ``reset()`` snaps the delay
back to ``initial`` when progress is observed, so idle polls decay but
active work stays responsive.
"""

from __future__ import annotations

import dataclasses
import http.client
import random
import time
import urllib.error
from typing import Callable

from repro.errors import RemoteError

#: Exception types raised by the stdlib HTTP stack for transport-level
#: faults (connection refused/reset, timeouts, truncated reads).
#: ``urllib.error.URLError``/``HTTPError`` are ``OSError`` subclasses.
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)

#: HTTP status codes below 500 that still indicate a transient
#: condition worth retrying (request timeout, too many requests).
_TRANSIENT_4XX = frozenset({408, 429})


def retryable_fault(exc: BaseException) -> bool:
    """Whether ``exc`` is a transient transport fault.

    HTTP errors are split by status: 5xx (and 408/429) come from an
    overloaded or restarting server and are retryable; other 4xx are a
    live server's deliberate answer (bad request, unknown job) and
    retrying them verbatim can never succeed.
    """
    if isinstance(exc, urllib.error.HTTPError):
        return exc.code >= 500 or exc.code in _TRANSIENT_4XX
    return isinstance(exc, TRANSPORT_ERRORS)


def retryable_exchange(exc: BaseException) -> bool:
    """Like :func:`retryable_fault`, but treats protocol-level
    :class:`RemoteError` as transient too.

    Use for *reads* (polling status, downloading results, leasing):
    an undecodable or truncated response usually means the bytes were
    mangled in flight, and re-asking is safe.  Do **not** use for
    non-idempotent writes where a mangled *response* may hide a request
    that actually landed.
    """
    return retryable_fault(exc) or isinstance(exc, RemoteError)


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff + jitter + total deadline + classification.

    Attributes:
        initial: first delay in seconds.
        multiplier: growth factor between consecutive delays.
        max_delay: cap on any single delay.
        deadline: optional total budget in seconds; ``None`` retries
            forever.  The budget starts when a :class:`Backoff` is
            created (or :meth:`call` invoked), and the final sleep is
            clipped so it never overshoots.
        jitter: fractional jitter; each delay is scaled by a uniform
            factor in ``[1 - jitter, 1 + jitter]``.
        retryable: the error classifier consulted by :meth:`call`.
    """

    initial: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    deadline: float | None = None
    jitter: float = 0.1
    retryable: Callable[[BaseException], bool] = retryable_fault

    def __post_init__(self) -> None:
        if self.initial <= 0:
            raise ValueError("retry initial delay must be positive")
        if self.multiplier < 1.0:
            raise ValueError("retry multiplier must be >= 1")
        if self.max_delay < self.initial:
            raise ValueError("retry max_delay must be >= initial")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("retry deadline must be positive")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("retry jitter must be in [0, 1)")

    def with_deadline(self, deadline: float | None) -> "RetryPolicy":
        """This policy with a different total budget."""
        return dataclasses.replace(self, deadline=deadline)

    def backoff(
        self,
        *,
        rng: random.Random | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep_fn: Callable[[float], object] = time.sleep,
    ) -> "Backoff":
        """A fresh stateful delay sequence under this policy."""
        return Backoff(self, rng=rng, clock=clock, sleep_fn=sleep_fn)

    def call(
        self,
        fn: Callable[[], object],
        *,
        description: str = "request",
        sleep: Callable[[float], object] = time.sleep,
    ):
        """Invoke ``fn`` until it succeeds, the error stops being
        retryable, or the deadline runs out.

        ``fn`` must be safe to re-invoke (idempotent, or the caller has
        decided a duplicate is harmless).  Past the deadline the last
        failure is re-raised wrapped in a :class:`RemoteError` naming
        the budget, so callers see *why* retrying stopped.
        """
        backoff = self.backoff()
        while True:
            try:
                return fn()
            except Exception as exc:
                if not self.retryable(exc):
                    raise
                delay = backoff.next_delay()
                if delay is None:
                    raise RemoteError(
                        f"{description} still failing after "
                        f"{self.deadline:g}s of retries: {exc}"
                    ) from exc
                sleep(delay)


class Backoff:
    """One in-progress retry sequence under a :class:`RetryPolicy`.

    ``next_delay()`` returns the next sleep (jittered, deadline-clipped)
    or ``None`` once the policy's deadline has passed.  ``reset()``
    snaps the delay back to ``initial`` — call it when the loop makes
    progress, so only *consecutive* idle rounds decay.
    """

    def __init__(
        self,
        policy: RetryPolicy,
        *,
        rng: random.Random | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep_fn: Callable[[float], object] = time.sleep,
    ) -> None:
        self.policy = policy
        self._clock = clock
        self._sleep = sleep_fn
        self._rng = rng if rng is not None else random.Random()
        self._delay = policy.initial
        self._deadline = (
            None
            if policy.deadline is None
            else clock() + policy.deadline
        )

    def reset(self) -> None:
        """Snap back to the initial delay (progress was observed)."""
        self._delay = self.policy.initial

    def next_delay(self) -> float | None:
        """The next sleep in seconds, or ``None`` past the deadline."""
        now = self._clock()
        if self._deadline is not None and now >= self._deadline:
            return None
        delay = self._delay
        self._delay = min(
            delay * self.policy.multiplier, self.policy.max_delay
        )
        if self.policy.jitter:
            delay *= 1.0 + self._rng.uniform(
                -self.policy.jitter, self.policy.jitter
            )
        if self._deadline is not None:
            delay = min(delay, self._deadline - now)
        return max(delay, 0.0)

    def sleep(self, fallback: float | None = None) -> bool:
        """Sleep for the next backoff delay; the one sanctioned way for
        a retry loop to wait.

        Returns ``True`` after sleeping, ``False`` when the deadline has
        passed and ``fallback`` is ``None`` — the loop should stop and
        surface its last error.  With ``fallback`` set, a spent (or
        unbounded-poll) deadline sleeps ``fallback`` seconds instead of
        giving up, which is what poll loops with their own exit
        condition want.  The actual sleeping goes through the
        constructor's injectable ``sleep_fn`` so tests can capture the
        schedule without waiting it out.
        """
        delay = self.next_delay()
        if delay is None:
            if fallback is None:
                return False
            delay = fallback
        self._sleep(delay)
        return True


#: Default policy for request retries (submit, register, complete):
#: quick first retry, 2 s cap, no deadline (callers add one).
REQUEST_POLICY = RetryPolicy()
