"""Retry policies for the resilient sweep executor.

A :class:`RetryPolicy` describes how many times a grid cell may be
attempted and how long to back off between attempts (capped
exponential).  Backoff is deterministic, so fault-injection tests replay
identically.  What happens once the attempts run out is
:mod:`repro.runtime.policy`'s decision.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for failed or hung grid cells.

    Parameters
    ----------
    max_attempts:
        Total attempts per cell in worker processes (first try included)
        before the supervisor degrades the cell to serial in-process
        execution.  Must be at least 1.
    base_delay:
        Backoff before the second attempt, in seconds.
    backoff:
        Multiplier applied for each further attempt.
    max_delay:
        Ceiling on any single backoff delay, in seconds.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    backoff: float = 2.0
    max_delay: float = 2.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigError("backoff delays must be non-negative")
        if self.backoff < 1.0:
            raise ConfigError(f"backoff factor must be >= 1, got {self.backoff}")

    def delay(self, attempt: int) -> float:
        """Backoff before retrying after ``attempt`` failures (1-based).

        ``delay(1)`` is the pause after the first failure; successive
        failures grow the delay by :attr:`backoff`, capped at
        :attr:`max_delay`.
        """
        if attempt < 1:
            return 0.0
        return min(self.max_delay,
                   self.base_delay * self.backoff ** (attempt - 1))

    def sleep(self, attempt: int) -> None:
        """Back off before the next attempt, honouring shutdown requests.

        A graceful-shutdown request arriving mid-backoff raises
        :class:`~repro.errors.SweepInterrupted` immediately instead of
        letting a capped 2 s delay eat into the < 5 s exit budget.
        """
        from .signals import interruptible_sleep
        interruptible_sleep(self.delay(attempt))

    @classmethod
    def from_retries(cls, retries: int, **kwargs) -> "RetryPolicy":
        """Policy allowing ``retries`` retries after the first attempt."""
        return cls(max_attempts=retries + 1, **kwargs)


#: Policy used when the caller does not supply one.
DEFAULT_RETRY_POLICY = RetryPolicy()
