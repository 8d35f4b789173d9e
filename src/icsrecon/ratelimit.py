"""Global token-bucket rate limiter shared by all scan workers."""

from __future__ import annotations

import threading
import time


class TokenBucket:
    """Blocks callers until a send token is available.

    Capacity is deliberately small (one token of burst) so the emitted
    packet rate stays at the configured packets-per-second budget even
    over short windows; fragile device stacks are the reason.
    """

    def __init__(self, rate_per_second: float, burst: float = 1.0, clock=time.monotonic, sleep=time.sleep):
        if rate_per_second <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate_per_second)
        self.capacity = max(1.0, float(burst))
        self._tokens = self.capacity
        self._clock = clock
        self._sleep = sleep
        self._last = clock()
        self._lock = threading.Lock()
        self.granted = 0

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(self.capacity, self._tokens + (now - self._last) * self.rate)
        self._last = now

    def acquire(self) -> None:
        """Take one token, sleeping as long as needed."""
        while True:
            with self._lock:
                self._refill()
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    self.granted += 1
                    return
                wait = (1.0 - self._tokens) / self.rate
            self._sleep(wait)
