"""Admission control for the serving front end.

Three independent gates, checked in order at the server door (all of
them *before* any planning or scheduling happens, so a shed request
costs microseconds):

1. **Per-tenant token bucket** — each tenant refills at ``tenant_rate``
   requests/s up to a ``tenant_burst`` cap.  An empty bucket sheds with
   ``QUOTA_EXCEEDED`` so one chatty tenant cannot starve the rest.
2. **Bounded inflight permits** — at most ``max_inflight`` admitted
   requests may be anywhere between admission and reply.  When the
   permits are gone the server sheds with ``OVERLOADED`` instead of
   queueing unboundedly; the client's retry-with-backoff turns that
   into flow control.
3. **Queue-depth backpressure** — even with permits free, a request
   sheds while the service's scheduler backlog exceeds
   ``max_queue_depth``, keeping tail latency bounded when execution
   (not admission) is the bottleneck.

The controller is written for a single-threaded asyncio event loop:
plain counters, no locks.  ``inflight == 0`` is the drain condition —
the protocol tests assert every error path returns its permit.
"""

from __future__ import annotations

import time
from typing import Dict, Optional


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, ``burst`` capacity."""

    def __init__(self, rate: float, burst: float):
        if rate <= 0 or burst <= 0:
            raise ValueError(
                f"rate and burst must be positive, got {rate}/{burst}"
            )
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._stamp: Optional[float] = None

    def take(self, now: Optional[float] = None, n: float = 1.0) -> bool:
        """Consume ``n`` tokens if available; refills lazily."""
        if now is None:
            now = time.monotonic()
        if self._stamp is not None and now > self._stamp:
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamp) * self.rate
            )
        self._stamp = now
        if self._tokens >= n:
            self._tokens -= n
            return True
        return False

    @property
    def tokens(self) -> float:
        return self._tokens


#: Shed-reason codes (the wire error codes of ``docs/serving.md``).
OVERLOADED = "OVERLOADED"
QUOTA_EXCEEDED = "QUOTA_EXCEEDED"


class AdmissionController:
    """Inflight permits + per-tenant quotas + queue-depth shedding.

    Parameters
    ----------
    max_inflight:
        Admitted-but-unreplied request cap (the inflight semaphore).
    tenant_rate / tenant_burst:
        Token-bucket quota applied per tenant; ``None`` disables quotas.
    max_queue_depth:
        Shed when the service's scheduler backlog exceeds this;
        ``None`` disables the gate.
    """

    def __init__(
        self,
        max_inflight: int = 256,
        tenant_rate: Optional[float] = None,
        tenant_burst: Optional[float] = None,
        max_queue_depth: Optional[int] = None,
    ):
        if max_inflight <= 0:
            raise ValueError(
                f"max_inflight must be positive, got {max_inflight}"
            )
        self.max_inflight = max_inflight
        self.tenant_rate = tenant_rate
        self.tenant_burst = (
            tenant_burst
            if tenant_burst is not None
            else (tenant_rate if tenant_rate is not None else None)
        )
        self.max_queue_depth = max_queue_depth
        self._buckets: Dict[str, TokenBucket] = {}
        self._inflight = 0
        #: Totals by shed reason, for the ``serving.*`` counters.
        self.admitted = 0
        self.shed_overloaded = 0
        self.shed_quota = 0

    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def idle(self) -> bool:
        """True when no admitted request is awaiting its reply — the
        graceful-drain condition and the permit-leak test oracle."""
        return self._inflight == 0

    def try_admit(
        self,
        tenant: str,
        queue_depth: int = 0,
        now: Optional[float] = None,
    ) -> Optional[str]:
        """Admit one request or return the shed-reason code.

        On ``None`` (admitted) the caller holds one inflight permit and
        MUST pair it with exactly one :meth:`release`, on every path —
        success, error reply, disconnect, or deadline miss.
        """
        if self.tenant_rate is not None:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = TokenBucket(
                    self.tenant_rate, self.tenant_burst
                )
            if not bucket.take(now):
                self.shed_quota += 1
                return QUOTA_EXCEEDED
        if self._inflight >= self.max_inflight:
            self.shed_overloaded += 1
            return OVERLOADED
        if (
            self.max_queue_depth is not None
            and queue_depth > self.max_queue_depth
        ):
            self.shed_overloaded += 1
            return OVERLOADED
        self._inflight += 1
        self.admitted += 1
        return None

    def release(self) -> None:
        if self._inflight <= 0:
            raise RuntimeError("release() without a matching admit")
        self._inflight -= 1

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "max_inflight": self.max_inflight,
            "inflight": self._inflight,
            "admitted": self.admitted,
            "shed_overloaded": self.shed_overloaded,
            "shed_quota": self.shed_quota,
            "tenant_rate": self.tenant_rate,
            "tenant_burst": self.tenant_burst,
            "max_queue_depth": self.max_queue_depth,
            "tenants": len(self._buckets),
        }
