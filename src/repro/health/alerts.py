"""Health alerts: structured records, policy, and the collecting monitor.

Model health can degenerate silently — NaN gradients propagate zeros,
update ratios explode, the negative sampler saturates, PPR residual mass
drifts — and an aggregate loss curve hides all of it.  This module
defines the vocabulary every health check speaks:

* :class:`HealthAlert` — one structured finding (check name, severity,
  measured value, threshold, free-form context), serializable as a
  JSONL record with ``"record": "alert"`` so it flows through the
  existing :func:`repro.telemetry.write_jsonl` sink unchanged;
* :class:`HealthConfig` — thresholds plus the warn/raise **policy**:
  ``"warn"`` (default) surfaces alerts as :class:`RuntimeWarning`,
  ``"raise"`` escalates ``fatal``-severity alerts to
  :class:`HealthError` so CI and long unattended runs fail fast;
* :class:`HealthMonitor` — the collector: every alert bumps the
  ``health.alerts`` counter, emits a flight-recorder instant event, and
  is retained for the JSONL dump.

The monitor also accumulates per-epoch :class:`EpochHealth` records
(grad norms, update ratios, loss statistics per parameter group) —
written by :class:`repro.health.HealthHook` — so a health dump reads as
a timeline, not just a verdict.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .. import telemetry

__all__ = ["HealthAlert", "HealthConfig", "HealthError", "HealthMonitor",
           "EpochHealth", "POLICIES"]

POLICIES = ("warn", "raise")


class HealthError(RuntimeError):
    """Raised for ``fatal`` alerts under the ``"raise"`` policy."""

    def __init__(self, alert: "HealthAlert"):
        super().__init__(f"[{alert.check}] {alert.message}")
        self.alert = alert

    def __reduce__(self):
        # rebuild from the alert, so the error survives the trip back
        # from a worker process
        return HealthError, (self.alert,)


@dataclass
class HealthAlert:
    """One structured health finding."""

    check: str                    # e.g. "non_finite_loss", "grad_norm"
    severity: str                 # "warn" | "fatal"
    message: str
    value: float = 0.0            # the measured quantity
    threshold: float = 0.0        # the limit it violated
    context: Dict[str, Any] = field(default_factory=dict)

    def to_record(self) -> Dict[str, Any]:
        """JSONL record (``"record": "alert"``) for the health dump."""
        value = float(self.value)
        return {
            "record": "alert", "check": self.check,
            "severity": self.severity, "message": self.message,
            "value": value if math.isfinite(value) else repr(value),
            "threshold": float(self.threshold),
            "context": dict(self.context),
        }


@dataclass
class EpochHealth:
    """Per-epoch model-health statistics (one JSONL record each).

    ``grad_norm`` / ``update_ratio`` map parameter-group name to the
    epoch's mean L2 gradient norm and the end-of-epoch relative weight
    change ``||W_end - W_start|| / ||W_start||``.
    """

    epoch: int
    loss: float
    grad_norm: Dict[str, float] = field(default_factory=dict)
    update_ratio: Dict[str, float] = field(default_factory=dict)
    batches: int = 0
    alerts: int = 0

    def to_record(self) -> Dict[str, Any]:
        return {
            "record": "health", "epoch": int(self.epoch),
            "loss": float(self.loss),
            "grad_norm": {k: float(v) for k, v in self.grad_norm.items()},
            "update_ratio": {k: float(v)
                             for k, v in self.update_ratio.items()},
            "batches": int(self.batches), "alerts": int(self.alerts),
        }


@dataclass(frozen=True)
class HealthConfig:
    """Thresholds and escalation policy for every health check."""

    #: ``"warn"`` emits RuntimeWarnings; ``"raise"`` raises
    #: :class:`HealthError` on ``fatal`` alerts (warn-severity alerts
    #: still only warn).
    policy: str = "warn"
    #: per-group L2 gradient norm above this is an exploding-gradient
    #: alert (warn severity)
    grad_norm_max: float = 1e3
    #: per-group relative weight change per epoch above this is an
    #: unstable-update alert (warn severity)
    update_ratio_max: float = 0.5
    #: EWMA smoothing factor for the loss-spike detector
    loss_ewma_beta: float = 0.9
    #: a batch loss above ``ratio * ewma`` (after warmup) is a spike
    loss_spike_ratio: float = 3.0
    #: batches observed before the spike detector arms
    loss_spike_warmup: int = 8
    #: PPR residual mass *per user* above this is a drift alert — the
    #: forward-push invariant bounds per-user score underestimation by
    #: the residual, so drift here silently corrupts the pruner's input
    ppr_residual_per_user_max: float = 0.05
    #: sampler-exhaustion events above this count trigger an alert
    sampler_exhausted_max: int = 0

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown health policy {self.policy!r}; "
                             f"choose from {POLICIES}")


class HealthMonitor:
    """Collects alerts and epoch records; applies the escalation policy.

    One monitor instance accompanies one training/eval run.  Thread-odd
    usage is not expected (the engine drives it from one thread), so no
    locking.
    """

    def __init__(self, config: Optional[HealthConfig] = None):
        self.config = config or HealthConfig()
        self.alerts: List[HealthAlert] = []
        self.epochs: List[EpochHealth] = []

    # ------------------------------------------------------------------
    def alert(self, check: str, message: str, value: float = 0.0,
              threshold: float = 0.0, severity: str = "warn",
              **context: Any) -> HealthAlert:
        """Record one alert; warn or raise according to the policy.

        Always: retained for :meth:`records`, counted under
        ``health.alerts`` (plus ``health.alerts.<check>``), and emitted
        as a flight-recorder instant event so traces show *when* the
        model went unhealthy.
        """
        alert = HealthAlert(check=check, severity=severity, message=message,
                            value=value, threshold=threshold,
                            context=dict(context))
        self.alerts.append(alert)
        telemetry.counter("health.alerts")
        telemetry.counter(f"health.alerts.{check}")
        telemetry.instant("health.alert",
                          {"check": check, "severity": severity,
                           "message": message})
        if severity == "fatal" and self.config.policy == "raise":
            raise HealthError(alert)
        warnings.warn(f"health[{check}]: {message}", RuntimeWarning,
                      stacklevel=3)
        return alert

    def record_epoch(self, epoch_health: EpochHealth) -> None:
        self.epochs.append(epoch_health)

    # ------------------------------------------------------------------
    @property
    def alert_count(self) -> int:
        return len(self.alerts)

    def records(self) -> List[Dict[str, Any]]:
        """Epoch-health then alert records, ready for ``write_jsonl``."""
        return ([epoch.to_record() for epoch in self.epochs]
                + [alert.to_record() for alert in self.alerts])
