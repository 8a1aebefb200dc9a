"""Declarative quantile threshold rules with certified severities.

A :class:`WatchRule` says "alert if the phi-quantile of metric M is
above (or below) T".  The service evaluates rules on its scheduler tick
(and on ``ALERTS evaluate=1``) through the registry's inverse query:
``rank(T)`` -- the number of elements ``<= T`` -- together with the
certified Lemma 5 bound.  Because the estimate's rank error is at most
``bound`` elements, the comparison can be *proved*, not just guessed:

* ``op '>'``: the phi-quantile exceeds T exactly when fewer than
  ``phi * n`` elements are ``<= T``.  The rule fires **definite** when
  ``rank(T) + bound < phi * n`` (even the worst-case estimate error
  cannot un-cross the threshold), **possible** when only the estimate
  crosses (``rank(T) < phi * n``).
* ``op '<'``: symmetric -- definite when ``rank(T) - bound >= phi * n``.

Engines without a certified bound (frugal, ``error_bound() == inf``)
can therefore never fire definite, only possible -- the severity encodes
exactly what the engine guarantees.

Rules are service state like metrics are: WATCH/UNWATCH are journaled
(idempotency-token deduped), so a SIGKILL never loses a rule; the alert
counters ride in the snapshot, so they persist up to the last snapshot
(counters are observability, not data -- they are not re-journaled per
evaluation).  Evaluation is deterministic in (ingested data, injected
clock): no wall-clock reads happen here.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import ConfigurationError, EmptySummaryError
from ..obs.metrics import MetricsRegistry

__all__ = ["WatchRule", "RuleState", "RuleSet", "RULE_OPS"]

RULE_OPS = (">", "<")

#: evaluation outcomes that count as the rule *firing*
FIRING_STATES = ("definite", "possible")


class WatchRule:
    """One declarative threshold rule (immutable configuration)."""

    __slots__ = ("rule_id", "metric", "phi", "op", "threshold")

    def __init__(
        self,
        rule_id: str,
        metric: str,
        phi: float,
        op: str,
        threshold: float,
    ) -> None:
        if not rule_id or "\n" in rule_id:
            raise ConfigurationError(f"invalid rule id {rule_id!r}")
        if not metric:
            raise ConfigurationError(f"invalid metric name {metric!r}")
        if not (0.0 < phi < 1.0):
            raise ConfigurationError(
                f"rule phi must be in (0, 1), got {phi}"
            )
        if op not in RULE_OPS:
            raise ConfigurationError(
                f"rule operator must be one of {RULE_OPS}, got {op!r}"
            )
        if not math.isfinite(threshold):
            raise ConfigurationError(
                f"rule threshold must be finite, got {threshold}"
            )
        self.rule_id = rule_id
        self.metric = metric
        self.phi = float(phi)
        self.op = op
        self.threshold = float(threshold)

    def config_tuple(self) -> Tuple[str, float, str, float]:
        return (self.metric, self.phi, self.op, self.threshold)


class RuleState:
    """Mutable evaluation state and counters for one rule."""

    __slots__ = (
        "definite_total",
        "possible_total",
        "last_state",
        "last_value",
        "last_eval_t",
        "last_fire_t",
    )

    def __init__(self) -> None:
        self.definite_total = 0
        self.possible_total = 0
        self.last_state = "pending"
        self.last_value: Optional[float] = None
        self.last_eval_t: Optional[float] = None
        self.last_fire_t: Optional[float] = None


class RuleSet:
    """The server's WATCH rules: registration, evaluation, reporting.

    Evaluations and firings are counted in *metrics* (the server's
    registry; a private one when omitted) as
    ``service.watch_evaluations`` and
    ``service.alerts_total{rule,state}``.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._rules: Dict[str, WatchRule] = {}
        self._states: Dict[str, RuleState] = {}
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self._evaluations = self.metrics.counter("service.watch_evaluations")

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def rules(self) -> List[WatchRule]:
        return [self._rules[k] for k in sorted(self._rules)]

    def state_of(self, rule_id: str) -> RuleState:
        return self._states[rule_id]

    def add(
        self,
        rule_id: str,
        metric: str,
        phi: float,
        op: str,
        threshold: float,
    ) -> bool:
        """Register a rule; CREATE-style idempotent.

        Returns ``True`` when the rule is new, ``False`` when an
        identical rule already exists; a *different* rule under the same
        id raises :class:`ConfigurationError` (UNWATCH first).
        """
        rule = WatchRule(rule_id, metric, phi, op, threshold)
        existing = self._rules.get(rule_id)
        if existing is not None:
            if existing.config_tuple() != rule.config_tuple():
                raise ConfigurationError(
                    f"rule {rule_id!r} already exists with configuration "
                    f"{existing.config_tuple()}, requested "
                    f"{rule.config_tuple()}"
                )
            return False
        self._rules[rule_id] = rule
        self._states[rule_id] = RuleState()
        return True

    def remove(self, rule_id: str) -> bool:
        """Drop a rule; returns whether it existed."""
        if rule_id not in self._rules:
            return False
        del self._rules[rule_id]
        del self._states[rule_id]
        return True

    def restore_counters(
        self, rule_id: str, definite_total: int, possible_total: int
    ) -> None:
        """Re-arm persisted alert counters (snapshot recovery path)."""
        state = self._states[rule_id]
        state.definite_total = definite_total
        state.possible_total = possible_total

    # -- evaluation --------------------------------------------------------

    @staticmethod
    def _classify(
        rule: WatchRule, rank: int, bound: float, n: int
    ) -> str:
        """One rule against one certified inverse-query answer."""
        target = rule.phi * n
        if rule.op == ">":
            if rank >= target:
                return "ok"
            return "definite" if rank + bound < target else "possible"
        if rank < target:
            return "ok"
        return "definite" if rank - bound >= target else "possible"

    def evaluate(
        self, registry: Any, now: float
    ) -> List[Dict[str, Any]]:
        """Evaluate every rule against *registry* at clock time *now*.

        Pending batches are applied first (rules must see what was
        acked).  Per-rule failures -- unknown metric, empty window --
        become states, never exceptions: one broken rule must not take
        the scheduler down.  Returns the full report (same shape as
        :meth:`describe`).
        """
        registry.apply_all()
        for rule in self.rules():
            state = self._states[rule.rule_id]
            state.last_eval_t = now
            try:
                rank, _fraction, bound, n = registry.cdf(
                    rule.metric, rule.threshold
                )
            except EmptySummaryError:
                state.last_state = "no_data"
                state.last_value = None
                continue
            except ConfigurationError:
                state.last_state = "no_metric"
                state.last_value = None
                continue
            except Exception:  # pragma: no cover - defensive
                state.last_state = "error"
                state.last_value = None
                continue
            outcome = self._classify(rule, rank, bound, n)
            state.last_state = outcome
            try:
                (value,), _bound, _n = registry.quantiles(
                    rule.metric, [rule.phi]
                )
                state.last_value = value
            except Exception:  # pragma: no cover - defensive
                state.last_value = None
            if outcome in FIRING_STATES:
                state.last_fire_t = now
                if outcome == "definite":
                    state.definite_total += 1
                else:
                    state.possible_total += 1
                self.metrics.counter(
                    "service.alerts_total",
                    rule=rule.rule_id,
                    state=outcome,
                ).inc()
        self._evaluations.inc()
        return self.describe()

    # -- reporting ---------------------------------------------------------

    def describe(self) -> List[Dict[str, Any]]:
        """One JSON-friendly record per rule, sorted by rule id."""
        out = []
        for rule in self.rules():
            state = self._states[rule.rule_id]
            out.append(
                {
                    "rule_id": rule.rule_id,
                    "metric": rule.metric,
                    "phi": rule.phi,
                    "op": rule.op,
                    "threshold": rule.threshold,
                    "state": state.last_state,
                    "last_value": state.last_value,
                    "last_eval_t": state.last_eval_t,
                    "last_fire_t": state.last_fire_t,
                    "definite_total": state.definite_total,
                    "possible_total": state.possible_total,
                }
            )
        return out

    def alert_totals(self) -> Dict[str, int]:
        return {
            "definite": sum(
                s.definite_total for s in self._states.values()
            ),
            "possible": sum(
                s.possible_total for s in self._states.values()
            ),
        }
