"""The chaos property: faults never corrupt, duplicate, or lose data.

Hypothesis draws a fault schedule (resets, truncation, delays, partial
reads -- at arbitrary byte offsets, in either direction, on the first
few connections) and the whole stack runs through it end to end: a real
:class:`ServerThread` with durability on, the :class:`ChaosProxy` in
front, and the resilient :class:`QuantileClient` retrying through the
carnage.  The property, per the PR's acceptance bar:

* every acknowledged ingest is applied **exactly once** -- the final
  element counts equal the sum of the batches, never more (no
  double-apply from a retry) and never less (no silent drop);
* after a subsequent *non-graceful* crash and restart, the recovered
  state is **byte-identical** (serialized summary bytes) to a fault-free
  :class:`SketchRegistry` fed the same batches in the same order;
* the client either succeeds or raises a typed service error -- with a
  schedule that goes transparent after the first few connections and a
  generous retry budget, it must in fact succeed.

Like the recovery property this leans on batched-apply bit-identity
(PR 2), so it runs across all three collapse policies with the fast
kernels on and off.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.service import (
    ChaosProxy,
    FaultEvent,
    FaultSchedule,
    QuantileClient,
    ServerThread,
)
from repro.service.protocol import MetricConfig
from repro.service.registry import SketchRegistry

POLICIES = ["new", "munro-paterson", "alsabti-ranka-singh"]
PHIS = [0.05, 0.25, 0.5, 0.75, 0.95]
_RUN_COUNTER = itertools.count()

#: connections that may carry faults; everything after is transparent,
#: so a client with max_retries above this bound must converge
MAX_FAULTED_CONNECTIONS = 4


@pytest.fixture(params=[True, False], ids=["kernels-on", "kernels-off"])
def kernels_mode(request):
    previous = kernels.is_enabled()
    kernels.set_enabled(request.param)
    try:
        yield request.param
    finally:
        kernels.set_enabled(previous)


def _metrics(policy):
    return [
        ("svc/fixed", dict(kind="fixed", epsilon=0.03, n=20_000,
                           policy=policy)),
        ("svc/adaptive", dict(kind="adaptive", epsilon=0.03,
                              policy=policy)),
    ]


def _make_batches(seed, n_batches):
    rng = np.random.default_rng(seed)
    names = ["svc/fixed", "svc/adaptive"]
    return [
        (names[i % 2], rng.normal(size=int(rng.integers(50, 400))))
        for i in range(n_batches)
    ]


def _reference(policy, batches):
    """The fault-free run: same creates and batches, no transport at all."""
    registry = SketchRegistry(n_shards=2)
    for name, config in _metrics(policy):
        registry.create(name, MetricConfig(**config))
    for name, values in batches:
        registry.ingest(name, values)
    return registry


def assert_state_bit_identical(registry, reference):
    registry.apply_all()
    reference.apply_all()
    assert registry.names() == reference.names()
    for name in reference.names():
        # serialized summary bytes: positions, values and the
        # certified-bound inputs -- the strongest equality the
        # exchange format can express
        assert (
            registry.fetch_serialized(name)
            == reference.fetch_serialized(name)
        ), f"{name}: serialized summary diverged from fault-free run"
        v_reg, bound_reg, n_reg = registry.quantiles(name, PHIS)
        v_ref, bound_ref, n_ref = reference.quantiles(name, PHIS)
        assert v_reg == v_ref
        assert bound_reg == bound_ref
        assert n_reg == n_ref


# one fault event at a hypothesis-chosen offset/direction; stalls are
# excluded (they exercise deadlines, covered in test_faults) and delays
# stay small so examples run fast
_EVENTS = st.builds(
    FaultEvent,
    kind=st.sampled_from(["reset", "truncate", "delay", "partial"]),
    direction=st.sampled_from(["c2s", "s2c"]),
    after_bytes=st.integers(0, 3000),
    delay_s=st.floats(0.0, 0.02),
    chop=st.sampled_from([1, 3, 7]),
)

_PLANS = st.lists(
    st.lists(_EVENTS, max_size=2),
    max_size=MAX_FAULTED_CONNECTIONS,
)


@pytest.mark.parametrize("policy", POLICIES)
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    plans=_PLANS,
    seed=st.integers(0, 2**16),
    # 0 = every ingest written eagerly; 24 KiB = the client defers and
    # ships coalesced sendmsg bursts, so a mid-burst fault forces a
    # whole-window resend and the server sees retried tokens *inside*
    # coalesced chunks -- the dedup property must hold there too
    coalesce=st.sampled_from([0, 24 * 1024]),
)
def test_chaos_state_bit_identical(
    tmp_path, policy, kernels_mode, plans, seed, coalesce
):
    batches = _make_batches(seed, n_batches=10)
    run_dir = tmp_path / f"run-{next(_RUN_COUNTER)}"
    run_dir.mkdir()
    data_dir = str(run_dir / "data")

    with ServerThread(
        data_dir=data_dir, n_shards=2, snapshot_interval_s=None,
    ) as srv:
        with ChaosProxy(
            "127.0.0.1", srv.port, schedule=FaultSchedule(plans)
        ) as proxy:
            # the schedule is transparent past MAX_FAULTED_CONNECTIONS,
            # so with a retry budget above it every call must succeed --
            # a typed error here is a genuine resilience failure
            with QuantileClient(
                "127.0.0.1", proxy.port,
                timeout=30.0,
                max_retries=MAX_FAULTED_CONNECTIONS + 4,
                backoff_base=0.005,
                retry_seed=0,
                send_coalesce_bytes=coalesce,
            ) as client:
                for name, config in _metrics(policy):
                    eps = config.pop("epsilon")
                    client.create(name, eps=eps, **config)
                # pipelined: acks are collected by the final drain, so
                # a fault can hit a burst of in-flight ingests and the
                # resend machinery (not one lockstep request) recovers
                for name, values in batches:
                    client.ingest_nowait(name, values)
                client.drain()  # apply everything queued server-side
        # the faults are done; crash without the final snapshot
        srv.stop(graceful=False)

    reference = _reference(policy, batches)

    # exactly-once, pre-restart evidence: recovery replays the journal
    with ServerThread(
        data_dir=data_dir, n_shards=2, snapshot_interval_s=None,
    ) as srv2:
        recovered = srv2.service.registry
        assert_state_bit_identical(recovered, reference)
        # element counts: every batch exactly once (dedup proof)
        assert recovered.total_elements == sum(
            v.size for _, v in batches
        )
        srv2.stop(graceful=False)
