"""The packed dedup window behaves exactly like a dict + deque.

:class:`~repro.service.registry.DedupWindow` keeps its tokens in typed
arrays: a FIFO ring, an open-addressing index, a response-shape code
and a side dict for everything else.  This property drives it and a
straightforward reference -- the dict + deque layout it replaced,
copied below -- through the same random sequence of ``record`` /
``get`` / ``in`` operations and requires identical observable
behaviour after every step: the same responses (field order and value
types included, a fresh dict on every ``get``), the same membership,
length and hit count.

Capacities run from 1 to 64 -- a ring that is full from the start, so
re-records compact it -- plus one larger than the initial ring, so the
ring and its index grow.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.registry import _FIBONACCI, DedupWindow

from . import test_snapshot


class _ReferenceWindow:
    """FIFO token -> response map: a dict beside a deque of tokens."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: Dict[int, tuple] = {}
        self._order: Deque[int] = deque()
        self.hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, token: int) -> bool:
        return token in self._entries

    def get(self, token: int) -> Optional[object]:
        hit = self._entries.get(token)
        if hit is None:
            return None
        self.hits += 1
        keys = hit[0]
        if keys is None:
            return hit[1]
        return dict(zip(keys, hit[1:]))

    def record(self, token: int, response: object) -> None:
        if token == 0:
            return
        if type(response) is dict:
            stored: Tuple = (tuple(response), *response.values())
        else:
            stored = (None, response)
        if token in self._entries:
            self._order.remove(token)
        self._entries[token] = stored
        self._order.append(token)
        while len(self._entries) > self.capacity:
            del self._entries[self._order.popleft()]


#: larger than the window's initial ring, so it grows (twice)
GROWING_CAPACITY = 200

_FIELD_NAMES = [
    ("seq", "count"),
    ("count", "seq"),  # known names, unknown order
    ("created",),
    ("added",),
    ("removed",),
    ("replaced", "seq"),
    ("seq", "path"),
    ("other",),
]

_ints = st.one_of(
    st.integers(-1000, 1 << 20),
    st.sampled_from(
        [0, -1, (1 << 63) - 1, 1 << 63, -(1 << 63), -(1 << 63) - 1, 1 << 64]
    ),
    st.integers(-(1 << 70), 1 << 70),
)
_field_values = st.one_of(_ints, st.booleans(), st.text(max_size=4))
_dict_responses = st.sampled_from(_FIELD_NAMES).flatmap(
    lambda names: st.tuples(*[_field_values] * len(names)).map(
        lambda values: dict(zip(names, values))
    )
)
_responses = st.one_of(
    st.sampled_from(test_snapshot.TestDedupWindowShapes.SHAPES),
    _dict_responses,
    st.text(max_size=6),
)
#: tokens whose hashes share four home positions in every index size,
#: so probe runs are long and evictions shift entries back along them
_COLLIDING = [
    ((home << 58) | low) * pow(_FIBONACCI, -1, 1 << 64) % (1 << 64)
    for home in range(4)
    for low in range(1, 16)
]
_tokens = st.one_of(
    st.integers(0, 300),  # small pool: hits and re-records of live tokens
    st.sampled_from(_COLLIDING),
    st.sampled_from([0, 1, (1 << 64) - 1, (0x5EED5EED << 32) | 7]),
    st.integers(1, (1 << 64) - 1),
)
_ops = st.tuples(st.sampled_from(["record", "get", "in"]), _tokens, _responses)


def _assert_same_response(got: object, want: object) -> None:
    assert got == want
    if type(want) is dict:
        assert type(got) is dict
        assert list(got) == list(want)
        assert [type(v) for v in got.values()] == [
            type(v) for v in want.values()
        ]


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.one_of(st.integers(1, 64), st.just(GROWING_CAPACITY)),
    prefill=st.integers(0, GROWING_CAPACITY + 60),
    steps=st.lists(_ops, max_size=400),
)
def test_window_matches_dict_and_deque(capacity, prefill, steps):
    window = DedupWindow(capacity)
    reference = _ReferenceWindow(capacity)
    # tokens 1..prefill, which the random steps then hit and re-record;
    # past 64 of them the ring grows
    for token in range(1, prefill + 1):
        window.record(token, {"seq": token, "count": 64})
        reference.record(token, {"seq": token, "count": 64})
    seen = set(range(1, prefill + 1))
    for op, token, response in steps:
        if op == "record":
            window.record(token, response)
            reference.record(token, response)
            seen.add(token)
        elif op == "get":
            got, want = window.get(token), reference.get(token)
            _assert_same_response(got, want)
            if type(got) is dict:
                # a fresh dict every time: mutating it changes nothing
                got["mutated"] = True
                again, want = window.get(token), reference.get(token)
                _assert_same_response(again, want)
        else:
            assert (token in window) == (token in reference)
        assert len(window) == len(reference)
        assert window.hits == reference.hits
    assert len(window) <= capacity
    for token in seen:
        assert (token in window) == (token in reference)
        _assert_same_response(window.get(token), reference.get(token))


def test_window_grows_past_its_initial_ring():
    window = DedupWindow(GROWING_CAPACITY)
    empty = window.nbytes
    for token in range(1, GROWING_CAPACITY + 51):
        window.record(token, {"seq": token, "count": 1})
    assert window.nbytes > empty
    assert len(window) == GROWING_CAPACITY
    assert 50 not in window and 51 in window
    assert window.get(GROWING_CAPACITY + 50) == {
        "seq": GROWING_CAPACITY + 50, "count": 1,
    }


def test_tokens_outside_u64_are_refused():
    window = DedupWindow(4)
    for token in (-1, 1 << 64):
        with pytest.raises(ValueError):
            window.record(token, {"created": True})
        assert token not in window
    assert len(window) == 0
