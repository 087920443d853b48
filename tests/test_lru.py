"""Tests for ``BoundedLRU``, the storage of every in-memory table."""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lru import BoundedLRU


class TestBoundedLRU:
    def test_entry_bound_evicts_least_recently_used_first(self):
        table = BoundedLRU(2)
        assert table.put("a", 1) == (1, 1, 0)
        assert table.put("b", 2) == (1, 1, 0)
        assert table.get("a") == 1  # "b" is now least recently used
        assert table.put("c", 3) == (0, 0, 1)
        assert table.get("b") is None
        assert table.keys() == ["a", "c"] and len(table) == 2

    def test_weight_bound_evicts_until_it_holds(self):
        table = BoundedLRU(10, max_weight=10)
        table.put("a", "aaaa", 4)
        table.put("b", "bbbb", 4)
        table.get("a")
        assert table.put("c", "cccccc", 6) == (0, 2, 1)  # 14 > 10: "b" goes
        assert table.keys() == ["a", "c"]
        assert table.put("d", "ddddddd", 7) == (-1, -3, 2)  # 17, then 13 > 10
        assert table.keys() == ["d"]

    def test_oversized_value_is_refused_and_evicts_nothing(self):
        table = BoundedLRU(4, max_weight=10)
        table.put("a", "aaaa", 4)
        assert table.put("huge", "x" * 11, 11) == (0, 0, 0)
        assert table.get("huge") is None and table.keys() == ["a"]
        # Without a weight bound any weight is kept.
        assert BoundedLRU(4).put("huge", "x", 10**9) == (1, 10**9, 0)

    def test_replacing_a_key_accounts_for_the_value_it_displaces(self):
        table = BoundedLRU(2, max_weight=10)
        table.put("a", "aaaa", 4)
        table.put("b", "bb", 2)
        assert table.put("a", "aaaaaa", 6) == (0, 2, 0)
        assert table.keys() == ["b", "a"]  # the replacement is most recent
        assert table.put("a", "a", 1) == (0, -5, 0)
        table.clear()
        assert len(table) == 0 and table.put("c", "c", 10) == (1, 10, 0)

    def test_a_rejected_value_is_a_miss_and_is_not_promoted(self):
        table = BoundedLRU(2)
        table.put("a", 1)
        table.put("b", 2)
        assert table.get("a", accept=lambda value: value > 1) is None
        assert table.keys() == ["a", "b"]
        assert table.get("a", accept=lambda value: value == 1) == 1
        assert table.keys() == ["b", "a"]

    def test_the_entry_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            BoundedLRU(0)

    def test_concurrent_puts_keep_the_accounting_exact(self):
        """Owners' gauges are sums of put() deltas: none may be lost."""
        table = BoundedLRU(5, max_weight=40)
        totals = [[0, 0, 0] for _ in range(8)]

        def work(index: int) -> None:
            for step in range(300):
                key = f"k{(index * 7 + step) % 11}"
                size = 1 + (index + step) % 12
                delta = table.put(key, b"x" * size, size)
                totals[index] = [a + b for a, b in zip(totals[index], delta)]
                table.get(f"k{step % 11}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(20)
                assert not thread.is_alive(), "timed out"
        finally:
            sys.setswitchinterval(interval)
        entries, size, _ = (sum(column) for column in zip(*totals))
        retained = [table.get(f"k{i}") for i in range(11)]
        assert entries == len(table) == sum(body is not None for body in retained) <= 5
        assert size == sum(len(body) for body in retained if body) <= 40


_ops = st.lists(
    st.tuples(
        st.sampled_from(["get", "put"]),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=9),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(
    ops=_ops,
    max_entries=st.integers(min_value=1, max_value=5),
    max_weight=st.one_of(st.none(), st.integers(min_value=0, max_value=15)),
)
def test_matches_a_plain_list_model(ops, max_entries, max_weight):
    """Every answer, delta and ordering equals a list of ``[key, value,
    weight]`` kept least recently used first."""
    table = BoundedLRU(max_entries, max_weight)
    model = []
    for step, (op, key, weight) in enumerate(ops):
        index = next((i for i, entry in enumerate(model) if entry[0] == key), None)
        if op == "get":
            expected = None if index is None else model[index][1]
            if index is not None:
                model.append(model.pop(index))
            assert table.get(key) == expected
            continue
        if max_weight is not None and weight > max_weight:
            expected = (0, 0, 0)
        else:
            before = (len(model), sum(entry[2] for entry in model))
            if index is not None:
                model.pop(index)
            model.append([key, step, weight])
            evictions = 0
            while len(model) > max_entries or (
                max_weight is not None and sum(entry[2] for entry in model) > max_weight
            ):
                model.pop(0)
                evictions += 1
            expected = (
                len(model) - before[0],
                sum(entry[2] for entry in model) - before[1],
                evictions,
            )
        assert table.put(key, step, weight) == expected
        assert table.keys() == [entry[0] for entry in model]
