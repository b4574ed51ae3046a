"""Which route the join and grouping kernels take on TPC-H at SF 0.01.

The route properties in ``test_engine_operators.py`` prove every route
exact; this census proves the queries reach the fast ones: a sorted
build side is searched, a few build keys are searched into a sorted
probe side (Q18 at SF 0.05), unsorted composite probes are searched in
key order, a sorted group key is its own runs, keys that depend on the
first one add no groups, and every key reaches the kernels through
``relation.key_values`` — a pending selection of a stored int32 key at
int32, even one an expression read and widened first (Q09's
``l_suppkey``) — on the host and the device path.
"""

from collections import defaultdict

import numpy as np
import pytest

from repro import tpch
from repro.core import AquomanSimulator, DeviceConfig
from repro.core import device, simulator
from repro.core.device import AquomanDevice
from repro.core.simulator import DeviceExecutor
from repro.engine import Engine, executor
from repro.engine.operators import grouping, joins, relational
from repro.engine.relation import SelectedArray
from repro.sqlir.plan import Aggregate, Join


class _Census:
    """Kernel routes and key dtypes, per plan node in execution."""

    def __init__(self, patch: pytest.MonkeyPatch):
        self.node = None
        self.routes: dict = defaultdict(list)
        # Per node, each kernel key as (key_values' entry or None).
        self.keys: dict = defaultdict(list)
        self._read: list = []   # (array returned, pending source dtype)
        for module in (executor, simulator, relational, device):
            self._key_values(patch, module)
        self._route(patch, joins, "_searchable", lambda hit: hit, "searched")
        self._route(
            patch, joins, "_probes_searchable", lambda hit: hit,
            "searched probes",
        )
        self._route(
            patch, joins, "_probes", lambda out: out[1] is not None, "ordered"
        )
        self._route(patch, grouping, "_group_runs", None, "runs")
        self._route(patch, grouping, "_grid_cells", None, "grid")
        self._route(patch, grouping, "_group_tuples", None, "tuples")
        self._route(patch, grouping, "_group_sorted", None, "sorted")
        for name in ("inner_join_indices", "semi_join_mask"):
            self._keys(patch, name, lambda args: list(args[:2]))
        self._keys(patch, "group_rows", lambda args: list(args[0]))
        for cls, describe in (
            (Join, lambda plan, *_: (
                "host", "join", plan.kind.value, plan.left_key, plan.right_key
            )),
            (Aggregate, lambda plan, *_: ("host", "aggregate", *plan.keys)),
        ):
            label, real = executor._OPERATORS[cls]
            patch.setitem(
                executor._OPERATORS, cls, (label, self._node(real, describe))
            )
        patch.setattr(DeviceExecutor, "_join", self._node(
            DeviceExecutor._join, lambda plan: (
                "device", "join", plan.kind.value, plan.left_key,
                plan.right_key,
            ),
        ))
        patch.setattr(AquomanDevice, "_swiss_reduce", self._node(
            AquomanDevice._swiss_reduce, lambda rel, args, *_: (
                "device", "aggregate", *args.get("keys", ())
            ),
        ))

    def _route(self, patch, module, name, taken, label):
        real = getattr(module, name)

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            if self.node is not None and (taken is None or taken(out)):
                self.routes[self.node].append(label)
            return out

        patch.setattr(module, name, spy)

    def _key_values(self, patch, module):
        real = module.key_values

        def spy(arr):
            out = real(arr)
            pending = isinstance(arr, SelectedArray) and not arr.gathered
            self._read.append((out, arr.source.dtype if pending else None))
            return out

        patch.setattr(module, "key_values", spy)

    def _keys(self, patch, name, arrays):
        real = getattr(relational, name)

        def spy(*args):
            if self.node is not None:
                for key in arrays(args):
                    entry = [e for e in self._read if e[0] is key]
                    self.keys[self.node].append(entry[-1] if entry else None)
            return real(*args)

        patch.setattr(relational, name, spy)

    def _node(self, real, describe):
        """``real`` (an operator method), naming its plan node."""

        def spy(owner, *args):
            outer, self.node = self.node, (self.query, *describe(*args))
            try:
                return real(owner, *args)
            finally:
                self.node = outer

        return spy


@pytest.fixture(scope="module")
def census(small_db):
    with pytest.MonkeyPatch.context() as patch:
        seen = _Census(patch)
        host = Engine(small_db)
        device = AquomanSimulator(
            small_db, DeviceConfig(scale_ratio=1000 / 0.01)
        )
        for n in tpch.ALL_QUERIES:
            seen.query = n
            host.execute_relation(tpch.query(n))
            device.run(tpch.query(n))
    return seen


def _routes(census, *node) -> set:
    """Every route the nodes named by the ``node`` prefix took (a
    device run's host remainder executes some of them again)."""
    found = [r for key, r in census.routes.items() if key[:len(node)] == node]
    assert found, node
    return set().union(*found)


def test_q21_semi_and_anti_joins_search_the_sorted_build(census):
    for kind in ("semi", "anti"):
        assert _routes(census, 21, "host", "join", kind) == {"searched"}


def test_q09_composite_join_searches_probes_in_key_order(census):
    node = (9, "host", "join", "inner", "@sq1.key", "@sq2.key")
    assert _routes(census, *node) == {"ordered"}


def test_q10_customer_columns_add_no_groups(census):
    routes = _routes(census, 10, "host", "aggregate", "c_custkey")
    assert "tuples" in routes and "sorted" not in routes


def test_q18_sorted_orderkey_is_its_own_runs(census):
    assert _routes(census, 18, "host", "aggregate", "l_orderkey") == {"runs"}


def test_q18_searches_its_few_orders_into_sorted_lineitem(sf05_db):
    # At SF 0.01 no order passes Q18's HAVING and its joins have empty
    # build sides; at SF 0.05 two do.  Each is searched into the sorted
    # probe side: the orders for the IN list, the lines for the join.
    with pytest.MonkeyPatch.context() as patch:
        seen = _Census(patch)
        seen.query = 18
        Engine(sf05_db).execute_relation(tpch.query(18))
    for node in (
        ("semi", "o_orderkey", "@sq1.l_orderkey"),
        ("inner", "l_orderkey", "o_orderkey"),
    ):
        assert _routes(seen, 18, "host", "join", *node) == {
            "searched probes"
        }


def _key_names(node) -> tuple:
    """The key columns a census node names, in kernel argument order."""
    return node[4:6] if node[2] == "join" else node[3:]


@pytest.mark.parametrize("path", ["host", "device"])
def test_keys_reach_the_kernels_at_their_stored_width(
    census, small_db, path
):
    # Each join and group key is what ``key_values`` returned for it; a
    # key still pending selection from a column stored at int32 (any
    # key but ``orderkey``) arrives at int32, not lifted to int64.  A
    # key that is a stored column arrives at that column's dtype even
    # when an expression read it (and so gathered it widened) first.
    stored = {
        column.name: column.values.dtype
        for table in small_db.tables
        for column in small_db.table(table).columns
    }
    narrow = named = 0
    for node, entries in census.keys.items():
        if node[1] != path:
            continue
        names = _key_names(node)
        for entry, name in zip(entries, names * (len(entries) // len(names))):
            assert entry is not None, node
            key, source = entry
            if source is not None:
                assert key.dtype == source, node
                narrow += source == np.int32
            if name in stored:
                assert key.dtype == stored[name], (node, name)
                named += 1
    assert narrow > 0 and named > 0


def test_q09_suppkey_joins_at_stored_width(census):
    # The composite ``l_partkey * K + l_suppkey`` projection reads
    # ``l_suppkey`` first; the join on it still gets the stored int32.
    node = (9, "host", "join", "inner", "l_suppkey", "s_suppkey")
    entries = census.keys[node]
    assert entries
    for key, source in entries:
        assert key.dtype == source == np.int32
