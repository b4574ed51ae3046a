"""Randomised differential testing: simulator vs engine on random plans.

Hypothesis generates small random catalogs and random plan trees
(filters, projects, joins, aggregates in varying shapes); the hybrid
device+host simulator must return exactly what the software engine
returns, whatever the offload boundary turned out to be.  CI runs
both again under the ``long`` Hypothesis profile.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_engine_operators import _examples

from repro.core import AquomanSimulator, DeviceConfig
from repro.engine import Engine
from repro.sqlir import AggFunc, col, lit, scan
from repro.storage import Catalog, Column, ForeignKey, Table
from repro.storage.types import DECIMAL, INT64
from repro.util.units import GB


@st.composite
def catalogs(draw):
    n_dim = draw(st.integers(2, 8))
    n_fact = draw(st.integers(1, 60))
    dim_keys = np.arange(1, n_dim + 1, dtype=np.int64)
    dim_weights = np.array(
        draw(
            st.lists(
                st.integers(0, 50), min_size=n_dim, max_size=n_dim
            )
        ),
        dtype=np.int64,
    )
    fact_fk = np.array(
        draw(
            st.lists(
                st.integers(1, n_dim), min_size=n_fact, max_size=n_fact
            )
        ),
        dtype=np.int64,
    )
    fact_price = np.array(
        draw(
            st.lists(
                st.integers(0, 10_000), min_size=n_fact, max_size=n_fact
            )
        ),
        dtype=np.int64,
    )
    fact_qty = np.array(
        draw(
            st.lists(
                st.integers(1, 50), min_size=n_fact, max_size=n_fact
            )
        ),
        dtype=np.int64,
    )

    catalog = Catalog()
    catalog.add_table(
        Table(
            "dim",
            [
                Column("d_key", INT64, dim_keys),
                Column("d_weight", INT64, dim_weights),
            ],
        ),
        primary_key="d_key",
    )
    catalog.add_table(
        Table(
            "fact",
            [
                Column("f_key", INT64, fact_fk),
                Column("f_price", DECIMAL, fact_price),
                Column("f_qty", INT64, fact_qty),
            ],
        ),
    )
    catalog.add_foreign_key(ForeignKey("fact", "f_key", "dim", "d_key"))
    return catalog


@st.composite
def plans(draw):
    builder = scan("fact", ("f_key", "f_price", "f_qty"))

    if draw(st.booleans()):
        threshold = draw(st.integers(0, 10_000))
        builder = builder.filter(col("f_price") > lit(threshold) * 1)
        if draw(st.booleans()):
            # A second stacked Filter, as the SQL planner emits one per
            # conjunct: it cannot share the first one's Table Task.
            builder = builder.filter(
                col("f_qty") <= lit(draw(st.integers(1, 50)))
            )

    if draw(st.booleans()):
        builder = builder.join(
            scan("dim", ("d_key", "d_weight")), "f_key", "d_key"
        )
        if draw(st.booleans()):
            builder = builder.filter(col("d_weight") >= lit(10))

    shape = draw(st.sampled_from(["none", "project", "aggregate", "both"]))
    if shape in ("project", "both"):
        builder = builder.project(
            f_key=col("f_key"),
            value=col("f_price") * (1 + col("f_qty")),
        )
    if shape in ("aggregate", "both"):
        value_col = "value" if shape == "both" else "f_price"
        builder = builder.aggregate(
            keys=("f_key",),
            aggs=[
                ("total", AggFunc.SUM, col(value_col)),
                ("n", AggFunc.COUNT, None),
            ],
        )
        if draw(st.booleans()):
            # A Project over the Aggregate (the SQL planner's select
            # list): a second task behind the Swissknife.
            builder = builder.project(
                f_key=col("f_key"),
                total=col("total") * 2,
                n=col("n"),
            )
        builder = builder.sort("f_key")
    return builder.plan


class TestDifferential:
    @given(catalogs(), plans(), st.sampled_from([1.0, 1e3, 1e6]))
    @settings(max_examples=_examples(60), deadline=None)
    def test_simulator_matches_engine(self, catalog, plan, ratio):
        baseline = Engine(catalog).execute(plan)
        config = DeviceConfig(dram_bytes=40 * GB, scale_ratio=ratio)
        result = AquomanSimulator(catalog, config).run(plan)
        assert baseline.equals(result.table.renamed("result"))
        assert result.device.meters.tasks_run == len(result.tasks)
        if result.offloaded:
            assert result.tasks

    @given(catalogs(), plans())
    @settings(max_examples=_examples(30), deadline=None)
    def test_tiny_dram_always_falls_back_correctly(self, catalog, plan):
        baseline = Engine(catalog).execute(plan)
        config = DeviceConfig(dram_bytes=1 << 20, scale_ratio=1e9)
        result = AquomanSimulator(catalog, config).run(plan)
        assert baseline.equals(result.table.renamed("result"))
