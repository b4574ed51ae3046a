"""On-disk column files: save/load round trips."""

import json
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_narrow_widths import widened

from repro import tpch
from repro.analysis import analyze_plan
from repro.core import DeviceConfig
from repro.engine import Engine, MorselConfig, procpool
from repro.sqlir.plan import Scan, walk_with_subqueries
from repro.storage import Catalog, Column, StringHeap, Table
from repro.storage.catalog import join_index_name
from repro.storage.io import MANIFEST_NAME, load_catalog, save_catalog
from repro.storage.types import DEFAULT_TYPES


class TestRoundTrip:
    def test_full_catalog_roundtrip(self, tiny_db, tmp_path):
        save_catalog(tiny_db, tmp_path)
        loaded = load_catalog(tmp_path)

        assert loaded.table_names() == tiny_db.table_names()
        assert loaded.scale_factor == tiny_db.scale_factor
        assert loaded.seed == tiny_db.seed
        assert loaded.constant_tables == tiny_db.constant_tables
        for name in tiny_db.table_names():
            assert loaded.table(name).equals(tiny_db.table(name))

    def test_join_indices_persisted_not_recomputed(self, tiny_db, tmp_path):
        save_catalog(tiny_db, tmp_path)
        loaded = load_catalog(tmp_path)
        original = tiny_db.table("lineitem").column(
            join_index_name("l_orderkey")
        )
        restored = loaded.table("lineitem").column(
            join_index_name("l_orderkey")
        )
        assert np.array_equal(original.values, restored.values)
        assert loaded.foreign_key_for("lineitem", "l_orderkey") is not None

    def test_queries_match_after_reload(self, tiny_db, tmp_path):
        save_catalog(tiny_db, tmp_path)
        loaded = load_catalog(tmp_path)
        for n in (1, 3, 6):
            a = Engine(tiny_db).execute(tpch.query(n))
            b = Engine(loaded).execute(tpch.query(n))
            assert a.equals(b)

    def test_device_runs_on_reloaded_catalog(self, tiny_db, tmp_path):
        from repro.core import AquomanSimulator
        from repro.util.units import GB

        save_catalog(tiny_db, tmp_path)
        loaded = load_catalog(tmp_path)
        cfg = DeviceConfig(dram_bytes=40 * GB, scale_ratio=1e6)
        result = AquomanSimulator(loaded, cfg).run(tpch.query(6))
        baseline = Engine(tiny_db).execute(tpch.query(6))
        assert baseline.equals(result.table.renamed("result"))

    def test_layout_one_file_per_column(self, tiny_db, tmp_path):
        save_catalog(tiny_db, tmp_path)
        lineitem_dir = tmp_path / "lineitem"
        bins = list(lineitem_dir.glob("*.bin"))
        heaps = list(lineitem_dir.glob("*.heap"))
        table = tiny_db.table("lineitem")
        assert len(bins) == len(table.columns)
        assert len(heaps) == sum(
            1 for c in table.columns if c.heap is not None
        )

    def test_corrupt_length_detected(self, tiny_db, tmp_path):
        save_catalog(tiny_db, tmp_path)
        victim = tmp_path / "nation" / "n_nationkey.bin"
        victim.write_bytes(victim.read_bytes()[:-4])
        with pytest.raises(ValueError, match="manifest says"):
            load_catalog(tmp_path)

    @pytest.mark.parametrize("mmap", [True, False])
    def test_partial_trailing_value_detected(self, tiny_db, tmp_path, mmap):
        # 25 INT32 keys plus 3 stray bytes: rounding the size down to
        # whole values would load the 25 and drop the rest unseen.
        save_catalog(tiny_db, tmp_path)
        victim = tmp_path / "nation" / "n_nationkey.bin"
        victim.write_bytes(victim.read_bytes() + b"\x00\x00\x00")
        with pytest.raises(
            ValueError,
            match=re.escape(
                "nation.n_nationkey: file holds 103 bytes, not a whole "
                "number of 4-byte values"
            ),
        ):
            load_catalog(tmp_path, mmap=mmap)

    def test_string_heap_with_empty_string(self, tmp_path):
        cat = Catalog()
        cat.add_table(
            Table("t", [Column.strings("s", ["", "x", "", "y"])])
        )
        save_catalog(cat, tmp_path)
        loaded = load_catalog(tmp_path)
        assert loaded.table("t").column("s").logical() == ["", "x", "", "y"]


def _one_column_catalog(values) -> Catalog:
    cat = Catalog()
    cat.add_table(Table("t", [Column.strings("s", values)]))
    return cat


def _heap_files(path, **edits):
    """Rewrite table ``t``'s heap file and/or its manifest entry."""
    manifest_path = path / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    (entry,) = manifest["tables"]["t"]
    if "payload" in edits:
        (path / "t" / "s.heap").write_bytes(edits.pop("payload"))
    for key, value in edits.items():
        if value is None:
            entry.pop(key)
        else:
            entry[key] = value
    manifest_path.write_text(json.dumps(manifest))


class TestHeapsSurviveSaveAndLoad:
    def test_heap_of_only_the_empty_string(self, tmp_path):
        save_catalog(_one_column_catalog(["", ""]), tmp_path)
        column = load_catalog(tmp_path).table("t").column("s")
        assert (column.heap.unique_count, column.heap_bytes) == (1, 1)
        assert column.logical() == ["", ""]

    def test_cut_short_heap_file_is_refused_at_load(self, tmp_path):
        save_catalog(_one_column_catalog(["ab", "cd", "ef"]), tmp_path)
        _heap_files(tmp_path, payload=b"ab\x00cd")
        with pytest.raises(
            ValueError,
            match=re.escape("t.s: heap file holds 2 strings, manifest says 3"),
        ):
            load_catalog(tmp_path)

    def test_repeated_string_keeps_its_codes_and_refuses_lookup(
        self, tmp_path
    ):
        save_catalog(_one_column_catalog(["a", "b", "c"]), tmp_path)
        _heap_files(tmp_path, payload=b"a\x00b\x00a")
        column = load_catalog(tmp_path).table("t").column("s")
        assert column.logical() == ["a", "b", "a"]
        with pytest.raises(ValueError, match="repeats 1 of its 3 strings"):
            column.heap.lookup("a")

    @pytest.mark.parametrize("read", [
        lambda column: column.heap.verdicts("a_%"),
        lambda column: column.heap.verdicts("%"),
        lambda column: column.logical(),
    ], ids=["like", "like_any", "decode"])
    def test_invalid_utf8_is_refused_naming_the_column(
        self, tmp_path, read
    ):
        save_catalog(_one_column_catalog(["ab", "ac", "ok"]), tmp_path)
        _heap_files(tmp_path, payload=b"ab\xff\x00ab\xc3\x00ok")
        # Loading checks nothing per string; the first read does.
        column = load_catalog(tmp_path).table("t").column("s")
        with pytest.raises(
            ValueError, match=re.escape("t.s: heap string 0 is not valid")
        ):
            read(column)

    def test_manifest_without_heap_strings_loads_as_before(self, tmp_path):
        save_catalog(_one_column_catalog(["x", "", "y"]), tmp_path)
        _heap_files(tmp_path, heap_strings=None)
        column = load_catalog(tmp_path).table("t").column("s")
        assert column.heap.strings() == ["x", "", "y"]
        assert column.heap_bytes == 5

    def test_manifest_records_each_heap_count(self, tiny_db, tmp_path):
        save_catalog(tiny_db, tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        for name, entries in manifest["tables"].items():
            for entry in entries:
                heap = tiny_db.table(name).column(entry["name"]).heap
                if heap is None:
                    assert "heap_strings" not in entry
                else:
                    assert entry["heap_strings"] == heap.unique_count


# Unique strings of one heap: the empty string and non-ASCII included;
# never NUL, the stored form's separator.
_heap_strings = st.lists(
    # Lone surrogates ("Cs") have no UTF-8 encoding, so no heap file.
    st.text(
        alphabet=st.characters(
            blacklist_characters="\x00", blacklist_categories=("Cs",)
        ),
        max_size=6,
    ),
    unique=True,
    max_size=12,
)


class TestLazyHeapRoundTrip:
    @given(strings=_heap_strings, mmap=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_loaded_heap_answers_like_the_saved_one(self, strings, mmap):
        catalog = _one_column_catalog(strings)
        saved = catalog.table("t").column("s").heap
        with tempfile.TemporaryDirectory() as tmp:
            save_catalog(catalog, tmp)
            heap = load_catalog(tmp, mmap=mmap).table("t").column("s").heap
            grown = load_catalog(tmp, mmap=mmap).table("t").column("s").heap
        assert heap.unique_count == len(heap) == saved.unique_count
        assert heap.heap_bytes == saved.heap_bytes
        assert heap.strings() == saved.strings()
        for code, value in enumerate(strings):
            assert heap.lookup(value) == code
            assert heap.encode(value) == code
        assert heap.lookup("\x00new") is None
        for pattern in ("%", "_%", "%a%"):
            assert np.array_equal(
                heap.verdicts(pattern), saved.verdicts(pattern)
            )
        out, codes = heap.substrings(1, 2)
        saved_out, saved_codes = saved.substrings(1, 2)
        assert out.strings() == saved_out.strings()
        assert np.array_equal(codes, saved_codes)
        # Interning a new string grows a loaded heap like the saved one.
        assert grown.encode("\x00new") == saved.encode("\x00new")
        assert grown.heap_bytes == saved.heap_bytes
        assert grown.strings() == saved.strings()


def _unsplit(heap: StringHeap) -> bool:
    """Still the file's bytes: no string list, no look-up dict."""
    return heap._strings is None and heap._codes is None


class TestLoadMakesNoCallPerString:
    @pytest.fixture()
    def loaded(self, small_db, tmp_path, monkeypatch):
        save_catalog(small_db, tmp_path)
        calls = []
        encode = StringHeap.encode

        def counting_encode(heap, value):
            calls.append(value)
            return encode(heap, value)

        monkeypatch.setattr(StringHeap, "encode", counting_encode)
        catalog = load_catalog(tmp_path)
        assert calls == []
        return catalog

    @staticmethod
    def _heaps(catalog) -> dict[tuple[str, str], StringHeap]:
        return {
            (name, column.name): column.heap
            for name in catalog.table_names()
            for column in catalog.table(name).columns
            if column.heap is not None
        }

    def test_load_leaves_every_heap_unsplit(self, loaded, small_db):
        heaps = self._heaps(loaded)
        assert len(heaps) == 29
        assert all(_unsplit(h) for h in heaps.values())
        for (name, column), heap in heaps.items():
            saved = small_db.table(name).column(column).heap
            assert len(heap) == heap.unique_count == saved.unique_count
            assert heap.heap_bytes == saved.heap_bytes
        assert all(_unsplit(h) for h in heaps.values())

    def test_full_analysis_splits_no_heap(self, loaded):
        for n in sorted(tpch.ALL_QUERIES):
            for ratio in (1.0, 1000 / 0.01):
                analyze_plan(
                    tpch.query(n), loaded, DeviceConfig(scale_ratio=ratio)
                )
        assert all(_unsplit(h) for h in self._heaps(loaded).values())

    def test_like_scans_a_heap_without_splitting_it(self, loaded, small_db):
        heap = loaded.table("orders").column("o_comment").heap
        Engine(loaded).execute(tpch.query(13))
        assert _unsplit(heap)
        assert list(heap._verdicts) == ["%special%requests%"]
        saved = small_db.table("orders").column("o_comment").heap
        assert heap.stored() == saved.stored()

    def test_a_pass_splits_only_the_heaps_it_reads(self, loaded):
        heaps = self._heaps(loaded)
        scanned = set()
        for n in sorted(tpch.ALL_QUERIES):
            plan = tpch.query(n)
            for node in walk_with_subqueries(plan):
                if isinstance(node, Scan):
                    scanned.update((node.table, c) for c in node.columns)
            Engine(loaded).execute(plan)
        split = {key for key, heap in heaps.items() if not _unsplit(heap)}
        assert split and split <= scanned
        assert ("lineitem", "l_comment") not in split


def _manifest_columns(path):
    """``(manifest, {(table, column): entry})`` of a saved catalog."""
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    entries = {
        (table, meta["name"]): meta
        for table, metas in manifest["tables"].items()
        for meta in metas
    }
    return manifest, entries


class TestStoredDtypes:
    """The manifest records each column's stored dtype, and the loader
    builds the column's type from kind plus dtype."""

    @pytest.mark.parametrize("mmap", [True, False])
    def test_round_trip_keeps_every_dtype(self, tiny_db, tmp_path, mmap):
        save_catalog(tiny_db, tmp_path)
        _, entries = _manifest_columns(tmp_path)
        loaded = load_catalog(tmp_path, mmap=mmap)
        for (table, name), meta in entries.items():
            saved = tiny_db.table(table).column(name)
            got = loaded.table(table).column(name)
            assert meta["dtype"] == saved.ctype.dtype.name
            assert got.ctype == saved.ctype, (table, name)
            assert got.values.dtype == saved.values.dtype
            assert got.is_mapped is mmap
            assert np.array_equal(got.values, saved.values)
        assert {m["dtype"] for m in entries.values()} == {
            "int8", "int16", "int32", "int64"
        }

    def test_manifest_without_dtype_loads_at_default_widths(
        self, tiny_db, tmp_path
    ):
        # The parent layout: every column at its kind's default width,
        # and no dtype in the manifest.
        save_catalog(widened(tiny_db), tmp_path)
        manifest, entries = _manifest_columns(tmp_path)
        for meta in entries.values():
            del meta["dtype"]
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        loaded = load_catalog(tmp_path)
        for table, name in entries:
            got = loaded.table(table).column(name)
            assert got.ctype == DEFAULT_TYPES[got.ctype.kind]
            assert np.array_equal(
                got.values, tiny_db.table(table).column(name).values
            )

    @pytest.mark.parametrize(
        "dtype", ["int64", "int32x", "uint16", "float32", 7]
    )
    def test_dtype_not_valid_for_its_kind_names_the_column(
        self, tiny_db, tmp_path, dtype
    ):
        save_catalog(tiny_db, tmp_path)
        manifest, entries = _manifest_columns(tmp_path)
        entries["lineitem", "l_shipdate"]["dtype"] = dtype
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(
            ValueError, match=r"^lineitem\.l_shipdate: bad dtype"
        ):
            load_catalog(tmp_path)

    @pytest.mark.skipif(
        not procpool.process_backend_available(),
        reason="no fork start method on this platform",
    )
    def test_process_pool_over_mapped_narrow_columns(
        self, small_db, tmp_path
    ):
        """Each worker re-opens the column files at their stored dtype
        (a default-width mapping would run past the end of the file)."""
        save_catalog(small_db, tmp_path)
        loaded = load_catalog(tmp_path, mmap=True)
        morsels = MorselConfig(morsel_rows=8192, n_workers=2,
                               worker_backend="process")
        engine = Engine(loaded, morsels=morsels)
        for n in (1, 3, 6, 12):
            got = engine.execute_relation(tpch.query(n))
            assert engine.backend_name() == "process"
            want = Engine(small_db).execute_relation(tpch.query(n))
            assert got.names == want.names
            for name in want.names:
                assert np.array_equal(
                    got.column(name).values, want.column(name).values
                ), (n, name)
