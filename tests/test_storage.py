"""Storage substrate: types, heaps, columns, tables, catalog, layout."""

import datetime
import sqlite3

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import (
    BOOL,
    CHAR,
    DATE,
    DECIMAL,
    FLOAT,
    INT32,
    INT64,
    Catalog,
    Column,
    ColumnExtent,
    FlashLayout,
    ForeignKey,
    StringHeap,
    Table,
    date_to_days,
    days_to_date,
    decimal_to_int,
    int_to_decimal,
)
from repro.storage import stringheap
from repro.storage.catalog import join_index_name
from repro.storage.layout import PAGE_BYTES


class TestTypes:
    def test_decimal_roundtrip(self):
        assert int_to_decimal(decimal_to_int(12.34)) == 12.34
        assert decimal_to_int("0.05") == 5

    def test_decimal_negative(self):
        assert decimal_to_int(-999.99) == -99999

    def test_date_roundtrip(self):
        assert days_to_date(date_to_days("1998-09-02")) == datetime.date(
            1998, 9, 2
        )

    def test_date_epoch(self):
        assert date_to_days("1970-01-01") == 0

    def test_type_widths(self):
        assert INT32.width == 4
        assert INT64.width == 8
        assert DECIMAL.width == 8
        assert DATE.width == 4
        assert CHAR.width == 4

    @given(st.integers(-(10**12), 10**12))
    def test_decimal_int_roundtrip_property(self, cents):
        assert decimal_to_int(int_to_decimal(cents)) == cents


class TestStringHeap:
    def test_interning_dedupes(self):
        heap = StringHeap()
        a = heap.encode("FRANCE")
        b = heap.encode("FRANCE")
        assert a == b
        assert heap.unique_count == 1

    def test_codes_are_dense(self):
        heap, codes = StringHeap.from_values(["a", "b", "a", "c"])
        assert codes.tolist() == [0, 1, 0, 2]

    def test_decode_many(self):
        heap, codes = StringHeap.from_values(["x", "y", "x"])
        assert heap.decode_many(codes) == ["x", "y", "x"]

    def test_heap_bytes_counts_unique_payload(self):
        heap = StringHeap()
        heap.encode("ab")   # 2 + 1 NUL
        heap.encode("ab")
        heap.encode("cde")  # 3 + 1
        assert heap.heap_bytes == 7

    def test_lookup_missing(self):
        heap = StringHeap()
        assert heap.lookup("nope") is None
        assert "nope" not in heap

    @given(st.lists(st.text(max_size=8), min_size=1, max_size=40))
    def test_roundtrip_property(self, values):
        heap, codes = StringHeap.from_values(values)
        assert heap.decode_many(codes) == values
        assert heap.unique_count == len(set(values))

    def test_stored_form_round_trips(self):
        heap, _ = StringHeap.from_values(["ab", "", "é", "ab"])
        payload, count = heap.stored()
        assert (payload, count) == ("ab\x00\x00é".encode(), 3)
        again = StringHeap.from_stored(payload, count)
        assert (len(again), again.heap_bytes) == (3, heap.heap_bytes)
        assert again.stored() == (payload, count)  # no split to answer
        assert again.strings() == ["ab", "", "é"]
        assert again.encode("new") == 3 and again.lookup("") == 1

    @pytest.mark.parametrize("strings", [[], [""]])
    def test_empty_payloads(self, strings):
        heap = StringHeap.from_stored(b"", len(strings))
        assert heap.strings() == strings
        assert heap.heap_bytes == len(strings)

    def test_nul_inside_a_string_has_no_stored_form(self):
        heap, _ = StringHeap.from_values(["a\x00b"])
        with pytest.raises(ValueError, match="NUL"):
            heap.stored()


class _CountingScans:
    """Stands in for ``stringheap.like_verdicts``; records each scan's
    framed buffer and string count."""

    def __init__(self, monkeypatch):
        self.real = stringheap.like_verdicts
        self.framed: list[bytes] = []
        self.counts: list[int] = []
        monkeypatch.setattr(stringheap, "like_verdicts", self)

    def __call__(self, framed, count, pattern):
        self.framed.append(bytes(framed))
        self.counts.append(count)
        return self.real(framed, count, pattern)


class TestHeapVerdicts:
    def test_like_and_regex_patterns(self):
        heap, _ = StringHeap.from_values(["PROMO TIN", "SMALL TIN", "PROMO"])
        assert heap.verdicts("PROMO%").tolist() == [True, False, True]
        assert heap.verdicts("_____ TIN").tolist() == [True, True, False]
        assert heap.verdicts("%").dtype == np.bool_
        # A pattern matches the whole string, not a prefix of it ...
        assert heap.verdicts("S%").tolist() == [False, True, False]
        # ... so the text without the wildcard is another pattern.
        assert heap.verdicts("S").tolist() == [False, False, False]

    def test_each_unique_string_is_matched_once(self, monkeypatch):
        heap, _ = StringHeap.from_values(["ab", "cd", "ab", "ae"] * 50)
        scans = _CountingScans(monkeypatch)
        first = heap.verdicts("a%")
        # One scan over the heap's strings, each of them once.
        assert scans.counts == [heap.unique_count] == [3]
        assert scans.framed == [b"\x00ab\x00cd\x00ae\x00"]
        assert heap.verdicts("a%") is first
        assert scans.counts == [3]

    def test_same_pattern_on_two_heaps_does_not_alias(self):
        a, _ = StringHeap.from_values(["x1", "y"])
        b, _ = StringHeap.from_values(["y", "x2", "x3"])
        assert a.verdicts("x%").tolist() == [True, False]
        assert b.verdicts("x%").tolist() == [False, True, True]
        assert a.verdicts("x%").tolist() == [True, False]

    def test_growth_extends_the_table_by_the_new_tail_only(
        self, monkeypatch
    ):
        heap, _ = StringHeap.from_values(["ab", "cd"])
        scans = _CountingScans(monkeypatch)
        before = heap.verdicts("a%")
        assert heap.encode("ax") == 2 and heap.encode("zz") == 3
        after = heap.verdicts("a%")
        assert scans.counts == [2, 2]            # 2, then the 2 new strings
        assert scans.framed[1] == b"\x00ax\x00zz\x00"
        assert before.tolist() == [True, False]  # never rewritten
        assert after.tolist() == [True, False, True, False]
        assert heap.verdicts("a%") is after
        assert scans.counts == [2, 2]

    def test_tables_are_read_only(self):
        heap, _ = StringHeap.from_values(["ab", "cd"])
        for table in (heap.verdicts("a%"), heap.verdicts("a%")):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = False
        heap.encode("ae")
        assert not heap.verdicts("a%").flags.writeable

    def test_oldest_pattern_is_evicted_at_the_bound(self):
        heap, _ = StringHeap.from_values(["ab", "cd"])
        bound = stringheap.MAX_VERDICT_PATTERNS
        patterns = [f"a{'_' * i}" for i in range(bound + 3)]
        for pattern in patterns:
            heap.verdicts(pattern)
            assert len(heap._verdicts) <= bound
        assert list(heap._verdicts) == patterns[3:]
        assert heap.verdicts(patterns[0]).tolist() == [False, False]

    def test_a_stored_heap_is_scanned_in_place(self, monkeypatch):
        payload = "ab\x00cd\x00aé".encode()
        heap = StringHeap.from_stored(payload, 3)
        scans = _CountingScans(monkeypatch)
        assert heap.verdicts("a%").tolist() == [True, False, True]
        assert heap.verdicts("%_d").tolist() == [False, True, False]
        # Both scans read the stored bytes framed once, and nothing
        # split them into strings.
        assert scans.framed == [b"\x00" + payload + b"\x00"] * 2
        assert heap._strings is None and heap._codes is None
        assert heap.stored() == (payload, 3)
        assert heap.strings() == ["ab", "cd", "aé"]
        assert heap.verdicts("a_").tolist() == [True, False, True]

    def test_a_string_holding_nul_is_not_scanned(self):
        heap, _ = StringHeap.from_values(["a\x00b"])
        with pytest.raises(ValueError, match="NUL"):
            heap.verdicts("a%")

    def test_empty_heap(self):
        assert StringHeap().verdicts("%").tolist() == []
        assert StringHeap.from_stored(b"", 0).verdicts("").tolist() == []
        assert StringHeap().members(("a",)).tolist() == []

    def test_members(self):
        heap, codes = StringHeap.from_values(["a", "b", "a", "c"])
        table = heap.members(("c", "a", "nope"))
        assert table.tolist() == [True, False, True]
        assert table[codes].tolist() == [True, False, True, True]
        assert heap.members(()).tolist() == [False, False, False]
        assert "nope" not in heap  # looked up, never interned


_LIKE_ALPHABET = ["a", "A", "b", "é", "€", "𝄞", "\n", "%", "_"]
_like_texts = st.lists(st.sampled_from(_LIKE_ALPHABET), max_size=6).map(
    "".join
)


HEAP_STATES = ["stored", "split", "grown"]


def _heap_in_state(strings, state, scanned="%a"):
    """A heap of ``strings`` in code order, in one of three states: its
    stored bytes as loaded from disk, split into strings, or grown by
    ``encode`` after a scan (of ``scanned``) of its first strings."""
    if state == "split":
        return StringHeap.from_values(strings)[0]
    head = strings if state == "stored" else strings[:len(strings) // 2]
    heap = StringHeap.from_stored("\x00".join(head).encode(), len(head))
    if state == "grown":
        heap.verdicts(scanned)
        for value in strings[len(head):]:
            heap.encode(value)
    return heap


@st.composite
def _scanned_heaps(draw):
    """``(heap, strings in code order)``, the heap in any state."""
    strings = draw(st.lists(_like_texts, unique=True, max_size=12))
    state = draw(st.sampled_from(HEAP_STATES))
    return _heap_in_state(strings, state, draw(_like_texts)), strings


@pytest.fixture(scope="module")
def sqlite_like():
    """``LIKE`` from stdlib ``sqlite3``, made case-sensitive."""
    con = sqlite3.connect(":memory:")
    con.execute("PRAGMA case_sensitive_like = ON")
    # sqlite builds differ; an oracle that folds case is no oracle.
    assert con.execute("SELECT 'a' LIKE 'A'").fetchone() == (0,)
    yield con
    con.close()


class TestVerdictsAgainstSqlite:
    """Verdict tables against an oracle that shares no code with us."""

    @given(
        heap=_scanned_heaps(),
        pattern=st.one_of(
            _like_texts,
            st.sampled_from(["", "%", "%%", "_", "a\x00%", "\x00"]),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_verdicts_equal_sqlite_like(self, sqlite_like, heap, pattern):
        heap, strings = heap
        if "\x00" in pattern:
            expected = [False] * len(strings)  # no heap string holds NUL
        else:
            expected = self._sqlite(sqlite_like, strings, pattern)
        assert heap.verdicts(pattern).tolist() == expected

    @pytest.mark.parametrize("state", HEAP_STATES)
    @pytest.mark.parametrize("pattern", [
        "abc", "%x", "a_x", "a%x", "line1%line2", "_", "%", "%\n", "%_%",
    ])
    def test_newline_is_an_ordinary_character(
        self, sqlite_like, pattern, state
    ):
        strings = ["abc", "abc\n", "a\nx", "\n", "line1\nline2", "x"]
        heap = _heap_in_state(strings, state)
        expected = self._sqlite(sqlite_like, strings, pattern)
        assert heap.verdicts(pattern).tolist() == expected

    @staticmethod
    def _sqlite(con, strings, pattern) -> list[bool]:
        return [
            con.execute("SELECT ? LIKE ?", (s, pattern)).fetchone()[0] == 1
            for s in strings
        ]


class TestHeapSubstrings:
    def test_codes_follow_first_appearance(self):
        heap, codes = StringHeap.from_values(
            ["13-555", "29-444", "13-777", "29-444"]
        )
        out_heap, code_map = heap.substrings(1, 2)
        assert out_heap.strings() == ["13", "29"]
        assert code_map.tolist() == [0, 1, 0]
        assert code_map.dtype == np.int64
        assert out_heap.decode_many(code_map[codes]) == [
            "13", "29", "13", "29"
        ]
        # start counts from 1, and a cut past the end is just shorter.
        assert heap.substrings(4, 9)[0].strings() == ["555", "444", "777"]

    def test_each_unique_string_is_cut_once(self):
        heap, _ = StringHeap.from_values(["ab", "cd", "ab", "ae"] * 50)
        out_heap, code_map = heap.substrings(1, 1)
        again = heap.substrings(1, 1)
        assert again[0] is out_heap and again[1] is code_map
        assert heap.substrings(2, 1)[0] is not out_heap

    def test_same_cut_on_two_heaps_does_not_alias(self):
        a, _ = StringHeap.from_values(["x1", "y2"])
        b, _ = StringHeap.from_values(["y2", "x1", "z3"])
        assert a.substrings(1, 1)[0].strings() == ["x", "y"]
        assert b.substrings(1, 1)[0].strings() == ["y", "x", "z"]
        assert a.substrings(1, 1)[1].tolist() == [0, 1]

    def test_growth_extends_the_map_by_the_new_tail_only(self):
        heap, _ = StringHeap.from_values(["ab", "cd"])
        out_heap, before = heap.substrings(1, 1)
        assert heap.encode("ax") == 2 and heap.encode("zz") == 3
        grown_heap, after = heap.substrings(1, 1)
        assert grown_heap is out_heap          # codes handed out stay valid
        assert before.tolist() == [0, 1]       # never rewritten
        assert after.tolist() == [0, 1, 0, 2]
        assert out_heap.strings() == ["a", "c", "z"]
        assert heap.substrings(1, 1)[1] is after

    def test_maps_are_read_only(self):
        heap, _ = StringHeap.from_values(["ab", "cd"])
        code_map = heap.substrings(1, 1)[1]
        assert not code_map.flags.writeable
        heap.encode("ef")
        assert not heap.substrings(1, 1)[1].flags.writeable
        assert StringHeap().substrings(1, 2)[1].tolist() == []

    def test_oldest_cut_is_evicted_at_the_bound(self):
        heap, _ = StringHeap.from_values(["abcdefgh"])
        bound = stringheap.MAX_VERDICT_PATTERNS
        cuts = [(1, n) for n in range(1, bound + 4)]
        for cut in cuts:
            heap.substrings(*cut)
            assert len(heap._substrings) <= bound
        assert list(heap._substrings) == cuts[3:]
        assert heap.substrings(1, 1)[0].strings() == ["a"]

    def test_q22_leaves_the_shared_heap_as_it_found_it(self, tiny_db):
        """Every SUBSTRING call on a column hands out one heap, which is
        safe as long as nothing interns into it: Q22 compares, groups
        and sorts by it on every path and must add no string."""
        from repro import tpch
        from repro.core import AquomanSimulator, DeviceConfig
        from repro.engine import Engine, MorselConfig

        phone = tiny_db.table("customer").column("c_phone").heap
        out_heap, code_map = phone.substrings(1, 2)
        found = out_heap.strings()
        assert len(found) == len(set(found)) <= 25 < phone.unique_count
        plan = tpch.query(22)
        Engine(tiny_db).execute_relation(plan)
        Engine(
            tiny_db, morsels=MorselConfig(morsel_rows=8192)
        ).execute_relation(plan)
        AquomanSimulator(tiny_db, DeviceConfig()).run(plan)
        assert phone.substrings(1, 2)[0] is out_heap
        assert phone.substrings(1, 2)[1] is code_map
        assert out_heap.strings() == found


class TestColumn:
    def test_from_logical_decimal(self):
        col = Column.from_logical("price", DECIMAL, [1.5, 2.25])
        assert col.values.tolist() == [150, 225]
        assert col.logical() == [1.5, 2.25]

    def test_from_logical_date(self):
        col = Column.from_logical("d", DATE, ["1992-01-01"])
        assert col.logical_value(0) == datetime.date(1992, 1, 1)

    def test_strings_builds_heap(self):
        col = Column.strings("name", ["a", "b", "a"])
        assert col.heap.unique_count == 2
        assert col.logical() == ["a", "b", "a"]

    def test_string_column_requires_heap(self):
        with pytest.raises(ValueError):
            Column("x", CHAR, np.array([0], dtype=np.int32))

    def test_non_string_rejects_heap(self):
        heap = StringHeap()
        with pytest.raises(ValueError):
            Column("x", INT32, np.array([0]), heap)

    def test_take_preserves_heap(self):
        col = Column.strings("n", ["a", "b", "c"])
        taken = col.take(np.array([2, 0]))
        assert taken.logical() == ["c", "a"]
        assert taken.heap is col.heap

    def test_nbytes(self):
        col = Column("k", INT32, np.arange(10, dtype=np.int32))
        assert col.nbytes == 40


class TestColumnWidth:
    """A value the stored dtype cannot hold is refused, not wrapped."""

    def test_value_beyond_int32_is_refused(self):
        with pytest.raises(ValueError, match="column 'x'.*int32"):
            Column("x", INT32, np.array([2**40, 5]))

    def test_date_beyond_int16_days_is_refused(self):
        day16 = DATE.stored_as("int16")
        last = date_to_days("2059-09-18")
        assert Column("d", day16, np.array([last])).values.tolist() == [last]
        with pytest.raises(ValueError, match="column 'd'"):
            Column.from_logical("d", day16, ["2059-09-19"])

    def test_code_beyond_int8_is_refused(self):
        code8 = CHAR.stored_as("int8")
        Column.strings("s", [str(i) for i in range(128)], code8)
        with pytest.raises(ValueError, match="column 's'"):
            Column.strings("s", [str(i) for i in range(129)], code8)

    def test_no_check_when_the_input_is_no_wider(self, monkeypatch):
        from repro.storage import column

        def refuse(*args):
            raise AssertionError("checked")

        monkeypatch.setattr(column, "_check_fits", refuse)
        Column("k", INT32, np.arange(3, dtype=np.int32))
        Column("k", INT32, np.arange(3, dtype=np.int8))
        with pytest.raises(AssertionError, match="checked"):
            Column("k", INT32, np.arange(3, dtype=np.int64))

    def test_narrow_type_keeps_its_kind(self):
        narrow = DATE.stored_as(np.int16)
        assert narrow.kind is DATE.kind
        assert (narrow.width, narrow.dtype) == (2, np.dtype(np.int16))
        assert narrow.eval_domain == DATE.eval_domain
        assert Column("d", narrow, np.arange(4)).nbytes == 8

    @pytest.mark.parametrize("ctype, dtype", [
        (INT32, "int64"), (DATE, "uint16"), (CHAR, "float32"),
        (DECIMAL, "uint64"), (BOOL, "int16"), (FLOAT, "int64"),
    ])
    def test_width_not_valid_for_the_kind_is_refused(self, ctype, dtype):
        with pytest.raises(ValueError, match="cannot be stored as"):
            ctype.stored_as(dtype)


class TestTable:
    def _table(self):
        return Table(
            "t",
            [
                Column("k", INT64, np.array([1, 2, 3])),
                Column.strings("s", ["x", "y", "x"]),
            ],
        )

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            Table(
                "t",
                [
                    Column("a", INT64, np.array([1])),
                    Column("b", INT64, np.array([1, 2])),
                ],
            )

    def test_duplicate_names_rejected(self):
        c = Column("a", INT64, np.array([1]))
        with pytest.raises(ValueError):
            Table("t", [c, c])

    def test_unknown_column_mentions_candidates(self):
        with pytest.raises(KeyError, match="columns are"):
            self._table().column("missing")

    def test_take_and_rows(self):
        t = self._table().take(np.array([2, 1]))
        assert t.to_rows() == [(3, "x"), (2, "y")]

    def test_select_projects_in_order(self):
        t = self._table().select(["s", "k"])
        assert t.column_names == ["s", "k"]

    def test_equals_ordered_and_bag(self):
        t = self._table()
        shuffled = t.take(np.array([2, 1, 0]))
        assert not t.equals(shuffled)
        assert t.equals(shuffled, ordered=False)

    def test_with_column_replaces(self):
        t = self._table().with_column(
            Column("k", INT64, np.array([9, 9, 9]))
        )
        assert t.column("k").values.tolist() == [9, 9, 9]
        assert len(t.columns) == 2

    def test_head_renders(self):
        text = self._table().head(2)
        assert "k | s" in text
        assert "1 | x" in text


class TestCatalog:
    def _catalog(self):
        cat = Catalog()
        pk = Table(
            "dim",
            [
                Column("d_key", INT64, np.array([10, 20, 30])),
                Column.strings("d_name", ["a", "b", "c"]),
            ],
        )
        fact = Table(
            "fact",
            [
                Column("f_key", INT64, np.array([20, 10, 20, 30])),
            ],
        )
        cat.add_table(pk, primary_key="d_key")
        cat.add_table(fact)
        return cat

    def test_join_index_materialised(self):
        cat = self._catalog()
        cat.add_foreign_key(ForeignKey("fact", "f_key", "dim", "d_key"))
        idx = cat.table("fact").column(join_index_name("f_key"))
        assert idx.values.tolist() == [1, 0, 1, 2]

    def test_join_index_is_int32_row_ids(self):
        cat = self._catalog()
        cat.add_foreign_key(ForeignKey("fact", "f_key", "dim", "d_key"))
        idx = cat.table("fact").column(join_index_name("f_key"))
        assert idx.ctype.kind is INT64.kind
        assert idx.values.dtype == np.int32 and idx.nbytes == 16

    def test_join_index_refuses_a_table_beyond_int32_row_ids(self):
        cat = Catalog()
        # 2**31 rows of one broadcast value: no memory behind them.
        huge = np.broadcast_to(np.int32(1), (2**31,))
        cat.add_table(Table("dim", [Column("d_key", INT32, huge)]))
        cat.add_table(Table("fact", [Column("f_key", INT32, [1])]))
        with pytest.raises(ValueError, match="below 2\\*\\*31"):
            cat.add_foreign_key(ForeignKey("fact", "f_key", "dim", "d_key"))

    def test_dangling_fk_rejected(self):
        cat = self._catalog()
        bad = Table("bad", [Column("b_key", INT64, np.array([99]))])
        cat.add_table(bad)
        with pytest.raises(ValueError, match="dangling"):
            cat.add_foreign_key(ForeignKey("bad", "b_key", "dim", "d_key"))

    def test_duplicate_table_rejected(self):
        cat = self._catalog()
        with pytest.raises(ValueError):
            cat.add_table(Table("dim", [Column("x", INT64, np.array([1]))]))

    def test_primary_key_must_exist(self):
        cat = Catalog()
        t = Table("t", [Column("a", INT64, np.array([1]))])
        with pytest.raises(KeyError):
            cat.add_table(t, primary_key="zzz")

    def test_foreign_key_lookup(self):
        cat = self._catalog()
        cat.add_foreign_key(ForeignKey("fact", "f_key", "dim", "d_key"))
        fk = cat.foreign_key_for("fact", "f_key")
        assert fk.ref_table == "dim"
        assert cat.foreign_key_for("fact", "nope") is None


class TestFlashLayout:
    def test_extents_are_disjoint_and_cover(self, tiny_db):
        layout = FlashLayout(tiny_db)
        extents = sorted(layout.extents(), key=lambda e: e.first_page)
        cursor = 0
        for e in extents:
            assert e.first_page == cursor
            cursor += e.n_pages
        assert cursor == layout.total_pages

    def test_column_bytes_fit_extent(self, tiny_db):
        layout = FlashLayout(tiny_db)
        for e in layout.extents():
            assert e.n_pages * PAGE_BYTES >= e.nrows * e.value_width

    def test_pages_for_rows(self):
        e = ColumnExtent("t", "c", first_page=10, n_pages=4,
                         value_width=4, nrows=8000)
        per_page = PAGE_BYTES // 4
        assert list(e.pages_for_rows(0, 1)) == [10]
        assert list(e.pages_for_rows(per_page, 1)) == [11]
        assert list(e.pages_for_rows(0, per_page + 1)) == [10, 11]
        assert list(e.pages_for_rows(0, 0)) == []

    def test_page_for_row_vector(self):
        e = ColumnExtent("t", "c", first_page=0, n_pages=2,
                         value_width=4, nrows=4096)
        assert e.page_for_row_vector(0) == 0
        assert e.page_for_row_vector(63) == 0
        assert e.page_for_row_vector(64) == 1
