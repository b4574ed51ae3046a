"""LRU page-cache model.

MonetDB relies on the OS page cache rather than its own buffer pool;
the paper observed that for a 1 TB dataset a 128 GB LRU cache is
ineffective for TPC-H (hot runs were no faster than cold), so the
evaluation assumes cold caches.  This model lets us *demonstrate* that
observation (see the ablation benchmark) rather than assume it.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.obs import METRICS


class LruPageCache:
    """Counts hits/misses of page accesses under an LRU policy."""

    def __init__(self, capacity_bytes: int, page_bytes: int = 8 * 1024):
        if capacity_bytes < page_bytes:
            raise ValueError("cache smaller than one page")
        self.capacity_pages = capacity_bytes // page_bytes
        self.page_bytes = page_bytes
        self._pages: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, page_id: int) -> bool:
        """Touch a page; returns True on hit."""
        if page_id in self._pages:
            self._pages.move_to_end(page_id)
            self.hits += 1
            return True
        self.misses += 1
        self._pages[page_id] = None
        if len(self._pages) > self.capacity_pages:
            self._pages.popitem(last=False)
        return False

    def access_range(self, first_page: int, n_pages: int) -> int:
        """Touch a page run; returns the number of misses.

        Batched for the two cases that dominate column scans — a fully
        cold run, and a run that fits without evicting — with the exact
        per-page loop kept for the remainder: when hits re-order pages
        *between* evictions, the victims depend on the interleaving, so
        batching there would change the cache state.
        """
        if n_pages <= 0:
            return 0
        hits_before, misses_before = self.hits, self.misses
        try:
            return self._access_run(first_page, n_pages)
        finally:
            # Publish batched deltas so hot runs cost one update each.
            METRICS.counter("pagecache.hits").inc(self.hits - hits_before)
            METRICS.counter("pagecache.misses").inc(
                self.misses - misses_before
            )
            METRICS.gauge("pagecache.hit_ratio").set(self.hit_rate)

    def _access_run(self, first_page: int, n_pages: int) -> int:
        run = range(first_page, first_page + n_pages)
        present = self._pages.keys() & run  # batch membership test

        if not present:
            # Cold run: no reordering, so the final cache is simply the
            # last ``capacity`` pages of (old order, run).
            self.misses += n_pages
            keep_old = max(0, self.capacity_pages - n_pages)
            while len(self._pages) > keep_old:
                self._pages.popitem(last=False)
            for pid in run[max(0, n_pages - self.capacity_pages):]:
                self._pages[pid] = None
            return n_pages

        n_miss = n_pages - len(present)
        if len(self._pages) + n_miss <= self.capacity_pages:
            # No eviction possible: hits move to the MRU end in run
            # order and misses append in run order, i.e. the whole run
            # lands at the end, ordered.
            for pid in present:
                del self._pages[pid]
            for pid in run:
                self._pages[pid] = None
            self.hits += len(present)
            self.misses += n_miss
            return n_miss

        misses_before = self.misses
        for pid in run:
            self.access(pid)
        return self.misses - misses_before

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        self._pages.clear()

    def __len__(self) -> int:
        return len(self._pages)
