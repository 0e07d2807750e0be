"""Page-granularity NUMA memory model with deferred (first-touch) allocation.

The paper's runtime uses *deferred allocation*: the memory backing a task's
output is not physically allocated until the task placement is known; the
pages are then bound to the NUMA node of the socket executing the producer
task.  :class:`MemoryManager` models exactly that:

* a :class:`~repro.runtime.data.DataObject`-sized region is registered and
  split into pages (default 4 KiB);
* pages start *unbound*;
* ``touch(obj, node, offset, length)`` binds the still-unbound pages of the
  range to ``node`` (first touch wins; later touches do not move pages);
* ``node_bytes_of_range`` reports, for a byte range, how many bytes live on
  each node — this is what the locality-aware scheduler weighs and what the
  interconnect model charges.

Explicit binding (``bind``) and page migration (``migrate``) are provided
for the expert-programmer policy and for ablations.

Placement cache (DESIGN.md §9): ``node_bytes_of_range`` is the scheduling
hot path — every LAS decision and every task start re-queries it.  The
manager therefore memoises query results behind per-object *version
counters*: a version bumps only when the object's placement actually
changes (a first-touch that binds new pages, an explicit bind, a
migration, an interleave), so queries against a settled object collapse
into a dict lookup.  ``cache=False`` restores the always-recompute
behaviour, and ``REPRO_CHECK_CACHE=1`` (or ``check=True``) turns every hit
into an oracle check against a fresh recompute.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..errors import MemoryError_

#: Default page size, bytes (matches the common 4 KiB small page).
DEFAULT_PAGE_SIZE = 4096

#: Sentinel node id for a page that has not been first-touched yet.
UNBOUND = -1


def _check_cache_env() -> bool:
    """Oracle mode default: ``REPRO_CHECK_CACHE=1`` in the environment."""
    return os.environ.get("REPRO_CHECK_CACHE", "").strip() not in ("", "0")


@dataclass(frozen=True)
class RegionPlacement:
    """Per-node byte counts for a byte range of one data object."""

    bytes_per_node: np.ndarray  # shape (n_nodes,), int64
    unbound_bytes: int

    @property
    def total_bound(self) -> int:
        return int(self.bytes_per_node.sum())

    def node_items(self) -> list[tuple[int, int]]:
        """``[(node, bytes), ...]`` for nodes actually holding bytes.

        Computed once and cached on the instance: placements are immutable
        and shared through the range cache, so the hot consumers
        (``traffic_streams``, LAS weighting) skip per-query numpy scans.
        """
        items = self.__dict__.get("_node_items")
        if items is None:
            items = [
                (n, int(b))
                for n, b in enumerate(self.bytes_per_node.tolist())
                if b
            ]
            object.__setattr__(self, "_node_items", items)
        return items

    def dominant_node(self) -> int | None:
        """Node holding the most bytes, or ``None`` if nothing is bound."""
        if self.total_bound == 0:
            return None
        return int(np.argmax(self.bytes_per_node))


class MemoryManager:
    """Tracks the NUMA node of every page of every registered object."""

    def __init__(
        self,
        n_nodes: int,
        page_size: int = DEFAULT_PAGE_SIZE,
        *,
        cache: bool = True,
        check: bool | None = None,
    ) -> None:
        if n_nodes < 1:
            raise MemoryError_(f"need at least one node, got {n_nodes}")
        if page_size < 1:
            raise MemoryError_(f"page size must be positive, got {page_size}")
        self.n_nodes = int(n_nodes)
        self.page_size = int(page_size)
        #: object key -> int8/int32 array of page->node (UNBOUND where untouched)
        self._pages: dict[int, np.ndarray] = {}
        self._sizes: dict[int, int] = {}
        #: running count of bound bytes per node
        self.bytes_on_node = np.zeros(self.n_nodes, dtype=np.int64)
        #: number of first-touch page bindings performed
        self.touch_count = 0
        #: number of pages moved by migrate()
        self.migrated_pages = 0
        # Placement cache: per-object version counters plus memo tables.
        # ``_ver[key]`` bumps on every placement change of the object, so a
        # memo entry is valid iff it was computed at the current version.
        self.cache_enabled = bool(cache)
        self.check_cache = _check_cache_env() if check is None else bool(check)
        self._ver: dict[int, int] = {}
        #: object key -> count of still-unbound pages; lets ``touch`` on a
        #: fully-bound object (every read of settled data) return without
        #: touching the page array.
        self._unbound: dict[int, int] = {}
        #: (key, offset, length) -> (version, RegionPlacement)
        self._range_cache: dict[tuple[int, int, int], tuple[int, RegionPlacement]] = {}
        #: task object -> (version signature, per_node, unbound); owned here
        #: so placement mutations invalidate it, filled by runtime.cost.
        self.task_cache: dict[object, tuple[tuple[int, ...], np.ndarray, int]] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        #: The simulator's probe (repro.runtime.probe), or None: notified
        #: after every placement mutation.
        self.probe = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, key: int, size_bytes: int) -> None:
        """Register an object of ``size_bytes`` bytes under ``key``.

        All its pages start unbound (virtual allocation only).
        """
        if key in self._pages:
            raise MemoryError_(f"object {key} already registered")
        if size_bytes <= 0:
            raise MemoryError_(f"object size must be positive, got {size_bytes}")
        n_pages = -(-size_bytes // self.page_size)  # ceil div
        self._pages[key] = np.full(n_pages, UNBOUND, dtype=np.int32)
        self._sizes[key] = int(size_bytes)
        self._ver[key] = 0
        self._unbound[key] = n_pages

    def is_registered(self, key: int) -> bool:
        return key in self._pages

    def size_of(self, key: int) -> int:
        self._check_key(key)
        return self._sizes[key]

    def _check_key(self, key: int) -> None:
        if key not in self._pages:
            raise MemoryError_(f"unknown object {key}")

    def _page_range(self, key: int, offset: int, length: int | None) -> slice:
        size = self._sizes[key]
        if length is None:
            length = size - offset
        if offset < 0 or length < 0 or offset + length > size:
            raise MemoryError_(
                f"range [{offset}, {offset + length}) outside object "
                f"{key} of size {size}"
            )
        if length == 0:
            return slice(0, 0)
        first = offset // self.page_size
        last = -(-(offset + length) // self.page_size)  # ceil
        return slice(first, last)

    # ------------------------------------------------------------------
    # Placement cache
    # ------------------------------------------------------------------
    def object_version(self, key: int) -> int:
        """Placement version of an object (bumps on every placement change)."""
        self._check_key(key)
        return self._ver[key]

    def _invalidate(self, key: int) -> None:
        """The object's placement changed: retire its memoised queries."""
        self._ver[key] += 1

    @property
    def cache_entries(self) -> int:
        """Number of memoised range queries currently held (diagnostics)."""
        return len(self._range_cache)

    # ------------------------------------------------------------------
    # Placement changes
    # ------------------------------------------------------------------
    def touch(
        self, key: int, node: int, offset: int = 0, length: int | None = None
    ) -> int:
        """First-touch the byte range: bind its *unbound* pages to ``node``.

        Returns the number of pages newly bound.  Already-bound pages are
        left where they are (first touch wins).
        """
        self._check_node(node)
        self._check_key(key)
        if self._unbound[key] == 0:
            if self.check_cache and int(
                (self._pages[key] == UNBOUND).sum()
            ) != 0:
                raise MemoryError_(
                    f"unbound-page counter diverged for object {key}: "
                    "counter says fully bound, pages disagree"
                )
            return 0  # fully bound: a touch can never move pages
        pages = self._pages[key]
        sl = self._page_range(key, offset, length)
        window = pages[sl]
        newly = window == UNBOUND
        n_new = int(newly.sum())
        if n_new:
            window[newly] = node
            self._unbound[key] -= n_new
            self.bytes_on_node[node] += n_new * self.page_size
            self.touch_count += n_new
            self._invalidate(key)
            if self.probe is not None:
                self.probe.on_memory_op(self, "touch", key)
        return n_new

    def bind(
        self, key: int, node: int, offset: int = 0, length: int | None = None
    ) -> None:
        """Explicitly bind a range to ``node``, moving pages if necessary.

        Models ``numactl``/``move_pages`` style placement by an expert
        programmer.
        """
        self._check_node(node)
        self._check_key(key)
        pages = self._pages[key]
        sl = self._page_range(key, offset, length)
        window = pages[sl]
        changed = False
        for old in np.unique(window):
            if old == node:
                continue
            changed = True
            count = int((window == old).sum())
            if old != UNBOUND:
                self.bytes_on_node[old] -= count * self.page_size
                self.migrated_pages += count
            else:
                self._unbound[key] -= count
            self.bytes_on_node[node] += count * self.page_size
        window[:] = node
        if changed:
            self._invalidate(key)
            if self.probe is not None:
                self.probe.on_memory_op(self, "bind", key)

    def migrate(self, key: int, node: int) -> int:
        """Migrate all *bound* pages of an object to ``node``.

        Unbound pages stay unbound.  Returns pages moved.
        """
        self._check_node(node)
        self._check_key(key)
        pages = self._pages[key]
        moving = (pages != UNBOUND) & (pages != node)
        n_moved = int(moving.sum())
        if n_moved:
            for old in np.unique(pages[moving]):
                count = int((pages[moving] == old).sum())
                self.bytes_on_node[old] -= count * self.page_size
            pages[moving] = node
            self.bytes_on_node[node] += n_moved * self.page_size
            self.migrated_pages += n_moved
            self._invalidate(key)
            if self.probe is not None:
                self.probe.on_memory_op(self, "migrate", key)
        return n_moved

    def interleave(self, key: int, nodes: list[int] | None = None) -> None:
        """Bind the object's pages round-robin across ``nodes``.

        Models ``numactl --interleave``; used for externally initialised
        read-only inputs.
        """
        self._check_key(key)
        if nodes is None:
            nodes = list(range(self.n_nodes))
        if not nodes:
            raise MemoryError_("interleave needs at least one node")
        for n in nodes:
            self._check_node(n)
        pages = self._pages[key]
        for i in range(len(pages)):
            self._rebind_page(pages, i, nodes[i % len(nodes)])
        self._unbound[key] = 0  # every page is bound after an interleave
        self._invalidate(key)
        if self.probe is not None:
            self.probe.on_memory_op(self, "interleave", key)

    def _rebind_page(self, pages: np.ndarray, idx: int, node: int) -> None:
        old = int(pages[idx])
        if old == node:
            return
        if old != UNBOUND:
            self.bytes_on_node[old] -= self.page_size
            self.migrated_pages += 1
        self.bytes_on_node[node] += self.page_size
        pages[idx] = node

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise MemoryError_(f"node {node} out of range [0, {self.n_nodes})")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node_bytes_of_range(
        self, key: int, offset: int = 0, length: int | None = None
    ) -> RegionPlacement:
        """Bytes of the range living on each node (page-rounded interior).

        Partial first/last pages are attributed proportionally to the bytes
        of the access that fall inside the page, so the totals sum exactly
        to the requested length.

        Results are memoised per (object, range) and stay valid until the
        object's placement version changes; the returned byte array is
        read-only (copy it before mutating).
        """
        ver = self._ver.get(key)
        if ver is None:
            self._check_key(key)
        if length is None:
            length = self._sizes[key] - offset
        if not self.cache_enabled:
            return self._compute_range(key, offset, length)
        cache_key = (key, offset, length)
        hit = self._range_cache.get(cache_key)
        if hit is not None and hit[0] == ver:
            self.cache_hits += 1
            if self.check_cache:
                fresh = self._compute_range(key, offset, length)
                if (
                    fresh.unbound_bytes != hit[1].unbound_bytes
                    or not np.array_equal(fresh.bytes_per_node, hit[1].bytes_per_node)
                ):
                    raise MemoryError_(
                        f"placement-cache divergence on object {key} range "
                        f"[{offset}, {offset + length}): cached {hit[1]} "
                        f"vs recomputed {fresh}"
                    )
            return hit[1]
        self.cache_misses += 1
        placement = self._compute_range(key, offset, length)
        self._range_cache[cache_key] = (ver, placement)
        return placement

    def _compute_range(self, key: int, offset: int, length: int) -> RegionPlacement:
        sl = self._page_range(key, offset, length)
        if sl.stop == sl.start:
            per_node = np.zeros(self.n_nodes, dtype=np.int64)
            per_node.setflags(write=False)
            return RegionPlacement(bytes_per_node=per_node, unbound_bytes=0)
        window = self._pages[key][sl].tolist()
        # Per-page overlap with [offset, offset+length): full pages except
        # possibly the first and last.  Ranges here are a handful of pages,
        # so a plain loop beats the vectorised form (exact int math either
        # way).
        page_size = self.page_size
        end = offset + length
        last = len(window) - 1
        acc = [0] * self.n_nodes
        unbound = 0
        for i, nd in enumerate(window):
            if 0 < i < last:
                ob = page_size
            else:
                s = (sl.start + i) * page_size
                lo = s if s > offset else offset
                hi = s + page_size
                if hi > end:
                    hi = end
                ob = hi - lo
            if nd == UNBOUND:
                unbound += ob
            else:
                acc[nd] += ob
        per_node = np.array(acc, dtype=np.int64)
        per_node.setflags(write=False)
        return RegionPlacement(bytes_per_node=per_node, unbound_bytes=unbound)

    def page_nodes(self, key: int) -> np.ndarray:
        """Read-only view of the page->node map of an object."""
        self._check_key(key)
        view = self._pages[key].view()
        view.setflags(write=False)
        return view

    def fraction_bound(self, key: int) -> float:
        """Fraction of the object's pages that have been bound."""
        pages = self._pages[key]
        if len(pages) == 0:
            return 1.0
        return float((pages != UNBOUND).mean())

    def reset_placement(self) -> None:
        """Unbind every page of every object (fresh run, same registry)."""
        for pages in self._pages.values():
            pages[:] = UNBOUND
        self.bytes_on_node[:] = 0
        self.touch_count = 0
        self.migrated_pages = 0
        for key in self._ver:
            self._ver[key] += 1
        self._range_cache.clear()
        self.task_cache.clear()
