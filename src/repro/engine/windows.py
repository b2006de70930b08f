"""Window operators: sliding-window aggregation and windowed joins.

Both operators keep their panes inside the instance's key-group state
backend, so window state migrates with the key-group — exactly what makes
window-heavy workloads (NEXMark Q7/Q8) expensive to rescale.

State-size accounting: each record contributes ``bytes_per_record`` to its
key-group (list-style window contents), released when the pane is purged.
This is how the benchmarks reach the paper's state-size targets (~800 MB for
Q7, ~3 GB for Q8, §V-B) without materialising gigabytes of Python objects.

**Granularity note**: panes aggregate at *key-group* granularity (one pane
per key-group per window start) rather than per key — the same batching
compromise that lets one simulated record stand for hundreds of physical
ones.  Key-groups are the atomic unit of state migration, so this does not
change any scaling behaviour; per-key state semantics are exercised by the
``KeyedReduceLogic`` operators instead.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, Optional, Tuple

from .operators import OperatorLogic
from .records import Record, StreamElement

__all__ = ["SlidingWindowAggregateLogic", "WindowedJoinLogic"]


# One (key-group, window-start) aggregation pane, stored as a bare list for
# update speed: [count, bytes, value].  With ~size/slide panes touched per
# record this is the single hottest store in the engine; list indexing beats
# attribute access and the pane never leaves this module.
_P_COUNT, _P_BYTES, _P_VALUE = 0, 1, 2


def _window_starts(event_time: float, size: float, slide: float
                   ) -> List[float]:
    """Starts of all sliding windows containing ``event_time``."""
    last = math.floor(event_time / slide) * slide
    first = last - size + slide
    starts = []
    start = first
    while start <= last:
        if start + size > event_time >= start:
            starts.append(start)
        start += slide
    return starts


class SlidingWindowAggregateLogic(OperatorLogic):
    """Keyed sliding-window aggregate (NEXMark Q7 style: max over window).

    Per window fire, emits one record per key-group pane (value = aggregate),
    then purges the pane and releases its state bytes.
    """

    # Pane feeding reads only the record (event_time/count/value) and the
    # state backend — never sim.now — and emits nothing per record, so the
    # batched plane may apply records analytically at their end times.
    batch_eligible = True

    def __init__(self, size: float, slide: float,
                 agg_fn: Callable[[Any, Record], Any] = None,
                 bytes_per_record: float = 512.0,
                 allowed_lateness: float = 0.0):
        if size <= 0 or slide <= 0:
            raise ValueError("size and slide must be positive")
        if size < slide:
            raise ValueError("size must be >= slide for sliding windows")
        self.size = size
        self.slide = slide
        self.agg_fn = agg_fn or self._default_agg
        self.bytes_per_record = bytes_per_record
        self.allowed_lateness = allowed_lateness
        self.windows_fired = 0
        # Window starts depend on event_time only through its slide bucket;
        # records cluster in few buckets, so memoize per bucket.
        self._starts_memo: dict = {}
        self._fast_agg = self.agg_fn is SlidingWindowAggregateLogic._default_agg
        # Fire-floor memo: key_group -> [state version, lower bound on the
        # start of any live pane].  ``on_watermark`` skips a group's entry
        # scan entirely while ``floor + size > cutoff`` — no pane can be
        # ripe.  The bound is maintained by this logic's own pane
        # creations/purges; any *foreign* bulk mutation of the group's
        # entries (migration install, rollback, recovery merge) bumps
        # ``KeyGroupState.version``, which invalidates the memo entry and
        # forces one full rescan.  A stale-low floor only costs a scan;
        # version invalidation prevents the dangerous stale-high case.
        self._fire_floor: dict = {}
        # Grid-exact windows additionally let ``on_watermark`` *probe* ripe
        # panes by key instead of scanning every entry: when the slide is a
        # multiple of 1/8 and the size an exact float multiple of the
        # slide, every start ``_window_starts`` ever computes is an exact
        # multiple of the slide, and stepping ``start += slide`` from a
        # live pane's start reproduces the exact float keys (all values are
        # multiples of 2^-3 far below 2^50, so the arithmetic is exact).
        # Non-grid windows (or an invalidated memo) take the scan path.
        eighth = slide * 8.0
        self._grid_exact = (eighth == math.floor(eighth)
                            and math.fmod(size, slide) == 0.0)

    @staticmethod
    def _default_agg(current: Any, record: Record) -> Any:
        candidate = record.value if record.value is not None else record.count
        try:
            if current is None or candidate > current:
                return candidate
        except TypeError:
            return candidate
        return current

    def on_record(self, record, instance):
        kg = record.key_group
        event_time = record.event_time
        bucket = math.floor(event_time / self.slide)
        # Memoized per bucket: the ``("pane", start)`` entry keys themselves,
        # so the hot loop allocates no tuples at all.
        pane_keys = self._starts_memo.get(bucket)
        if pane_keys is None:
            pane_keys = [("pane", start) for start in
                         _window_starts(event_time, self.size, self.slide)]
            self._starts_memo[bucket] = pane_keys
        if not pane_keys:
            return []
        # One pass over the key-group's entry dict; the per-pane
        # ``state.get``/``state.put``/``state.add_bytes`` calls of the naive
        # loop collapse into direct entry access plus one merged byte-count
        # update (all deltas are positive, so merging cannot hit the
        # zero-clamp and is observably identical).
        state = instance.state
        group = state.group(kg)
        if group is None:
            group = state.register_group(kg)
        entries = group.entries
        count = record.count
        added = self.bytes_per_record * count
        fast_agg = self._fast_agg
        if fast_agg:
            candidate = record.value if record.value is not None else count
        floor = self._fire_floor.get(kg)
        if floor is not None and floor[0] != group.version:
            floor = None  # foreign bulk mutation: next watermark rescans
        new_panes = 0
        for pane_key in pane_keys:
            pane = entries.get(pane_key)
            if pane is None:
                pane = [0, 0.0, None]
                entries[pane_key] = pane
                new_panes += 1
                if floor is not None and pane_key[1] < floor[1]:
                    floor[1] = pane_key[1]
            pane[_P_COUNT] += count
            if fast_agg:
                current = pane[_P_VALUE]
                try:
                    if current is None or candidate > current:
                        pane[_P_VALUE] = candidate
                except TypeError:
                    pane[_P_VALUE] = candidate
            else:
                pane[_P_VALUE] = self.agg_fn(pane[_P_VALUE], record)
            pane[_P_BYTES] += added
        group.size_bytes += (added * len(pane_keys)
                             + new_panes * state.bytes_per_entry)
        return []

    def on_record_batch(self, records, lo, hi, instance):
        """Apply consume-batch members ``records[lo:hi]`` in one call.

        Bit-identical to calling :meth:`on_record` member-by-member:
        members are regrouped by key-group — safe, because two key-groups
        never share a pane, an entries dict or a ``size_bytes`` cell — and
        within a group processed in arrival order, with the per-pane dict
        lookups hoisted out of runs of records sharing one slide bucket.
        Every float accumulates into its pane and into ``size_bytes`` in
        exactly the per-record order, so sums match to the last bit.
        Custom ``agg_fn``s may observe global call order, so only the
        default (max) aggregate takes the regrouped path.
        """
        if not self._fast_agg:
            for idx in range(lo, hi):
                self.on_record(records[idx], instance)
            return
        by_kg: dict = {}
        for idx in range(lo, hi):
            rec = records[idx]
            kg = rec.key_group
            lst = by_kg.get(kg)
            if lst is None:
                by_kg[kg] = [rec]
            else:
                lst.append(rec)
        state = instance.state
        groups = state._groups
        memo = self._starts_memo
        fire_floor = self._fire_floor
        slide = self.slide
        size = self.size
        bpr = self.bytes_per_record
        bpe = state.bytes_per_entry
        floor_of = math.floor
        for kg, recs in by_kg.items():
            group = groups.get(kg)
            if group is None:
                group = state.register_group(kg)
            entries = group.entries
            gsb = group.size_bytes
            floor = fire_floor.get(kg)
            if floor is not None and floor[0] != group.version:
                floor = None
            m = len(recs)
            a = 0
            while a < m:
                rec = recs[a]
                bucket = floor_of(rec.event_time / slide)
                b = a + 1
                while b < m and floor_of(recs[b].event_time
                                         / slide) == bucket:
                    b += 1
                pane_keys = memo.get(bucket)
                if pane_keys is None:
                    pane_keys = [("pane", start) for start in
                                 _window_starts(rec.event_time, size, slide)]
                    memo[bucket] = pane_keys
                if not pane_keys:
                    a = b
                    continue
                npk = len(pane_keys)
                panes = []
                new_panes = 0
                for pane_key in pane_keys:
                    pane = entries.get(pane_key)
                    if pane is None:
                        pane = [0, 0.0, None]
                        entries[pane_key] = pane
                        new_panes += 1
                        if floor is not None and pane_key[1] < floor[1]:
                            floor[1] = pane_key[1]
                    panes.append(pane)
                for idx in range(a, b):
                    rec = recs[idx]
                    count = rec.count
                    added = bpr * count
                    candidate = (rec.value if rec.value is not None
                                 else count)
                    for pane in panes:
                        pane[_P_COUNT] += count
                        current = pane[_P_VALUE]
                        try:
                            if current is None or candidate > current:
                                pane[_P_VALUE] = candidate
                        except TypeError:
                            pane[_P_VALUE] = candidate
                        pane[_P_BYTES] += added
                    if idx == a:
                        # Only the run's first record can create panes;
                        # later members add ``x + 0.0`` in the per-record
                        # plane, which is bitwise ``x`` here (x >= 0).
                        gsb += added * npk + new_panes * bpe
                    else:
                        gsb += added * npk
                a = b
            group.size_bytes = gsb

    def on_watermark(self, timestamp, instance):
        outputs: List[StreamElement] = []
        cutoff = timestamp - self.allowed_lateness
        size = self.size
        state = instance.state
        bytes_per_entry = state.bytes_per_entry
        now = instance.sim.now
        fire_floor = self._fire_floor
        grid_exact = self._grid_exact
        slide = self.slide
        for group in state.groups():
            if not group.processable:
                continue
            kg = group.key_group
            floor = fire_floor.get(kg)
            if floor is not None and floor[0] == group.version:
                start = floor[1]
                if start + size > cutoff:
                    continue  # provably nothing ripe: skip entirely
                if grid_exact:
                    # Probe ripe panes directly on the start grid — no
                    # entry scan at all.  Fires in ascending start order;
                    # the floor advances to the first unripe grid point,
                    # so probes are amortised O(fired + watermark delta).
                    entries = group.entries
                    while start + size <= cutoff:
                        pane_key = ("pane", start)
                        pane = entries.get(pane_key)
                        if pane is not None:
                            outputs.append(Record(
                                key=("window", kg, start),
                                key_group=None,
                                event_time=start + size,
                                value=pane[_P_VALUE],
                                count=1,
                                size_bytes=64.0,
                                created_at=now,
                            ))
                            del entries[pane_key]
                            group.size_bytes = max(
                                0.0, group.size_bytes - pane[_P_BYTES])
                            group.size_bytes = max(
                                0.0, group.size_bytes - bytes_per_entry)
                            self.windows_fired += 1
                        start += slide
                    floor[1] = start
                    continue
            fired: List[Tuple[Any, list]] = []
            min_live = math.inf
            # Scan without copying: nothing mutates entries until the
            # purge loop below.
            for entry_key, pane in group.entries.items():
                if type(entry_key) is tuple and entry_key[0] == "pane":
                    start = entry_key[1]
                    if start + size <= cutoff:
                        fired.append((entry_key, pane))
                    elif start < min_live:
                        min_live = start
            if floor is None:
                fire_floor[kg] = [group.version, min_live]
            else:
                floor[0] = group.version
                floor[1] = min_live
            for entry_key, pane in fired:
                start = entry_key[1]
                outputs.append(Record(
                    key=("window", group.key_group, start),
                    key_group=None,
                    event_time=start + size,
                    value=pane[_P_VALUE],
                    count=1,
                    size_bytes=64.0,
                    created_at=now,
                ))
                # Inlined state.add_bytes(kg, -pane bytes) followed by
                # state.delete(kg, entry_key) — including both zero-clamps,
                # in the same order.
                del group.entries[entry_key]
                group.size_bytes = max(0.0, group.size_bytes - pane[_P_BYTES])
                group.size_bytes = max(0.0, group.size_bytes - bytes_per_entry)
                self.windows_fired += 1
        return outputs


class WindowedJoinLogic(OperatorLogic):
    """Keyed tumbling-window co-group join (NEXMark Q8 style).

    Records are tagged by side via ``side_fn(record) -> "left" | "right"``.
    On window fire, emits one record per key-group pane where both sides are
    present (value = (#left, #right)).
    """

    # Same contract as SlidingWindowAggregateLogic: per-record feeding is
    # time-blind and silent, so analytic batch application is exact.
    batch_eligible = True

    def __init__(self, size: float, slide: Optional[float] = None,
                 side_fn: Callable[[Record], str] = None,
                 bytes_per_record: float = 512.0):
        if size <= 0:
            raise ValueError("size must be positive")
        self.size = size
        self.slide = slide or size
        if self.size < self.slide:
            raise ValueError("size must be >= slide")
        self.side_fn = side_fn or (
            lambda record: record.value[0] if isinstance(record.value, tuple)
            else "left")
        self.bytes_per_record = bytes_per_record
        self.joins_emitted = 0
        self._starts_memo: dict = {}
        # Same fire-floor memo and grid-exact probe gate as
        # SlidingWindowAggregateLogic (see there).
        self._fire_floor: dict = {}
        eighth = self.slide * 8.0
        self._grid_exact = (eighth == math.floor(eighth)
                            and math.fmod(self.size, self.slide) == 0.0)

    def on_record(self, record, instance):
        kg = record.key_group
        side = self.side_fn(record)
        bucket = math.floor(record.event_time / self.slide)
        starts = self._starts_memo.get(bucket)
        if starts is None:
            starts = _window_starts(record.event_time, self.size, self.slide)
            self._starts_memo[bucket] = starts
        for start in starts:
            pane_key = ("join", start)
            pane = instance.state.get(kg, pane_key)
            if pane is None:
                pane = {"left": 0, "right": 0, "bytes": 0.0}
                instance.state.put(kg, pane_key, pane)
                floor = self._fire_floor.get(kg)
                if floor is not None:
                    group = instance.state.group(kg)
                    if floor[0] == group.version and start < floor[1]:
                        floor[1] = start
            pane[side] = pane.get(side, 0) + record.count
            added = self.bytes_per_record * record.count
            pane["bytes"] += added
            instance.state.add_bytes(kg, added)
        return []

    def on_watermark(self, timestamp, instance):
        outputs: List[StreamElement] = []
        fire_floor = self._fire_floor
        size = self.size
        slide = self.slide
        grid_exact = self._grid_exact
        for group in instance.state.groups():
            if not group.processable:
                continue
            floor = fire_floor.get(group.key_group)
            if floor is not None and floor[0] == group.version:
                start = floor[1]
                if start + size > timestamp:
                    continue  # provably nothing ripe: skip entirely
                if grid_exact:
                    entries = group.entries
                    while start + size <= timestamp:
                        pane_key = ("join", start)
                        pane = entries.get(pane_key)
                        if pane is not None:
                            if pane.get("left", 0) and pane.get("right", 0):
                                outputs.append(Record(
                                    key=("join", group.key_group, start),
                                    key_group=None,
                                    event_time=start + size,
                                    value=(pane["left"], pane["right"]),
                                    count=1,
                                    size_bytes=64.0,
                                    created_at=instance.sim.now,
                                ))
                                self.joins_emitted += 1
                            instance.state.add_bytes(group.key_group,
                                                     -pane["bytes"])
                            instance.state.delete(group.key_group, pane_key)
                        start += slide
                    floor[1] = start
                    continue
            min_live = math.inf
            for entry_key, pane in list(group.entries.items()):
                if not (isinstance(entry_key, tuple)
                        and entry_key[0] == "join"):
                    continue
                start = entry_key[1]
                if start + self.size > timestamp:
                    if start < min_live:
                        min_live = start
                    continue
                if pane.get("left", 0) and pane.get("right", 0):
                    outputs.append(Record(
                        key=("join", group.key_group, start),
                        key_group=None,
                        event_time=start + self.size,
                        value=(pane["left"], pane["right"]),
                        count=1,
                        size_bytes=64.0,
                        created_at=instance.sim.now,
                    ))
                    self.joins_emitted += 1
                instance.state.add_bytes(group.key_group,
                                         -pane["bytes"])
                instance.state.delete(group.key_group, entry_key)
            if floor is None:
                fire_floor[group.key_group] = [group.version, min_live]
            else:
                floor[0] = group.version
                floor[1] = min_live
        return outputs
