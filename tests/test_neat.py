import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overnym.neat import (
    BloomFilter,
    GlobalLookup,
    LookupStats,
    NeatTable,
    NetworkLocator,
    SegmentMismatch,
    filter_params,
    fpr_analytic,
    lookup_global,
)
from overnym.wire import WireError

# Closed form evaluated independently at 50-digit precision before the
# implementation existed; the spec's worked example rounds differently.
FPR_9586_7_1000 = 0.010034531962677978


def key(i: int) -> bytes:
    return i.to_bytes(4, "big") * 8


def locator(segment: int, device: str = "dev") -> NetworkLocator:
    return NetworkLocator(device_id=device, port=8080, segment=segment)


def lookup(table: NeatTable, k: bytes) -> GlobalLookup:
    """lookup_global over this one table."""
    return lookup_global({table.segment: table}, k)


class TestFilterMath:
    def test_empty_filter_fpr_is_zero(self):
        assert fpr_analytic(1024, 7, 0) == 0.0

    def test_reference_point(self):
        assert fpr_analytic(9586, 7, 1000) == pytest.approx(FPR_9586_7_1000, rel=1e-12)

    def test_k1_m_equals_n(self):
        assert fpr_analytic(1000, 1, 1000) == pytest.approx(1 - math.exp(-1), rel=1e-12)

    def test_sizing_rule_one_percent(self):
        m, k = filter_params(10_000, 0.01)
        assert k == 7
        assert m / 10_000 == pytest.approx(9.59, abs=0.01)

    def test_sizing_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            filter_params(0, 0.01)
        with pytest.raises(ValueError):
            filter_params(10, 1.5)


class TestBloomFilter:
    def test_added_keys_always_maybe(self):
        bloom = BloomFilter(256, 3)
        for i in range(40):
            bloom.add(key(i))
        assert all(bloom.might_contain(key(i)) for i in range(40))
        assert bloom.count == 40

    def test_empty_filter_never_maybe(self):
        bloom = BloomFilter(64, 2)
        assert not bloom.might_contain(key(1))

    def test_snapshot_round_trip(self):
        bloom = BloomFilter(100, 4)
        for i in range(10):
            bloom.add(key(i))
        restored = BloomFilter.from_bytes(bloom.to_bytes())
        assert restored == bloom

    def test_snapshot_layout_little_endian(self):
        bloom = BloomFilter(64, 2)
        bloom.add(key(1))
        raw = bloom.to_bytes()
        assert raw[0:4] == (64).to_bytes(4, "little")
        assert raw[4] == 2
        assert raw[5:9] == (1).to_bytes(4, "little")
        assert len(raw) == 9 + 64 // 8

    def test_snapshot_length_mismatch_rejected(self):
        bloom = BloomFilter(64, 2)
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(bloom.to_bytes()[:-1])

    def test_snapshot_with_a_padding_bit_set_refused(self):
        # 614 = 76 * 8 + 6: the last byte's bits 6 and 7 lie past m. Were
        # they accepted, one filter would have more than one snapshot.
        raw = BloomFilter(614, 7).to_bytes()
        for bit in (6, 7):
            bent = bytearray(raw)
            bent[-1] |= 1 << bit
            with pytest.raises(WireError):
                BloomFilter.from_bytes(bytes(bent))
        last = bytearray(raw)
        last[-1] |= 1 << 5  # bit 613, the last one inside m
        assert BloomFilter.from_bytes(bytes(last)).to_bytes() == bytes(last)

    def test_geometry_bounds(self):
        with pytest.raises(ValueError):
            BloomFilter(4, 2)
        with pytest.raises(ValueError):
            BloomFilter(64, 0)


class TestNeatTable:
    def test_insert_then_lookup(self):
        table = NeatTable(1)
        table.insert(key(1), locator(1, "a"))
        assert lookup(table, key(1)) == GlobalLookup(locator(1, "a"), 1)

    def test_reinsert_overwrites(self):
        table = NeatTable(1)
        table.insert(key(1), locator(1, "old"))
        table.insert(key(1), locator(1, "new"))
        assert lookup(table, key(1)).locator.device_id == "new"
        assert len(table.keys()) == 1

    def test_segment_mismatch(self):
        table = NeatTable(1)
        with pytest.raises(SegmentMismatch):
            table.insert(key(1), locator(2))

    def test_negative_filter_short_circuits_exact_map(self):
        table = NeatTable(1)
        table.insert(key(1), locator(1))
        # find a key the filter rejects
        miss = next(k for k in (key(i) for i in range(2, 5000))
                    if not table.filter.might_contain(k))
        assert lookup(table, miss) == GlobalLookup(None, 0)

    def test_false_positive_absorbed_by_exact_map(self):
        # Brute-force search for a key whose bits are coincidentally set
        # in a small filter; lookup must return none after a map probe.
        table = NeatTable(1, m=64, k=2)
        for i in range(12):
            table.insert(key(i), locator(1))
        rng = random.Random(1)
        fp = None
        for _ in range(100_000):
            candidate = rng.getrandbits(256).to_bytes(32, "big")
            if candidate not in set(table.keys()) and table.filter.might_contain(candidate):
                fp = candidate
                break
        assert fp is not None, "no false positive found; filter too large for the search"
        assert lookup(table, fp) == GlobalLookup(None, 1)

    def test_remove_then_rebuild_clears_key(self):
        table = NeatTable(1)
        table.insert(key(1), locator(1))
        table.remove(key(1))
        table.rebuild_filter()
        assert lookup(table, key(1)) == GlobalLookup(None, 0)
        assert not table.filter.might_contain(key(1))

    def test_remove_absent_is_noop(self):
        table = NeatTable(1)
        table.remove(key(9))
        assert len(table.keys()) == 0

    def test_rebuild_counter_contract(self):
        table = NeatTable(1, capacity=1000)
        for i in range(1000):
            table.insert(key(i), locator(1))
        for i in range(500):
            table.remove(key(i))
        table.rebuild_filter()
        assert table.filter.count == 500
        for i in range(500, 1000):
            assert lookup(table, key(i)).locator is not None

    def test_no_false_negatives_after_random_workload(self):
        rng = random.Random(2)
        table = NeatTable(4, capacity=256)
        live = {}
        for step in range(2000):
            op = rng.random()
            k = key(rng.randrange(400))
            if op < 0.6:
                table.insert(k, locator(4, f"d{step}"))
                live[k] = step
            elif op < 0.9 and live:
                gone = rng.choice(sorted(live))
                table.remove(gone)
                del live[gone]
            else:
                table.rebuild_filter()
        for k in live:
            assert lookup(table, k).locator is not None

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(("insert", "remove", "rebuild")),
                              st.integers(0, 11)), max_size=60))
    def test_cached_positions_give_the_rehashed_filter(self, steps):
        # Reference: the filter that hashes every key with BloomFilter.add,
        # over the live keys again on each rebuild. A small filter makes
        # keys share bits, so a bit cleared or kept wrongly shows.
        table = NeatTable(1, m=64, k=3)
        reference = BloomFilter(64, 3)
        live = set()
        for op, i in steps:
            if op == "insert":
                if key(i) not in live:
                    reference.add(key(i))
                table.insert(key(i), locator(1))
                live.add(key(i))
            elif op == "remove":
                table.remove(key(i))
                live.discard(key(i))
            else:
                table.rebuild_filter()
                reference = BloomFilter(64, 3)
                for k in live:
                    reference.add(k)
            assert table.snapshot() == reference.to_bytes()
            assert table._positions == {k: reference.positions(k) for k in live}


class TestCountingFilter:
    def test_a_rebuild_touches_only_the_removed_keys_positions(self):
        # Were rebuild_filter to set every live key's bits again, it would
        # read each live key's positions: 9 lists at 10 keys, 999 at 1,000.
        read = []

        class Positions(list):
            def __iter__(self):
                read.append(self)
                return super().__iter__()

        for size in (10, 1000):
            table = NeatTable(1, capacity=size)
            for i in range(size):
                table.insert(key(i), locator(1))
            for k in table._positions:
                table._positions[k] = Positions(table._positions[k])
            table.remove(key(0))
            read.clear()
            table.rebuild_filter()
            assert len(read) == 1
            reference = BloomFilter(table.filter.m, table.filter.k)
            for i in range(1, size):
                reference.add(key(i))
            assert table.filter == reference

    @settings(max_examples=150, deadline=None)
    @given(segments=st.integers(3, 5),
           steps=st.lists(st.tuples(st.sampled_from(("insert", "remove", "rebuild", "lookup")),
                                    st.integers(0, 4), st.integers(0, 15)), max_size=80))
    def test_lookup_global_answers_as_the_snapshots_read(self, segments, steps):
        # Small filters make keys share bits, and a remove leaves its bits
        # until the rebuild: lookup_global must answer as a reader of each
        # table's snapshot bytes would, bit by bit. Keys 12-15 are never
        # inserted.
        tables = {seg: NeatTable(seg, m=64, k=3) for seg in range(segments)}
        live: dict[int, dict[bytes, NetworkLocator]] = {seg: {} for seg in tables}
        stats = LookupStats()

        def expected(k):
            found, probes, misses, negatives = None, 0, 0, 0
            for seg in sorted(tables):
                raw = tables[seg].snapshot()
                m, count, bits = int.from_bytes(raw[0:4], "little"), raw[5:9], raw[9:]
                positions = BloomFilter(m, raw[4]).positions(k)
                if count == bytes(4) or not all(bits[p // 8] >> (p % 8) & 1 for p in positions):
                    negatives += 1
                    continue
                probes += 1
                found = live[seg].get(k)
                if found is not None:
                    break
                misses += 1
            return found, probes, misses, negatives

        def check(k):
            before = (stats.hits, stats.false_positives, stats.true_negatives)
            found, probes, misses, negatives = expected(k)
            assert lookup_global(tables, k, stats) == GlobalLookup(found, probes)
            assert (stats.hits - before[0], stats.false_positives - before[1],
                    stats.true_negatives - before[2]) == (int(found is not None), misses, negatives)
            assert stats.probe_counts[-1] == probes

        for step, (op, seg, i) in enumerate(steps):
            seg %= segments
            if op == "insert" and i < 12:
                tables[seg].insert(key(i), locator(seg, f"d{step}"))
                live[seg][key(i)] = locator(seg, f"d{step}")
            elif op == "remove":
                tables[seg].remove(key(i))
                live[seg].pop(key(i), None)
            elif op == "rebuild":
                tables[seg].rebuild_filter()
            elif op == "lookup":
                check(key(i))
        for i in range(16):
            check(key(i))


class TestGlobalLookup:
    def build(self, segments: int = 4, per_segment: int = 50):
        tables = {}
        contents = {}
        for seg in range(segments):
            table = NeatTable(seg, capacity=per_segment)
            for i in range(per_segment):
                k = key(seg * 10_000 + i)
                table.insert(k, locator(seg, f"s{seg}-d{i}"))
                contents[k] = seg
            tables[seg] = table
        return tables, contents

    def test_present_key_found_with_probes(self):
        tables, contents = self.build()
        k = next(iter(contents))
        found, probes = lookup_global(tables, k)
        assert found is not None
        assert found.segment == contents[k]
        assert probes >= 1

    def test_absent_key_all_filters_negative(self):
        tables, _ = self.build(segments=2, per_segment=4)
        miss = next(k for k in (key(10**6 + i) for i in range(5000))
                    if not any(t.filter.might_contain(k) for t in tables.values()))
        result = lookup_global(tables, miss)
        assert result == GlobalLookup(None, 0)

    def test_agrees_with_linear_scan(self):
        rng = random.Random(3)
        tables, contents = self.build(segments=6, per_segment=30)
        probe_keys = list(contents) + [key(5_000_000 + i) for i in range(200)]
        rng.shuffle(probe_keys)
        for k in probe_keys:
            found, _ = lookup_global(tables, k)
            scan = None
            for seg in sorted(tables):
                hit = tables[seg]._exact.get(k)
                if hit is not None:
                    scan = hit
                    break
            assert found == scan

    def test_duplicate_key_resolves_lowest_segment(self):
        tables, _ = self.build(segments=3, per_segment=2)
        shared = key(777)
        tables[2].insert(shared, locator(2, "high"))
        tables[1].insert(shared, locator(1, "low"))
        found, _ = lookup_global(tables, shared)
        assert found.segment == 1

    def test_stats_accumulate(self):
        tables, contents = self.build(segments=3, per_segment=20)
        stats = LookupStats()
        for k in list(contents)[:10]:
            lookup_global(tables, k, stats)
        assert stats.hits == 10
        assert len(stats.probe_counts) == 10
        assert stats.observed_fpr() >= 0.0
