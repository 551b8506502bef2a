"""Boxes, core region, nested partitions, and the shift cover."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from levelsim.gff import (
    Box,
    CoverConstructionError,
    Schedule,
    core_region,
    counting_check,
    flat_partition,
    nested_partitions,
    shift_cover,
    uniform_schedule,
)


class TestBox:
    def test_geometry_accessors(self):
        box = Box(2, 3, 4, 5)
        assert box.row_end == 6
        assert box.col_end == 8
        assert box.side == 5
        assert not box.is_singleton
        assert Box(1, 1, 1, 1).is_singleton
        assert box.slices() == (slice(2, 6), slice(3, 8))

    def test_center(self):
        assert Box(0, 0, 5, 5).center() == (2, 2)
        assert Box(0, 0, 4, 4).center() == (1, 1)
        assert Box(10, 20, 3, 7).center() == (11, 23)

    def test_containment_and_gap(self):
        outer = Box(0, 0, 10, 10)
        inner = Box(2, 3, 4, 4)
        assert outer.contains(inner)
        assert not inner.contains(outer)
        assert outer.boundary_gap(inner) == 2
        assert outer.boundary_gap(outer) == 0
        with pytest.raises(ValueError):
            inner.boundary_gap(outer)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Box(0, 0, 0, 3)


class TestCoreRegion:
    def test_quarter_side_when_divisible(self):
        core = core_region(64)
        assert core == Box(24, 24, 16, 16)
        assert core.side == 16

    def test_all_core_sites_are_deep(self):
        n = 64
        core = core_region(n)
        for r in range(core.row0, core.row_end):
            for c in range(core.col0, core.col_end):
                assert min(r, c, n - 1 - r, n - 1 - c) * 8 >= 3 * n
        # one step out in any direction violates the depth requirement
        assert (core.row0 - 1) * 8 < 3 * n

    def test_small_grids(self):
        assert core_region(8) == Box(3, 3, 2, 2)
        with pytest.raises(ValueError):
            core_region(7)


class TestFlatPartition:
    def _assert_exact_cover(self, region, boxes):
        mask = np.zeros((region.height, region.width), dtype=int)
        for b in boxes:
            assert region.contains(b)
            mask[b.row0 - region.row0 : b.row_end - region.row0,
                 b.col0 - region.col0 : b.col_end - region.col0] += 1
        assert np.all(mask == 1)

    def test_exact_tiling(self):
        region = Box(4, 4, 16, 16)
        boxes = flat_partition(region, 4)
        assert len(boxes) == 16
        assert all(b.height == 4 and b.width == 4 for b in boxes)
        self._assert_exact_cover(region, boxes)

    def test_singletons(self):
        region = Box(0, 0, 5, 7)
        boxes = flat_partition(region, 1)
        assert len(boxes) == 35
        assert all(b.is_singleton for b in boxes)

    def test_remainder_absorbed_by_last_tiles(self):
        region = Box(0, 0, 10, 10)
        boxes = flat_partition(region, 4)
        assert len(boxes) == 4
        sides = sorted((b.height, b.width) for b in boxes)
        assert sides == [(4, 4), (4, 6), (6, 4), (6, 6)]
        self._assert_exact_cover(region, boxes)

    def test_oversized_tile_returns_region(self):
        region = Box(0, 0, 4, 4)
        assert flat_partition(region, 9) == [region]
        with pytest.raises(ValueError):
            flat_partition(region, 0)


class TestSchedule:
    def test_uniform_values(self):
        sched = uniform_schedule(64, levels=2)
        assert sched.exponents == (1.0, 0.5, 0.0)
        assert sched.depth == 2
        assert uniform_schedule(64, levels=1).exponents == (1.0, 0.0)

    def test_default_depth_is_small(self):
        assert uniform_schedule(64).depth in (1, 2)
        assert uniform_schedule(512).depth in (1, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            Schedule((1.0, 0.5))
        with pytest.raises(ValueError):
            Schedule((0.9, 0.5, 0.0))
        with pytest.raises(ValueError):
            Schedule((1.0, 0.5, 0.5, 0.0))
        with pytest.raises(ValueError):
            uniform_schedule(64, delta=0.0)
        with pytest.raises(ValueError):
            uniform_schedule(64, levels=0)


class TestNestedPartitions:
    def test_single_level_hierarchy(self):
        parts = nested_partitions(64, uniform_schedule(64, levels=1))
        assert parts.depth == 1
        assert parts.levels[0] == (core_region(64),)
        # margin 1/4 of the side-16 core keeps the central 8x8 singletons
        assert len(parts.levels[1]) == 64
        assert all(b.is_singleton for b in parts.levels[1])
        assert parts.margin_ok()

    def test_two_level_hierarchy(self):
        parts = nested_partitions(64, uniform_schedule(64, levels=2))
        assert [len(level) for level in parts.levels] == [1, 4, 16]
        assert parts.margin_ok()
        for level, kids in enumerate(parts.children):
            for j, child_idx in enumerate(kids):
                parent = parts.levels[level][j]
                for k in child_idx:
                    assert parent.contains(parts.levels[level + 1][k])

    def test_counting_bound(self):
        one = nested_partitions(64, uniform_schedule(64, levels=1))
        starred, flat, ok = counting_check(one)
        assert (starred, flat, ok) == (64, 256, True)
        two = nested_partitions(64, uniform_schedule(64, levels=2))
        starred2, flat2, ok2 = counting_check(two)
        assert (starred2, flat2, ok2) == (16, 256, True)

    def test_margin_ok_needs_exactly_the_margin_tiles(self):
        parts = nested_partitions(64, uniform_schedule(64, levels=2))
        kids = parts.children[1]
        # a kept child dropped: every remaining child still meets the margin
        dropped = (kids[0][1:],) + kids[1:]
        assert not replace(parts, children=(parts.children[0], dropped)).margin_ok()
        # a tile inside the margin kept in place of a legal one
        inner = parts.levels[1][0]
        edge = Box(inner.row0, inner.col0, 1, 1)
        moved = (edge,) + parts.levels[2][1:]
        assert not replace(parts, levels=parts.levels[:2] + (moved,)).margin_ok()

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            nested_partitions(64, uniform_schedule(64, levels=1), margin=0.5)
        with pytest.raises(ValueError):
            nested_partitions(64, uniform_schedule(64, levels=1), margin=-0.1)

    def test_overtight_margin_rejected(self):
        # margin just under 1/2 keeps no singleton of the side-2 core at N=8
        with pytest.raises(ValueError, match="no boxes"):
            nested_partitions(8, uniform_schedule(8, levels=1), margin=Fraction(49, 100))


class TestShiftCover:
    def _recheck_cover(self, parts, cover):
        core = core_region(parts.grid_n)
        covered = set()
        for dr, dc in cover.shifts:
            for box in parts.levels[-1]:
                for r in range(box.row0, box.row_end):
                    for c in range(box.col0, box.col_end):
                        covered.add((r + dr, c + dc))
        for r in range(core.row0, core.row_end):
            for c in range(core.col0, core.col_end):
                assert (r, c) in covered

    def test_single_level_cover(self):
        parts = nested_partitions(64, uniform_schedule(64, levels=1))
        cover = shift_cover(parts)
        assert cover.verified
        assert len(cover.shifts) == 4
        assert cover.max_shift * 4 <= 64
        self._recheck_cover(parts, cover)

    def test_two_level_cover(self):
        parts = nested_partitions(256, uniform_schedule(256, levels=2))
        cover = shift_cover(parts)
        assert len(cover.shifts) == 16
        assert cover.max_shift * 4 <= 256
        self._recheck_cover(parts, cover)

    def test_zero_margin_needs_single_shift(self):
        parts = nested_partitions(64, uniform_schedule(64, levels=1), margin=0)
        cover = shift_cover(parts)
        assert cover.shifts == ((0, 0),)

    def test_rejects_oversized_children(self):
        # a schedule step that barely shrinks leaves children wider than half
        parts = nested_partitions(64, Schedule((1.0, 0.9, 0.0)), margin=0)
        with pytest.raises(CoverConstructionError, match="half"):
            shift_cover(parts)


# The flat count and the cover as they stood before the partitions were built
# per axis: the count from the tiles built, the cover marked box by box. The
# sweep below holds the per-axis construction to them, and to margin_ok's
# definition of the kept children, every flat tile against boundary_gap.


def _reference_counting(parts):
    core = core_region(parts.grid_n)
    side = max(1, round((parts.grid_n / 4) ** parts.schedule.exponents[-1]))
    flat = len(flat_partition(core, side))
    starred = len(parts.levels[-1])
    return starred, flat, starred * 4**parts.depth >= flat


def _reference_cover(parts):
    levels = parts.levels
    for i in range(len(levels) - 1):
        parent_side, child_side = levels[i][0].side, levels[i + 1][0].side
        if 2 * child_side > parent_side:
            raise CoverConstructionError(
                f"level {i + 1} side {child_side} exceeds half of parent side "
                f"{parent_side}; cover induction needs ratio <= 1/2"
            )
    axis_offsets = []
    for i, kids in enumerate(parts.children):
        parent = levels[i][0]
        blocks = [levels[i + 1][k] for k in kids[0]]
        if not blocks:
            raise CoverConstructionError(f"level {i} parent has no kept children")
        r_lo, r_hi = min(b.row0 for b in blocks), max(b.row_end for b in blocks)
        c_lo, c_hi = min(b.col0 for b in blocks), max(b.col_end for b in blocks)
        if 2 * (r_hi - r_lo) < parent.height or 2 * (c_hi - c_lo) < parent.width:
            raise CoverConstructionError(
                f"children aggregate {r_hi - r_lo}x{c_hi - c_lo} cannot cover "
                f"parent {parent.height}x{parent.width} with two translates per axis"
            )
        axis_offsets.append(
            (
                (parent.row0 - r_lo, parent.row_end - r_hi),
                (parent.col0 - c_lo, parent.col_end - c_hi),
            )
        )
    shifts = [(0, 0)]
    for row_pair, col_pair in axis_offsets:
        shifts = [(r + dr, c + dc) for r, c in shifts for dr in row_pair for dc in col_pair]
    shifts = sorted(set(shifts))
    core = core_region(parts.grid_n)
    mask = np.zeros((core.height, core.width), dtype=bool)
    for dr, dc in shifts:
        for b in levels[-1]:
            r, c = b.row0 + dr - core.row0, b.col0 + dc - core.col0
            rr = slice(max(r, 0), min(r + b.height, core.height))
            cc = slice(max(c, 0), min(c + b.width, core.width))
            if rr.start < rr.stop and cc.start < cc.stop:
                mask[rr, cc] = True
    if not mask.all():
        miss = np.argwhere(~mask)[0]
        raise CoverConstructionError(
            f"cover misses site ({miss[0] + core.row0}, {miss[1] + core.col0}) "
            f"of the core region at N={parts.grid_n}"
        )
    max_shift = max(max(abs(r), abs(c)) for r, c in shifts)
    if 4 * max_shift > parts.grid_n:
        raise CoverConstructionError(
            f"shift magnitude {max_shift} exceeds N/4 = {parts.grid_n / 4}"
        )
    return tuple(shifts), max_shift


def _outcome(build, *args):
    """build(*args), or the type and text of what it raised."""
    try:
        return build(*args)
    except ValueError as err:
        return type(err), str(err)


def test_cover_reports_the_first_missed_site_as_before():
    # the 16 composed shifts tile the core exactly once, so a final box moved
    # onto another leaves sites uncovered; the last box belongs to the last
    # parent, so the per-level aggregates, read off the first, do not change
    parts = nested_partitions(256, uniform_schedule(256, levels=2))
    final = parts.levels[2]
    holed = replace(parts, levels=parts.levels[:2] + (final[:-1] + final[:1],))
    expected = _outcome(_reference_cover, holed)
    assert expected[0] is CoverConstructionError and "misses site" in expected[1]
    assert _outcome(shift_cover, holed) == expected


SWEEP_SIZES = (*range(16, 517, 4), 1024, 1536, 2048)


@pytest.mark.parametrize("levels", [1, 2])
def test_per_axis_construction_matches_the_tile_by_tile_one(levels):
    outcomes = {}
    for n in SWEEP_SIZES:
        try:
            parts = nested_partitions(n, uniform_schedule(n, levels=levels))
        except ValueError as err:
            assert "leaves no boxes" in str(err), n
            outcomes[n] = "no boxes"
            continue
        assert parts.margin_ok(), n
        for level, kids in zip(parts.levels[1:], parts.children):
            assert sum(kids, ()) == tuple(range(len(level))), n
        assert counting_check(parts) == _reference_counting(parts), n
        cover = _outcome(shift_cover, parts)
        expected = _outcome(_reference_cover, parts)
        if isinstance(expected[0], type):
            assert cover == expected, n
            outcomes[n] = "no cover"
        else:
            assert (cover.shifts, cover.max_shift) == expected, n
            outcomes[n] = "cover"
    # the sizes the construction cannot serve stay as they were (ROADMAP
    # item 6): at L = 2 no boxes up to N = 36, and a cover only at five sizes
    if levels == 2:
        assert {n for n, o in outcomes.items() if o == "no boxes"} == set(range(16, 37, 4))
        assert {n for n, o in outcomes.items() if o == "cover"} == {64, 68, 256, 260, 1024}
    else:
        assert "no boxes" not in outcomes.values()
