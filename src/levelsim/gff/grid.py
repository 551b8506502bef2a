"""Lattice geometry: boxes, the core region, nested partitions, shift covers.

Sites are 0-indexed pairs (row, col) on the N x N grid; the boundary is the
outer frame and the core region is the central square of sites at L-infinity
distance >= 3N/8 from the frame (side N/4 when 8 divides N). The multiscale
construction tiles the core with squares of side (N/4)^{s_i} along a strictly
decreasing schedule 1 = s_0 > ... > s_L = 0 and keeps, at each level, only the
children separated from their parent's boundary by a fixed fraction of the
parent side, tolerances.PARTITION_MARGIN. At 1/4 the kept children occupy the
central half of each parent, four translates per level tile the parent
exactly, and the final singleton level covers the core under 4^L composed
shifts while numbering at least 4^{-L} of the flat singleton count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import tolerances as tol

__all__ = [
    "Box",
    "core_region",
    "flat_partition",
    "Schedule",
    "uniform_schedule",
    "NestedPartitions",
    "nested_partitions",
    "counting_check",
    "ShiftCover",
    "CoverConstructionError",
    "shift_cover",
]

@dataclass(frozen=True, order=True)
class Box:
    """Axis-aligned block of sites: rows [row0, row0+height) x cols [col0, col0+width)."""

    row0: int
    col0: int
    height: int
    width: int

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValueError(f"degenerate box {self}")

    @property
    def row_end(self) -> int:
        return self.row0 + self.height

    @property
    def col_end(self) -> int:
        return self.col0 + self.width

    @property
    def side(self) -> int:
        """Side length; remainder-absorbing boxes report their longer side."""
        return max(self.height, self.width)

    @property
    def is_singleton(self) -> bool:
        return self.height == 1 and self.width == 1

    def contains(self, other: "Box") -> bool:
        return (
            self.row0 <= other.row0
            and self.col0 <= other.col0
            and other.row_end <= self.row_end
            and other.col_end <= self.col_end
        )

    def boundary_gap(self, child: "Box") -> int:
        """L-infinity distance from child to this box's inner boundary frame."""
        if not self.contains(child):
            raise ValueError(f"{child} is not inside {self}")
        return min(
            child.row0 - self.row0,
            child.col0 - self.col0,
            self.row_end - child.row_end,
            self.col_end - child.col_end,
        )

    def center(self) -> tuple[int, int]:
        """Center site; lower-left of the four central sites for even sides."""
        return (self.row0 + (self.height - 1) // 2, self.col0 + (self.width - 1) // 2)

    def slices(self) -> tuple[slice, slice]:
        return (slice(self.row0, self.row_end), slice(self.col0, self.col_end))


def core_region(grid_n: int) -> Box:
    """Central square of sites at distance >= 3N/8 from the boundary frame."""
    if grid_n < 8:
        raise ValueError(f"grid too small for a core region, got N={grid_n}")
    lo = -((-3 * grid_n) // 8)  # ceil(3N/8), exact
    side = grid_n - 2 * lo
    if side < 1:
        raise ValueError(f"core region empty at N={grid_n}")
    return Box(lo, lo, side, side)


# (offset, length) spans along one axis of a region
_Spans = list[tuple[int, int]]


def _cuts(extent: int, side: int) -> _Spans:
    """(offset, length) spans cutting one axis of `extent` sites into
    side-long tiles, the remainder absorbed by the last tile."""
    k = extent // side
    spans = [(i * side, side) for i in range(k)]
    rem = extent - k * side
    if rem:
        spans[-1] = (spans[-1][0], side + rem)
    return spans


def _axis_spans(height: int, width: int, side: int) -> tuple[_Spans, _Spans]:
    """The row spans and the column spans, relative to the corner, of the
    tiles flat_partition makes in a height x width region: the one cut rule.
    A side longer than either extent leaves the region whole."""
    if side < 1:
        raise ValueError(f"tile side must be >= 1, got {side}")
    if side > height or side > width:
        return [(0, height)], [(0, width)]
    return _cuts(height, side), _cuts(width, side)


def flat_partition(region: Box, side: int) -> list[Box]:
    """Tile region with side x side squares, remainders absorbed by the last
    box of each row/column (those boxes are larger, never smaller)."""
    rows, cols = _axis_spans(region.height, region.width, side)
    return [
        Box(region.row0 + r, region.col0 + c, h, w) for r, h in rows for c, w in cols
    ]


@dataclass(frozen=True)
class Schedule:
    """Strictly decreasing exponents 1 = s_0 > s_1 > ... > s_L = 0."""

    exponents: tuple[float, ...]

    def __post_init__(self):
        s = self.exponents
        if len(s) < 2 or s[0] != 1.0 or s[-1] != 0.0:
            raise ValueError(f"schedule must run from 1 to 0, got {s}")
        if any(a <= b for a, b in zip(s, s[1:])):
            raise ValueError(f"schedule must be strictly decreasing, got {s}")


def uniform_schedule(
    grid_n: int,
    levels: int | None = None,
    delta: float = tol.SCHEDULE_DELTA,
) -> Schedule:
    """Evenly spaced schedule with L = ceil((log N)^(1-delta)) levels by default.

    delta in (5/6, 1); desk-scale grids produce L in {1, 2}.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if levels is None:
        levels = max(1, math.ceil(math.log(grid_n) ** (1.0 - delta)))
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    exps = tuple(1.0 - i / levels for i in range(levels)) + (0.0,)
    return Schedule(exps)


def _level_side(grid_n: int, exponent: float) -> int:
    return max(1, round((grid_n / 4) ** exponent))


@dataclass(frozen=True)
class NestedPartitions:
    """Starred multiscale hierarchy over the core region.

    levels[i] holds the starred boxes at schedule exponent s_i (level 0 is the
    core region itself); children[i][j] indexes levels[i+1] entries descending
    from levels[i][j].
    """

    grid_n: int
    schedule: Schedule
    levels: tuple[tuple[Box, ...], ...]
    children: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def margin_ok(self) -> bool:
        """Whether every parent's kept children are exactly its tiles at
        least PARTITION_MARGIN * side from its boundary, re-derived from
        scratch with the margin as it is now."""
        for lvl, kids in enumerate(self.children):
            side = _level_side(self.grid_n, self.schedule.exponents[lvl + 1])
            for parent, child_idx in zip(self.levels[lvl], kids):
                kept = [self.levels[lvl + 1][k] for k in child_idx]
                if kept != _margin_tiles(parent, side):
                    return False
        return True


def _margin_tiles(parent: Box, side: int) -> list[Box]:
    """The side-`side` tiles of parent at least margin * parent side from its
    boundary, in flat_partition order: the rule tile by tile, compared
    exactly as gap * q >= p * parent side for margin = p / q."""
    margin = tol.PARTITION_MARGIN
    need = margin.numerator * parent.side
    return [
        tile
        for tile in flat_partition(parent, side)
        if parent.boundary_gap(tile) * margin.denominator >= need
    ]


def _kept_spans(parent: Box, side: int) -> tuple[_Spans, _Spans]:
    """The row spans and the column spans, relative to parent's corner, of
    its kept side-`side` tiles. A tile's boundary gap is the least of its row
    gap and its column gap, so the kept tiles are exactly the kept rows times
    the kept columns; a gap is an integer, so it meets margin * parent side
    exactly when it reaches the ceiling of that."""
    need = math.ceil(tol.PARTITION_MARGIN * parent.side)
    rows, cols = _axis_spans(parent.height, parent.width, side)

    def kept(spans: _Spans, extent: int) -> _Spans:
        return [(off, n) for off, n in spans if min(off, extent - off - n) >= need]

    return kept(rows, parent.height), kept(cols, parent.width)


def nested_partitions(grid_n: int, schedule: Schedule) -> NestedPartitions:
    """Build the starred hierarchy for one grid.

    Children at level i tile their starred parent with squares of side
    (N/4)^{s_i}; a child is kept iff its distance to the parent's boundary is
    at least PARTITION_MARGIN * parent side, the margin read at call time.
    The kept tiles are worked out per axis (_kept_spans);
    NestedPartitions.margin_ok re-derives them tile by tile.
    """
    core = core_region(grid_n)
    levels: list[tuple[Box, ...]] = [(core,)]
    children: list[tuple[tuple[int, ...], ...]] = []
    for s in schedule.exponents[1:]:
        side = _level_side(grid_n, s)
        next_level: list[Box] = []
        level_children: list[tuple[int, ...]] = []
        for parent in levels[-1]:
            rows, cols = _kept_spans(parent, side)
            first = len(next_level)
            next_level.extend(
                Box(parent.row0 + r, parent.col0 + c, h, w)
                for r, h in rows
                for c, w in cols
            )
            level_children.append(tuple(range(first, len(next_level))))
        if not next_level:
            raise ValueError(
                f"margin {tol.PARTITION_MARGIN} leaves no boxes at side {side} "
                f"under N={grid_n}"
            )
        levels.append(tuple(next_level))
        children.append(tuple(level_children))
    return NestedPartitions(
        grid_n=grid_n,
        schedule=schedule,
        levels=tuple(levels),
        children=tuple(children),
    )


def counting_check(partitions: NestedPartitions) -> tuple[int, int, bool]:
    """(starred final count, flat final count, starred >= 4^-L * flat); the
    flat count is the core's row cuts times its column cuts."""
    core = core_region(partitions.grid_n)
    side = _level_side(partitions.grid_n, partitions.schedule.exponents[-1])
    rows, cols = _axis_spans(core.height, core.width, side)
    flat = len(rows) * len(cols)
    starred = len(partitions.levels[-1])
    ok = starred * 4 ** partitions.depth >= flat
    return starred, flat, ok


class CoverConstructionError(ValueError):
    """Shift cover could not be built or fails point-by-point verification."""


@dataclass(frozen=True)
class ShiftCover:
    """Composed translations carrying the final starred level over the core."""

    shifts: tuple[tuple[int, int], ...]
    max_shift: int
    verified: bool


def shift_cover(partitions: NestedPartitions) -> ShiftCover:
    """Cover the core region by 4^L translates of the final starred level.

    Construction is inductive: at each level the kept children of a parent
    aggregate into a block at least half the parent's span (this is where the
    child side <= parent side / 2 precondition bites), so two translates per
    axis tile the parent; composing the per-level offsets yields 4^L shifts.
    Coverage is then verified site by site, on one 2-D difference array that
    adds every shifted final box; failure raises with the first uncovered
    site in row-major order. Shift magnitudes stay within N/4.
    """
    levels = partitions.levels
    for i in range(len(levels) - 1):
        parent_side = levels[i][0].side
        child_side = levels[i + 1][0].side
        if 2 * child_side > parent_side:
            raise CoverConstructionError(
                f"level {i + 1} side {child_side} exceeds half of parent side "
                f"{parent_side}; cover induction needs ratio <= 1/2"
            )

    axis_offsets: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for i, kids in enumerate(partitions.children):
        parent = levels[i][0]
        blocks = [levels[i + 1][k] for k in kids[0]]
        if not blocks:
            raise CoverConstructionError(f"level {i} parent has no kept children")
        r_lo = min(b.row0 for b in blocks)
        r_hi = max(b.row_end for b in blocks)
        c_lo = min(b.col0 for b in blocks)
        c_hi = max(b.col_end for b in blocks)
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
    for (row_pair, col_pair) in axis_offsets:
        shifts = [
            (r + dr, c + dc)
            for (r, c) in shifts
            for dr in row_pair
            for dc in col_pair
        ]
    shifts = sorted(set(shifts))

    core = core_region(partitions.grid_n)
    boxes = np.array(
        [(b.row0, b.col0, b.height, b.width) for b in partitions.levels[-1]]
    )
    offsets = np.array(shifts)
    # (shift, box) corners in core coordinates, clipped to the core
    r0 = offsets[:, :1] + (boxes[:, 0] - core.row0)
    c0 = offsets[:, 1:] + (boxes[:, 1] - core.col0)
    r1 = np.clip(r0 + boxes[:, 2], 0, core.height)
    c1 = np.clip(c0 + boxes[:, 3], 0, core.width)
    r0 = np.clip(r0, 0, core.height)
    c0 = np.clip(c0, 0, core.width)
    hit = (r0 < r1) & (c0 < c1)
    diff = np.zeros((core.height + 1, core.width + 1), dtype=np.int64)
    for sign, rr, cc in ((1, r0, c0), (-1, r0, c1), (-1, r1, c0), (1, r1, c1)):
        np.add.at(diff, (rr[hit], cc[hit]), sign)
    mask = diff.cumsum(axis=0).cumsum(axis=1)[: core.height, : core.width] > 0
    if not mask.all():
        miss = np.argwhere(~mask)[0]
        raise CoverConstructionError(
            f"cover misses site ({miss[0] + core.row0}, {miss[1] + core.col0}) "
            f"of the core region at N={partitions.grid_n}"
        )
    max_shift = max(max(abs(r), abs(c)) for r, c in shifts)
    if 4 * max_shift > partitions.grid_n:
        raise CoverConstructionError(
            f"shift magnitude {max_shift} exceeds N/4 = {partitions.grid_n / 4}"
        )
    return ShiftCover(shifts=tuple(shifts), max_shift=max_shift, verified=True)
