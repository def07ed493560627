"""Modulo reservation tables (MRT).

An MRT has II rows; resource usage at absolute cycle *t* occupies row
``t mod II``.  The machine exposes two resource groups:

* one table per (cluster, FU class), with one column per unit; an
  operation occupies a single row (units are fully pipelined);
* one table for the buses, with one column per bus; a communication
  occupies ``latbus`` *consecutive* rows on one bus (the bus is busy for
  the entire communication latency, Section 3).

Occupancy is stored twice: a per-row *bitmask* (bit ``c`` set = column
``c`` occupied), which the placement engine reads directly
(``fu_grid(...).masks`` and ``first_free_bus``), and an owner map,
filled by ``occupy``, used only for release checking and diagnostics
(``fu_owner``, ``bus_owner``, conflict messages).  The FU grids are held
per cluster in a list indexed by :attr:`FuClass.index
<repro.ir.operation.FuClass>`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..arch.cluster import MachineConfig
from ..errors import SchedulingError
from ..ir.operation import FuClass


@dataclass
class _Grid:
    """A small II x columns occupancy grid: row bitmasks + owner map."""

    rows: int
    cols: int
    owners: dict[tuple[int, int], object] = field(init=False)
    masks: list[int] = field(init=False)
    full: int = field(init=False)

    def __post_init__(self) -> None:
        self.owners = {}
        self.masks = [0] * self.rows
        self.full = (1 << self.cols) - 1

    def first_free_col(self, row: int) -> int | None:
        """The lowest free column at *row* (the O(1) hot-path query)."""
        free = ~self.masks[row] & self.full
        if not free:
            return None
        return (free & -free).bit_length() - 1

    def owner(self, row: int, col: int) -> object | None:
        return self.owners.get((row, col))

    def occupy(self, row: int, col: int, owner: object) -> None:
        if self.masks[row] & (1 << col):
            raise SchedulingError(
                f"MRT conflict: row {row} col {col} already owned by "
                f"{self.owners[row, col]!r}"
            )
        self.masks[row] |= 1 << col
        self.owners[row, col] = owner

    def release(self, row: int, col: int, owner: object) -> None:
        held = self.owners.get((row, col))
        if held != owner:
            raise SchedulingError(
                f"MRT release mismatch at row {row} col {col}: "
                f"{held!r} != {owner!r}"
            )
        self.masks[row] &= ~(1 << col)
        self.owners.pop((row, col), None)

    def utilisation(self) -> float:
        if self.rows * self.cols == 0:
            return 0.0
        used = sum(mask.bit_count() for mask in self.masks)
        return used / (self.rows * self.cols)


class ReservationTable:
    """All modulo reservation tables of one machine at one II."""

    def __init__(self, config: MachineConfig, ii: int):
        if ii < 1:
            raise SchedulingError(f"II must be >= 1, got {ii}")
        self.config = config
        self.ii = ii
        self._fu: list[list[_Grid]] = [
            [_Grid(ii, count) for count in config.fu_set(cluster).counts]
            for cluster in config.clusters()
        ]
        self._bus = _Grid(ii, config.buses.count)
        # A transfer starting at row r occupies latbus consecutive rows;
        # both the row lists and their row-set bitmasks repeat modulo II,
        # so precompute them once per start row.
        lat = min(config.buses.latency, ii)
        self._bus_rows: list[list[int]] = [
            [(r + k) % ii for k in range(lat)] for r in range(ii)
        ]
        self._bus_row_masks: list[int] = [
            sum(1 << row for row in set(rows)) for rows in self._bus_rows
        ]

    # -- functional units -------------------------------------------------
    def fu_grid(self, cluster: int, fu_class: FuClass) -> _Grid:
        """The (cluster, class) grid — lets hot loops hoist the lookup."""
        return self._fu[cluster][fu_class.index]

    def occupy_fu(
        self, cluster: int, fu_class: FuClass, cycle: int, owner: object
    ) -> int:
        """Claim a free unit; returns the unit index."""
        grid = self._fu[cluster][fu_class.index]
        row = cycle % self.ii
        col = grid.first_free_col(row)
        if col is None:
            raise SchedulingError(
                f"no free {fu_class} unit in cluster {cluster} at row {row}"
            )
        grid.occupy(row, col, owner)
        return col

    def release_fu(
        self, cluster: int, fu_class: FuClass, cycle: int, unit: int, owner: object
    ) -> None:
        self._fu[cluster][fu_class.index].release(cycle % self.ii, unit, owner)

    def fu_owner(
        self, cluster: int, fu_class: FuClass, row: int, unit: int
    ) -> object | None:
        return self._fu[cluster][fu_class.index].owner(row, unit)

    # -- buses --------------------------------------------------------------
    def bus_rows(self, start_cycle: int) -> list[int]:
        """The MRT rows a communication starting at *start_cycle* occupies."""
        lat = self.config.buses.latency
        if lat <= self.ii:
            return self._bus_rows[start_cycle % self.ii]
        return [(start_cycle + k) % self.ii for k in range(lat)]

    def bus_rows_mask(self, start_cycle: int) -> int:
        """Bitmask over MRT rows of :meth:`bus_rows` (hot-path overlap test)."""
        return self._bus_row_masks[start_cycle % self.ii]

    def bus_occupancy(self, start_cycle: int) -> int:
        """Buses busy during some row of a transfer at *start_cycle*."""
        masks = self._bus.masks
        combined = 0
        for r in self._bus_rows[start_cycle % self.ii]:
            combined |= masks[r]
        return combined

    def first_free_bus(
        self, first: int, last: int, pending: list[tuple[int, int]]
    ) -> tuple[int, int] | None:
        """The earliest ``(start_cycle, bus)`` in *first*..*last*, else None.

        One pass over the window: each start's bus rows and their row
        mask are precomputed, and the *pending* ``(start_cycle, bus)``
        transfers of the same placement plan block their bus at every
        start whose rows overlap theirs.  A transfer needs ``latbus``
        consecutive rows on the *same* bus, so none fits when the latency
        exceeds II (it would collide with its own next-iteration
        instance).
        """
        if self.config.buses.count == 0 or self.config.buses.latency > self.ii:
            return None
        ii = self.ii
        masks = self._bus.masks
        full = self._bus.full
        row_masks = self._bus_row_masks
        claimed = [(row_masks[start % ii], 1 << bus) for start, bus in pending]
        for start in range(first, last + 1):
            row = start % ii
            busy = 0
            for r in self._bus_rows[row]:
                busy |= masks[r]
            if claimed:
                rows = row_masks[row]
                for other_rows, bit in claimed:
                    if rows & other_rows:
                        busy |= bit
            free = ~busy & full
            if free:
                return start, (free & -free).bit_length() - 1
        return None

    def occupy_bus(self, start_cycle: int, bus: int, owner: object) -> None:
        for r in self.bus_rows(start_cycle):
            self._bus.occupy(r, bus, owner)

    def release_bus(self, start_cycle: int, bus: int, owner: object) -> None:
        for r in self.bus_rows(start_cycle):
            self._bus.release(r, bus, owner)

    def bus_owner(self, row: int, bus: int) -> object | None:
        return self._bus.owner(row, bus)

    # -- statistics ----------------------------------------------------------
    def bus_utilisation(self) -> float:
        """Fraction of bus rows occupied (0.0 when the machine has no buses)."""
        return self._bus.utilisation()

    def fu_utilisation(self) -> float:
        cells = used = 0
        for grids in self._fu:
            for grid in grids:
                cells += grid.rows * grid.cols
                used += sum(mask.bit_count() for mask in grid.masks)
        return used / cells if cells else 0.0
