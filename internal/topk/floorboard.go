package topk

import (
	"math"
	"sync/atomic"
)

// FloorBoard is a set of per-user score floors that only ever rise — the
// sharded executor's observed-floor record, which concurrent queries raise
// with the floors they fed each shard and dirty-shard rebuilds replay into
// floor-aware estimators. Each cell holds a lower bound on one user's
// global k-th score; concurrent writers tighten a cell with Raise (a
// CAS-max loop) while readers take Floor or a Snapshot.
//
// Cells store math.Float64bits values in atomic.Uint64s. Raw uint64
// comparison does not order floats across the sign boundary, so Raise
// compares the decoded values and CASes the encoded ones. NaN can never
// enter a board: Raise ignores NaN candidates (a NaN "bound" bounds
// nothing), and cells start at -Inf.
type FloorBoard struct {
	cells []atomic.Uint64
}

// negInfBits is the stored representation of an unset cell.
var negInfBits = math.Float64bits(math.Inf(-1))

// NewFloorBoard returns a board of n cells, all -Inf (no bound).
func NewFloorBoard(n int) *FloorBoard {
	b := &FloorBoard{cells: make([]atomic.Uint64, n)}
	for i := range b.cells {
		b.cells[i].Store(negInfBits)
	}
	return b
}

// Len returns the number of cells.
func (b *FloorBoard) Len() int { return len(b.cells) }

// Floor returns cell i's current bound (-Inf when never raised).
func (b *FloorBoard) Floor(i int) float64 {
	return math.Float64frombits(b.cells[i].Load())
}

// Raise tightens cell i to at least floor, returning whether the cell
// changed. Lower-or-equal candidates and NaN are ignored; concurrent Raise
// calls converge on the maximum (the CAS loop re-reads on every failure, so
// a racing higher bound always survives).
func (b *FloorBoard) Raise(i int, floor float64) bool {
	if floor != floor { // NaN bounds nothing
		return false
	}
	c := &b.cells[i]
	for {
		old := c.Load()
		if math.Float64frombits(old) >= floor {
			return false
		}
		if c.CompareAndSwap(old, math.Float64bits(floor)) {
			return true
		}
	}
}

// Snapshot appends every cell's current bound to dst (allocating when dst is
// nil or short) and returns it: a point-in-time lower bound per cell;
// cells may rise immediately after.
func (b *FloorBoard) Snapshot(dst []float64) []float64 {
	if cap(dst) < len(b.cells) {
		dst = make([]float64, len(b.cells))
	}
	dst = dst[:len(b.cells)]
	for i := range b.cells {
		dst[i] = b.Floor(i)
	}
	return dst
}
