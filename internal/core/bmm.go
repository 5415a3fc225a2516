// Package core implements the paper's contribution: the hardware-efficient
// brute-force solver BMM (§II-B), the MAXIMUS index (§III), and the OPTIMUS
// online optimizer that chooses between them and third-party indexes (§IV).
package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"optimus/internal/blas"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/parallel"
	"optimus/internal/topk"
)

// BMMConfig controls the blocked-matrix-multiply solver.
type BMMConfig struct {
	// Threads parallelizes both the GEMM and the top-K harvest; 0 (the
	// zero value) defers to the package-wide parallel.Threads() default,
	// normally all cores.
	Threads int
	// SlabBytes bounds the size of one scores slab (users-batch × |I| × 8
	// bytes). The paper computes "ratings for users in a series of batches
	// that each occupy the entirety of memory"; we default to 64 MiB so the
	// working set stays cache-and-RAM friendly at repo scale.
	SlabBytes int
}

// DefaultBMMConfig returns the defaults described above. Threads stays 0 —
// "follow the package-wide parallel.Threads() default" — which NewBMM
// resolves at construction, so a later SetThreads still takes effect on
// configs created before it.
func DefaultBMMConfig() BMMConfig {
	return BMMConfig{SlabBytes: 64 << 20}
}

// BMM is the blocked matrix multiply brute-force solver: one GemmNT per user
// slab followed by per-row heap selection. No pruning, maximal hardware
// efficiency — the strategy §II-B shows can beat the indexes outright.
type BMM struct {
	cfg   BMMConfig
	users *mat.Matrix
	items *mat.Matrix
	gen   uint64 // mips.ItemMutator mutation stamp

	// scanned counts score evaluations (mips.ScanCounter). BMM scores every
	// (query, item) pair by construction — floors thin the harvest, not the
	// GEMM — so the count is queries × items and floors never reduce it;
	// that contrast against the pruning solvers is the honest accounting.
	scanned atomic.Int64
}

// BMMStats reports where a query's time went, for the offline cost model
// validation (§IV-A): the GEMM stage is analytically predictable, the heap
// harvest is data-dependent.
type BMMStats struct {
	GemmTime    time.Duration
	HarvestTime time.Duration
}

// NewBMM returns an unbuilt BMM solver. Zero-valued config fields fall back
// to defaults.
func NewBMM(cfg BMMConfig) *BMM {
	cfg.Threads = parallel.Resolve(cfg.Threads)
	if cfg.SlabBytes <= 0 {
		cfg.SlabBytes = DefaultBMMConfig().SlabBytes
	}
	return &BMM{cfg: cfg}
}

// SetThreads implements mips.ThreadSetter: it adjusts query parallelism on
// the built solver (n <= 0 selects the package-wide default). OPTIMUS uses
// it to measure every candidate at the parallelism the final pass will use.
func (b *BMM) SetThreads(n int) { b.cfg.Threads = parallel.Resolve(n) }

// Name implements mips.Solver.
func (b *BMM) Name() string { return "BMM" }

// Batches implements mips.Solver: BMM's entire advantage is batching.
func (b *BMM) Batches() bool { return true }

// NumUsers implements mips.Sized.
func (b *BMM) NumUsers() int {
	if b.users == nil {
		return 0
	}
	return b.users.Rows()
}

// NumItems implements mips.Sized.
func (b *BMM) NumItems() int {
	if b.items == nil {
		return 0
	}
	return b.items.Rows()
}

// Build implements mips.Solver. BMM has no index; Build only validates and
// retains the inputs — the asymmetry (free construction, expensive traversal)
// that OPTIMUS's design exploits.
func (b *BMM) Build(users, items *mat.Matrix) error {
	if err := mips.ValidateInputs(users, items); err != nil {
		return err
	}
	b.users, b.items = users, items
	b.scanned.Store(0)
	b.gen = 0
	return nil
}

// AddItems implements mips.ItemMutator. BMM keeps no index, so growing the
// catalog is a corpus append: the new rows simply join the next GEMM. The
// grown matrix is a fresh copy — the Build input (which other solvers or
// shards may alias) is never modified.
func (b *BMM) AddItems(items *mat.Matrix) ([]int, error) {
	if b.items == nil {
		return nil, fmt.Errorf("core: BMM AddItems before Build")
	}
	if err := mips.ValidateAddItems(items, b.items.Cols()); err != nil {
		return nil, err
	}
	base := b.items.Rows()
	b.items = mat.AppendRows(b.items, items)
	b.gen++
	return mips.IDRange(base, items.Rows()), nil
}

// RemoveItems implements mips.ItemMutator: compact the item matrix under the
// positional id contract (survivors keep relative order, renumbered densely).
func (b *BMM) RemoveItems(ids []int) error {
	if b.items == nil {
		return fmt.Errorf("core: BMM RemoveItems before Build")
	}
	sorted, err := mips.ValidateRemoveIDs(ids, b.items.Rows())
	if err != nil {
		return err
	}
	b.items = mat.RemoveRows(b.items, sorted)
	b.gen++
	return nil
}

// Generation implements mips.ItemMutator.
func (b *BMM) Generation() uint64 { return b.gen }

// AddUsers implements mips.UserAdder: new user rows join the query matrix;
// there is no user-side index state to maintain.
func (b *BMM) AddUsers(users *mat.Matrix) ([]int, error) {
	if b.users == nil {
		return nil, fmt.Errorf("core: BMM AddUsers before Build")
	}
	if err := mips.ValidateAddUsers(users, b.users.Cols()); err != nil {
		return nil, err
	}
	base := b.users.Rows()
	b.users = mat.AppendRows(b.users, users)
	return mips.IDRange(base, users.Rows()), nil
}

// ScanStats implements mips.ScanCounter (see the scanned field comment).
func (b *BMM) ScanStats() mips.ScanStats { return mips.ScanStats{Scanned: b.scanned.Load()} }

// ResetScanStats implements mips.ScanCounter.
func (b *BMM) ResetScanStats() { b.scanned.Store(0) }

// Query implements mips.Solver.
func (b *BMM) Query(userIDs []int, k int) ([][]topk.Entry, error) {
	res, _, err := b.QueryStats(userIDs, k)
	return res, err
}

// QueryCtx implements mips.Solver: ctx is polled at every score slab and
// every harvest chunk — the natural units of BMM's monolithic GEMM. BMM
// cannot skip any inner products, but the harvest is floor-aware: each
// row's heap is seeded, so below-floor scores never enter it, sift work
// collapses on heavily floored rows, and a row whose every score trails its
// floor allocates nothing.
func (b *BMM) QueryCtx(ctx context.Context, userIDs []int, k int, opts mips.QueryOptions) ([][]topk.Entry, error) {
	if err := mips.ValidateQueryOptions(userIDs, opts); err != nil {
		return nil, err
	}
	res, _, err := b.queryStats(ctx, userIDs, k, opts.Floors)
	return res, err
}

// QueryStats is Query with a stage-time breakdown.
func (b *BMM) QueryStats(userIDs []int, k int) ([][]topk.Entry, BMMStats, error) {
	return b.queryStats(nil, userIDs, k, nil)
}

func (b *BMM) queryStats(ctx context.Context, userIDs []int, k int, floors []float64) ([][]topk.Entry, BMMStats, error) {
	var st BMMStats
	if b.users == nil {
		return nil, st, fmt.Errorf("core: BMM Query before Build")
	}
	if err := mips.ValidateK(k, b.items.Rows()); err != nil {
		return nil, st, err
	}
	for _, u := range userIDs {
		if u < 0 || u >= b.users.Rows() {
			return nil, st, fmt.Errorf("core: user id %d out of range [0,%d)", u, b.users.Rows())
		}
	}
	selected := b.users.SelectRows(userIDs)
	out := make([][]topk.Entry, len(userIDs))
	err := b.process(ctx, selected, out, k, floors, &st)
	return out, st, err
}

// QueryAll implements mips.Solver. It avoids the row-copy that Query's
// arbitrary id list requires.
func (b *BMM) QueryAll(k int) ([][]topk.Entry, error) {
	if b.users == nil {
		return nil, fmt.Errorf("core: BMM QueryAll before Build")
	}
	if err := mips.ValidateK(k, b.items.Rows()); err != nil {
		return nil, err
	}
	out := make([][]topk.Entry, b.users.Rows())
	var st BMMStats
	return out, b.process(nil, b.users, out, k, nil, &st)
}

// process scores the rows of `queries` against all items slab-by-slab,
// harvesting top-k rows into out. floors, when non-nil, is aligned with the
// query rows and seeds each row's harvest heap.
func (b *BMM) process(ctx context.Context, queries *mat.Matrix, out [][]topk.Entry, k int, floors []float64, st *BMMStats) error {
	m := queries.Rows()
	n := b.items.Rows()
	slabRows := b.cfg.SlabBytes / (8 * n)
	if slabRows < 1 {
		slabRows = 1
	}
	if slabRows > m {
		slabRows = m
	}
	scores := mat.New(slabRows, n)
	for lo := 0; lo < m; lo += slabRows {
		// Slab boundary: one GEMM + one harvest is the natural cancellation
		// unit for a monolithic multiply.
		if err := mips.CtxErr(ctx); err != nil {
			return err
		}
		hi := lo + slabRows
		if hi > m {
			hi = m
		}
		slab := scores.RowSlice(0, hi-lo)
		t0 := time.Now()
		blas.GemmNTParallel(queries.RowSlice(lo, hi), b.items, slab, b.cfg.Threads)
		t1 := time.Now()
		st.GemmTime += t1.Sub(t0)
		var slabFloors []float64
		if floors != nil {
			slabFloors = floors[lo:hi]
		}
		harvest(ctx, slab, out[lo:hi], slabFloors, k, b.cfg.Threads)
		st.HarvestTime += time.Since(t1)
	}
	b.scanned.Add(int64(m) * int64(n))
	return mips.CtxErr(ctx)
}

// harvest extracts top-k from every row of a scores slab, in parallel. One
// heap is reused per worker chunk (topk.SelectRowInto) instead of allocated
// per row — the GC-churn fix for the BMM hot loop. floors, when non-nil,
// seeds the heap per row. ctx, when non-nil, is polled per row; abandoned
// rows are discarded by process's final ctx check.
func harvest(ctx context.Context, scores *mat.Matrix, out [][]topk.Entry, floors []float64, k, threads int) {
	parallel.ForThreads(threads, scores.Rows(), queryGrain, func(lo, hi int) {
		h := topk.New(k)
		for r := lo; r < hi; r++ {
			if ctx != nil && ctx.Err() != nil {
				return
			}
			if floors != nil {
				h.SetFloor(floors[r])
			}
			out[r] = topk.SelectRowInto(h, scores.Row(r), 0)
		}
	})
}
