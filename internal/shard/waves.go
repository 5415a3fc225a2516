// Wave scheduling: the order in which the shards of a query answer, and
// whether earlier shards' partial results seed the floors of later ones.
// There are two schedules:
//
//   - TwoWave (the default): the head shard answers alone; each user's k-th
//     head score seeds every tail shard at once. Under a head-first
//     partition (ByNorm) the head holds the largest norms, so its k-th
//     scores are tight floors and the Cauchy–Schwarz shard skip and each
//     tail sub-solver's own pruning cut most of the tail work. A composite
//     that cannot propagate floors (S=1, a partition that is not head-first,
//     a dead head or an all-dead tail) runs SingleWave instead.
//   - SingleWave: blind fan-out — every shard answers from a cold heap (or
//     the caller's floors). The lesion arm the benchmarks flip to measure
//     the pruning win.
//
// Exactness argument: a floor fed to a tail shard is the k-th best score
// over the head shard (or a caller floor, certified by the same contract),
// hence a lower bound on the global k-th score. Every global top-k entry
// scores at or above the global k-th score, therefore at or above every
// floor — so the floor contract (ties at the floor retained, everything
// above intact) guarantees no tail shard drops a global winner, and the
// k-way merge reproduces the single-wave result entry-for-entry.
package shard

import (
	"context"
	"fmt"
	"math"
	"strings"

	"optimus/internal/mips"
	"optimus/internal/topk"
)

// Schedule selects the wave schedule for Sharded.Query. The zero value is
// TwoWave.
type Schedule int

const (
	// TwoWave is head shard first, then all tails floor-seeded at once. It
	// resolves to SingleWave whenever floor propagation is unavailable;
	// resolution is re-run at every structural refresh — build, mutation,
	// revival, retune — so the pick tracks the live shard set.
	TwoWave Schedule = iota
	// SingleWave is the blind fan-out.
	SingleWave

	scheduleCount // sentinel for validation
)

var scheduleNames = [...]string{
	TwoWave:    "two-wave",
	SingleWave: "single",
}

// String returns the schedule's canonical name ("two-wave" or "single").
func (sc Schedule) String() string {
	if sc < 0 || sc >= scheduleCount {
		return fmt.Sprintf("Schedule(%d)", int(sc))
	}
	return scheduleNames[sc]
}

func (sc Schedule) valid() bool { return sc >= 0 && sc < scheduleCount }

// ParseSchedule maps a canonical schedule name back to its value — the
// inverse of String, used by the CLI flag, the serving config, and the
// snapshot loader. Unknown names fail with an error listing the valid ones.
func ParseSchedule(name string) (Schedule, error) {
	for sc, n := range scheduleNames {
		if n == name {
			return Schedule(sc), nil
		}
	}
	return 0, fmt.Errorf("shard: unknown schedule %q (want %s)", name, strings.Join(scheduleNames[:], " or "))
}

// SetSchedule installs a new requested schedule on a built (or unbuilt)
// composite and re-resolves the active schedule against the current shard
// set. It must not race in-flight queries (the serving layer holds its
// solver lock across mutations; standalone callers synchronize themselves).
func (s *Sharded) SetSchedule(sc Schedule) error {
	if !sc.valid() {
		return fmt.Errorf("shard: invalid schedule %d", int(sc))
	}
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	s.cfg.Schedule = sc
	if s.shards != nil {
		s.refreshComposite()
	}
	return nil
}

// SetScheduleByName is SetSchedule over a canonical schedule name.
func (s *Sharded) SetScheduleByName(name string) error {
	sc, err := ParseSchedule(name)
	if err != nil {
		return err
	}
	return s.SetSchedule(sc)
}

// ActiveSchedule reports the schedule Query actually runs: the requested
// Config.Schedule resolved against eligibility (TwoWave before Build).
func (s *Sharded) ActiveSchedule() Schedule {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	return s.active
}

// ActiveScheduleName is ActiveSchedule().String(), the structural accessor
// the serving layer reports in Stats.
func (s *Sharded) ActiveScheduleName() string { return s.ActiveSchedule().String() }

// RequestedSchedule reports the configured schedule before eligibility
// resolution (what Save persists).
func (s *Sharded) RequestedSchedule() Schedule {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	return s.cfg.Schedule
}

// WaveScanStats groups ShardScanStats by wave of the active schedule:
// [head, Σ tails] for TwoWave and a single total for SingleWave. Counts come
// from the sub-solvers' mips.ScanCounter meters, so shards whose solver is
// unmetered report zero.
func (s *Sharded) WaveScanStats() []mips.ScanStats {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	per := s.shardScanStatsLocked()
	if len(per) == 0 {
		return nil
	}
	if s.active == TwoWave {
		var tail mips.ScanStats
		for _, st := range per[1:] {
			tail.Add(st)
		}
		return []mips.ScanStats{per[0], tail}
	}
	var total mips.ScanStats
	for _, st := range per {
		total.Add(st)
	}
	return []mips.ScanStats{total}
}

// queryScratch is the pooled per-query state of the fan-out hot path: the
// per-shard partial-result table, the harvested floor slice, a shared
// all-nil row slab for dead shards, and the per-shard recovered-panic table
// (health.go). Pooling these is what makes the orchestration layer
// allocation-free per query — see TestQueryAllocations.
type queryScratch struct {
	partials [][][]topk.Entry
	floors   []float64
	empty    [][]topk.Entry // all-nil rows; aliased by every dead shard
	perr     []error        // recoverShard's per-shard fault slots
	// subs holds one shard-skip filter buffer per shard (queryShard's
	// Cauchy–Schwarz skip): per-shard slots because the fan-out queries
	// shards concurrently over one shared scratch.
	subs []shardSub
}

// shardSub is queryShard's reusable filtered-query buffer: the surviving
// user ids, their floors, and each survivor's position in the original
// batch (for scattering the sub-result back into batch order).
type shardSub struct {
	ids    []int
	floors []float64
	pos    []int
}

// ensure sizes the scratch for a query of nUsers users over nShards shards,
// reusing prior capacity.
func (sc *queryScratch) ensure(nShards, nUsers int) {
	if cap(sc.partials) < nShards {
		sc.partials = make([][][]topk.Entry, nShards)
	}
	sc.partials = sc.partials[:nShards]
	for i := range sc.partials {
		sc.partials[i] = nil
	}
	if cap(sc.perr) < nShards {
		sc.perr = make([]error, nShards)
	}
	sc.perr = sc.perr[:nShards]
	for i := range sc.perr {
		sc.perr[i] = nil
	}
	if cap(sc.empty) < nUsers {
		sc.empty = make([][]topk.Entry, nUsers)
	}
	sc.empty = sc.empty[:nUsers]
	if cap(sc.floors) < nUsers {
		sc.floors = make([]float64, nUsers)
	}
	sc.floors = sc.floors[:nUsers]
	if cap(sc.subs) < nShards {
		sc.subs = make([]shardSub, nShards)
	}
	sc.subs = sc.subs[:nShards]
}

// getScratch checks a query scratch out of the composite's pool and sizes
// it; dead shards are pre-pointed at the shared empty slab so queryShard
// never allocates for them.
func (s *Sharded) getScratch(nUsers int) *queryScratch {
	sc, _ := s.scratchPool.Get().(*queryScratch)
	if sc == nil {
		sc = &queryScratch{}
	}
	sc.ensure(len(s.shards), nUsers)
	for si := range s.shards {
		if s.shards[si].count == 0 {
			sc.partials[si] = sc.empty
		}
	}
	return sc
}

// putScratch returns a scratch to the pool, dropping references to the
// sub-solver result rows so they stay collectable.
func (s *Sharded) putScratch(sc *queryScratch) {
	for i := range sc.partials {
		sc.partials[i] = nil
	}
	s.scratchPool.Put(sc)
}

// mergeScratch is the pooled per-worker state of the k-way merge: the
// per-user row table and the MergeK cursor heap.
type mergeScratch struct {
	rows [][]topk.Entry
	ms   topk.MergeScratch
}

// seedFloors initializes the scratch floor slice from the caller's external
// floors (-Inf when absent).
func seedFloors(dst []float64, extFloors []float64) {
	if extFloors != nil {
		copy(dst, extFloors)
		return
	}
	for i := range dst {
		dst[i] = math.Inf(-1)
	}
}

// queryTwoWave is the floor-seeded path: wave 1 answers the head
// shard alone (at full parallelism inside the sub-solver), wave 2 fans the
// tails out seeded with each user's k-th head score.
func (s *Sharded) queryTwoWave(ctx context.Context, userIDs []int, k int, extFloors []float64, sc *queryScratch, partial bool) error {
	if err := s.queryShard(ctx, 0, userIDs, k, extFloors, sc, partial); err != nil {
		return err
	}
	// Harvest each user's k-th head score: the k-th best over the head items
	// is a lower bound on the k-th best over all items. A head shard smaller
	// than k (or itself floored below k entries) proves nothing for that
	// user; the external floor, if any, still applies. A head skipped in
	// partial mode left its slot nil — the tails then run from the external
	// floors alone, which stays exact over the covered subset.
	floors := sc.floors
	seedFloors(floors, extFloors)
	for i, row := range sc.partials[0] {
		if len(row) >= k && row[k-1].Score > floors[i] {
			floors[i] = row[k-1].Score
		}
	}
	return s.fanOut(ctx, 1, userIDs, k, floors, sc, partial)
}

// Observed-floor feedback (construction side of the loop). Each live shard
// carries a FloorBoard indexed by *global* user id recording the tightest
// floor the two-wave schedule (or a caller) ever fed it; dirty-shard
// rebuilds replay that board into sub-solvers implementing
// mips.FloorAwareEstimator (buildShard), so MAXIMUS's estimateBlocks
// samples its sizing walks at realistic thresholds instead of from cold
// heaps.

// ensureObsBoards sizes the per-shard observed-floor boards to the current
// shard set and user count, carrying prior observations across refreshes
// (mutations only ever grow the user dimension). SingleWave feeds no floors,
// so it keeps no boards.
func (s *Sharded) ensureObsBoards() {
	if s.active == SingleWave || s.users == nil {
		s.obs = nil
		return
	}
	nu := s.users.Rows()
	if len(s.obs) == len(s.shards) && (len(s.obs) == 0 || s.obs[0].Len() == nu) {
		return
	}
	obs := make([]*topk.FloorBoard, len(s.shards))
	for i := range obs {
		b := topk.NewFloorBoard(nu)
		if i < len(s.obs) && s.obs[i] != nil {
			old := s.obs[i]
			n := old.Len()
			if n > nu {
				n = nu
			}
			for u := 0; u < n; u++ {
				b.Raise(u, old.Floor(u))
			}
		}
		obs[i] = b
	}
	s.obs = obs
}

// recordObserved CAS-maxes the floors fed for userIDs into a shard's
// observed board. Monotone and concurrency-safe, so concurrent queries
// simply race to the tighter bound.
func recordObserved(ob *topk.FloorBoard, userIDs []int, floors []float64) {
	n := ob.Len()
	for qi, u := range userIDs {
		if u < n {
			ob.Raise(u, floors[qi])
		}
	}
}

// ObservedFloors snapshots shard si's observed-floor board (one float per
// user row, -Inf where no floor was ever fed). Nil when the shard keeps no
// board (SingleWave, unbuilt, or si out of range).
func (s *Sharded) ObservedFloors(si int) []float64 {
	if si < 0 || si >= len(s.obs) || s.obs[si] == nil {
		return nil
	}
	return s.obs[si].Snapshot(nil)
}
