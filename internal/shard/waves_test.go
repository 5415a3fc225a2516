package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/topk"
)

func TestScheduleNames(t *testing.T) {
	if scheduleCount != 2 || Schedule(0) != TwoWave {
		t.Fatalf("want exactly two schedules with two-wave the zero value")
	}
	for sc := TwoWave; sc < scheduleCount; sc++ {
		got, err := ParseSchedule(sc.String())
		if err != nil {
			t.Fatalf("ParseSchedule(%q): %v", sc.String(), err)
		}
		if got != sc {
			t.Fatalf("round-trip %v -> %q -> %v", sc, sc.String(), got)
		}
	}
	// Unknown names — the removed schedules included — fail with an error
	// listing the valid names.
	for _, name := range []string{"bogus", "auto", "cascade", "pipelined"} {
		_, err := ParseSchedule(name)
		if err == nil {
			t.Fatalf("ParseSchedule(%q) must fail", name)
		}
		if msg := err.Error(); !strings.Contains(msg, `"`+name+`"`) ||
			!strings.Contains(msg, "two-wave") || !strings.Contains(msg, "single") {
			t.Fatalf("ParseSchedule(%q) error %q must name the input and list the valid names", name, msg)
		}
	}
	if s := Schedule(99).String(); s != "Schedule(99)" {
		t.Fatalf("invalid String = %q", s)
	}
	if Schedule(99).valid() || Schedule(-1).valid() {
		t.Fatal("out-of-range schedules must be invalid")
	}
}

// TestScheduleResolution pins how requested schedules resolve against
// eligibility: TwoWave (the zero value) falls back to SingleWave whenever
// floor propagation is unavailable, an explicit SingleWave is always
// honored, and re-scheduling a built composite re-resolves.
func TestScheduleResolution(t *testing.T) {
	m := model(t, "netflix-nomad-10", 0.02)
	lempF := factories()["LEMP"]
	cases := []struct {
		name string
		cfg  Config
		want Schedule
	}{
		{"two-wave-explicit", Config{Shards: 3, Partitioner: ByNorm(), Factory: lempF, Schedule: TwoWave}, TwoWave},
		{"single-explicit", Config{Shards: 3, Partitioner: ByNorm(), Factory: lempF, Schedule: SingleWave}, SingleWave},
		{"two-wave-contiguous", Config{Shards: 3, Factory: lempF}, SingleWave},
		{"two-wave-S1", Config{Shards: 1, Partitioner: ByNorm(), Factory: lempF}, SingleWave},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sh := New(tc.cfg)
			if err := sh.Build(m.Users, m.Items); err != nil {
				t.Fatal(err)
			}
			if sh.ActiveSchedule() != tc.want {
				t.Fatalf("active = %v, want %v", sh.ActiveSchedule(), tc.want)
			}
			if sh.RequestedSchedule() != tc.cfg.Schedule {
				t.Fatalf("requested = %v, want %v", sh.RequestedSchedule(), tc.cfg.Schedule)
			}
			if sh.ActiveScheduleName() != tc.want.String() {
				t.Fatalf("name = %q, want %q", sh.ActiveScheduleName(), tc.want.String())
			}
		})
	}

	if err := New(Config{Shards: 2, Factory: lempF, Schedule: Schedule(42)}).Build(m.Users, m.Items); err == nil {
		t.Fatal("invalid Config.Schedule must fail Build")
	}

	// Re-scheduling a built composite re-resolves immediately.
	sh := New(Config{Shards: 3, Partitioner: ByNorm(), Factory: lempF})
	if err := sh.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	if sh.ActiveSchedule() != TwoWave {
		t.Fatalf("default resolved to %v, want TwoWave", sh.ActiveSchedule())
	}
	if err := sh.SetScheduleByName("single"); err != nil {
		t.Fatal(err)
	}
	if sh.ActiveSchedule() != SingleWave {
		t.Fatalf("after SetScheduleByName: %v, want SingleWave", sh.ActiveSchedule())
	}
	for _, name := range []string{"warp", "cascade"} {
		if err := sh.SetScheduleByName(name); err == nil {
			t.Fatalf("bad schedule name %q must fail", name)
		}
	}
	if sh.ActiveSchedule() != SingleWave {
		t.Fatalf("a failed SetScheduleByName changed the schedule to %v", sh.ActiveSchedule())
	}
	if err := sh.SetSchedule(Schedule(-3)); err == nil {
		t.Fatal("invalid schedule value must fail")
	}
}

// TestSchedulesMatchSingleWave is the wave-scheduling equivalence matrix:
// for every pruning sub-solver and shard count, the two-wave query over the by-norm partition returns entry-for-entry
// identical results to the blind single-wave fan-out, and the composite's
// own floored query honors the floor contract (VerifyFloorPrefix) under the
// same schedule. Schedules may only change work, never answers.
func TestSchedulesMatchSingleWave(t *testing.T) {
	m := model(t, "netflix-nomad-25", 0.04)
	const k = 7
	ids := mips.AllUserIDs(m.Users.Rows())
	for _, sub := range []string{"BMM", "LEMP", "MAXIMUS", "ConeTree"} {
		factory := factories()[sub]
		for _, shards := range []int{2, 4, 8} {
			blind := New(Config{
				Shards: shards, Partitioner: ByNorm(),
				Factory: factory, Schedule: SingleWave,
			})
			if err := blind.Build(m.Users, m.Items); err != nil {
				t.Fatal(err)
			}
			want, err := blind.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			floors := make([]float64, len(ids))
			for i := range floors {
				switch i % 3 {
				case 0:
					floors[i] = math.Inf(-1)
				case 1:
					floors[i] = want[i][k-1].Score // tie at the global k-th
				default:
					floors[i] = want[i][0].Score
				}
			}
			for _, sched := range []Schedule{TwoWave} {
				t.Run(fmt.Sprintf("%s/S=%d/%s", sub, shards, sched), func(t *testing.T) {
					sh := New(Config{
						Shards: shards, Partitioner: ByNorm(),
						Factory: factory, Schedule: sched,
					})
					if err := sh.Build(m.Users, m.Items); err != nil {
						t.Fatal(err)
					}
					if sh.ActiveSchedule() != sched {
						t.Fatalf("active = %v, want %v", sh.ActiveSchedule(), sched)
					}
					got, err := sh.QueryAll(k)
					if err != nil {
						t.Fatal(err)
					}
					if err := mips.VerifyAll(m.Users, m.Items, got, k, 1e-9); err != nil {
						t.Fatal(err)
					}
					for u := range want {
						assertSameEntries(t, u, want[u], got[u])
					}
					floored, err := sh.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: floors})
					if err != nil {
						t.Fatal(err)
					}
					if err := mips.VerifyFloorPrefix(want, floored, floors); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// stubSolver answers canned, shard-locally-ordered rows without allocating
// after its first call of a given shape — isolating the composite
// orchestration layer for the allocation regression test. QueryCtx ignores
// floors (a superset answer is always valid). The embedded nil Solver fills
// out the contract; the query path never calls the rest.
type stubSolver struct {
	mips.Solver
	items int
	rows  [][]topk.Entry
	flat  []topk.Entry
}

func (s *stubSolver) Name() string                         { return "stub" }
func (s *stubSolver) Batches() bool                        { return false }
func (s *stubSolver) Build(users, items *mat.Matrix) error { s.items = items.Rows(); return nil }
func (s *stubSolver) SetThreads(int)                       {}

func (s *stubSolver) Query(userIDs []int, k int) ([][]topk.Entry, error) {
	if k > s.items {
		k = s.items
	}
	if len(s.rows) < len(userIDs) || len(s.rows) > 0 && cap(s.rows[0]) < k {
		s.rows = make([][]topk.Entry, len(userIDs))
		s.flat = make([]topk.Entry, len(userIDs)*k)
		for i := range s.rows {
			s.rows[i] = s.flat[i*k : i*k : (i+1)*k]
		}
	}
	rows := s.rows[:len(userIDs)]
	for i, u := range userIDs {
		row := rows[i][:k]
		for j := 0; j < k; j++ {
			// Descending scores, deterministic per (user, local item).
			row[j] = topk.Entry{Item: j, Score: float64(100-j) + 0.001*float64(u%7)}
		}
		rows[i] = row
	}
	return rows, nil
}

func (s *stubSolver) QueryAll(k int) ([][]topk.Entry, error) {
	return nil, fmt.Errorf("stub: QueryAll unused")
}

func (s *stubSolver) QueryCtx(_ context.Context, userIDs []int, k int, _ mips.QueryOptions) ([][]topk.Entry, error) {
	return s.Query(userIDs, k)
}

// TestQueryAllocations pins the zero-allocation fan-out hot path: with the
// per-composite scratch and merge pools warm and sub-solver allocations
// stubbed out, a steady-state Query allocates only its output — the result
// slice plus one merged row per user — with a small constant of slack for
// the fan-out closures. Threads:1 keeps the parallel loops inline so
// goroutine spawns don't muddy the count.
func TestQueryAllocations(t *testing.T) {
	users := mat.New(64, 4)
	items := mat.New(40, 4)
	for i := 0; i < items.Rows(); i++ {
		items.Row(i)[0] = float64(items.Rows() - i) // distinct norms for ByNorm
	}
	const k = 5
	ids := mips.AllUserIDs(users.Rows())
	for _, sched := range []Schedule{SingleWave, TwoWave} {
		t.Run(sched.String(), func(t *testing.T) {
			sh := New(Config{
				Shards: 4, Partitioner: ByNorm(), Threads: 1, Schedule: sched,
				Factory: func() mips.Solver { return &stubSolver{} },
			})
			if err := sh.Build(users, items); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := sh.Query(ids, k); err != nil {
					t.Fatal(err)
				}
			})
			// Output: 1 result slice + len(ids) merged rows; slack for the
			// parallel-loop closures and interface boxing.
			budget := float64(1+len(ids)) + 6
			if allocs > budget {
				t.Fatalf("%v allocs/query, budget %v — the fan-out scratch must stay pooled", allocs, budget)
			}
			t.Logf("%s: %v allocs/query (budget %v)", sched, allocs, budget)
		})
	}
}

// TestWaveScanStatsGrouping pins the per-wave stats contract: [head, Σtails]
// under TwoWave and a single total under SingleWave — both summing to the
// same per-shard counters.
func TestWaveScanStatsGrouping(t *testing.T) {
	m := model(t, "netflix-nomad-10", 0.02)
	const k = 3
	sh := New(Config{Shards: 3, Partitioner: ByNorm(), Factory: factories()["LEMP"]})
	if err := sh.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	sum := func(sts []mips.ScanStats) int64 {
		var n int64
		for _, st := range sts {
			n += st.Scanned
		}
		return n
	}
	for sched, wantWaves := range map[Schedule]int{
		SingleWave: 1, TwoWave: 2,
	} {
		if err := sh.SetSchedule(sched); err != nil {
			t.Fatal(err)
		}
		sh.ResetScanStats()
		if _, err := sh.QueryAll(k); err != nil {
			t.Fatal(err)
		}
		waves := sh.WaveScanStats()
		if len(waves) != wantWaves {
			t.Fatalf("%v: %d wave groups, want %d", sched, len(waves), wantWaves)
		}
		if got, want := sum(waves), sum(sh.ShardScanStats()); got != want {
			t.Fatalf("%v: wave sum %d != shard sum %d", sched, got, want)
		}
		if sum(waves) <= 0 {
			t.Fatalf("%v: no scans metered", sched)
		}
	}
}

// floorRecorder wraps a real sub-solver, recording the estimation floors the
// composite replays into rebuilt shards (mips.FloorAwareEstimator). It
// refuses in-place removals, so a removal reaches the factory rebuild.
type floorRecorder struct {
	mips.Solver
	mu              sync.Mutex
	floors          []float64
	builtWithFloors bool
}

func (r *floorRecorder) SetEstimationFloors(f []float64) {
	r.mu.Lock()
	r.floors = append([]float64(nil), f...)
	r.mu.Unlock()
}

func (r *floorRecorder) Build(users, items *mat.Matrix) error {
	r.mu.Lock()
	r.builtWithFloors = r.floors != nil
	r.mu.Unlock()
	return r.Solver.Build(users, items)
}

func (r *floorRecorder) RemoveItems([]int) error {
	return errors.New("floorRecorder: in-place removal refused")
}

// TestObservedFloorFeedback pins the construction side of the loop: queries
// record the floors each shard was fed (global user ids), SingleWave keeps
// no boards, and a dirty-shard rebuild replays the observed floors into the
// fresh sub-solver before Build.
func TestObservedFloorFeedback(t *testing.T) {
	m := model(t, "netflix-nomad-10", 0.04)
	const k = 3
	var mu sync.Mutex
	var made []*floorRecorder
	factory := func() mips.Solver {
		r := &floorRecorder{Solver: factories()["LEMP"]()}
		mu.Lock()
		made = append(made, r)
		mu.Unlock()
		return r
	}
	sh := New(Config{Shards: 2, Partitioner: ByNorm(), Factory: factory})
	if err := sh.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	if sh.ObservedFloors(0) == nil || sh.ObservedFloors(1) == nil {
		t.Fatal("a floor-scheduled composite must keep observed-floor boards")
	}
	if _, err := sh.QueryAll(k); err != nil {
		t.Fatal(err)
	}
	head, tail := sh.ObservedFloors(0), sh.ObservedFloors(1)
	for u, f := range head {
		if !math.IsInf(f, -1) {
			t.Fatalf("head shard fed floor %v for user %d — wave 1 runs unseeded", f, u)
		}
	}
	finite := 0
	for _, f := range tail {
		if !math.IsInf(f, -1) {
			finite++
		}
	}
	if finite == 0 {
		t.Fatal("tail shard observed no floors after a two-wave query")
	}
	want := append([]float64(nil), tail...)

	// Rebuild shard 1 via a removal whose in-place patch is refused: the
	// repair's fresh sub-solver must receive the observed floors before
	// Build.
	victim := sh.shards[1].globalID(0)
	mu.Lock()
	made = nil
	mu.Unlock()
	if err := sh.RemoveItems([]int{victim}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	rebuilt := append([]*floorRecorder(nil), made...)
	mu.Unlock()
	if len(rebuilt) == 0 {
		t.Fatal("removal must rebuild the dirty shard through the factory")
	}
	found := false
	for _, r := range rebuilt {
		r.mu.Lock()
		if r.builtWithFloors {
			found = true
			if len(r.floors) != len(want) {
				t.Fatalf("replayed %d floors, want %d (one per user row)", len(r.floors), len(want))
			}
			for u := range want {
				if r.floors[u] != want[u] {
					t.Fatalf("user %d: replayed floor %v, want observed %v", u, r.floors[u], want[u])
				}
			}
		}
		r.mu.Unlock()
	}
	if !found {
		t.Fatal("no rebuilt sub-solver was built with replayed estimation floors")
	}
	res, err := sh.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := mips.VerifyAll(m.Users, mat.RemoveRows(m.Items, []int{victim}), res, k, 1e-9); err != nil {
		t.Fatal(err)
	}

	// SingleWave keeps no boards.
	blind := New(Config{Shards: 2, Partitioner: ByNorm(), Factory: factory, Schedule: SingleWave})
	if err := blind.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	if blind.ObservedFloors(0) != nil || blind.ObservedFloors(1) != nil {
		t.Fatal("SingleWave must keep no observed-floor boards")
	}
	if sh.ObservedFloors(-1) != nil || sh.ObservedFloors(99) != nil {
		t.Fatal("out-of-range ObservedFloors must be nil")
	}
}

// TestScheduleRoundTrip pins schedule persistence: a non-default requested
// schedule survives Save/Load (via the additive trailing section), the
// default writes no section at all (golden byte-stability), and the loaded
// composite answers identically.
func TestScheduleRoundTrip(t *testing.T) {
	m := model(t, "netflix-nomad-10", 0.04)
	const k = 3
	mk := func(sched Schedule) *Sharded {
		return New(Config{
			Shards: 3, Partitioner: ByNorm(), Schedule: sched,
			Factory: factories()["LEMP"],
		})
	}
	for _, sched := range []Schedule{SingleWave, TwoWave} {
		t.Run(sched.String(), func(t *testing.T) {
			src := mk(sched)
			if err := src.Build(m.Users, m.Items); err != nil {
				t.Fatal(err)
			}
			want, err := src.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := src.Save(&buf); err != nil {
				t.Fatal(err)
			}
			dst := mk(TwoWave)
			if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
			if dst.RequestedSchedule() != sched {
				t.Fatalf("loaded requested schedule %v, want %v", dst.RequestedSchedule(), sched)
			}
			if dst.ActiveSchedule() != src.ActiveSchedule() {
				t.Fatalf("loaded active schedule %v, want %v", dst.ActiveSchedule(), src.ActiveSchedule())
			}
			got, err := dst.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			for u := range want {
				assertSameEntries(t, u, want[u], got[u])
			}
		})
	}

	// Additive evolution: the default-config snapshot must be byte-identical
	// whether or not the writer knows about schedules — i.e. carry no
	// schedule section — so v1 goldens stay stable (see TestGoldenSnapshots).
	def := mk(TwoWave)
	if err := def.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := def.Save(&a); err != nil {
		t.Fatal(err)
	}
	single := mk(SingleWave)
	if err := single.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	if err := single.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()[:a.Len()]) {
		t.Fatal("schedule section must extend the stream, not reshape it")
	}
	if b.Len() <= a.Len() {
		t.Fatal("non-default schedule must append a trailing section")
	}
}
