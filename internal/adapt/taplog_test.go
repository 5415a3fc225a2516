package adapt

import (
	"testing"
	"time"

	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/mutlog"
)

// TestTapLogKicksOnSizeFlush pins the direct flush-boundary wiring: a
// mutation log tapped with TapLog drives a tuner check from a MaxEvents size
// flush alone — no serving.Server, no drain, no explicit Flush. The tuner's
// poll interval is an hour, so any check observed can only have come from
// the flush tap's Kick.
func TestTapLogKicksOnSizeFlush(t *testing.T) {
	users := mat.New(2, 3)
	items := mat.New(4, 3)
	for i, v := range []float64{1, 0, 0, 0, 1, 0} {
		users.Data()[i] = v
	}
	for i := range items.Data() {
		items.Data()[i] = float64(i%3) + 1
	}
	solver := mips.NewNaive()
	if err := solver.Build(users, items); err != nil {
		t.Fatal(err)
	}
	applier := mutlog.Direct(solver)
	log, err := mutlog.New(applier, mutlog.Config{MaxEvents: 2, MaxDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()

	d := &fakeDriver{}
	tuner, err := NewTuner(d, Config{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer tuner.Close()
	tuner.TapLog(log)

	// One pending event: below MaxEvents, nothing flushes, nothing checks.
	if _, err := log.Add(items.RowSlice(0, 1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if got := tuner.Stats().Checks; got != 0 {
		t.Fatalf("checks = %d before any flush, want 0", got)
	}

	// Second event reaches MaxEvents: the synchronous size flush inside Add
	// must kick the tuner through the tap.
	if _, err := log.Add(items.RowSlice(1, 2)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for tuner.Stats().Checks < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("size flush never drove a tuner check (checks = %d)", tuner.Stats().Checks)
		}
		time.Sleep(time.Millisecond)
	}
	if st := log.Stats(); st.Flushes < 1 {
		t.Fatalf("log flushes = %d, want >= 1 (the size flush)", st.Flushes)
	}
}
