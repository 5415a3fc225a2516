package mutlog_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"optimus/internal/mips"
	"optimus/internal/mutlog"
)

// flakyApplier fails every apply while fail is set — a backing store that is
// down for a while and then recovers.
type flakyApplier struct {
	inner mutlog.Applier
	mu    sync.Mutex
	fail  bool
}

func (a *flakyApplier) setFail(v bool) {
	a.mu.Lock()
	a.fail = v
	a.mu.Unlock()
}

func (a *flakyApplier) Mutate(fn func(mips.ItemMutator) error) error {
	a.mu.Lock()
	failing := a.fail
	a.mu.Unlock()
	if failing {
		return errors.New("backing store down")
	}
	return a.inner.Mutate(fn)
}

func (a *flakyApplier) NumItems() int { return a.inner.NumItems() }

// TestFlusherBackoffNoHotLoop pins the background flusher's behavior against
// a persistently failing applier: retries back off exponentially (a constant
// MaxDelay retry would attempt ~400 times in the observation window; the
// capped doubling schedule attempts ~10), the retry trace is visible in
// Stats.Retries, the cause in Stats.LastFlushErr, and a later successful
// flush applies the still-pending events and clears the error.
func TestFlusherBackoffNoHotLoop(t *testing.T) {
	idx := newFakeIndex(4, 3)
	direct := mutlog.Direct(idx)
	ap := &flakyApplier{inner: direct, fail: true}
	log, err := mutlog.New(ap, mutlog.Config{MaxEvents: -1, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Add(tagRows(3, 100)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	st := log.Stats()
	if st.FlushErrors < 2 {
		t.Fatalf("flusher never retried the failing applier: %+v", st)
	}
	if st.FlushErrors > 40 {
		t.Fatalf("flusher hot-looped: %d failed applies in 400ms of 1ms MaxDelay", st.FlushErrors)
	}
	if st.Retries != st.FlushErrors {
		t.Fatalf("Retries = %d, want one per failed background apply (%d)", st.Retries, st.FlushErrors)
	}
	if st.LastFlushErr == nil || !strings.Contains(st.LastFlushErr.Error(), "backing store down") {
		t.Fatalf("LastFlushErr = %v, want the applier's error", st.LastFlushErr)
	}
	if st.PendingEvents != 1 {
		t.Fatalf("pending events %d, want the unapplied add retained", st.PendingEvents)
	}

	ap.setFail(false)
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	st = log.Stats()
	if st.LastFlushErr != nil {
		t.Fatalf("LastFlushErr = %v after a successful flush, want nil", st.LastFlushErr)
	}
	if st.PendingEvents != 0 {
		t.Fatalf("pending events %d after recovery flush", st.PendingEvents)
	}
	wantTags(t, idx, 0, 1, 2, 3, 100)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}
