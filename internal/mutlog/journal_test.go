package mutlog

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"optimus/internal/mat"
	"optimus/internal/mips"
)

func journalMatrix(rows, cols int, seed uint64) *mat.Matrix {
	m := mat.New(rows, cols)
	s := seed
	for r := 0; r < rows; r++ {
		row := m.Row(r)
		for c := range row {
			s = s*6364136223846793005 + 1442695040888963407
			row[c] = float64(int64(s>>33)) / float64(1<<30)
		}
	}
	return m
}

// journaledNaive builds a Naive oracle behind a fresh manual-flush log whose
// journal is w (nil for none).
func journaledNaive(t *testing.T, users, items *mat.Matrix, w *bytes.Buffer) (*mips.Naive, *Log) {
	t.Helper()
	n := mips.NewNaive()
	if err := n.Build(users, items); err != nil {
		t.Fatal(err)
	}
	applier := Direct(n)
	cfg := Config{MaxEvents: -1, MaxDelay: -1}
	if w != nil {
		cfg.Journal = w
	}
	l, err := New(applier, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n, l
}

func sameSolverState(t *testing.T, a, b *mips.Naive, k int) {
	t.Helper()
	if a.NumItems() != b.NumItems() {
		t.Fatalf("items: %d vs %d", a.NumItems(), b.NumItems())
	}
	if a.Generation() != b.Generation() {
		t.Fatalf("generation: %d vs %d", a.Generation(), b.Generation())
	}
	ra, err := a.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}
	for u := range ra {
		if len(ra[u]) != len(rb[u]) {
			t.Fatalf("user %d: %d entries vs %d", u, len(ra[u]), len(rb[u]))
		}
		for i := range ra[u] {
			if ra[u][i] != rb[u][i] {
				t.Fatalf("user %d rank %d: %+v vs %+v", u, i, ra[u][i], rb[u][i])
			}
		}
	}
}

func TestJournalReplayRoundTrip(t *testing.T) {
	users := journalMatrix(8, 4, 3)
	items := journalMatrix(30, 4, 5)
	arrivals := journalMatrix(12, 4, 9)

	var journal bytes.Buffer
	orig, l := journaledNaive(t, users, items, &journal)
	if _, err := l.Add(arrivals.RowSlice(0, 4)); err != nil {
		t.Fatal(err)
	}
	if err := l.Remove([]int{2, 31, 33}); err != nil { // two live ids, one pending add
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Add(arrivals.RowSlice(4, 9)); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.Remove([]int{0, 7}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // applies the tail, appending a marker
		t.Fatal(err)
	}

	replayed, l2 := journaledNaive(t, users, items, nil)
	st, err := Replay(bytes.NewReader(journal.Bytes()), 0, l2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Truncated {
		t.Fatalf("clean journal reported torn: %+v", st)
	}
	if st.Events != 4 || st.Flushes != 3 || st.Skipped != 0 {
		t.Fatalf("stats %+v", st)
	}
	sameSolverState(t, orig, replayed, 3)
}

// TestReplaySkipsWatermark pins the skip accounting: records at or below the
// snapshot watermark are already reflected in the restored index and must
// not re-apply; later records replay normally.
func TestReplaySkipsWatermark(t *testing.T) {
	users := journalMatrix(6, 4, 3)
	items := journalMatrix(20, 4, 5)
	arrivals := journalMatrix(6, 4, 9)

	var journal bytes.Buffer
	orig, l := journaledNaive(t, users, items, &journal)
	if _, err := l.Add(arrivals.RowSlice(0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	watermark := l.AppliedSeq()
	if err := l.Remove([]int{1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restore the snapshot": build directly at the post-first-flush corpus.
	snapItems := mat.AppendRows(items, arrivals.RowSlice(0, 3))
	replayed, l2 := journaledNaive(t, users, snapItems, nil)
	if err := l2.SeedSeq(watermark); err != nil {
		t.Fatal(err)
	}
	st, err := Replay(bytes.NewReader(journal.Bytes()), watermark, l2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Skipped != 2 || st.Events != 1 || st.Flushes != 1 {
		t.Fatalf("stats %+v", st)
	}
	if replayed.NumItems() != orig.NumItems() {
		t.Fatalf("items %d vs %d", replayed.NumItems(), orig.NumItems())
	}
}

// TestCancelJournaledAsRemove pins the cancel contract: handles do not
// survive restarts, so the journal carries a cancel as a remove of the
// pending add's virtual-corpus id, and replay reproduces the same corpus.
func TestCancelJournaledAsRemove(t *testing.T) {
	users := journalMatrix(5, 4, 3)
	items := journalMatrix(14, 4, 5)
	arrivals := journalMatrix(3, 4, 9)

	var journal bytes.Buffer
	orig, l := journaledNaive(t, users, items, &journal)
	handles, err := l.Add(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Cancel(handles[1]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := orig.NumItems(); n != items.Rows()+2 {
		t.Fatalf("original holds %d items", n)
	}

	replayed, l2 := journaledNaive(t, users, items, nil)
	st, err := Replay(bytes.NewReader(journal.Bytes()), 0, l2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Truncated {
		t.Fatalf("torn: %+v", st)
	}
	if st.Events != 2 { // the add, plus the cancel's remove record
		t.Fatalf("stats %+v", st)
	}
	sameSolverState(t, orig, replayed, 3)
}

func TestSeedSeq(t *testing.T) {
	_, l := journaledNaive(t, journalMatrix(4, 3, 1), journalMatrix(8, 3, 2), &bytes.Buffer{})
	if _, err := l.Add(journalMatrix(1, 3, 4)); err != nil {
		t.Fatal(err)
	}
	if err := l.SeedSeq(10); err == nil {
		t.Fatal("SeedSeq after records were sequenced accepted")
	}
	_, l2 := journaledNaive(t, journalMatrix(4, 3, 1), journalMatrix(8, 3, 2), &bytes.Buffer{})
	if err := l2.SeedSeq(10); err != nil {
		t.Fatal(err)
	}
	if got := l2.AppliedSeq(); got != 10 {
		t.Fatalf("watermark %d after SeedSeq(10)", got)
	}
}

// failWriter fails every write that would exceed the first n bytes.
type failWriter struct {
	n       int
	written int
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, errors.New("disk full")
	}
	w.written += len(p)
	return len(p), nil
}

// TestWriteAheadRejectsEnqueueOnJournalFailure pins the write-ahead
// ordering: an event that cannot be journaled is rejected outright — it
// never becomes pending and never reaches the index.
func TestWriteAheadRejectsEnqueueOnJournalFailure(t *testing.T) {
	users := journalMatrix(4, 3, 1)
	items := journalMatrix(8, 3, 2)
	n := mips.NewNaive()
	if err := n.Build(users, items); err != nil {
		t.Fatal(err)
	}
	applier := Direct(n)
	l, err := New(applier, Config{MaxEvents: -1, MaxDelay: -1, Journal: &failWriter{n: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Add(journalMatrix(1, 3, 4)); err == nil {
		t.Fatal("add accepted with a failed journal write")
	}
	if err := l.Remove([]int{0}); err == nil {
		t.Fatal("remove accepted with a failed journal write")
	}
	if st := l.Stats(); st.PendingEvents != 0 {
		t.Fatalf("rejected events left pending: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n.NumItems() != items.Rows() {
		t.Fatalf("rejected events reached the index: %d items", n.NumItems())
	}
}

func TestReplayTornTails(t *testing.T) {
	users := journalMatrix(6, 4, 3)
	items := journalMatrix(20, 4, 5)

	var journal bytes.Buffer
	_, l := journaledNaive(t, users, items, &journal)
	if _, err := l.Add(journalMatrix(4, 4, 9)); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	afterFirst := journal.Len()
	if err := l.Remove([]int{3}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	history := journal.Bytes()

	cases := []struct {
		name string
		cut  int
	}{
		{"mid-header", afterFirst + 4},
		{"mid-body", afterFirst + journalHeaderSize + 1},
		{"last-byte", len(history) - 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			replayed, l2 := journaledNaive(t, users, items, nil)
			st, err := Replay(bytes.NewReader(history[:tc.cut]), 0, l2)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Truncated {
				t.Fatalf("cut at %d not reported torn: %+v", tc.cut, st)
			}
			// Everything before the tear applied: the first add+flush landed.
			if replayed.NumItems() != items.Rows()+4 {
				t.Fatalf("replayed holds %d items", replayed.NumItems())
			}
		})
	}

	// A bit flip mid-stream reads as a torn tail at that record: the CRC
	// catches it, and nothing at or after the corrupt record applies.
	t.Run("bit-flip", func(t *testing.T) {
		flipped := append([]byte(nil), history...)
		flipped[afterFirst/2] ^= 0x40
		replayed, l3 := journaledNaive(t, users, items, nil)
		st, err := Replay(bytes.NewReader(flipped), 0, l3)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Truncated {
			t.Fatalf("bit flip not reported torn: %+v", st)
		}
		if replayed.NumItems() != items.Rows() {
			t.Fatalf("corrupt record applied: %d items", replayed.NumItems())
		}
	})
}

// TestReplayForeignJournal pins the mismatch contract: a journal whose
// events do not fit the restored index (here: removes beyond the corpus) is
// a real error, not a tolerated tear.
func TestReplayForeignJournal(t *testing.T) {
	bigUsers := journalMatrix(6, 4, 3)
	bigItems := journalMatrix(40, 4, 5)
	var journal bytes.Buffer
	_, l := journaledNaive(t, bigUsers, bigItems, &journal)
	if err := l.Remove([]int{35}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	smallItems := journalMatrix(10, 4, 7)
	_, l2 := journaledNaive(t, bigUsers, smallItems, nil)
	if _, err := Replay(bytes.NewReader(journal.Bytes()), 0, l2); err == nil {
		t.Fatal("foreign journal replayed without error")
	}
}

// TestAddRejectsNonFinite: a NaN or ±Inf row fails Add with a
// *mips.NonFiniteError before anything reaches the journal or the log.
func TestAddRejectsNonFinite(t *testing.T) {
	users := journalMatrix(4, 3, 1)
	items := journalMatrix(10, 3, 2)
	var journal bytes.Buffer
	_, l := journaledNaive(t, users, items, &journal)
	before := journal.Len()
	poisoned := journalMatrix(3, 3, 7)
	poisoned.Row(2)[1] = math.Inf(1)
	_, err := l.Add(poisoned)
	var nf *mips.NonFiniteError
	if !errors.As(err, &nf) || nf.Row != 2 || nf.Col != 1 {
		t.Fatalf("Add: err = %v, want a *mips.NonFiniteError at row 2 col 1", err)
	}
	if journal.Len() != before {
		t.Fatalf("journal grew by %d bytes on a rejected Add", journal.Len()-before)
	}
	if st := l.Stats(); st.PendingEvents != 0 {
		t.Fatalf("rejected Add changed the log: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
