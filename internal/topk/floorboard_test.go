package topk

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestFloorBoardBasics(t *testing.T) {
	b := NewFloorBoard(3)
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	for i := 0; i < 3; i++ {
		if !math.IsInf(b.Floor(i), -1) {
			t.Fatalf("cell %d starts at %v, want -Inf", i, b.Floor(i))
		}
	}
	if !b.Raise(0, 1.5) {
		t.Fatal("raising -Inf to 1.5 must change the cell")
	}
	if b.Raise(0, 1.5) {
		t.Fatal("raising to the current bound must be a no-op")
	}
	if b.Raise(0, 1.0) {
		t.Fatal("lowering must be a no-op")
	}
	if b.Floor(0) != 1.5 {
		t.Fatalf("cell 0 = %v, want 1.5", b.Floor(0))
	}
	if b.Raise(1, math.NaN()) {
		t.Fatal("NaN must be rejected")
	}
	if !math.IsInf(b.Floor(1), -1) {
		t.Fatal("NaN must not enter a cell")
	}
	// Negative floats: raw uint64 comparison would order these wrong.
	if !b.Raise(2, -5) || !b.Raise(2, -3) {
		t.Fatal("-5 then -3 are both raises")
	}
	if b.Raise(2, -4) {
		t.Fatal("-4 is below -3")
	}
	if b.Floor(2) != -3 {
		t.Fatalf("cell 2 = %v, want -3", b.Floor(2))
	}

	b.Raise(0, 2.0)
	b.Raise(1, 0.5)

	snap := b.Snapshot(nil)
	if len(snap) != 3 || snap[0] != 2.0 || snap[1] != 0.5 || snap[2] != -3 {
		t.Fatalf("Snapshot = %v", snap)
	}
	reuse := make([]float64, 0, 8)
	snap2 := b.Snapshot(reuse)
	if &snap2[0] != &reuse[:1][0] {
		t.Fatal("Snapshot must reuse a dst with sufficient capacity")
	}
}

// TestFloorBoardConcurrentRaise drives many writers at few cells under the
// race detector: every cell must converge on the maximum bound any writer
// offered, with no torn or lost updates.
func TestFloorBoardConcurrentRaise(t *testing.T) {
	const cells = 4
	const writers = 8
	const perWriter = 500
	b := NewFloorBoard(cells)
	want := make([]float64, cells)
	for i := range want {
		want[i] = math.Inf(-1)
	}
	vals := make([][]float64, writers)
	for w := range vals {
		rng := rand.New(rand.NewSource(int64(w + 1)))
		vals[w] = make([]float64, perWriter)
		for i := range vals[w] {
			vals[w][i] = rng.NormFloat64() * 10
			if c := i % cells; vals[w][i] > want[c] {
				want[c] = vals[w][i]
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, v := range vals[w] {
				b.Raise(i%cells, v)
			}
		}(w)
	}
	wg.Wait()
	for c := 0; c < cells; c++ {
		if b.Floor(c) != want[c] {
			t.Fatalf("cell %d = %v, want %v", c, b.Floor(c), want[c])
		}
	}
}

// FuzzFloorBoard checks the CAS-max cell against a reference running maximum
// over arbitrary float bit patterns — including negatives (where raw uint64
// ordering disagrees with float ordering), infinities, and NaN (ignored).
func FuzzFloorBoard(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(-1.5)))
	f.Add(binary.LittleEndian.AppendUint64(
		binary.LittleEndian.AppendUint64(nil, math.Float64bits(3.0)),
		math.Float64bits(math.NaN())))
	f.Fuzz(func(t *testing.T, data []byte) {
		b := NewFloorBoard(1)
		max := math.Inf(-1)
		for len(data) >= 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[:8]))
			data = data[8:]
			changed := b.Raise(0, v)
			if v == v && v > max { // NaN never tightens
				max = v
				if !changed {
					t.Fatalf("raise to new max %v reported no change", v)
				}
			} else if changed {
				t.Fatalf("raise to %v (max %v) reported a change", v, max)
			}
			if got := b.Floor(0); got != max && !(math.IsInf(got, -1) && math.IsInf(max, -1)) {
				t.Fatalf("cell = %v, want running max %v", got, max)
			}
		}
	})
}
