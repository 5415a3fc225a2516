package serving

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"optimus/internal/core"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/topk"
)

func buildSolver(t testing.TB, nUsers, nItems, f int) (mips.Solver, *mat.Matrix, *mat.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	users := mat.New(nUsers, f)
	items := mat.New(nItems, f)
	for i := range users.Data() {
		users.Data()[i] = rng.NormFloat64()
	}
	for i := range items.Data() {
		items.Data()[i] = rng.NormFloat64()
	}
	s := core.NewMaximus(core.MaximusConfig{Seed: 1})
	if err := s.Build(users, items); err != nil {
		t.Fatal(err)
	}
	return s, users, items
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("expected nil-solver error")
	}
}

func TestSingleQueryExact(t *testing.T) {
	solver, users, items := buildSolver(t, 50, 80, 6)
	srv, err := New(solver, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := srv.Query(context.Background(), 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := mips.VerifyTopK(users.Row(7), items, res, 5, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentQueriesAllExact(t *testing.T) {
	solver, users, items := buildSolver(t, 200, 150, 8)
	srv, err := New(solver, Config{MaxBatch: 32, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients = 16
	const perClient = 25
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perClient; i++ {
				u := rng.Intn(200)
				k := 1 + rng.Intn(8)
				res, err := srv.Query(context.Background(), u, k)
				if err != nil {
					errs <- err
					return
				}
				if err := mips.VerifyTopK(users.Row(u), items, res, k, 1e-9); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Requests != clients*perClient {
		t.Fatalf("requests = %d, want %d", st.Requests, clients*perClient)
	}
	if st.Batches <= 0 || st.Batches > st.Requests {
		t.Fatalf("implausible batch count %d for %d requests", st.Batches, st.Requests)
	}
}

func TestBatchingActuallyBatches(t *testing.T) {
	solver, _, _ := buildSolver(t, 100, 60, 6)
	srv, err := New(solver, Config{MaxBatch: 64, MaxDelay: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Fire a burst well inside one batching window.
	const burst = 40
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			if _, err := srv.Query(context.Background(), u%100, 3); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	st := srv.Stats()
	if st.MeanBatchSize < 2 {
		t.Fatalf("burst of %d produced mean batch size %.1f; batching is not happening",
			burst, st.MeanBatchSize)
	}
}

func TestMixedKRequests(t *testing.T) {
	solver, users, items := buildSolver(t, 60, 40, 5)
	srv, err := New(solver, Config{MaxBatch: 16, MaxDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := 1 + i%4 // four distinct k values inside one batch
			res, err := srv.Query(context.Background(), i, k)
			if err != nil {
				t.Error(err)
				return
			}
			if err := mips.VerifyTopK(users.Row(i), items, res, k, 1e-9); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
}

func TestBadRequestDoesNotPoisonBatch(t *testing.T) {
	solver, users, items := buildSolver(t, 30, 20, 4)
	srv, err := New(solver, Config{MaxBatch: 8, MaxDelay: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	results := make([]error, 4)
	users2 := []int{5, 999, 7, -1} // two valid, two invalid
	for i, u := range users2 {
		wg.Add(1)
		go func(i, u int) {
			defer wg.Done()
			res, err := srv.Query(context.Background(), u, 3)
			if err == nil {
				err = mips.VerifyTopK(users.Row(u), items, res, 3, 1e-9)
			}
			results[i] = err
		}(i, u)
	}
	wg.Wait()
	if results[0] != nil || results[2] != nil {
		t.Fatalf("valid requests failed: %v %v", results[0], results[2])
	}
	if results[1] == nil || results[3] == nil {
		t.Fatal("invalid user ids must fail individually")
	}
}

// countingSolver wraps a solver and counts QueryCtx calls (the server's one
// query path).
type countingSolver struct {
	mips.Solver
	calls int
}

func (c *countingSolver) QueryCtx(ctx context.Context, ids []int, k int, opts mips.QueryOptions) ([][]topk.Entry, error) {
	c.calls++
	return c.Solver.QueryCtx(ctx, ids, k, opts)
}

// batchFault injects solver faults that no bad request explains: every
// multi-user query fails, and so does any query for user badUser, although
// that id is in range.
type batchFault struct {
	mips.Solver
	badUser int
}

func (b batchFault) QueryCtx(ctx context.Context, ids []int, k int, opts mips.QueryOptions) ([][]topk.Entry, error) {
	if len(ids) > 1 || ids[0] == b.badUser {
		return nil, errors.New("injected solver fault")
	}
	return b.Solver.QueryCtx(ctx, ids, k, opts)
}

// dispatchBatch drives the dispatcher directly with a synthetic batch, so
// the call accounting is deterministic (no batching-window races).
func dispatchBatch(t *testing.T, srv *Server, userIDs []int, k int) []response {
	t.Helper()
	batch := make([]request, len(userIDs))
	for i, u := range userIDs {
		batch[i] = request{userID: u, k: k, done: make(chan response, 1)}
	}
	srv.dispatch(batch)
	out := make([]response, len(batch))
	for i, req := range batch {
		select {
		case out[i] = <-req.done:
		default:
			t.Fatalf("request %d not answered", i)
		}
	}
	return out
}

// TestPoisonedBatchCostsO1ExtraCalls is the regression test for the batch
// retry path: one bad user id in a batch of B must cost O(1) extra solver
// calls (the failed group, one probe for the poisoned request, one group
// retry for the healthy rest), not O(B).
func TestPoisonedBatchCostsO1ExtraCalls(t *testing.T) {
	base, users, items := buildSolver(t, 64, 40, 5)
	cs := &countingSolver{Solver: base}
	srv, err := New(cs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const batchSize = 32
	ids := make([]int, batchSize)
	for i := range ids {
		ids[i] = i
	}
	ids[11] = 999 // the poison
	cs.calls = 0
	out := dispatchBatch(t, srv, ids, 3)
	const wantCalls = 3 // failed group + poisoned probe + healthy retry
	if cs.calls != wantCalls {
		t.Fatalf("batch of %d with one bad id cost %d solver calls, want %d",
			batchSize, cs.calls, wantCalls)
	}
	for i, resp := range out {
		if i == 11 {
			if resp.err == nil {
				t.Fatal("poisoned request must fail")
			}
			continue
		}
		if resp.err != nil {
			t.Fatalf("healthy request %d failed: %v", i, resp.err)
		}
		if err := mips.VerifyTopK(users.Row(ids[i]), items, resp.entries, 3, 1e-9); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	// Several poisoned requests: extra calls grow with the poison count,
	// never with the batch size.
	ids[3], ids[20] = -5, 1000
	cs.calls = 0
	dispatchBatch(t, srv, ids, 3)
	if want := 1 + 3 + 1; cs.calls != want { // group + 3 probes + retry
		t.Fatalf("3 bad ids cost %d solver calls, want %d", cs.calls, want)
	}

	// A fully healthy batch stays a single call.
	ids[3], ids[11], ids[20] = 3, 11, 20
	cs.calls = 0
	dispatchBatch(t, srv, ids, 3)
	if cs.calls != 1 {
		t.Fatalf("healthy batch cost %d solver calls, want 1", cs.calls)
	}
}

// TestPoisonedBatchSerialFallback pins the behaviour when the failure is
// not request-shaped: after the bad request is isolated, the healthy group
// retry hits a solver fault, and correctness is preserved through the
// serial path — which confines a per-user fault to that user's request.
func TestPoisonedBatchSerialFallback(t *testing.T) {
	base, users, items := buildSolver(t, 30, 20, 4)
	cs := &countingSolver{Solver: batchFault{Solver: base, badUser: 7}}
	srv, err := New(cs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	out := dispatchBatch(t, srv, []int{2, 999, 5, 7}, 3)
	// failed group + poisoned probe + failed healthy retry + 3 serial calls
	if cs.calls != 6 {
		t.Fatalf("serial fallback cost %d solver calls, want 6", cs.calls)
	}
	if out[3].err == nil {
		t.Fatal("request hitting the per-user solver fault must fail")
	}
	if out[1].err == nil {
		t.Fatal("poisoned request must fail")
	}
	for _, i := range []int{0, 2} {
		if out[i].err != nil {
			t.Fatalf("healthy request %d failed: %v", i, out[i].err)
		}
	}
	if err := mips.VerifyTopK(users.Row(2), items, out[0].entries, 3, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestContextCancellation(t *testing.T) {
	solver, _, _ := buildSolver(t, 30, 20, 4)
	srv, err := New(solver, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Query(ctx, 0, 1); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestCloseIdempotentAndRejects(t *testing.T) {
	solver, _, _ := buildSolver(t, 30, 20, 4)
	srv, err := New(solver, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Query(context.Background(), 0, 1); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close() // must not panic
	if _, err := srv.Query(context.Background(), 0, 1); err != ErrClosed {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	solver, _, _ := buildSolver(t, 10, 10, 3)
	srv, err := New(solver, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.cfg.MaxBatch != 64 || srv.cfg.MaxDelay != 2*time.Millisecond || srv.cfg.QueueDepth != 1024 {
		t.Fatalf("defaults not applied: %+v", srv.cfg)
	}
}

func BenchmarkServingThroughput(b *testing.B) {
	solver, _, _ := buildSolver(b, 2000, 1000, 16)
	for _, batch := range []int{1, 64} {
		name := "batched"
		if batch == 1 {
			name = "unbatched"
		}
		b.Run(name, func(b *testing.B) {
			srv, err := New(solver, Config{MaxBatch: batch, MaxDelay: time.Millisecond})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(7))
				for pb.Next() {
					if _, err := srv.Query(context.Background(), rng.Intn(2000), 10); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
