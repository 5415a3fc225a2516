package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/shard"
	"optimus/internal/topk"
	"optimus/internal/transport"
)

// The wrappers in this file record spans around the calls the benchmark's
// workloads make into each layer. Each forwards everything it does not time
// to the wrapped value, so a traced run makes the same calls with the same
// settings as an untraced one.

// tracedIndex times an OPTIMUS index candidate's Build and Query calls.
// OPTIMUS calls a candidate from one goroutine at a time, so the counters
// need no synchronization. SetThreads is forwarded because OPTIMUS aligns
// every candidate implementing mips.ThreadSetter to its own parallelism;
// both wrapped candidates (MAXIMUS, LEMP) implement it.
type tracedIndex struct {
	indexSolver
	tr     *tracer
	prefix string
	parent int64

	buildNanos, queryNanos int64
	users                  int
	lastQueryStart         int64
	lastEnd                int64
}

type indexSolver interface {
	mips.Solver
	mips.ThreadSetter
}

func newTracedIndex(s indexSolver, prefix string, tr *tracer, parent int64) *tracedIndex {
	return &tracedIndex{indexSolver: s, tr: tr, prefix: prefix, parent: parent}
}

func (x *tracedIndex) Build(users, items *mat.Matrix) error {
	id := x.tr.newID()
	t0 := time.Now()
	err := x.indexSolver.Build(users, items)
	t1 := time.Now()
	x.tr.record(id, x.parent, x.parent, x.prefix+".build", t0, t1)
	x.buildNanos += t1.Sub(t0).Nanoseconds()
	x.lastEnd = x.tr.since(t1)
	return err
}

func (x *tracedIndex) Query(userIDs []int, k int) ([][]topk.Entry, error) {
	id := x.tr.newID()
	t0 := time.Now()
	res, err := x.indexSolver.Query(userIDs, k)
	t1 := time.Now()
	x.tr.record(id, x.parent, x.parent, x.prefix+".query", t0, t1)
	x.queryNanos += t1.Sub(t0).Nanoseconds()
	x.users += len(userIDs)
	x.lastQueryStart, x.lastEnd = x.tr.since(t0), x.tr.since(t1)
	return res, err
}

// maxShards bounds the per-shard span slots; it must cover serveShards.
const maxShards = 16

// mergeSampleEvery keeps the per-shard replies of one traced batch in this
// many, for the topk.MergeK replay.
const mergeSampleEvery = 8

// serveTrace is the serving workloads' tracing state. The server dispatches
// one batch at a time and mutations exclude batches, so the batch in flight
// is a single value every worker and wire span can name as its cause.
type serveTrace struct {
	tr       *tracer
	curBatch atomic.Int64
	curCall  [maxShards]atomic.Int64 // worker span in flight, per shard

	mu      sync.Mutex
	calls   []batchCall
	replies map[int64][][][]topk.Entry // sampled batch → per-shard rows
}

// batchCall is one solver call the server made: its start and the users it
// answered, for matching requests to the batch that served them.
type batchCall struct {
	start time.Time
	users []int
}

func newServeTrace() *serveTrace {
	return &serveTrace{tr: newTracer(), replies: map[int64][][][]topk.Entry{}}
}

// tracedSharded times the sharded coordinator's query and mutation entry
// points. Embedding *shard.Sharded forwards every other method, so the
// server sees the same optional interfaces it would on the bare composite:
// mips.ItemMutator, mips.Sized, mips.CancellableQuerier,
// mips.PartialQuerier and the wave-scheduler methods.
type tracedSharded struct {
	*shard.Sharded
	st *serveTrace
}

func (s *tracedSharded) begin(userIDs []int) (int64, time.Time) {
	id := s.st.tr.newID()
	s.st.curBatch.Store(id)
	t0 := time.Now()
	if userIDs != nil {
		s.st.mu.Lock()
		s.st.calls = append(s.st.calls, batchCall{start: t0, users: append([]int(nil), userIDs...)})
		s.st.mu.Unlock()
	}
	return id, t0
}

func (s *tracedSharded) end(id int64, name string, t0 time.Time) {
	s.st.tr.record(id, 0, id, name, t0, time.Now())
	s.st.curBatch.Store(0)
}

func (s *tracedSharded) Query(userIDs []int, k int) ([][]topk.Entry, error) {
	id, t0 := s.begin(userIDs)
	defer s.end(id, "shard.query", t0)
	return s.Sharded.Query(userIDs, k)
}

func (s *tracedSharded) QueryCtx(ctx context.Context, userIDs []int, k int, opts mips.QueryOptions) ([][]topk.Entry, error) {
	id, t0 := s.begin(userIDs)
	defer s.end(id, "shard.query", t0)
	return s.Sharded.QueryCtx(ctx, userIDs, k, opts)
}

func (s *tracedSharded) QueryPartial(ctx context.Context, userIDs []int, k int) ([][]topk.Entry, mips.Coverage, error) {
	id, t0 := s.begin(userIDs)
	defer s.end(id, "shard.query", t0)
	return s.Sharded.QueryPartial(ctx, userIDs, k)
}

func (s *tracedSharded) AddItems(items *mat.Matrix) ([]int, error) {
	id, t0 := s.begin(nil)
	defer s.end(id, "shard.mutate", t0)
	return s.Sharded.AddItems(items)
}

func (s *tracedSharded) RemoveItems(ids []int) error {
	id, t0 := s.begin(nil)
	defer s.end(id, "shard.mutate", t0)
	return s.Sharded.RemoveItems(ids)
}

// dialer wraps a WorkerDialer so every dialed worker's Query is a span.
func (st *serveTrace) dialer(inner shard.WorkerDialer) shard.WorkerDialer {
	return func(si int, section []byte) (shard.Worker, error) {
		w, err := inner(si, section)
		if err != nil {
			return nil, err
		}
		return &tracedWorker{Worker: w, si: si, st: st}, nil
	}
}

// tracedWorker times one shard's Worker.Query, the coordinator's fan-out
// unit, and keeps the replies of sampled batches for the merge replay.
type tracedWorker struct {
	shard.Worker
	si int
	st *serveTrace
}

func (w *tracedWorker) Query(ctx context.Context, userIDs []int, k int, floors []float64, board *topk.FloorBoard) ([][]topk.Entry, error) {
	id := w.st.tr.newID()
	batch := w.st.curBatch.Load()
	w.st.curCall[w.si].Store(id)
	t0 := time.Now()
	res, err := w.Worker.Query(ctx, userIDs, k, floors, board)
	t1 := time.Now()
	w.st.curCall[w.si].Store(0)
	w.st.tr.record(id, batch, batch, "shard.worker", t0, t1)
	if err == nil && batch != 0 && batch%mergeSampleEvery == 0 {
		w.st.mu.Lock()
		w.st.replies[batch] = append(w.st.replies[batch], res)
		w.st.mu.Unlock()
	}
	return res, err
}

// conn wraps a loopback connection so every wire exchange is a span whose
// parent is the worker call it carries.
func (st *serveTrace) conn(si int, c transport.Conn) transport.Conn {
	return &tracedConn{Conn: c, si: si, st: st}
}

type tracedConn struct {
	transport.Conn
	si int
	st *serveTrace
}

func (c *tracedConn) Call(ctx context.Context, op transport.Op, req []byte) ([]byte, error) {
	id := c.st.tr.newID()
	parent := c.st.curCall[c.si].Load()
	t0 := time.Now()
	rep, err := c.Conn.Call(ctx, op, req)
	c.st.tr.record(id, parent, c.st.curBatch.Load(), "transport.call", t0, time.Now())
	return rep, err
}

// mergeReplay times topk.MergeK over each sampled batch's per-shard replies,
// user by user as the coordinator merges them, and returns the median
// microseconds per batch.
func (st *serveTrace) mergeReplay() float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	var per []float64
	for _, shards := range st.replies {
		if len(shards) == 0 {
			continue
		}
		users := len(shards[0])
		lists := make([][]topk.Entry, len(shards))
		t0 := time.Now()
		for u := 0; u < users; u++ {
			for s := range shards {
				if u < len(shards[s]) {
					lists[s] = shards[s][u]
				}
			}
			topk.MergeK(lists, k)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(per)
}

// servedBy returns, for a request for user sent at sent and answered at
// done, the solver call that served it: the first call starting in that
// window whose users include user.
func (st *serveTrace) servedBy(user int, sent, done time.Time) (batchCall, bool) {
	calls := st.calls
	i := sort.Search(len(calls), func(i int) bool { return !calls[i].start.Before(sent) })
	for ; i < len(calls) && !calls[i].start.After(done); i++ {
		for _, u := range calls[i].users {
			if u == user {
				return calls[i], true
			}
		}
	}
	return batchCall{}, false
}
