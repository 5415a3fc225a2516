package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"optimus/internal/core"
	"optimus/internal/dataset"
	"optimus/internal/lemp"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/mutlog"
	"optimus/internal/serving"
	"optimus/internal/shard"
	"optimus/internal/topk"
	"optimus/internal/transport"
)

// serveModel is the serving workloads' corpus. On kdd-nomad-50 the
// per-shard planner flips tail shards between BMM and MAXIMUS from build to
// build (their costs sit at the crossover), which made serving latency and
// heap bimodal from run to run; on r2-nomad-50 its plans repeat.
const serveModel = "r2-nomad-50"

// serveShards is the item partition count S of the served composite.
const serveShards = 4

// serveWindows is how many times a serving run sets up a fresh stack, each
// loaded for an equal share of the run. The per-shard plans differ from build
// to build, and one window's p99 turns on a few scheduling stalls, so the
// run reports medians over windows.
const serveWindows = 10

// spotEvery spot-checks one request in this many against mips.Naive.
const spotEvery = 40

// serveSpec is one serving workload.
type serveSpec struct {
	name string
	// wire places every shard behind the loopback transport.
	wire bool
	// readRate is the offered single-user query rate (requests/s).
	readRate float64
	// writeRate is the offered catalog event rate (events/s), alternating
	// one-item adds and one-item removes through the mutation log.
	writeRate float64
}

// The fixed offered rates. serve-wire saturates near 16–20k requests/s on a
// 2-vCPU host, and at 8k its latency moved 15–30% from run to run; 4k keeps
// it well below. Under churn every flush re-plans a shard (about 36 ms on the
// same host) while reads queue behind it. At 5 events/s the stalls covered
// 18% of the time, so the p90 sat inside them and doubled whenever the host
// slowed; at 2 events/s it sat at their edge and jumped between the two. At
// 1 event/s the read percentiles stay clear of the stalls, whose cost the
// per-layer metrics report (loadgen.latency_ms_p99, shard.mutate_ms_*).
var (
	serveWire  = serveSpec{name: "serve-wire", wire: true, readRate: 4000}
	serveChurn = serveSpec{name: "serve-churn", readRate: 4000, writeRate: 1}
)

// latencyLimit is the p99 limit of the serve-wire rate ladder, and
// ladderRates the offered rates it climbs (requests/s).
const latencyLimit = 20 * time.Millisecond

var ladderRates = []float64{2000, 4000, 8000, 12000, 16000, 20000, 24000, 28000, 32000}

// ladderStep is how long each rung of the rate ladder is offered.
const ladderStep = 600 * time.Millisecond

// stack is one served composite: the sharded solver, the server in front of
// it, and the transport or mutation log the workload adds.
type stack struct {
	sh  *shard.Sharded
	srv *serving.Server
	lb  *transport.Loopback
	log *mutlog.Log

	obsMu   sync.Mutex
	applied []time.Time // mutation-log flush completions
}

// startStack builds the composite — by-norm partition, per-shard OPTIMUS
// planning over {BMM, MAXIMUS, LEMP}, automatic wave schedule — and starts
// the server (and, for churn, its mutation log). Traced, the coordinator,
// the dialed workers and the wire are wrapped by st.
func startStack(m *dataset.Model, spec serveSpec, o options, st *serveTrace) (*stack, error) {
	t, seed := o.threads, o.seed
	cfg := shard.Config{
		Shards:      serveShards,
		Partitioner: shard.ByNorm(),
		Threads:     t,
		Planner: shard.NewOptimusPlanner(core.OptimusConfig{Threads: t, Seed: seed}, k,
			func() mips.Solver { return core.NewMaximus(core.MaximusConfig{Threads: t, Seed: seed + 7}) },
			func() mips.Solver { return lemp.New(lemp.Config{Threads: t, Seed: seed + 11}) }),
	}
	s := &stack{}
	if spec.wire {
		s.lb = transport.NewLoopback()
		cfg.WorkerDialer = s.lb.Dialer()
		if st != nil {
			s.lb.Wrap = st.conn
			cfg.WorkerDialer = st.dialer(cfg.WorkerDialer)
		}
	}
	s.sh = shard.New(cfg)
	if err := s.sh.Build(m.Users, m.Items); err != nil {
		return nil, fmt.Errorf("sharded build: %w", err)
	}
	var solver mips.Solver = s.sh
	if st != nil {
		solver = &tracedSharded{Sharded: s.sh, st: st}
	}
	srv, err := serving.New(solver, serving.Config{})
	if err != nil {
		return nil, err
	}
	s.srv = srv
	if spec.writeRate > 0 {
		if s.log, err = srv.Log(mutlog.Config{}); err != nil {
			srv.Close()
			return nil, err
		}
		s.log.SetObserver(func(adds, removes int) {
			now := time.Now()
			s.obsMu.Lock()
			s.applied = append(s.applied, now)
			s.obsMu.Unlock()
		})
	}
	return s, nil
}

// reqRec is one open-loop request.
type reqRec struct {
	user            int
	due, sent, done time.Time
	err             error
	entries         []topk.Entry // kept for spot-checked requests only
}

// writeRec is one catalog event.
type writeRec struct {
	start, end time.Time
	err        error
}

// window is one stretch of open-loop load on one freshly set-up stack, with
// the counter deltas the stack's layers report over it.
type window struct {
	setup   float64 // build plus server start, seconds
	heapMB  float64
	seconds float64
	reqs    []reqRec
	writes  []writeRec
	visible []float64 // per applied event: ms from enqueue return to apply
	mirror  *mat.Matrix

	g0, g1                       goSnap
	batches, answered            int64
	calls, bytes                 int64
	mutations, rebuilds, patches int64
	scanned                      int64
	flushes, flushedEvents       int64
	schedule, plans              string
}

// load drives the stack with open-loop reads at rate for d — request i is
// due at start + i/rate whether or not earlier ones were answered — and,
// when writeRate > 0, catalog events at their own fixed rate. Each request
// is timed from its due time.
func (s *stack) load(d time.Duration, rate, writeRate float64, users []int, pool, corpus *mat.Matrix, rng *rand.Rand, skipMirror int) *window {
	w := &window{seconds: d.Seconds(), mirror: corpus}
	w.reqs = make([]reqRec, max(int(rate*d.Seconds()), 1))
	srv0, mut0, scan0 := s.srv.Stats(), s.sh.MutationStats(), s.sh.ScanStats().Scanned
	var lb0 transport.Stats
	if s.lb != nil {
		lb0 = s.lb.Stats()
	}
	w.g0 = readGo()
	start := time.Now().Add(time.Millisecond)

	var writer sync.WaitGroup
	if writeRate > 0 {
		w.writes = make([]writeRec, max(int(writeRate*d.Seconds()), 1))
		writer.Add(1)
		go func() {
			defer writer.Done()
			w.mirror = s.churn(start, writeRate, w.writes, pool, corpus, rng, skipMirror)
		}()
	}

	interval := float64(time.Second) / rate
	var wg sync.WaitGroup
	ctx := context.Background()
	for i := range w.reqs {
		r := &w.reqs[i]
		r.user = users[i%len(users)]
		r.due = start.Add(time.Duration(float64(i) * interval))
		if wait := time.Until(r.due); wait > 0 {
			time.Sleep(wait)
		}
		r.sent = time.Now()
		keep := i%spotEvery == 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.srv.Query(ctx, r.user, k)
			r.done, r.err = time.Now(), err
			if keep {
				r.entries = res
			}
		}()
	}
	wg.Wait()
	writer.Wait()
	if s.log != nil {
		// Apply whatever is still pending, so every event gets a
		// visibility time.
		if err := s.log.Flush(); err != nil && len(w.writes) > 0 {
			w.writes[len(w.writes)-1].err = err
		}
		ls := s.log.Stats()
		w.flushes, w.flushedEvents = ls.Flushes, ls.FlushedEvents
		w.visible = s.visibility(w.writes)
	}
	w.g1 = readGo()
	srv1, mut1 := s.srv.Stats(), s.sh.MutationStats()
	w.batches, w.answered = srv1.Batches-srv0.Batches, srv1.Requests-srv0.Requests
	w.mutations = int64(mut1.Mutations - mut0.Mutations)
	w.rebuilds = int64(mut1.Rebuilds - mut0.Rebuilds)
	w.patches = int64(mut1.Patches - mut0.Patches)
	w.scanned = s.sh.ScanStats().Scanned - scan0
	if s.lb != nil {
		lb1 := s.lb.Stats()
		w.calls = lb1.Calls - lb0.Calls
		w.bytes = lb1.BytesSent - lb0.BytesSent + lb1.BytesReceived - lb0.BytesReceived
	}
	w.schedule, w.plans = srv1.Schedule, fmt.Sprint(s.sh.Plans())
	return w
}

// churn enqueues catalog events at writeRate from start: even events add
// the next pool row, odd events remove a random item of the virtual corpus.
// It mirrors every event onto a copy of the corpus (skipping event
// skipMirror, when non-negative: the self-test's wrong index) and returns
// the mirror.
func (s *stack) churn(start time.Time, writeRate float64, recs []writeRec, pool, corpus *mat.Matrix, rng *rand.Rand, skipMirror int) *mat.Matrix {
	mirror := corpus
	interval := float64(time.Second) / writeRate
	for j := range recs {
		due := start.Add(time.Duration(float64(j) * interval))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		w := &recs[j]
		if j%2 == 0 {
			at := j / 2 % pool.Rows()
			row := pool.RowSlice(at, at+1)
			w.start = time.Now()
			_, w.err = s.log.Add(row)
			w.end = time.Now()
			if w.err == nil && j != skipMirror {
				mirror = mat.AppendRows(mirror, row)
			}
		} else {
			id := rng.Intn(mirror.Rows())
			w.start = time.Now()
			w.err = s.log.Remove([]int{id})
			w.end = time.Now()
			if w.err == nil && j != skipMirror {
				mirror = mat.RemoveRows(mirror, []int{id})
			}
		}
	}
	return mirror
}

// visibility returns, per successful event, the milliseconds from its
// enqueue call returning to the first flush completing after it — the
// flush that applied it, since enqueues block while a flush holds the log.
func (s *stack) visibility(writes []writeRec) []float64 {
	s.obsMu.Lock()
	applied := append([]time.Time(nil), s.applied...)
	s.obsMu.Unlock()
	var out []float64
	a := 0
	for _, w := range writes {
		if w.err != nil {
			continue
		}
		for a < len(applied) && !applied[a].After(w.end) {
			a++
		}
		if a < len(applied) {
			out = append(out, float64(applied[a].Sub(w.end).Nanoseconds())/1e6)
		}
	}
	return out
}

// verify is the serving exactness gate, run after the load stops; it closes
// the stack. Reads of serve-wire are spot-checked against mips.Naive on the
// unchanged corpus. Under churn answers move with the catalog, so the final
// index is checked entry-for-entry against a fresh BMM build over the
// mirrored corpus; with oracle set, mips.VerifyMutation also checks every
// answer against the corpus by brute force (about a second, so it runs on
// one window per phase). It returns the number of failed checks.
func (s *stack) verify(w *window, m *dataset.Model, churn, oracle, injectWrong bool) (int64, error) {
	if churn {
		err := s.log.Close()
		s.srv.Close()
		if err != nil {
			return 1, nil
		}
		fresh := core.NewBMM(core.BMMConfig{})
		if oracle {
			err = mips.VerifyMutation(s.sh, fresh, m.Users, w.mirror, k, tol)
		} else {
			err = sameAsFresh(s.sh, fresh, m.Users, w.mirror)
		}
		if err != nil {
			return 1, nil
		}
		return 0, nil
	}
	s.srv.Close()
	naive := mips.NewNaive()
	if err := naive.Build(m.Users, m.Items); err != nil {
		return 0, err
	}
	var failed int64
	for i := range w.reqs {
		r := &w.reqs[i]
		if r.err != nil || r.entries == nil {
			continue
		}
		if injectWrong {
			injectWrongItem(r.entries, m.Items.Rows())
			injectWrong = false
		}
		want, err := naive.Query([]int{r.user}, k)
		if err != nil {
			return 0, err
		}
		if topk.Equal(r.entries, want[0], tol) {
			continue
		}
		if mips.VerifyTopK(m.Users.Row(r.user), m.Items, r.entries, k, tol) != nil {
			failed++
		}
	}
	return failed, nil
}

// sameAsFresh checks a mutated composite entry-for-entry against a fresh
// build of the reference solver over the expected corpus — the second half
// of mips.VerifyMutation, without its brute-force oracle.
func sameAsFresh(mutated *shard.Sharded, fresh mips.Solver, users, items *mat.Matrix) error {
	if got, want := mutated.NumItems(), items.Rows(); got != want {
		return fmt.Errorf("mutated composite has %d items, mirror %d", got, want)
	}
	got, err := mutated.QueryAll(k)
	if err != nil {
		return err
	}
	if err := fresh.Build(users, items); err != nil {
		return err
	}
	want, err := fresh.QueryAll(k)
	if err != nil {
		return err
	}
	if !sameAnswers(got, want) {
		return fmt.Errorf("mutated composite differs from a fresh build")
	}
	return nil
}

// latencies returns the window's answered requests' milliseconds from due
// to answer, in due order, and how many requests failed.
func (w *window) latencies() (ms []float64, failed int) {
	for _, r := range w.reqs {
		if r.err != nil {
			failed++
			continue
		}
		ms = append(ms, float64(r.done.Sub(r.due).Nanoseconds())/1e6)
	}
	return ms, failed
}

// servePhase is a run's sequence of windows, one per set-up.
type servePhase []*window

// e2e reports the end-to-end metrics of a phase as medians over its
// windows: each window runs on its own build, and the planner's per-shard
// decisions differ from build to build.
func (ph servePhase) e2e() map[string]float64 {
	var setup, rate, p50, p90 []float64
	for _, w := range ph {
		ms, _ := w.latencies()
		first, last := w.reqs[0].due, w.reqs[0].done
		for _, r := range w.reqs {
			if r.done.After(last) {
				last = r.done
			}
		}
		setup = append(setup, w.setup)
		rate = append(rate, ratio(float64(len(ms)), last.Sub(first).Seconds()))
		p50 = append(p50, median(ms))
		p90 = append(p90, quantile(ms, 0.9))
	}
	return map[string]float64{
		"setup_s":        median(setup),
		"users_per_s":    median(rate),
		"latency_ms_p50": median(p50),
		"latency_ms_p90": median(p90),
	}
}

// serveRun is one serving workload run.
type serveRun struct {
	spec  serveSpec
	o     options
	m     *dataset.Model
	pool  *mat.Matrix // catalog arrivals (churn)
	users []int       // the seeded request stream
	out   *outcome
	// sustained is the rate ladder's result (serve-wire, traced runs).
	sustained float64
}

// requestStream draws the seeded user-id sequence the open loop sends.
func requestStream(seed int64, users, n int) []int {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(users)
	}
	return out
}

func runServe(spec serveSpec, o options) (*outcome, error) {
	m, err := generate(serveModel, o, 0)
	if err != nil {
		return nil, err
	}
	spec.readRate *= o.rateScale
	spec.writeRate *= o.rateScale
	r := &serveRun{spec: spec, o: o, m: m, users: requestStream(o.seed, m.Users.Rows(), 1<<17)}
	if spec.writeRate > 0 {
		// Catalog arrivals come from a second draw of the same model, so
		// they follow the corpus's own norm and direction distribution.
		pm, err := generate(serveModel, o, 1<<20)
		if err != nil {
			return nil, err
		}
		r.pool = pm.Items
	}
	r.out = &outcome{notes: map[string]any{
		"corpus":        fmt.Sprintf("%s %dx%d f=%d", serveModel, m.Users.Rows(), m.Items.Rows(), m.Users.Cols()),
		"offered_rps":   spec.readRate,
		"write_rate":    spec.writeRate,
		"loop":          "open, 1 load-generating process",
		"shards":        serveShards,
		"windows":       serveWindows,
		"spot_every":    spotEvery,
		"latency_limit": latencyLimit.String(),
	}}
	if !o.trace {
		ph, err := r.phase(o.duration, nil, "", false)
		if err != nil {
			return nil, err
		}
		r.out.metrics = ph.e2e()
		return r.out, nil
	}

	// Traced run: untraced stacks first (overhead baseline, allocation and
	// GC meters, the load generator's own figures, and on serve-wire the
	// rate ladder), then traced stacks set up and loaded the same way.
	half := o.duration * 2 / 5
	if !spec.wire {
		half = o.duration / 2
	}
	plain, err := r.phase(half, nil, "untraced.", spec.wire)
	if err != nil {
		return nil, err
	}
	st := newServeTrace()
	traced, err := r.phase(half, st, "traced.", false)
	if err != nil {
		return nil, err
	}
	for i := range traced {
		if traced[i].schedule != plain[i].schedule {
			return nil, fmt.Errorf("traced schedule %q differs from untraced %q", traced[i].schedule, plain[i].schedule)
		}
	}
	mt := zeroLayers()
	serveLayers(mt, plain, traced, st)
	mt["loadgen.sustained_rps"] = r.sustained
	overhead(mt, traced.e2e(), plain.e2e())
	mt["trace.spans"] = float64(st.tr.count())
	r.out.metrics = mt
	if err := st.tr.write(o.spanDir, spanFile(spec.name, o.seed)); err != nil {
		return nil, err
	}
	return r.out, nil
}

// phase sets up a fresh stack serveWindows times and loads each for an equal
// share of d, checking every window's answers once its load has stopped.
func (r *serveRun) phase(d time.Duration, st *serveTrace, prefix string, ladder bool) (servePhase, error) {
	var ph servePhase
	churn := r.spec.writeRate > 0
	var requests, writes int
	var schedules, plans []string
	for rep := 0; rep < serveWindows; rep++ {
		heap0 := heapMB()
		t0 := time.Now()
		s, err := startStack(r.m, r.spec, r.o, st)
		if err != nil {
			return nil, err
		}
		setup := time.Since(t0).Seconds()
		heap := heapMB() - heap0
		inject := r.o.injectWrong && rep == 0
		skip := -1
		if inject {
			skip = 0
		}
		rng := rand.New(rand.NewSource(r.o.seed*104729 + int64(rep)))
		users := r.users[rep*len(r.users)/serveWindows:]
		w := s.load(d/serveWindows, r.spec.readRate, r.spec.writeRate, users, r.pool, r.m.Items, rng, skip)
		w.setup, w.heapMB = setup, heap
		if ladder && rep == serveWindows-1 {
			r.sustained = s.ladder(r.o, users)
			r.out.notes[prefix+"sustained_rps"] = r.sustained
		}
		failed, err := s.verify(w, r.m, churn, rep == 0, inject)
		if err != nil {
			return nil, err
		}
		ms, reqFailed := w.latencies()
		for _, e := range w.writes {
			if e.err != nil {
				failed++
			}
		}
		r.out.attempted += int64(len(w.reqs) + len(w.writes))
		r.out.failed += failed + int64(reqFailed)
		requests += len(w.reqs)
		writes += len(w.writes)
		schedules = append(schedules, w.schedule)
		plans = append(plans, fmt.Sprintf("%s p50=%.2fms p99=%.2fms", w.plans, median(ms), quantile(ms, 0.99)))
		ph = append(ph, w)
	}
	r.out.notes[prefix+"requests"] = requests
	r.out.notes[prefix+"requests_per_window"] = requests / serveWindows
	r.out.notes[prefix+"writes"] = writes
	r.out.notes[prefix+"schedules"] = schedules
	r.out.notes[prefix+"plans"] = plans
	return ph, nil
}

// ladder offers each rate of ladderRates in turn for ladderStep and returns
// the highest rate whose p99 met latencyLimit without a growing backlog
// (the last quarter's median latency within twice the first quarter's plus
// a millisecond). It stops after two rates in a row miss: one host stall of
// 20 ms fails a single short rung at any rate.
func (s *stack) ladder(o options, users []int) float64 {
	var best float64
	misses := 0
	for _, rate := range ladderRates {
		rate *= o.rateScale
		w := s.load(ladderStep, rate, 0, users, nil, nil, nil, -1)
		ms, failed := w.latencies()
		ok := failed == 0 && len(ms) >= 4
		if ok {
			q := len(ms) / 4
			growing := median(ms[len(ms)-q:]) > 2*median(ms[:q])+1
			ok = quantile(ms, 0.99) <= float64(latencyLimit.Milliseconds()) && !growing
		}
		if !ok {
			if misses++; misses == 2 {
				break
			}
			continue
		}
		misses = 0
		best = rate
	}
	return best
}

// serveLayers fills the serving workloads' per-layer metrics: spans and
// counters from the traced phase, the allocation, GC and load-generator
// meters from the untraced one.
func serveLayers(mt map[string]float64, plain, traced servePhase, st *serveTrace) {
	var wait, enq, visible []float64
	var batches, answered, calls, bytes, mutations, rebuilds, patches, scanned, flushes, events int64
	var seconds float64
	for _, w := range traced {
		// Queue wait: from a request's due time to the start of the solver
		// call that served it.
		for i := range w.reqs {
			r := &w.reqs[i]
			if r.err != nil {
				continue
			}
			if c, ok := st.servedBy(r.user, r.sent, r.done); ok {
				wait = append(wait, float64(c.start.Sub(r.due).Nanoseconds())/1e6)
			}
		}
		for _, e := range w.writes {
			enq = append(enq, float64(e.end.Sub(e.start).Nanoseconds())/1e3)
		}
		visible = append(visible, w.visible...)
		batches += w.batches
		answered += w.answered
		calls += w.calls
		bytes += w.bytes
		mutations += w.mutations
		rebuilds += w.rebuilds
		patches += w.patches
		scanned += w.scanned
		flushes += w.flushes
		events += w.flushedEvents
		seconds += w.seconds
	}
	mt["serving.queue_wait_ms_p50"] = median(wait)
	mt["serving.queue_wait_ms_p99"] = quantile(wait, 0.99)
	mt["serving.batch_size_mean"] = ratio(float64(answered), float64(batches))

	q := durationsMs(st.tr.named("shard.query"))
	mt["shard.query_ms_p50"] = median(q)
	mt["shard.query_ms_p99"] = quantile(q, 0.99)
	mt["shard.scan_per_user"] = ratio(float64(scanned), float64(answered))
	if w := durationsMs(st.tr.named("shard.worker")); len(w) > 0 {
		mt["shard.worker_ms_p50"] = median(w)
		mt["shard.worker_ms_p99"] = quantile(w, 0.99)
		mt["shard.coord_self_ms_p50"] = median(st.tr.selfTimes("shard.query", "shard.worker"))
		mt["topk.merge_us_per_batch"] = st.mergeReplay()
	}
	mut := durationsMs(st.tr.named("shard.mutate"))
	mt["shard.mutate_ms_p50"] = median(mut)
	mt["shard.mutate_ms_p99"] = quantile(mut, 0.99)
	mt["shard.rebuilds_per_mutation"] = ratio(float64(rebuilds), float64(mutations))
	mt["shard.patches_per_mutation"] = ratio(float64(patches), float64(mutations))

	var wire []float64
	for _, c := range st.tr.named("transport.call") {
		if c.Parent != 0 { // calls a query caused, not set-up traffic
			wire = append(wire, float64(c.End-c.Start)/1e3)
		}
	}
	mt["transport.call_us_p50"] = median(wire)
	mt["transport.call_us_p99"] = quantile(wire, 0.99)
	mt["transport.calls_per_batch"] = ratio(float64(calls), float64(batches))
	mt["transport.bytes_per_user"] = ratio(float64(bytes), float64(answered))

	mt["mutlog.flushes_per_s"] = ratio(float64(flushes), seconds)
	mt["mutlog.events_per_flush"] = ratio(float64(events), float64(flushes))
	mt["mutlog.enqueue_us_p99"] = quantile(enq, 0.99)
	mt["mutlog.write_visible_ms_p50"] = median(visible)
	mt["mutlog.write_visible_ms_p99"] = quantile(visible, 0.99)

	var late, sent, ok, failed, allocs, gcCPU, totalCPU float64
	var p99 []float64
	for _, w := range plain {
		ms, f := w.latencies()
		for _, r := range w.reqs {
			late = max(late, float64(r.sent.Sub(r.due).Nanoseconds())/1e6)
		}
		p99 = append(p99, quantile(ms, 0.99))
		sent += float64(len(w.reqs))
		ok += float64(len(ms))
		failed += float64(f)
		allocs += float64(w.g1.allocs - w.g0.allocs)
		gcCPU += w.g1.gcCPU - w.g0.gcCPU
		totalCPU += w.g1.totalCPU - w.g0.totalCPU
	}
	mt["loadgen.latency_ms_p99"] = median(p99)
	mt["loadgen.late_ms_max"] = late
	mt["loadgen.sent"] = sent
	mt["loadgen.ok"] = ok
	mt["loadgen.failed"] = failed
	mt["go.allocs_per_user"] = ratio(allocs, ok)
	mt["go.gc_cpu_frac"] = ratio(gcCPU, totalCPU)
	// Index memory, the mean over builds: a shard planned as MAXIMUS rather
	// than BMM adds a fixed amount, so a median would jump with the
	// majority plan.
	var heap []float64
	for _, w := range plain {
		heap = append(heap, w.heapMB)
	}
	mt["go.heap_mb"] = mean(heap)
}
