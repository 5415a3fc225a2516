package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"optimus/internal/blas"
	"optimus/internal/core"
	"optimus/internal/dataset"
	"optimus/internal/lemp"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/topk"
)

// tol is the score tolerance of every exactness check: relative in the mips
// oracles, absolute in entry-for-entry comparisons.
const tol = 1e-9

// setupReps is how many times a batch run generates its corpus; setup_s is
// the median.
const setupReps = 9

// generate builds the workload's corpus: the registry model (its own fixed
// draw), scaled, with user and item rows permuted by the run seed. The seed
// changes the inputs but not the corpus's content: redrawing the model per
// seed moved serving p99 by up to 70% from seed to seed, a property of the
// draw rather than of the code under test. offset selects another fixed
// draw of the same model (the churn workload's arriving items).
func generate(model string, o options, offset int64) (*dataset.Model, error) {
	cfg, err := dataset.ByName(model)
	if err != nil {
		return nil, err
	}
	cfg = cfg.Scale(o.scale)
	cfg.Seed += offset
	m, err := dataset.Generate(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	m.Users, m.Items = permuteRows(m.Users, rng), permuteRows(m.Items, rng)
	return m, nil
}

func permuteRows(m *mat.Matrix, rng *rand.Rand) *mat.Matrix {
	out := mat.New(m.Rows(), m.Cols())
	for i, j := range rng.Perm(m.Rows()) {
		copy(out.Row(i), m.Row(j))
	}
	return out
}

// batchRun is one batch workload: repeated full OPTIMUS solves over a fixed
// corpus, each answer checked against a verified reference.
type batchRun struct {
	o   options
	m   *dataset.Model
	ref [][]topk.Entry
}

// solveRec is one solve's outcome; the traced fields are zero when the solve
// ran untraced.
type solveRec struct {
	wall    time.Duration
	dec     *core.Decision
	res     [][]topk.Entry
	opt     *core.Optimus
	bmmScan float64 // BMM scans per user queried
	// MAXIMUS and LEMP scan counts over the whole solve
	mxScanned, lpScanned int64
	// traced only
	root          span
	mx, lp        *tracedIndex
	finalStart    int64 // tracer time the final pass started
	bmmFinalNanos int64 // BMM final-pass duration (BMM winners)
}

func runBatch(model string, o options) (*outcome, error) {
	var m *dataset.Model
	setups := make([]float64, setupReps)
	for i := range setups {
		t0 := time.Now()
		var err error
		if m, err = generate(model, o, 0); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	b := &batchRun{o: o, m: m}
	out := &outcome{notes: map[string]any{
		"corpus": fmt.Sprintf("%s %dx%d f=%d", model, m.Users.Rows(), m.Items.Rows(), m.Users.Cols()),
	}}
	if !o.trace {
		ph, err := b.measure(o.duration, nil)
		if err != nil {
			return nil, err
		}
		out.metrics = ph.e2e(median(setups))
		ph.note(out, "")
		return out, nil
	}

	// Traced run: an untraced half first, for the tracing overhead and the
	// allocation and GC meters, then the traced half every span comes from.
	plain, err := b.measure(o.duration/2, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := b.measure(o.duration/2, tr)
	if err != nil {
		return nil, err
	}
	plain.note(out, "untraced.")
	traced.note(out, "traced.")
	out.metrics = zeroLayers()
	b.layers(out, traced, plain, tr)
	overhead(out.metrics, traced.e2e(median(setups)), plain.e2e(median(setups)))
	out.metrics["trace.spans"] = float64(tr.count())
	if err := tr.write(o.spanDir, spanFile("batch-"+model, o.seed)); err != nil {
		return nil, err
	}
	return out, nil
}

// batchPhase is one timed stretch of solves.
type batchPhase struct {
	solves            []solveRec
	attempted, failed int64
	heapMB            float64
	allocs            uint64
	gcFrac            float64
	users             int
}

func (b *batchRun) measure(d time.Duration, tr *tracer) (*batchPhase, error) {
	ph := &batchPhase{users: b.m.Users.Rows()}
	// Warm-up solve, untimed: fills lazy state, gives the heap reading with
	// every candidate index built, and (once per run) the reference answers.
	heap0 := heapMB()
	warm, err := b.solve(tr)
	if err != nil {
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}
	if b.ref == nil {
		if err := mips.VerifyAll(b.m.Users, b.m.Items, warm.res, k, tol); err != nil {
			return nil, fmt.Errorf("reference solve is not exact: %w", err)
		}
		b.ref = warm.res
	}
	ph.heapMB = heapMB() - heap0
	runtime.KeepAlive(warm.opt)
	warm = solveRec{}
	if tr != nil {
		tr.reset()
	}

	g0 := readGo()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		ph.attempted++
		rec, err := b.solve(tr)
		if err != nil {
			ph.failed++
			continue
		}
		if b.o.injectWrong && ph.attempted == 1 {
			injectWrongItem(rec.res[0], b.m.Items.Rows())
		}
		if err := b.check(rec.res); err != nil {
			ph.failed++
			continue
		}
		rec.res, rec.opt = nil, nil
		ph.solves = append(ph.solves, rec)
	}
	g1 := readGo()
	ph.allocs = g1.allocs - g0.allocs
	ph.gcFrac = ratio(g1.gcCPU-g0.gcCPU, g1.totalCPU-g0.totalCPU)
	return ph, nil
}

// check is the exactness gate: an answer identical to the verified
// reference passes; anything else must pass the independent oracle itself
// (another winner may break exact score ties in another order).
func (b *batchRun) check(res [][]topk.Entry) error {
	if sameAnswers(res, b.ref) {
		return nil
	}
	return mips.VerifyAll(b.m.Users, b.m.Items, res, k, tol)
}

// solve runs one full OPTIMUS solve — candidate builds, sampling, decision
// and the final pass — over candidates {BMM, MAXIMUS, LEMP}. Traced, the
// index candidates are wrapped so their Build and Query calls become spans.
func (b *batchRun) solve(tr *tracer) (solveRec, error) {
	t, seed := b.o.threads, b.o.seed
	mx := core.NewMaximus(core.MaximusConfig{Threads: t, Seed: seed + 7})
	lp := lemp.New(lemp.Config{Threads: t, Seed: seed + 11})
	var rec solveRec
	var cands []mips.Solver
	var rootID int64
	if tr != nil {
		rootID = tr.newID()
		rec.mx = newTracedIndex(mx, "maximus", tr, rootID)
		rec.lp = newTracedIndex(lp, "lemp", tr, rootID)
		cands = []mips.Solver{rec.mx, rec.lp}
	} else {
		cands = []mips.Solver{mx, lp}
	}
	opt := core.NewOptimus(core.OptimusConfig{Threads: t, Seed: seed}, cands...)
	t0 := time.Now()
	dec, res, err := opt.Run(b.m.Users, b.m.Items, k)
	t1 := time.Now()
	if err != nil {
		return rec, err
	}
	rec.wall, rec.dec, rec.res, rec.opt = t1.Sub(t0), dec, res, opt
	n := b.m.Users.Rows()
	bmmUsers := dec.SampleSize
	if dec.Winner == core.BMMKind {
		bmmUsers = n
	}
	rec.bmmScan = float64(opt.Solver(core.BMMKind).(mips.ScanCounter).ScanStats().Scanned) / float64(bmmUsers)
	rec.mxScanned, rec.lpScanned = mx.ScanStats().Scanned, lp.ScanStats().Scanned
	if tr == nil {
		return rec, nil
	}
	tr.record(rootID, 0, rootID, "optimus.run", t0, t1)
	rec.root = span{ID: rootID, Start: tr.since(t0), End: tr.since(t1)}
	// The final pass is the winner's last Query; when BMM wins it is
	// everything after the last index span (OPTIMUS measures BMM's sample
	// before the index samples, so nothing else runs there).
	switch dec.Winner {
	case rec.mx.Name():
		rec.finalStart = rec.mx.lastQueryStart
	case rec.lp.Name():
		rec.finalStart = rec.lp.lastQueryStart
	default:
		rec.finalStart = max(rec.mx.lastEnd, rec.lp.lastEnd)
		rec.bmmFinalNanos = rec.root.End - rec.finalStart
	}
	return rec, nil
}

func (ph *batchPhase) e2e(setup float64) map[string]float64 {
	walls := make([]float64, len(ph.solves))
	var total float64
	for i, s := range ph.solves {
		walls[i] = float64(s.wall) / 1e6
		total += s.wall.Seconds()
	}
	return map[string]float64{
		"setup_s":        setup,
		"users_per_s":    ratio(float64(ph.users*len(ph.solves)), total),
		"latency_ms_p50": median(walls),
		"latency_ms_p90": quantile(walls, 0.9),
	}
}

func (ph *batchPhase) note(out *outcome, prefix string) {
	winners := map[string]int{}
	for _, s := range ph.solves {
		winners[s.dec.Winner]++
	}
	out.notes[prefix+"solves"] = len(ph.solves)
	out.notes[prefix+"solves_beyond_p90"] = len(ph.solves) / 10
	out.notes[prefix+"winners"] = winners
	out.attempted += ph.attempted
	out.failed += ph.failed
}

// layers fills the batch workloads' per-layer metrics from the traced
// phase (spans and counters) and the untraced one (allocation and GC
// meters), then probes the GEMM kernel and the top-k harvest on the
// workload's own shape.
func (b *batchRun) layers(out *outcome, traced, plain *batchPhase, tr *tracer) {
	mt := out.metrics
	var plan, overheadMs, sample, mxBuild, mxQuery, lpBuild, lpQuery, bmmFinal []float64
	var bmmScan, mxScan, lpScan []float64
	indexWins := 0
	unstable := map[string]bool{}
	firstScan := map[string][3]float64{}
	for _, s := range traced.solves {
		plan = append(plan, float64(s.finalStart-s.root.Start)/1e6)
		overheadMs = append(overheadMs, float64(s.dec.Overhead)/1e6)
		sample = append(sample, float64(s.dec.SampleSize))
		mxBuild = append(mxBuild, float64(s.mx.buildNanos)/1e6)
		mxQuery = append(mxQuery, float64(s.mx.queryNanos)/1e6)
		lpBuild = append(lpBuild, float64(s.lp.buildNanos)/1e6)
		lpQuery = append(lpQuery, float64(s.lp.queryNanos)/1e6)
		scans := [3]float64{s.bmmScan, ratio(float64(s.mxScanned), float64(s.mx.users)), ratio(float64(s.lpScanned), float64(s.lp.users))}
		bmmScan = append(bmmScan, scans[0])
		mxScan = append(mxScan, scans[1])
		lpScan = append(lpScan, scans[2])
		if s.dec.Winner == core.BMMKind {
			bmmFinal = append(bmmFinal, float64(s.bmmFinalNanos)/1e6)
		} else {
			indexWins++
		}
		// Determinism cross-check: at a fixed seed and winner the scan
		// counts must repeat exactly from solve to solve.
		if first, ok := firstScan[s.dec.Winner]; !ok {
			firstScan[s.dec.Winner] = scans
		} else {
			for i, name := range []string{"bmm.scan_per_user", "maximus.scan_per_user", "lemp.scan_per_user"} {
				if first[i] != scans[i] {
					unstable[name] = true
				}
			}
		}
	}
	mt["optimus.plan_ms"] = median(plan)
	mt["optimus.overhead_ms"] = median(overheadMs)
	mt["optimus.sample_users"] = median(sample)
	mt["optimus.index_win_frac"] = ratio(float64(indexWins), float64(len(traced.solves)))
	mt["maximus.build_ms"] = median(mxBuild)
	mt["maximus.query_ms"] = median(mxQuery)
	mt["maximus.scan_per_user"] = median(mxScan)
	mt["lemp.build_ms"] = median(lpBuild)
	mt["lemp.query_ms"] = median(lpQuery)
	mt["lemp.scan_per_user"] = median(lpScan)
	mt["bmm.query_ms"] = median(bmmFinal)
	mt["bmm.scan_per_user"] = median(bmmScan)
	mt["go.allocs_per_user"] = ratio(float64(plain.allocs), float64(plain.users*len(plain.solves)))
	mt["go.gc_cpu_frac"] = plain.gcFrac
	mt["go.heap_mb"] = plain.heapMB
	mt["determinism.unstable_counts"] = float64(len(unstable))
	if len(unstable) > 0 {
		out.notes["unstable_counts"] = sortedKeys(unstable)
	}

	gemm, harvest := probeGemm(b.m.Users, b.m.Items, b.o.threads)
	f := float64(b.m.Users.Cols())
	flopsPerUser := 2 * float64(b.m.Items.Rows()) * f
	mt["blas.gemm_ms"] = gemm
	mt["blas.gemm_flops_per_user"] = flopsPerUser
	mt["blas.gemm_gflops"] = ratio(flopsPerUser*float64(b.m.Users.Rows())/1e9, gemm/1e3)
	mt["topk.harvest_ms"] = harvest
}

// probeReps is how many times the GEMM and harvest probes repeat; the
// reported time is the median.
const probeReps = 3

// probeGemm times blas.GemmNTParallel over all users × items, slab by slab
// exactly as BMM cuts them, and the top-k harvest (topk.SelectRowInto, one
// heap per thread) over the same score rows. It returns the median full-pass
// milliseconds of each stage.
func probeGemm(users, items *mat.Matrix, threads int) (gemmMs, harvestMs float64) {
	n := items.Rows()
	slabRows := min(max(core.DefaultBMMConfig().SlabBytes/(8*n), 1), users.Rows())
	scores := mat.New(slabRows, n)
	var gemm, harvest []float64
	for r := 0; r < probeReps; r++ {
		var g, h time.Duration
		for lo := 0; lo < users.Rows(); lo += slabRows {
			hi := min(lo+slabRows, users.Rows())
			slab := scores.RowSlice(0, hi-lo)
			t0 := time.Now()
			blas.GemmNTParallel(users.RowSlice(lo, hi), items, slab, threads)
			t1 := time.Now()
			harvestRows(slab, threads)
			g += t1.Sub(t0)
			h += time.Since(t1)
		}
		gemm = append(gemm, float64(g)/1e6)
		harvest = append(harvest, float64(h)/1e6)
	}
	return median(gemm), median(harvest)
}

// harvestRows extracts the top-k of every score row, splitting the rows
// evenly over threads goroutines with one reused heap each.
func harvestRows(scores *mat.Matrix, threads int) {
	rows := scores.Rows()
	done := make(chan struct{}, threads)
	for t := 0; t < threads; t++ {
		lo, hi := rows*t/threads, rows*(t+1)/threads
		go func() {
			h := topk.New(k)
			for r := lo; r < hi; r++ {
				topk.SelectRowInto(h, scores.Row(r), 0)
			}
			done <- struct{}{}
		}()
	}
	for t := 0; t < threads; t++ {
		<-done
	}
}

// sameAnswers reports whether two answer sets rank the same items in the
// same order with scores equal within tol.
func sameAnswers(a, b [][]topk.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for u := range a {
		if !topk.Equal(a[u], b[u], tol) {
			return false
		}
	}
	return true
}

// injectWrongItem replaces the top answer's item with another one, keeping
// its score — a wrong answer the exactness gate must catch.
func injectWrongItem(row []topk.Entry, items int) {
	if len(row) > 0 {
		row[0].Item = (row[0].Item + 1) % items
	}
}
