// The Worker contract: the minimal per-shard boundary between the Sharded
// coordinator and whatever executes one shard's sub-solver. The coordinator
// never touches a sub-solver directly — it speaks only Worker, so an
// in-process solver (NewWorker) and a remote process reached through a wire
// codec (internal/transport) are interchangeable behind the same fan-out,
// merge, floor-propagation, quarantine/revival, and retune machinery.
//
// The contract is deliberately minimal: one query entry point covering every
// dispatch mode the coordinator uses (ctx, static floors), the
// three mutation calls the dirty-shard paths need, a snapshot for persistence
// and revival, scan accounting, and a static capability word. Every solver
// implements the whole mips.Solver contract — floors and deadlines through
// QueryCtx, mutation, user arrival, snapshots — so the word covers only what
// varies between solvers: whether they batch and whether they meter scans.
// It is reported once at attach time (Caps) instead of probed per call with
// type assertions, so a remote worker's capabilities survive the wire
// without interface identity.
package shard

import (
	"context"
	"fmt"

	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/topk"
)

// WorkerCaps is a worker's static capability word: the parts of the
// underlying solver that vary between implementations. The coordinator gates
// scan accounting on it. A transport client forwards the worker-side word
// verbatim.
type WorkerCaps struct {
	// Batches mirrors mips.Solver.Batches.
	Batches bool
	// Scans: ScanStats/ResetScanStats are live meters (mips.ScanCounter).
	Scans bool
}

// Worker is the per-shard execution contract. Exactly one worker serves one
// shard at a time; the coordinator serializes mutations against queries
// (callers' contract, unchanged from mips), so implementations need only the
// concurrency their underlying solver already guarantees (concurrent
// queries, exclusive mutation).
//
// Query is the single dispatch entry point, mips.Solver.QueryCtx with the
// floors spelled out. ctx may be nil (never cancels). The floor contract is
// that of mips.QueryOptions: seeded results must be a prefix of the
// unseeded ones with ties at the floor retained. The coordinator always
// passes a nil board; a non-nil one is snapshotted into static floors (a
// FloorBoard's cells only rise, so a snapshot is a valid floor), and at
// most one of floors and board may be non-nil.
//
// Error semantics carry the containment policy (health.go settle): a context
// error returned from Query must satisfy errors.Is against context.Canceled
// or context.DeadlineExceeded — transports rehydrate the sentinel values so
// a deadline on the far side never quarantines the shard. Any other error
// (or panic, which the coordinator recovers) quarantines.
//
// Snapshot returns the solver's self-describing persist section — the same
// bytes shard.Save embeds in the manifest and a transport ships to boot a
// remote worker (persist.LoadAny). Close releases worker-side resources;
// the in-process worker's Close is a no-op.
type Worker interface {
	Query(ctx context.Context, userIDs []int, k int, floors []float64, board *topk.FloorBoard) ([][]topk.Entry, error)
	AddItems(items *mat.Matrix) ([]int, error)
	RemoveItems(local []int) error
	AddUsers(users *mat.Matrix) ([]int, error)
	Snapshot() ([]byte, error)
	ScanStats() mips.ScanStats
	ResetScanStats()
	SetThreads(n int)
	Caps() WorkerCaps
	Close() error
}

// WorkerDialer connects one shard to a (possibly remote) worker. The section
// argument is the shard's self-describing persist section (the `shard%d`
// nested stream of the PR 6 manifest): shipping a shard IS sending a
// section — the dialed side boots by persist.LoadAny-ing it. A dialer is
// called at Build (from a fresh snapshot of the just-built sub-solver), at
// Load (from the manifest's stored section), and at revival (from the
// retained snapshot or a rebuild). Dial errors fail the operation that
// triggered them; at query time a dialed worker's failures route through the
// ordinary quarantine machinery.
type WorkerDialer func(shard int, section []byte) (Worker, error)

// NewWorker wraps a built sub-solver in the in-process Worker. The optional
// scan meter is asserted once here.
func NewWorker(solver mips.Solver) Worker {
	w := &localWorker{solver: solver}
	w.scn, _ = solver.(mips.ScanCounter)
	w.caps = WorkerCaps{Batches: solver.Batches(), Scans: w.scn != nil}
	return w
}

// localWorker executes a shard's sub-solver in-process — the Worker every
// deployment starts from, and the one a transport handler hosts on the far
// side of a wire.
type localWorker struct {
	solver mips.Solver
	caps   WorkerCaps
	scn    mips.ScanCounter // nil when the solver is unmetered
}

// Solver exposes the wrapped sub-solver for in-process callers that need the
// raw mips surface (tests arming fault wrappers). Remote workers have no
// equivalent — the coordinator never calls this.
func (w *localWorker) Solver() mips.Solver { return w.solver }

// Query implements Worker with one QueryCtx call.
func (w *localWorker) Query(ctx context.Context, userIDs []int, k int, floors []float64, board *topk.FloorBoard) ([][]topk.Entry, error) {
	if board != nil {
		floors = board.Snapshot(nil)
	}
	return w.solver.QueryCtx(ctx, userIDs, k, mips.QueryOptions{Floors: floors})
}

// AddItems implements Worker.
func (w *localWorker) AddItems(items *mat.Matrix) ([]int, error) { return w.solver.AddItems(items) }

// RemoveItems implements Worker.
func (w *localWorker) RemoveItems(local []int) error { return w.solver.RemoveItems(local) }

// AddUsers implements Worker.
func (w *localWorker) AddUsers(users *mat.Matrix) ([]int, error) { return w.solver.AddUsers(users) }

// Snapshot implements Worker.
func (w *localWorker) Snapshot() ([]byte, error) {
	return mips.SnapshotBytes(w.solver)
}

// ScanStats implements Worker (zero when the solver is unmetered).
func (w *localWorker) ScanStats() mips.ScanStats {
	if w.scn == nil {
		return mips.ScanStats{}
	}
	return w.scn.ScanStats()
}

// ResetScanStats implements Worker.
func (w *localWorker) ResetScanStats() {
	if w.scn != nil {
		w.scn.ResetScanStats()
	}
}

// SetThreads implements Worker.
func (w *localWorker) SetThreads(n int) { w.solver.SetThreads(n) }

// Caps implements Worker.
func (w *localWorker) Caps() WorkerCaps { return w.caps }

// Close implements Worker: the in-process worker holds no resources beyond
// the solver itself, which the garbage collector owns.
func (w *localWorker) Close() error { return nil }

// attach installs a worker and caches its capability word. Every path that
// gives a shard a worker — build, load, revival, retune staging, test
// arming — goes through here so w and caps never diverge.
func (sh *shardState) attach(w Worker) {
	sh.w = w
	sh.caps = w.Caps()
}

// attachWorker routes a freshly built local sub-solver to its worker: in
// process when no dialer is configured, otherwise snapshotted into its
// persist section and dialed — the section is the shipping unit, so a
// remote worker boots from exactly the bytes Save would have written.
func (s *Sharded) attachWorker(sh *shardState, si int, solver mips.Solver) error {
	if s.cfg.WorkerDialer == nil {
		sh.attach(NewWorker(solver))
		return nil
	}
	section, err := mips.SnapshotBytes(solver)
	if err != nil {
		return fmt.Errorf("shard %d: snapshotting for worker dial: %w", si, err)
	}
	return s.dialWorker(sh, si, section)
}

// dialWorker connects one shard to its worker from a persist section via the
// configured dialer.
func (s *Sharded) dialWorker(sh *shardState, si int, section []byte) error {
	w, err := s.cfg.WorkerDialer(si, section)
	if err != nil {
		return fmt.Errorf("shard %d: dialing worker: %w", si, err)
	}
	sh.attach(w)
	return nil
}

// retireWorker folds a replaced worker's scan meter into the composite's
// retired total — so scan/user rates survive sub-solver swaps (rebuilds,
// revivals, retunes) — and releases it. nil-safe: dead shards retire nothing.
func (s *Sharded) retireWorker(old Worker) {
	if old == nil {
		return
	}
	if old.Caps().Scans {
		s.retiredScans.Add(old.ScanStats().Scanned)
	}
	old.Close()
}
