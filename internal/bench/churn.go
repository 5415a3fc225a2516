package bench

import (
	"fmt"
	"math/rand"
	"time"

	"optimus/internal/core"
	"optimus/internal/dataset"
	"optimus/internal/lemp"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/mutlog"
	"optimus/internal/shard"
)

// Churn measures the mutable-corpus lifecycle: an interleaved mutate/query
// workload over the item-sharded executor (by-norm, S=4), comparing the
// dirty-shard mutation path against the full-rebuild baseline a static
// solver would need. Each round adds a batch of arrivals (routed to the
// shards owning their norm ranges), removes an equal batch (keeping the
// corpus size stable), queries the whole user base, and — for the baseline
// column — builds a fresh identical composite over the post-mutation corpus.
// Reported per sub-solver: mean mutate time vs mean full-rebuild time, the
// rebuild time saved (the headline), and the dirty-shard accounting
// (patched in place vs rebuilt). Note the workload's removals are random —
// spread across the norm range — so most rounds dirty several shards; the
// savings come from each dirty shard being *patched* instead of rebuilt.
// Norm-localized mutations dirty exactly one shard (pinned by
// TestDirtyShardIsolation in internal/shard). With -verify the post-churn
// results are additionally checked against the exactness oracle every
// round.
func (r *Runner) Churn() error {
	const k = 10
	const shards = 4
	const rounds = 8
	r.printf("== Churn: mutable corpus — dirty-shard mutation vs full rebuild (by-norm, S=%d, K=%d, %d rounds) ==\n",
		shards, k, rounds)
	for _, name := range r.modelsOrDefault([]string{"r2-nomad-50", "kdd-nomad-50"}) {
		m, err := r.generate(name)
		if err != nil {
			return err
		}
		pool, err := r.generateOffset(name, 977) // arrival stream, same f
		if err != nil {
			return err
		}
		batch := m.Items.Rows() / 100
		if batch < 1 {
			batch = 1
		}
		if rounds*batch > pool.Items.Rows() {
			batch = pool.Items.Rows() / rounds
		}
		r.printf("%-20s %-8s %8s %9s %9s %10s %8s %12s %8s %8s\n",
			name, "solver", "add/rm", "mutate", "query", "rebuild", "saved", "dirty/round", "patched", "rebuilt")
		for _, sub := range []string{"LEMP", "MAXIMUS"} {
			factory := r.churnFactory(sub)
			cfg := shard.Config{
				Shards:      shards,
				Partitioner: shard.ByNorm(),
				Threads:     r.opt.Threads,
				Factory:     factory,
			}
			sh := shard.New(cfg)
			if err := sh.Build(m.Users, m.Items); err != nil {
				return fmt.Errorf("churn %s: %w", sub, err)
			}
			if _, err := sh.QueryAll(k); err != nil { // warm tuning caches
				return fmt.Errorf("churn %s: %w", sub, err)
			}
			corpus := m.Items
			rng := rand.New(rand.NewSource(r.opt.Seed + 23))
			var mutate, query, rebuild time.Duration
			for round := 0; round < rounds; round++ {
				add := pool.Items.RowSlice(round*batch, (round+1)*batch)
				remove := rng.Perm(corpus.Rows())[:batch]

				t0 := time.Now()
				if _, err := sh.AddItems(add); err != nil {
					return fmt.Errorf("churn %s round %d: %w", sub, round, err)
				}
				if err := sh.RemoveItems(remove); err != nil {
					return fmt.Errorf("churn %s round %d: %w", sub, round, err)
				}
				mutate += time.Since(t0)
				corpus = mat.AppendRows(corpus, add)
				sorted, err := mips.ValidateRemoveIDs(remove, corpus.Rows())
				if err != nil {
					return err
				}
				corpus = mat.RemoveRows(corpus, sorted)

				t1 := time.Now()
				res, err := sh.QueryAll(k)
				if err != nil {
					return fmt.Errorf("churn %s round %d: %w", sub, round, err)
				}
				query += time.Since(t1)
				if r.opt.Verify {
					if err := mips.VerifyAll(m.Users, corpus, res, k, 1e-8); err != nil {
						return fmt.Errorf("churn %s round %d verification: %w", sub, round, err)
					}
				}

				// Full-rebuild baseline: what a static composite pays to
				// absorb the same mutation.
				fresh := shard.New(cfg)
				t2 := time.Now()
				if err := fresh.Build(m.Users, corpus); err != nil {
					return fmt.Errorf("churn %s round %d baseline: %w", sub, round, err)
				}
				rebuild += time.Since(t2)
			}
			st := sh.MutationStats()
			saved := "n/a"
			if rebuild > 0 {
				saved = fmt.Sprintf("%.1f%%", 100*(1-mutate.Seconds()/rebuild.Seconds()))
			}
			r.printf("%-20s %-8s %4d/%-3d %7sms %7sms %8sms %8s %12.1f %8d %8d\n",
				"", sub, batch, batch,
				ms(mutate/rounds), ms(query/rounds), ms(rebuild/rounds), saved,
				float64(st.Dirty())/rounds, st.Patches, st.Rebuilds)
		}
		if err := r.churnBatched(m.Users, m.Items, pool.Items, batch); err != nil {
			return err
		}
		r.printf("\n")
	}
	return nil
}

// churnBatched is the mutation-log sweep: the same per-round event stream
// (batch adds + batch removes, 2·batch events per round) enqueued on an
// internal/mutlog log over the by-norm MAXIMUS composite, flushed every F
// rounds. "direct" is PR 4's per-event baseline — AddItems/RemoveItems
// straight into the composite, one apply (= one drain behind a serving
// layer) per mutation. The amortization columns are deterministic: applies
// counts trips through the writer serialization boundary, gen-ticks the
// composite's mutation stamp — both divided by F under the log — while
// ms/event is the wall-clock writer cost including flushes.
func (r *Runner) churnBatched(users, items, pool *mat.Matrix, batch int) error {
	const rounds = 16
	if rounds*batch > pool.Rows() {
		batch = pool.Rows() / rounds
		if batch < 1 {
			return nil
		}
	}
	r.printf("%-20s %-8s %12s %8s %10s %10s %12s\n",
		"  batched (MAXIMUS)", "mode", "events/flush", "applies", "gen-ticks", "ms/event", "dirty/round")
	for _, F := range []int{0, 1, 4, 16} { // 0 = direct per-event baseline
		sh := shard.New(shard.Config{
			Shards:      4,
			Partitioner: shard.ByNorm(),
			Threads:     r.opt.Threads,
			Factory:     r.churnFactory("MAXIMUS"),
		})
		if err := sh.Build(users, items); err != nil {
			return fmt.Errorf("churn batched F=%d: %w", F, err)
		}
		var log *mutlog.Log
		if F > 0 {
			var err error
			if log, err = mutlog.New(mutlog.Direct(sh), mutlog.Config{MaxEvents: -1, MaxDelay: -1}); err != nil {
				return err
			}
		}
		corpus := items
		rng := rand.New(rand.NewSource(r.opt.Seed + 29))
		applies := 0
		var mutate time.Duration
		for round := 0; round < rounds; round++ {
			add := pool.RowSlice(round*batch, (round+1)*batch)
			remove := rng.Perm(corpus.Rows())[:batch]
			t0 := time.Now()
			if log == nil {
				if _, err := sh.AddItems(add); err != nil {
					return err
				}
				if err := sh.RemoveItems(remove); err != nil {
					return err
				}
				applies += 2
			} else {
				if _, err := log.Add(add); err != nil {
					return err
				}
				if err := log.Remove(remove); err != nil {
					return err
				}
				if (round+1)%F == 0 {
					if err := log.Flush(); err != nil {
						return err
					}
				}
			}
			mutate += time.Since(t0)
			sorted, err := mips.ValidateRemoveIDs(remove, corpus.Rows()+batch)
			if err != nil {
				return err
			}
			corpus = mat.RemoveRows(mat.AppendRows(corpus, add), sorted)
		}
		if log != nil {
			t0 := time.Now()
			if err := log.Close(); err != nil { // final partial batch
				return err
			}
			mutate += time.Since(t0)
			applies = int(log.Stats().Flushes)
		}
		if r.opt.Verify {
			res, err := sh.QueryAll(10)
			if err != nil {
				return err
			}
			if err := mips.VerifyAll(users, corpus, res, 10, 1e-8); err != nil {
				return fmt.Errorf("churn batched F=%d verification: %w", F, err)
			}
		}
		mode, perFlush := "direct", fmt.Sprintf("%d", 2*batch)
		if F > 0 {
			mode, perFlush = fmt.Sprintf("F=%d", F), fmt.Sprintf("%d", 2*batch*F)
		}
		events := float64(2 * batch * rounds)
		r.printf("%-20s %-8s %12s %8d %10d %10.4f %12.1f\n",
			"", mode, perFlush, applies, sh.Generation(),
			mutate.Seconds()*1000/events, float64(sh.MutationStats().Dirty())/rounds)
	}
	return nil
}

// churnFactory builds the churn experiment's sub-solver factories (the two
// pruning indexes whose incremental patches the lifecycle targets).
func (r *Runner) churnFactory(sub string) mips.Factory {
	switch sub {
	case "LEMP":
		return func() mips.Solver { return lemp.New(lemp.Config{Threads: r.opt.Threads, Seed: r.opt.Seed + 11}) }
	case "BMM":
		return func() mips.Solver { return core.NewBMM(core.BMMConfig{Threads: r.opt.Threads}) }
	default:
		return func() mips.Solver {
			return core.NewMaximus(core.MaximusConfig{Threads: r.opt.Threads, Seed: r.opt.Seed + 7})
		}
	}
}

// generateOffset materializes a registry model with an extra seed offset —
// an independent draw from the same distribution (the churn experiment's
// arrival stream).
func (r *Runner) generateOffset(name string, extra int64) (*dataset.Model, error) {
	cfg, err := dataset.ByName(name)
	if err != nil {
		return nil, err
	}
	cfg = cfg.Scale(r.opt.Scale)
	cfg.Seed += r.opt.Seed + extra
	return dataset.Generate(cfg)
}
