package bench

import (
	"fmt"
	"time"

	"optimus/internal/core"
	"optimus/internal/dataset"
	"optimus/internal/lemp"
	"optimus/internal/mips"
	"optimus/internal/shard"
	"optimus/internal/topk"
)

// Sharding sweeps the shard count S of the item-sharded execution layer
// over a BMM-regime model and two norm-skewed index-regime models: build
// and query time per S, speedup over the unsharded baseline, and (when
// verification is on) an entry-level identity check against the unsharded
// results — a divergence is an error, like every other -verify failure in
// the harness. A second section runs the per-shard OPTIMUS planner over a
// norm-sorted partition and reports which strategy each shard received. A
// third measures cross-shard threshold propagation: the two-wave
// floor-seeded query against the blind fan-out, with candidates scanned
// per wave as the deterministic headline metric (expect large tail cuts on
// the norm-skewed models and ~0% on the flat netflix-nomad regime — floors
// cannot prune what norms cannot bound).
func (r *Runner) Sharding() error {
	r.printf("== Sharding: item-sharded execution, shard-count sweep (K=10) ==\n")
	for _, name := range r.modelsOrDefault([]string{"netflix-nomad-50", "r2-nomad-50", "kdd-nomad-50"}) {
		m, err := r.generate(name)
		if err != nil {
			return err
		}
		const k = 10
		base := r.newSolver("BMM")
		baseTm, baseline, err := r.measureResults(base, m, k)
		if err != nil {
			return err
		}
		r.printf("%-20s %8s %10s %10s %10s %10s\n",
			name, "S", "build", "query", "total", "speedup")
		r.printf("%-20s %8s %8sms %8sms %8sms %10s\n",
			"BMM (unsharded)", "-", ms(baseTm.Build), ms(baseTm.Query), ms(baseTm.Total()), "1.00x")
		for _, shards := range []int{1, 2, 4, 8, 16} {
			sh := shard.New(shard.Config{
				Shards:  shards,
				Threads: r.opt.Threads,
				Factory: func() mips.Solver {
					return core.NewBMM(core.BMMConfig{Threads: r.opt.Threads})
				},
			})
			tm, res, err := r.measureResults(sh, m, k)
			if err != nil {
				return err
			}
			if r.opt.Verify {
				for u := range baseline {
					if !sameItems(baseline[u], res[u]) {
						return fmt.Errorf("sharding %s S=%d: user %d entries diverge from unsharded (%v vs %v)",
							name, shards, u, res[u], baseline[u])
					}
				}
			}
			r.printf("%-20s %8d %8sms %8sms %8sms %10s\n",
				"Sharded(BMM)", shards, ms(tm.Build), ms(tm.Query), ms(tm.Total()),
				ratio(baseTm.Total(), tm.Total()))
		}

		// Per-shard planning over the norm-sorted partition: the paper's
		// §IV decision at shard granularity.
		planned := shard.New(shard.Config{
			Shards:      4,
			Partitioner: shard.ByNorm(),
			Threads:     r.opt.Threads,
			Planner: shard.NewOptimusPlanner(core.OptimusConfig{
				Seed: r.opt.Seed, Threads: r.opt.Threads,
			}, k, func() mips.Solver {
				return core.NewMaximus(core.MaximusConfig{Seed: r.opt.Seed + 7, Threads: r.opt.Threads})
			}),
		})
		t0 := time.Now()
		if err := planned.Build(m.Users, m.Items); err != nil {
			return err
		}
		planTime := time.Since(t0)
		r.printf("  per-shard OPTIMUS plan (by-norm, S=4, planned in %sms):", ms(planTime))
		for si, p := range planned.Plans() {
			r.printf(" shard%d=%s(%d items)", si, p.Solver, p.Items)
		}
		r.printf("\n\n")

		if err := r.thresholdPropagation(m); err != nil {
			return err
		}
	}
	return nil
}

// thresholdPropagation measures the two-wave floor-seeded query against the
// blind single-wave fan-out over the by-norm partition, for the two pruning
// sub-solvers. The headline column is candidates scanned per wave — a
// deterministic counter (identical at every thread count, decided by the
// data alone), so the pruning win stays visible on a noisy 1-CPU container
// where wall-clock comparisons drown in scheduler jitter. Wave 1 is the
// head shard; wave 2 is the tail fan-out, where floors fire.
func (r *Runner) thresholdPropagation(m *dataset.Model) error {
	const k = 10
	r.printf("  cross-shard threshold propagation (by-norm, K=%d): candidates scanned per wave\n", k)
	r.printf("  %-10s %4s %8s %12s %12s %12s %10s %9s\n",
		"solver", "S", "floors", "wave1-scan", "wave2-scan", "total-scan", "tail-cut", "query")
	for _, sub := range []string{"LEMP", "MAXIMUS"} {
		factory := func() mips.Solver {
			if sub == "LEMP" {
				return lemp.New(lemp.Config{Threads: r.opt.Threads, Seed: r.opt.Seed + 11})
			}
			return core.NewMaximus(core.MaximusConfig{Threads: r.opt.Threads, Seed: r.opt.Seed + 7})
		}
		for _, shards := range []int{2, 4, 8} {
			var blindTail int64
			var blindRes [][]topk.Entry
			for _, disable := range []bool{true, false} {
				schedule := shard.TwoWave
				if disable {
					schedule = shard.SingleWave
				}
				sh := shard.New(shard.Config{
					Shards:      shards,
					Partitioner: shard.ByNorm(),
					Threads:     r.opt.Threads,
					Factory:     factory,
					Schedule:    schedule,
				})
				tm, res, err := r.measureResults(sh, m, k)
				if err != nil {
					return err
				}
				if r.opt.Verify {
					if disable {
						blindRes = res
					} else {
						// Floors must not change a single entry vs the blind
						// fan-out measured just above.
						for u := range blindRes {
							if !sameItems(blindRes[u], res[u]) {
								return fmt.Errorf("threshold propagation %s S=%d: user %d diverges (%v vs %v)",
									sub, shards, u, res[u], blindRes[u])
							}
						}
					}
				}
				stats := sh.ShardScanStats()
				var head, tail int64
				for si, st := range stats {
					if si == 0 {
						head = st.Scanned
					} else {
						tail += st.Scanned
					}
				}
				mode := "off"
				cut := "-"
				if disable {
					blindTail = tail
				} else {
					mode = "on"
					if blindTail > 0 {
						cut = fmt.Sprintf("%.1f%%", 100*(1-float64(tail)/float64(blindTail)))
					}
				}
				r.printf("  %-10s %4d %8s %12d %12d %12d %10s %7sms\n",
					sub, shards, mode, head, tail, head+tail, cut, ms(tm.Query))
			}
		}
	}
	r.printf("\n")
	return nil
}

// sameItems reports whether two rankings list identical items in identical
// order (scores are allowed to differ by kernel rounding).
func sameItems(a, b []topk.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Item != b[i].Item {
			return false
		}
	}
	return true
}
