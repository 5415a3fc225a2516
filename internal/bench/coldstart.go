package bench

import (
	"bytes"
	"fmt"
	"time"

	"optimus/internal/dataset"
	"optimus/internal/lemp"
	"optimus/internal/mips"
	"optimus/internal/shard"
	"optimus/internal/topk"
)

// Coldstart measures versioned-snapshot recovery: the wall-clock cost of
// restoring a built index from its snapshot versus rebuilding it from the
// raw matrices — the restart path a serving deployment takes after a crash
// or deploy. Each solver is built once, saved twice into memory (the two
// byte streams must match — snapshots are deterministic, which is what
// makes the golden-file compatibility tests and content-addressed shard
// shipping possible), loaded into a fresh instance, and the loaded index is
// spot-checked to answer exactly like the original. Reported per solver and
// scale: build time, snapshot size, save and load times, the restore
// speedup load achieves over rebuild, and the determinism check.
func (r *Runner) Coldstart() error {
	const k = 10
	const model = "r2-nomad-50"
	scales := []float64{0.06, 0.12}
	r.printf("== Coldstart: snapshot restore vs fresh build (%s, K=%d) ==\n", model, k)
	for _, scale := range scales {
		m, err := r.generateAt(model, scale)
		if err != nil {
			return err
		}
		r.printf("%-20s %-12s %9s %10s %9s %9s %9s %6s\n",
			fmt.Sprintf("scale=%.2f", scale), "solver", "build", "bytes", "save", "load", "speedup", "deter")
		r.printf("%-20s %-12s %6dx%-4d\n", "", "(users x f)", m.Users.Rows(), m.Users.Cols())
		for _, name := range []string{"BMM", "MAXIMUS", "LEMP", "FEXIPRO-SI", "Sharded"} {
			built, fresh := r.coldstartPair(name)
			if err := r.coldstartOne(name, built, fresh, m, k); err != nil {
				return fmt.Errorf("coldstart %s scale %.2f: %w", name, scale, err)
			}
		}
		r.printf("\n")
	}
	return nil
}

// coldstartPair returns a solver to build and an identically configured
// unbuilt solver to load the snapshot into.
func (r *Runner) coldstartPair(name string) (mips.Solver, mips.Solver) {
	if name == "Sharded" {
		cfg := shard.Config{
			Shards:      4,
			Partitioner: shard.ByNorm(),
			Threads:     r.opt.Threads,
			Factory: func() mips.Solver {
				return lemp.New(lemp.Config{Threads: r.opt.Threads, Seed: r.opt.Seed + 11})
			},
		}
		return shard.New(cfg), shard.New(cfg)
	}
	return r.newSolver(name), r.newSolver(name)
}

func (r *Runner) coldstartOne(name string, built, fresh mips.Solver, m *dataset.Model, k int) error {
	t0 := time.Now()
	if err := built.Build(m.Users, m.Items); err != nil {
		return err
	}
	build := time.Since(t0)

	var buf bytes.Buffer
	t1 := time.Now()
	if err := built.Save(&buf); err != nil {
		return err
	}
	save := time.Since(t1)
	var buf2 bytes.Buffer
	if err := built.Save(&buf2); err != nil {
		return err
	}
	deterministic := bytes.Equal(buf.Bytes(), buf2.Bytes())

	t2 := time.Now()
	if err := fresh.Load(bytes.NewReader(buf.Bytes())); err != nil {
		return err
	}
	load := time.Since(t2)

	if r.opt.Verify {
		want, err := built.QueryAll(k)
		if err != nil {
			return err
		}
		got, err := fresh.QueryAll(k)
		if err != nil {
			return err
		}
		if err := sameResults(want, got); err != nil {
			return fmt.Errorf("restored index diverges: %w", err)
		}
	}

	det := "no"
	if deterministic {
		det = "yes"
	}
	r.printf("%-20s %-12s %7sms %10d %7sms %7sms %8s %6s\n",
		"", name, ms(build), buf.Len(), ms(save), ms(load), ratio(build, load), det)
	return nil
}

// sameResults demands entry-for-entry equality — restored state is
// bit-identical to the saved state, so even scores must match exactly.
func sameResults(want, got [][]topk.Entry) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d users vs %d", len(want), len(got))
	}
	for u := range want {
		if len(want[u]) != len(got[u]) {
			return fmt.Errorf("user %d: %d entries vs %d", u, len(want[u]), len(got[u]))
		}
		for i := range want[u] {
			if want[u][i] != got[u][i] {
				return fmt.Errorf("user %d rank %d: %v vs %v", u, i, want[u][i], got[u][i])
			}
		}
	}
	return nil
}

// generateAt materializes a registry model at an explicit scale (the
// coldstart experiment sweeps scale itself rather than using Options.Scale).
func (r *Runner) generateAt(name string, scale float64) (*dataset.Model, error) {
	cfg, err := dataset.ByName(name)
	if err != nil {
		return nil, err
	}
	cfg = cfg.Scale(scale)
	cfg.Seed += r.opt.Seed
	return dataset.Generate(cfg)
}
