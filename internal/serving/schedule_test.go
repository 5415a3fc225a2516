package serving

import (
	"context"
	"strings"
	"testing"

	"optimus/internal/lemp"
	"optimus/internal/mips"
	"optimus/internal/shard"
)

func buildSharded(t testing.TB) (*shard.Sharded, int) {
	t.Helper()
	_, users, items := buildSolver(t, 60, 90, 6)
	sh := shard.New(shard.Config{
		Shards:      3,
		Partitioner: shard.ByNorm(),
		Factory:     func() mips.Solver { return lemp.New(lemp.Config{Seed: 1}) },
	})
	if err := sh.Build(users, items); err != nil {
		t.Fatal(err)
	}
	return sh, users.Rows()
}

// TestServerSchedule pins the serving-layer schedule surface: Config.Schedule
// reaches the sharded solver before the first query, Stats reports the
// active schedule and per-wave scan stats, and non-scheduling solvers serve
// with both fields empty.
func TestServerSchedule(t *testing.T) {
	sh, nUsers := buildSharded(t)
	srv, err := New(sh, Config{Schedule: "single"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for u := 0; u < nUsers; u += 7 {
		if _, err := srv.Query(context.Background(), u, 5); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.Schedule != "single" {
		t.Fatalf("Stats.Schedule = %q, want single", st.Schedule)
	}
	if len(st.WaveScans) != 1 {
		t.Fatalf("%d wave-scan groups, want 1 (the single wave)", len(st.WaveScans))
	}
	var total int64
	for _, w := range st.WaveScans {
		total += w.Scanned
	}
	if total <= 0 {
		t.Fatal("no scans metered across waves")
	}
}

func TestServerScheduleDefaults(t *testing.T) {
	sh, _ := buildSharded(t)
	srv, err := New(sh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if st := srv.Stats(); st.Schedule != "two-wave" {
		t.Fatalf("default sharded schedule = %q, want two-wave", st.Schedule)
	}

	plain, _, _ := buildSolver(t, 20, 30, 4)
	srv2, err := New(plain, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if st := srv2.Stats(); st.Schedule != "" || st.WaveScans != nil {
		t.Fatalf("non-scheduling solver must report no schedule, got %q / %v", st.Schedule, st.WaveScans)
	}
}

func TestServerScheduleErrors(t *testing.T) {
	sh, _ := buildSharded(t)
	// Unknown names — the removed schedules included — fail New with an
	// error listing the valid names.
	for _, name := range []string{"warp", "auto", "cascade", "pipelined"} {
		_, err := New(sh, Config{Schedule: name})
		if err == nil {
			t.Fatalf("schedule %q must fail New", name)
		}
		if msg := err.Error(); !strings.Contains(msg, "two-wave") || !strings.Contains(msg, "single") {
			t.Fatalf("schedule %q: error %q must list the valid names", name, msg)
		}
	}
	plain, _, _ := buildSolver(t, 20, 30, 4)
	if _, err := New(plain, Config{Schedule: "single"}); err == nil {
		t.Fatal("scheduling an unscheduled solver must fail New")
	}
}
