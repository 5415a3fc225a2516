package optimus

// Golden snapshot compatibility: testdata/golden holds one committed
// snapshot per kind, built from a fixed LCG corpus. The test proves two
// properties CI pins on every run:
//
//  1. Wire-format stability — today's reader loads yesterday's bytes. A
//     change that breaks loading the committed files is a format break and
//     must bump persist.Version (with a migration path), not silently
//     reshape version 1.
//  2. Writer determinism — today's writer reproduces the committed bytes
//     exactly. Deterministic snapshots are what make the CI digest artifact
//     and content-addressed shard shipping meaningful. (Checked only where
//     the build's float math is platform-reproducible; see below.)
//
// Regenerate after an intentional, version-bumped format change with:
//
//	UPDATE_GOLDEN=1 go test -run TestGoldenSnapshots .

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"optimus/internal/persist"
)

func goldenCorpus() (*Matrix, *Matrix) {
	return lcgMatrix(20, 8, 7), lcgMatrix(48, 8, 13)
}

func goldenSolvers() []struct {
	Name string
	Make func() Solver
} {
	return []struct {
		Name string
		Make func() Solver
	}{
		{"naive", func() Solver { return NewNaive() }},
		{"bmm", func() Solver { return NewBMM(BMMConfig{}) }},
		{"maximus", func() Solver { return NewMaximus(MaximusConfig{Seed: 1}) }},
		{"lemp", func() Solver { return NewLEMP(LEMPConfig{Seed: 1}) }},
		{"conetree", func() Solver { return NewConeTree(ConeTreeConfig{}) }},
		{"fexipro-si", func() Solver { return NewFexipro(FexiproConfig{Variant: FexiproSI}) }},
		{"fexipro-sir", func() Solver { return NewFexipro(FexiproConfig{Variant: FexiproSIR}) }},
		{"sharded", func() Solver {
			return NewSharded(ShardedConfig{
				Shards:      3,
				Partitioner: ShardByNorm(),
				Factory:     func() Solver { return NewLEMP(LEMPConfig{Seed: 1}) },
			})
		}},
	}
}

func TestGoldenSnapshots(t *testing.T) {
	users, items := goldenCorpus()
	const k = 5
	update := os.Getenv("UPDATE_GOLDEN") != ""
	for _, g := range goldenSolvers() {
		t.Run(g.Name, func(t *testing.T) {
			built := g.Make()
			if err := built.Build(users, items); err != nil {
				t.Fatal(err)
			}
			want, err := built.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := SaveSolver(&buf, built); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", g.Name+".osnp")
			if update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, buf.Len())
				return
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
			}

			// Property 1: the committed bytes still load, and the loaded
			// index answers exactly like a fresh build of the same corpus.
			loaded, err := LoadSolver(bytes.NewReader(golden))
			if err != nil {
				t.Fatalf("golden snapshot no longer loads — wire format break: %v", err)
			}
			got, err := loaded.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			sameEntries(t, want, got)
			if err := VerifyAll(users, items, got, k, 1e-8); err != nil {
				t.Fatal(err)
			}

			// Property 2: the writer reproduces the committed bytes. Index
			// construction runs float64 arithmetic that Go may contract into
			// FMA on some architectures, so the byte comparison pins the
			// architecture the goldens were generated on; the load check
			// above is architecture-independent.
			if runtime.GOARCH != "amd64" {
				t.Skipf("byte-equality check pinned to amd64 (running on %s)", runtime.GOARCH)
			}
			if !bytes.Equal(buf.Bytes(), golden) {
				t.Fatalf("snapshot bytes diverged from %s (%d bytes written vs %d committed); "+
					"if the format change is intentional, bump persist.Version and regenerate with UPDATE_GOLDEN=1",
					path, buf.Len(), len(golden))
			}
		})
	}
}

// TestGoldenVersionSkew pins the version policy: a version-1 reader must
// reject a stream stamped with any other version, cleanly.
func TestGoldenVersionSkew(t *testing.T) {
	users, items := goldenCorpus()
	built := NewNaive()
	if err := built.Build(users, items); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveSolver(&buf, built); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, v := range []byte{0, 2, 255} {
		skewed := append([]byte(nil), raw...)
		skewed[4] = v // version field follows the 4-byte magic
		if _, err := LoadSolver(bytes.NewReader(skewed)); err == nil {
			t.Fatalf("version %d stream loaded under a version-1 reader", v)
		}
	}
	if _, err := LoadSolver(bytes.NewReader(raw)); err != nil {
		t.Fatalf("unskewed control failed: %v", err)
	}
}

// TestGoldenScheduleEvolution pins the additive-evolution contract of the
// wave-schedule section: the committed v1 sharded golden (written before
// schedules existed) still loads and resolves to the default two-wave
// schedule, a re-save of it stays byte-identical (the default writes no
// schedule section), and a schedule-bearing snapshot — the same stream plus
// one trailing section — round-trips the requested single schedule with
// identical answers.
func TestGoldenScheduleEvolution(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", "sharded.osnp"))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSolver(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	sh, ok := loaded.(*Sharded)
	if !ok {
		t.Fatalf("sharded golden loaded as %T", loaded)
	}
	if sh.RequestedSchedule() != ScheduleTwoWave {
		t.Fatalf("pre-schedule golden requests %v, want two-wave", sh.RequestedSchedule())
	}
	if sh.ActiveSchedule() != ScheduleTwoWave {
		t.Fatalf("pre-schedule golden resolves to %v, want two-wave", sh.ActiveSchedule())
	}
	const k = 5
	want, err := sh.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}

	var resave bytes.Buffer
	if err := SaveSolver(&resave, sh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resave.Bytes(), golden) {
		t.Fatalf("re-saving the golden under the schedule-extended writer changed it "+
			"(%d bytes vs %d committed) — the default must write no schedule section",
			resave.Len(), len(golden))
	}

	if err := sh.SetSchedule(ScheduleSingle); err != nil {
		t.Fatal(err)
	}
	var extended bytes.Buffer
	if err := SaveSolver(&extended, sh); err != nil {
		t.Fatal(err)
	}
	if extended.Len() <= len(golden) || !bytes.Equal(extended.Bytes()[:len(golden)], golden) {
		t.Fatal("a schedule-bearing snapshot must be the golden stream plus a trailing section")
	}
	reloaded, err := LoadSolver(bytes.NewReader(extended.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sh2 := reloaded.(*Sharded)
	if sh2.RequestedSchedule() != ScheduleSingle || sh2.ActiveSchedule() != ScheduleSingle {
		t.Fatalf("reloaded schedule %v/%v, want single/single",
			sh2.RequestedSchedule(), sh2.ActiveSchedule())
	}
	got, err := sh2.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}
	sameEntries(t, want, got)
}

// TestGoldenRejectsUnknownSchedules appends a trailing schedule section
// naming a schedule this reader does not know — the names earlier writers
// could emit for removed schedules included — to the committed sharded
// golden, the way TestGoldenScheduleEvolution extends it. The load must fail
// with an error that lists the valid names, never fall back silently.
func TestGoldenRejectsUnknownSchedules(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", "sharded.osnp"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"auto", "cascade", "pipelined", "warp"} {
		stream := append(append([]byte(nil), golden...), scheduleSection(t, name)...)
		_, err := LoadSolver(bytes.NewReader(stream))
		if err == nil {
			t.Fatalf("snapshot with schedule section %q loaded", name)
		}
		if msg := err.Error(); !strings.Contains(msg, `"`+name+`"`) ||
			!strings.Contains(msg, "two-wave") || !strings.Contains(msg, "single") {
			t.Fatalf("schedule %q: load error %q must name it and list the valid names", name, msg)
		}
	}
	// Control: the same construction with a known name loads.
	stream := append(append([]byte(nil), golden...), scheduleSection(t, "single")...)
	loaded, err := LoadSolver(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.(*Sharded).RequestedSchedule(); got != ScheduleSingle {
		t.Fatalf("appended single section loaded as %v", got)
	}
}

// scheduleSection encodes one framed "schedule" section carrying name, as
// Sharded.Save writes it after the shard sections: a throwaway stream's
// header is written and cut off, leaving the section bytes alone.
func scheduleSection(t *testing.T, name string) []byte {
	t.Helper()
	var buf bytes.Buffer
	pw, err := persist.NewWriter(&buf, "sharded")
	if err != nil {
		t.Fatal(err)
	}
	header := buf.Len()
	pw.Section("schedule", func(e *persist.Encoder) { e.String(name) })
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[header:]
}
