package mips_test

// Cross-solver mutable-corpus conformance: every ItemMutator in the
// repository is driven through interleaved AddItems/RemoveItems and checked
// against the VerifyMutation oracle — results must be entry-for-entry
// identical to a fresh Build over the mutated corpus, after every step.
// (The package is mips_test so the contract tests can exercise the concrete
// solvers without an import cycle.)

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"optimus/internal/conetree"
	"optimus/internal/core"
	"optimus/internal/dataset"
	"optimus/internal/faulty"
	"optimus/internal/fexipro"
	"optimus/internal/lemp"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/shard"
	"optimus/internal/topk"
)

// mutatorFactories is the full Solver conformance matrix, one entry per
// implementation: the four incremental patchers, the FEXIPRO rebuild
// fallback, the trivial Naive reference, the item-sharded composite, and
// the fault-injecting wrapper with an empty plan.
func mutatorFactories() map[string]mips.Factory {
	return map[string]mips.Factory{
		"BMM":        func() mips.Solver { return core.NewBMM(core.BMMConfig{}) },
		"MAXIMUS":    func() mips.Solver { return core.NewMaximus(core.MaximusConfig{Seed: 3}) },
		"LEMP":       func() mips.Solver { return lemp.New(lemp.Config{Seed: 3}) },
		"ConeTree":   func() mips.Solver { return conetree.New(conetree.Config{}) },
		"FEXIPRO-SI": func() mips.Solver { return fexipro.New(fexipro.Config{}) },
		"Naive":      func() mips.Solver { return mips.NewNaive() },
		"Sharded": func() mips.Solver {
			return shard.New(shard.Config{
				Shards:      3,
				Partitioner: shard.ByNorm(),
				Factory:     func() mips.Solver { return lemp.New(lemp.Config{Seed: 3}) },
			})
		},
		"Faulty(MAXIMUS)": func() mips.Solver {
			return faulty.Wrap(core.NewMaximus(core.MaximusConfig{Seed: 3}), faulty.Plan{})
		},
	}
}

// TestSolverSurfaceBeforeBuild pins the mandatory part of the contract every
// implementation carries: before Build the sizes and generation are zero,
// SetThreads is safe, and mutation and user arrival fail instead of
// panicking; after Build the sizes match the matrices.
func TestSolverSurfaceBeforeBuild(t *testing.T) {
	m := conformanceModel(t, 0)
	for name, factory := range mutatorFactories() {
		t.Run(name, func(t *testing.T) {
			s := factory()
			if u, i := s.NumUsers(), s.NumItems(); u != 0 || i != 0 {
				t.Fatalf("sizes before Build = (%d users, %d items), want 0", u, i)
			}
			if g := s.Generation(); g != 0 {
				t.Fatalf("generation before Build = %d, want 0", g)
			}
			s.SetThreads(2)
			if _, err := s.AddItems(m.Items.RowSlice(0, 2)); err == nil {
				t.Fatal("AddItems before Build succeeded")
			}
			if _, err := s.AddUsers(m.Users.RowSlice(0, 2)); err == nil {
				t.Fatal("AddUsers before Build succeeded")
			}
			if err := s.RemoveItems([]int{0}); err == nil {
				t.Fatal("RemoveItems before Build succeeded")
			}
			if err := s.Build(m.Users, m.Items); err != nil {
				t.Fatal(err)
			}
			if got, want := s.NumUsers(), m.Users.Rows(); got != want {
				t.Fatalf("NumUsers after Build = %d, want %d", got, want)
			}
			if got, want := s.NumItems(), m.Items.Rows(); got != want {
				t.Fatalf("NumItems after Build = %d, want %d", got, want)
			}
		})
	}
}

func conformanceModel(t testing.TB, seedOffset int64) *dataset.Model {
	t.Helper()
	cfg, err := dataset.ByName("r2-nomad-25")
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.Scale(0.04)
	cfg.Seed += seedOffset
	m, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// pickRemovals draws distinct ids from [0, n) deterministically.
func pickRemovals(rng *rand.Rand, n, count int) []int {
	ids := rng.Perm(n)[:count]
	return ids
}

func TestItemMutatorsMatchFreshBuild(t *testing.T) {
	m := conformanceModel(t, 0)
	pool := conformanceModel(t, 977).Items // arrival stream, same f
	const k = 7
	const tol = 1e-9
	for name, factory := range mutatorFactories() {
		t.Run(name, func(t *testing.T) {
			s := factory()
			if err := s.Build(m.Users, m.Items); err != nil {
				t.Fatal(err)
			}
			mut, ok := s.(mips.ItemMutator)
			if !ok {
				t.Fatalf("%s does not implement mips.ItemMutator", name)
			}
			if g := mut.Generation(); g != 0 {
				t.Fatalf("generation after Build = %d, want 0", g)
			}
			corpus := m.Items // expected mutated corpus, maintained in parallel
			rng := rand.New(rand.NewSource(11))
			next := 0 // cursor into the arrival pool
			wantGen := uint64(0)

			step := func(op string, fn func() error) {
				t.Helper()
				if err := fn(); err != nil {
					t.Fatalf("%s: %v", op, err)
				}
				wantGen++
				if g := mut.Generation(); g != wantGen {
					t.Fatalf("%s: generation = %d, want %d", op, g, wantGen)
				}
				if err := mips.VerifyMutation(s, factory(), m.Users, corpus, k, tol); err != nil {
					t.Fatalf("%s: %v", op, err)
				}
			}

			// A churn schedule with both single and batched operations.
			for round, batch := range []int{1, 5, 17} {
				add := pool.RowSlice(next, next+batch)
				next += batch
				step(fmt.Sprintf("round %d add %d", round, batch), func() error {
					base := corpus.Rows()
					ids, err := mut.AddItems(add)
					if err != nil {
						return err
					}
					for i, id := range ids {
						if id != base+i {
							return fmt.Errorf("assigned id %d, want %d", id, base+i)
						}
					}
					corpus = mat.AppendRows(corpus, add)
					return nil
				})
				remove := pickRemovals(rng, corpus.Rows(), batch)
				step(fmt.Sprintf("round %d remove %d", round, batch), func() error {
					if err := mut.RemoveItems(remove); err != nil {
						return err
					}
					sorted, err := mips.ValidateRemoveIDs(remove, corpus.Rows())
					if err != nil {
						return err
					}
					corpus = mat.RemoveRows(corpus, sorted)
					return nil
				})
			}
		})
	}
}

// TestItemMutatorErrorAtomicity: a rejected mutation must leave the solver —
// results and generation — untouched.
func TestItemMutatorErrorAtomicity(t *testing.T) {
	m := conformanceModel(t, 0)
	const k = 5
	bad, err := mat.FromRows([][]float64{{1, 2}}) // wrong factor count
	if err != nil {
		t.Fatal(err)
	}
	for name, factory := range mutatorFactories() {
		t.Run(name, func(t *testing.T) {
			s := factory()
			if err := s.Build(m.Users, m.Items); err != nil {
				t.Fatal(err)
			}
			mut := s.(mips.ItemMutator)
			n := m.Items.Rows()
			if _, err := mut.AddItems(bad); err == nil {
				t.Fatal("AddItems accepted a factor-count mismatch")
			}
			if _, err := mut.AddItems(nil); err == nil {
				t.Fatal("AddItems accepted nil")
			}
			for _, ids := range [][]int{{-1}, {n}, {0, 0}, mips.IDRange(0, n), nil} {
				if err := mut.RemoveItems(ids); err == nil {
					t.Fatalf("RemoveItems accepted %v", ids)
				}
			}
			if g := mut.Generation(); g != 0 {
				t.Fatalf("generation advanced to %d on failed mutations", g)
			}
			if err := mips.VerifyMutation(s, factory(), m.Users, m.Items, k, 1e-9); err != nil {
				t.Fatalf("solver state disturbed by rejected mutations: %v", err)
			}
		})
	}
}

// TestAddUsersMatchesFreshBuild: every solver accepts dynamic user arrival,
// and post-arrival results are entry-for-entry what a fresh build over the
// grown user matrix returns.
func TestAddUsersMatchesFreshBuild(t *testing.T) {
	m := conformanceModel(t, 0)
	arrivals := conformanceModel(t, 431).Users.RowSlice(0, 9)
	const k = 7
	for name, factory := range mutatorFactories() {
		t.Run(name, func(t *testing.T) {
			s := factory()
			if err := s.Build(m.Users, m.Items); err != nil {
				t.Fatal(err)
			}
			ua, ok := s.(mips.UserAdder)
			if !ok {
				t.Fatalf("%s does not implement mips.UserAdder", name)
			}
			base := m.Users.Rows()
			ids, err := ua.AddUsers(arrivals)
			if err != nil {
				t.Fatal(err)
			}
			for i, id := range ids {
				if id != base+i {
					t.Fatalf("assigned id %d, want %d", id, base+i)
				}
			}
			grown := mat.AppendRows(m.Users, arrivals)
			if err := mips.VerifyMutation(s, factory(), grown, m.Items, k, 1e-9); err != nil {
				t.Fatal(err)
			}
			// Items can churn after users arrive, and vice versa.
			mut := s.(mips.ItemMutator)
			add := conformanceModel(t, 977).Items.RowSlice(0, 4)
			if _, err := mut.AddItems(add); err != nil {
				t.Fatal(err)
			}
			corpus := mat.AppendRows(m.Items, add)
			if err := mut.RemoveItems([]int{0, corpus.Rows() - 2}); err != nil {
				t.Fatal(err)
			}
			corpus = mat.RemoveRows(corpus, []int{0, corpus.Rows() - 2})
			if err := mips.VerifyMutation(s, factory(), grown, corpus, k, 1e-9); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQueryContract pins the one query contract every solver honors through
// QueryCtx, bare and behind a fault wrapper with an empty plan: zero options
// are Query entry for entry, static floors and a live board (without
// concurrent raisers) both return the floor prefix of the unseeded answer,
// and malformed options or a cancelled ctx fail instead of answering.
func TestQueryContract(t *testing.T) {
	m := conformanceModel(t, 0)
	const k = 6
	ids := mips.AllUserIDs(m.Users.Rows())
	for name, factory := range mutatorFactories() {
		for _, wrapped := range []bool{false, true} {
			label := name
			if wrapped {
				label = "faulty/" + name
			}
			t.Run(label, func(t *testing.T) {
				s := factory()
				if wrapped {
					s = faulty.Wrap(s, faulty.Plan{})
				}
				if err := s.Build(m.Users, m.Items); err != nil {
					t.Fatal(err)
				}
				want, err := s.Query(ids, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.QueryCtx(nil, ids, k, mips.QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				// A -Inf floor keeps every entry: the prefix check is equality.
				if err := mips.VerifyFloorPrefix(want, got, floorsAt(len(ids), math.Inf(-1))); err != nil {
					t.Fatalf("QueryCtx without options differs from Query: %v", err)
				}

				floors := make([]float64, len(ids))
				for i, row := range want {
					switch i % 4 {
					case 0:
						floors[i] = math.Inf(-1)
					case 1:
						floors[i] = row[k-1].Score // tie at the k-th
					case 2:
						floors[i] = row[k/2].Score
					default:
						floors[i] = row[0].Score
					}
				}
				seeded, err := s.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: floors})
				if err != nil {
					t.Fatal(err)
				}
				if err := mips.VerifyFloorPrefix(want, seeded, floors); err != nil {
					t.Fatalf("floors: %v", err)
				}
				board := topk.NewFloorBoard(len(ids))
				board.Fill(floors)
				live, err := s.QueryCtx(nil, ids, k, mips.QueryOptions{Board: board})
				if err != nil {
					t.Fatal(err)
				}
				if err := mips.VerifyFloorPrefix(want, live, board.Snapshot(nil)); err != nil {
					t.Fatalf("board: %v", err)
				}

				if _, err := s.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: floors, Board: board}); err == nil {
					t.Fatal("both floor sources accepted")
				}
				nan := floorsAt(len(ids), math.Inf(-1))
				nan[1] = math.NaN()
				if _, err := s.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: nan}); err == nil {
					t.Fatal("NaN floor accepted")
				}
				if _, err := s.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: floors[:1]}); err == nil {
					t.Fatal("floor/user length mismatch accepted")
				}
				if _, err := s.QueryCtx(nil, ids, k, mips.QueryOptions{Board: topk.NewFloorBoard(1)}); err == nil {
					t.Fatal("board/user length mismatch accepted")
				}
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if _, err := s.QueryCtx(ctx, ids, k, mips.QueryOptions{}); !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled ctx: err = %v, want context.Canceled", err)
				}
			})
		}
	}
}

func floorsAt(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestNonFiniteInputsRejected: a NaN or ±Inf entry voids every pruning
// bound, so Build, AddItems and AddUsers reject it with a
// *mips.NonFiniteError and leave the solver untouched.
func TestNonFiniteInputsRejected(t *testing.T) {
	m := conformanceModel(t, 0)
	const k = 5
	poison := func(src *mat.Matrix, row, col int, v float64) *mat.Matrix {
		out := src.Clone()
		out.Row(row)[col] = v
		return out
	}
	wantNonFinite := func(t *testing.T, what string, err error, matrix string, row, col int) {
		t.Helper()
		var nf *mips.NonFiniteError
		if !errors.As(err, &nf) {
			t.Fatalf("%s: err = %v, want *mips.NonFiniteError", what, err)
		}
		if nf.Matrix != matrix || nf.Row != row || nf.Col != col {
			t.Fatalf("%s: reported %s[%d][%d], want %s[%d][%d]", what, nf.Matrix, nf.Row, nf.Col, matrix, row, col)
		}
	}
	for name, factory := range mutatorFactories() {
		t.Run(name, func(t *testing.T) {
			err := factory().Build(m.Users, poison(m.Items, 3, 1, math.NaN()))
			wantNonFinite(t, "Build NaN item", err, "items", 3, 1)
			err = factory().Build(poison(m.Users, 2, 0, math.Inf(1)), m.Items)
			wantNonFinite(t, "Build +Inf user", err, "users", 2, 0)

			s := factory()
			if err := s.Build(m.Users, m.Items); err != nil {
				t.Fatal(err)
			}
			_, err = s.(mips.ItemMutator).AddItems(poison(m.Items.RowSlice(0, 2), 1, 2, math.Inf(-1)))
			wantNonFinite(t, "AddItems -Inf", err, "items", 1, 2)
			_, err = s.(mips.UserAdder).AddUsers(poison(m.Users.RowSlice(0, 2), 0, 3, math.NaN()))
			wantNonFinite(t, "AddUsers NaN", err, "users", 0, 3)
			if g := s.(mips.ItemMutator).Generation(); g != 0 {
				t.Fatalf("generation advanced to %d on rejected input", g)
			}
			if err := mips.VerifyMutation(s, factory(), m.Users, m.Items, k, 1e-9); err != nil {
				t.Fatalf("solver state disturbed by rejected input: %v", err)
			}
		})
	}
}
