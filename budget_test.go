package wcoj

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"wcoj/internal/dataset"
)

// TestNodeBudget checks admission-control budgets across both engines
// and serial/parallel execution: a tiny budget must cut every
// execution mode off with ErrNodeBudget, and a generous one must not
// disturb the result.
func TestNodeBudget(t *testing.T) {
	nodeBudgetSuite(t, dataset.RandomGraph(60, 800, 3), []int{1, 4})
}

// TestNodeBudgetPowerLaw runs the same checks on a power-law graph,
// whose adjacent hubs get morsels of their own at every p > 1.
func TestNodeBudgetPowerLaw(t *testing.T) {
	nodeBudgetSuite(t, dataset.PowerLawGraph(2000, 8000, 1.3, 5), []int{1, 2, 4})
}

// nodeBudgetSuite prepares the triangle over edge relation e and runs
// every execution mode under tiny and generous budgets, for both WCOJ
// engines at each parallelism.
func nodeBudgetSuite(t *testing.T, e *Relation, pars []int) {
	db := NewDB()
	if err := db.Register(e); err != nil {
		t.Fatal(err)
	}
	src := "Q(A,B,C) :- E(A,B), E(B,C), E(A,C)"
	for _, algo := range []Algorithm{AlgoGenericJoin, AlgoLeapfrog} {
		for _, par := range pars {
			t.Run(fmt.Sprintf("%v/par=%d", algo, par), func(t *testing.T) {
				pq, err := db.Prepare(src, Options{Algorithm: algo, Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				rel, _, err := pq.Execute(context.Background())
				if err != nil {
					t.Fatal(err)
				}

				tiny := WithNodeBudget(context.Background(), 10)
				if _, _, err := pq.Execute(tiny); !errors.Is(err, ErrNodeBudget) {
					t.Fatalf("Execute under tiny budget: err=%v, want ErrNodeBudget", err)
				}
				if _, _, err := pq.Count(WithNodeBudget(context.Background(), 10)); !errors.Is(err, ErrNodeBudget) {
					t.Fatalf("Count under tiny budget: err=%v, want ErrNodeBudget", err)
				}
				if _, _, err := pq.CountFast(WithNodeBudget(context.Background(), 10)); !errors.Is(err, ErrNodeBudget) {
					t.Fatalf("CountFast under tiny budget: err=%v, want ErrNodeBudget", err)
				}

				big := WithNodeBudget(context.Background(), 1<<40)
				got, _, err := pq.Execute(big)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(rel) {
					t.Fatal("budgeted run diverged from unbudgeted result")
				}
				if n, _, err := pq.CountFast(WithNodeBudget(context.Background(), 1<<40)); err != nil || n != rel.Len() {
					t.Fatalf("CountFast under big budget: n=%d err=%v, want %d", n, err, rel.Len())
				}
			})
		}
	}
}

// TestNodeBudgetProjection exercises the enumerate/exists aggregate
// paths, whose budget exhaustion unwinds through error-less existence
// probes.
func TestNodeBudgetProjection(t *testing.T) {
	db := NewDB()
	if err := db.Register(dataset.RandomGraph(60, 800, 5)); err != nil {
		t.Fatal(err)
	}
	src := "Q(A,B,C) :- E(A,B), E(B,C), E(A,C)"
	for _, algo := range []Algorithm{AlgoGenericJoin, AlgoLeapfrog} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/par=%d", algo, par), func(t *testing.T) {
				pq, err := db.Prepare(src, Options{Algorithm: algo, Parallelism: par, Project: []string{"A"}})
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := pq.Execute(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := pq.Execute(WithNodeBudget(context.Background(), 10)); !errors.Is(err, ErrNodeBudget) {
					t.Fatalf("projected Execute under tiny budget: err=%v, want ErrNodeBudget", err)
				}
				got, _, err := pq.Execute(WithNodeBudget(context.Background(), 1<<40))
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatal("budgeted projection diverged from unbudgeted result")
				}
			})
		}
	}
}

// TestNodeBudgetLFTJTail: a count whose work is all in the counting
// tail — one A value, then a 100k-value B intersection the kernel
// counts without recursing — must still be cut off by a tiny budget
// under either walk: the tail charges its matches.
func TestNodeBudgetLFTJTail(t *testing.T) {
	db := NewDB()
	for _, name := range []string{"R", "S"} {
		b := NewRelationBuilder(name, "a", "b")
		for i := 0; i < 100000; i++ {
			if err := b.Add(Value(1), Value(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Register(b.Build()); err != nil {
			t.Fatal(err)
		}
	}
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			for _, algo := range []Algorithm{AlgoGenericJoin, AlgoLeapfrog} {
				t.Run(algo.String(), func(t *testing.T) {
					pq, err := db.Prepare("Q(A,B) :- R(A,B), S(A,B)", Options{Algorithm: algo, Parallelism: par, Order: []string{"A", "B"}})
					if err != nil {
						t.Fatal(err)
					}
					if _, _, err := pq.Count(WithNodeBudget(context.Background(), 1000)); !errors.Is(err, ErrNodeBudget) {
						t.Fatalf("tail count under tiny budget: err=%v, want ErrNodeBudget", err)
					}
					if _, _, err := pq.Exists(WithNodeBudget(context.Background(), 1000)); err != nil {
						t.Fatalf("exists under tiny budget: %v", err)
					}
					n, _, err := pq.Count(WithNodeBudget(context.Background(), 1<<20))
					if err != nil || n != 100000 {
						t.Fatalf("tail count under big budget: n=%d err=%v, want 100000", n, err)
					}
				})
			}
		})
	}
}
