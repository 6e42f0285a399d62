package wcoj

import (
	"context"
	"testing"
)

// TestSearchAllocsFlat guards the search against per-node heap
// allocation. Picking the level walk per search node through an
// interface method or a func value would send the walk's state to the
// heap once per node; the search must stay flat instead. At p=1 a
// prepared Count, Exists and projected ExecuteFunc on a triangle may
// allocate no more at 4n than at n, beyond the logarithmic growth of
// the per-depth value buffers.
//
// The triangle is a diagonal: each of n A values has a single B and
// C, and only the last closes a triangle, so every mode walks a level
// below each A value. The aggregate memo, probed once per A value,
// never sees a range signature twice and switches itself off after
// its first 4096 probes at both sizes; its entries do not scale with
// n.
func TestSearchAllocsFlat(t *testing.T) {
	const n = 8192
	type allocs struct{ count, exists, visit float64 }
	measure := func(t *testing.T, algo Algorithm, n int) allocs {
		rb := NewRelationBuilder("R", "a", "b")
		sb := NewRelationBuilder("S", "b", "c")
		tb := NewRelationBuilder("T", "a", "c")
		for a := 1; a <= n; a++ {
			c := a + 1 // T(a, a+1) closes no triangle ...
			if a == n {
				c = a // ... except at the last A value
			}
			for _, err := range []error{rb.Add(Value(a), Value(a)), sb.Add(Value(a), Value(a)), tb.Add(Value(a), Value(c))} {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		db := NewDB()
		for _, r := range []*Relation{rb.Build(), sb.Build(), tb.Build()} {
			if err := db.Register(r); err != nil {
				t.Fatal(err)
			}
		}
		const src = "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)"
		order := []string{"A", "B", "C"}
		pq, err := db.Prepare(src, Options{Algorithm: algo, Parallelism: 1, Order: order})
		if err != nil {
			t.Fatal(err)
		}
		pp, err := db.Prepare(src, Options{Algorithm: algo, Parallelism: 1, Order: order, Project: []string{"A", "B"}})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		run := func(f func() (int, error)) float64 {
			return testing.AllocsPerRun(3, func() {
				got, err := f()
				if err != nil || got != 1 {
					t.Fatalf("got %d results, err=%v; want the one triangle", got, err)
				}
			})
		}
		return allocs{
			count: run(func() (int, error) {
				c, _, err := pq.Count(ctx)
				return c, err
			}),
			exists: run(func() (int, error) {
				ok, _, err := pq.Exists(ctx)
				if ok {
					return 1, err
				}
				return 0, err
			}),
			visit: run(func() (int, error) {
				st, err := pp.ExecuteFunc(ctx, func(Tuple) error { return nil })
				if err != nil {
					return 0, err
				}
				return st.Output, nil
			}),
		}
	}
	for _, algo := range []Algorithm{AlgoGenericJoin, AlgoLeapfrog} {
		t.Run(algo.String(), func(t *testing.T) {
			small, large := measure(t, algo, n), measure(t, algo, 4*n)
			for _, c := range []struct {
				mode         string
				small, large float64
			}{
				{"Count", small.count, large.count},
				{"Exists", small.exists, large.exists},
				{"projected ExecuteFunc", small.visit, large.visit},
			} {
				// 4n is 3n more search nodes; 8 more allocations cover
				// the value buffers' doublings.
				if c.large > c.small+8 {
					t.Errorf("%s allocates %.0f times at n=%d, %.0f at n=%d: per-node allocation", c.mode, c.large, 4*n, c.small, n)
				}
				t.Logf("%s: %.0f allocs at n=%d, %.0f at n=%d", c.mode, c.small, n, c.large, 4*n)
			}
		})
	}
}
