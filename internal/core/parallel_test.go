package core

import (
	"fmt"
	"testing"

	"wcoj/internal/dataset"
	"wcoj/internal/relation"
)

// checkMorsels asserts the TopMorsels contract on p at the given
// worker count: vals is the depth-0 intersection, the morsels cover it
// exactly once in ascending contiguous order, there are at least
// min(workers*shardChunkFactor, len(vals)) of them, and every value
// holding more than rows/m rows of the largest depth-0 participant —
// a hub — is alone in its morsel.
func checkMorsels(t *testing.T, p *Plan, workers int) (vals []relation.Value, starts []int) {
	t.Helper()
	vals, starts = p.TopMorsels(workers)
	want := p.TopValues(nil)
	if len(vals) != len(want) {
		t.Fatalf("TopMorsels returned %d values, TopValues %d", len(vals), len(want))
	}
	for i := range vals {
		if vals[i] != want[i] {
			t.Fatalf("value %d: %d, TopValues has %d", i, vals[i], want[i])
		}
	}
	n := len(vals)
	if len(starts) == 0 || starts[0] != 0 || starts[len(starts)-1] != n {
		t.Fatalf("starts %v do not run from 0 to %d", starts, n)
	}
	for c := 1; c < len(starts); c++ {
		if starts[c] <= starts[c-1] {
			t.Fatalf("morsel %d is empty or out of order: starts %v", c-1, starts)
		}
	}
	m := min(workers*shardChunkFactor, n)
	if got := len(starts) - 1; got < m {
		t.Fatalf("%d morsels for %d values at %d workers, want at least %d", got, n, workers, m)
	}
	tr := p.Tries[p.Participants[0][0]]
	for _, ai := range p.Participants[0] {
		if p.Tries[ai].Len() > tr.Len() {
			tr = p.Tries[ai]
		}
	}
	for c := 0; c+1 < len(starts); c++ {
		for i := starts[c]; i < starts[c+1]; i++ {
			s, ok := tr.FindSegFrom(0, 0, tr.NumSegs(0), vals[i])
			if !ok {
				continue
			}
			lo, hi := tr.SegRows(0, s)
			if (hi-lo)*m > tr.Len() && starts[c+1]-starts[c] != 1 {
				t.Fatalf("hub %d (%d of %d rows, m=%d) shares morsel %d = vals[%d:%d]",
					vals[i], hi-lo, tr.Len(), m, c, starts[c], starts[c+1])
			}
		}
	}
	return vals, starts
}

func edgePlan(t *testing.T, atoms ...Atom) *Plan {
	t.Helper()
	q, err := NewQuery([]string{"A", "B"}, atoms)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildPlan(q, []string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTopMorsels(t *testing.T) {
	ab := []string{"a", "b"}
	t.Run("empty", func(t *testing.T) {
		p := edgePlan(t, Atom{Name: "E", Vars: []string{"A", "B"}, Rel: rel(t, "E", ab)})
		vals, starts := checkMorsels(t, p, 4)
		if len(vals) != 0 || len(starts) != 1 {
			t.Fatalf("empty input: vals %v starts %v", vals, starts)
		}
	})
	t.Run("one-value", func(t *testing.T) {
		p := edgePlan(t, Atom{Name: "E", Vars: []string{"A", "B"},
			Rel: rel(t, "E", ab, []relation.Value{5, 1}, []relation.Value{5, 2})})
		if _, starts := checkMorsels(t, p, 4); len(starts) != 2 {
			t.Fatalf("one value: starts %v, want one morsel", starts)
		}
	})
	t.Run("workers-exceed-values", func(t *testing.T) {
		p := edgePlan(t, Atom{Name: "E", Vars: []string{"A", "B"},
			Rel: rel(t, "E", ab, []relation.Value{1, 1}, []relation.Value{2, 1}, []relation.Value{3, 1})})
		if _, starts := checkMorsels(t, p, 100); len(starts) != 4 {
			t.Fatalf("3 values at 100 workers: starts %v, want one morsel each", starts)
		}
	})
	t.Run("adjacent-hubs", func(t *testing.T) {
		// Values 0 and 1 hold 1000 and 400 of ~1700 rows: at 2 workers
		// (m = 8, 212 rows a morsel) each must be cut out on its own,
		// where equal-count chunks put both in chunk 0.
		b := relation.NewBuilder("E", ab...)
		for v, deg := range map[relation.Value]int{0: 1000, 1: 400} {
			for j := 0; j < deg; j++ {
				if err := b.Add(v, relation.Value(j)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for v := relation.Value(2); v < 100; v++ {
			for j := relation.Value(0); j < v%5+1; j++ {
				if err := b.Add(v, j); err != nil {
					t.Fatal(err)
				}
			}
		}
		p := edgePlan(t, Atom{Name: "E", Vars: []string{"A", "B"}, Rel: b.Build()})
		_, starts := checkMorsels(t, p, 2)
		if starts[1] != 1 || starts[2] != 2 {
			t.Fatalf("hubs 0 and 1 not in morsels of their own: starts %v", starts)
		}
	})
	t.Run("sliver-intersection", func(t *testing.T) {
		// S keeps the 40 largest A values of R's 2000: every row
		// quantile of R falls below them, and the equal-count cuts
		// alone must still spread the intersection over the workers.
		var rr, ss [][]relation.Value
		for v := relation.Value(0); v < 2000; v++ {
			rr = append(rr, []relation.Value{v, v})
			if v >= 1960 {
				ss = append(ss, []relation.Value{v, v})
			}
		}
		p := edgePlan(t,
			Atom{Name: "R", Vars: []string{"A", "B"}, Rel: rel(t, "R", ab, rr...)},
			Atom{Name: "S", Vars: []string{"A", "B"}, Rel: rel(t, "S", ab, ss...)})
		checkMorsels(t, p, 2)
	})
	t.Run("power-law", func(t *testing.T) {
		e := dataset.PowerLawGraph(3000, 20000, 1.3, 7)
		q, err := NewQuery([]string{"A", "B", "C"}, []Atom{
			{Name: "E", Vars: []string{"A", "B"}, Rel: e},
			{Name: "E", Vars: []string{"B", "C"}, Rel: e},
			{Name: "E", Vars: []string{"A", "C"}, Rel: e},
		})
		if err != nil {
			t.Fatal(err)
		}
		p, err := BuildPlan(q, []string{"A", "B", "C"})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 3, 4, 16, 1 << 20} {
			t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) { checkMorsels(t, p, w) })
		}
	})
}
