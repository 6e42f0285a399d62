package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"wcoj/internal/relation"
)

// walks lists the level walks every test here runs under.
var walks = []struct {
	name string
	walk Walk
}{{"generic", WalkGeneric}, {"leapfrog", WalkLeapfrog}}

// joinWalk plans q under order (nil: the heuristic) and materializes
// it with the given walk and parallelism.
func joinWalk(q *Query, order []string, walk Walk, parallelism int) (*relation.Relation, *Stats, error) {
	p, err := BuildPlan(q, order)
	if err != nil {
		return nil, nil, err
	}
	return Join(context.Background(), p, walk, parallelism)
}

func TestWalkTriangleSmall(t *testing.T) {
	r := rel(t, "R", []string{"A", "B"},
		[]relation.Value{1, 1}, []relation.Value{1, 2}, []relation.Value{2, 1})
	s := rel(t, "S", []string{"B", "C"},
		[]relation.Value{1, 5}, []relation.Value{2, 5}, []relation.Value{1, 6})
	tt := rel(t, "T", []string{"A", "C"},
		[]relation.Value{1, 5}, []relation.Value{2, 6})
	q := triangleQuery(t, r, s, tt)
	want := naiveJoin(t, q)
	for _, wk := range walks {
		t.Run(wk.name, func(t *testing.T) {
			got, stats, err := joinWalk(q, nil, wk.walk, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("join = %v, want %v", got.Tuples(), want.Tuples())
			}
			if stats.Output != got.Len() {
				t.Fatal("stats.Output mismatch")
			}
			p, err := BuildPlan(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			n, _, err := Count(context.Background(), p, wk.walk, 1)
			if err != nil {
				t.Fatal(err)
			}
			if n != want.Len() {
				t.Fatalf("Count = %d, want %d", n, want.Len())
			}
		})
	}
}

func TestWalkEmptyInput(t *testing.T) {
	r := rel(t, "R", []string{"A", "B"}, []relation.Value{1, 2})
	s := relation.Empty("S", "B", "C")
	tt := rel(t, "T", []string{"A", "C"}, []relation.Value{1, 3})
	q := triangleQuery(t, r, s, tt)
	for _, wk := range walks {
		got, _, err := joinWalk(q, nil, wk.walk, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 0 {
			t.Fatalf("%s: empty input must give empty output", wk.name)
		}
	}
}

func TestWalkSingleAtom(t *testing.T) {
	r := rel(t, "R", []string{"A", "B"},
		[]relation.Value{1, 2}, []relation.Value{3, 4})
	q, err := NewQuery([]string{"A", "B"}, []Atom{
		{Name: "R", Vars: []string{"A", "B"}, Rel: r},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, wk := range walks {
		got, _, err := joinWalk(q, nil, wk.walk, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 2 {
			t.Fatalf("%s: single atom = %d rows", wk.name, got.Len())
		}
	}
}

func TestWalkBadOrder(t *testing.T) {
	r := rel(t, "R", []string{"A", "B"}, []relation.Value{1, 2})
	q, err := NewQuery([]string{"A", "B"}, []Atom{
		{Name: "R", Vars: []string{"A", "B"}, Rel: r},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, wk := range walks {
		if _, _, err := joinWalk(q, []string{"A"}, wk.walk, 1); err == nil {
			t.Fatalf("%s: short order must fail", wk.name)
		}
	}
}

// Property: both walks agree with the reference join on random
// 4-cycle queries under several variable orders, serially and sharded.
func TestPropertyWalksMatchNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk2 := func(name, a1, a2 string) *relation.Relation {
			b := relation.NewBuilder(name, a1, a2)
			for i := 0; i < rng.Intn(50); i++ {
				b.Add(relation.Value(rng.Intn(7)), relation.Value(rng.Intn(7)))
			}
			return b.Build()
		}
		q, err := NewQuery([]string{"A", "B", "C", "D"}, []Atom{
			{Name: "R", Vars: []string{"A", "B"}, Rel: mk2("R", "A", "B")},
			{Name: "S", Vars: []string{"B", "C"}, Rel: mk2("S", "B", "C")},
			{Name: "T", Vars: []string{"C", "D"}, Rel: mk2("T", "C", "D")},
			{Name: "U", Vars: []string{"D", "A"}, Rel: mk2("U", "D", "A")},
		})
		if err != nil {
			return false
		}
		want := naiveJoin(t, q)
		for _, ord := range [][]string{
			nil,
			{"A", "B", "C", "D"},
			{"D", "C", "B", "A"},
			{"B", "D", "A", "C"},
		} {
			for _, wk := range walks {
				for _, par := range []int{1, 3} {
					got, _, err := joinWalk(q, ord, wk.walk, par)
					if err != nil || !got.Equal(want) {
						t.Logf("seed %d order %v %s p=%d: err=%v", seed, ord, wk.name, par, err)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
