package wcoj

// Serial vs parallel equivalence for the sharded execution engine.
// Every query integration_test.go exercises is re-run here at several
// worker counts; results must be byte-identical (same Relation, same
// Count, same ExecuteFunc emission sequence) at every setting. Run
// with -race: the engine must be free of shared mutable state.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"wcoj/internal/core"
	"wcoj/internal/dataset"
)

// parallelisms covers the edge cases the engine normalizes: 1 (forced
// serial), 0 (default, GOMAXPROCS), a small explicit count, and a
// count far larger than any depth-0 intersection in these workloads.
var parallelisms = []int{1, 0, 3, 1 << 20}

// parallelQueries builds every query shape the integration suite runs.
func parallelQueries(t testing.TB) map[string]*Query {
	t.Helper()
	qs := make(map[string]*Query)

	tri := dataset.TriangleSkew(400)
	q, err := core.NewQuery([]string{"A", "B", "C"}, []core.Atom{
		{Name: "R", Vars: []string{"A", "B"}, Rel: tri.R},
		{Name: "S", Vars: []string{"B", "C"}, Rel: tri.S},
		{Name: "T", Vars: []string{"A", "C"}, Rel: tri.T},
	})
	if err != nil {
		t.Fatal(err)
	}
	qs["triangle-skew"] = q

	d := dataset.NewExample1(800, 3, 3, 0.3, 5)
	q, err = core.NewQuery([]string{"A", "B", "C", "D"}, []core.Atom{
		{Name: "R", Vars: []string{"A", "B"}, Rel: d.R},
		{Name: "S", Vars: []string{"B", "C"}, Rel: d.S},
		{Name: "T", Vars: []string{"C", "D"}, Rel: d.T},
		{Name: "W", Vars: []string{"A", "C", "D"}, Rel: d.W},
		{Name: "V", Vars: []string{"A", "B", "D"}, Rel: d.V},
	})
	if err != nil {
		t.Fatal(err)
	}
	qs["example1"] = q

	c := dataset.NewChain63(30, 3, 3, 3, 9)
	q, err = core.NewQuery([]string{"A", "B", "C", "D"}, []core.Atom{
		{Name: "R", Vars: []string{"A"}, Rel: c.R},
		{Name: "S", Vars: []string{"A", "B"}, Rel: c.S},
		{Name: "T", Vars: []string{"B", "C"}, Rel: c.T},
		{Name: "W", Vars: []string{"C", "A", "D"}, Rel: c.W},
	})
	if err != nil {
		t.Fatal(err)
	}
	qs["chain63"] = q

	e := dataset.RandomGraph(500, 2000, 11)
	db := NewDatabase()
	db.Put(e)
	q, err = MustParse("Q(A,B,C,D) :- E(A,B), E(B,C), E(C,D), E(D,A)").Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	qs["4cycle"] = q

	// Power-law triangle: the Zipf hubs sit next to each other at the
	// bottom of the sorted depth-0 values, so Plan.TopMorsels cuts
	// them into morsels of their own at every worker count.
	e = dataset.PowerLawGraph(2000, 8000, 1.3, 5)
	db = NewDatabase()
	db.Put(e)
	q, err = MustParse("Q(A,B,C) :- E(A,B), E(B,C), E(A,C)").Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	qs["triangle-powerlaw"] = q

	// Empty join: two disjoint edge sets share no B value, so the
	// depth-0 intersection under order B-first can be empty and the
	// output always is.
	lo := NewRelationBuilder("L", "a", "b")
	hi := NewRelationBuilder("H", "b", "c")
	for i := 0; i < 50; i++ {
		if err := lo.Add(Value(i), Value(i)); err != nil {
			t.Fatal(err)
		}
		if err := hi.Add(Value(i+1000), Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	db = NewDatabase()
	db.Put(lo.Build())
	db.Put(hi.Build())
	q, err = MustParse("Q(A,B,C) :- L(A,B), H(B,C)").Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	qs["empty"] = q

	return qs
}

// TestParallelMatchesSerial asserts Execute and Count agree with the
// serial run for every query, algorithm and worker count.
func TestParallelMatchesSerial(t *testing.T) {
	for name, q := range parallelQueries(t) {
		for _, algo := range []Algorithm{AlgoGenericJoin, AlgoLeapfrog} {
			serialOut, serialStats, err := Execute(q, Options{Algorithm: algo, Parallelism: 1})
			if err != nil {
				t.Fatalf("%s/%v serial: %v", name, algo, err)
			}
			serialN, serialCountStats, err := Count(q, Options{Algorithm: algo, Parallelism: 1})
			if err != nil {
				t.Fatalf("%s/%v serial count: %v", name, algo, err)
			}
			if serialN != serialOut.Len() {
				t.Fatalf("%s/%v: serial Count %d vs Execute %d", name, algo, serialN, serialOut.Len())
			}
			for _, p := range parallelisms {
				t.Run(fmt.Sprintf("%s/%v/p=%d", name, algo, p), func(t *testing.T) {
					opts := Options{Algorithm: algo, Parallelism: p}
					out, stats, err := Execute(q, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !out.Equal(serialOut) {
						t.Fatalf("parallel Execute disagrees: %d rows vs %d", out.Len(), serialOut.Len())
					}
					if *stats != *serialStats {
						t.Errorf("stats diverge: parallel %+v vs serial %+v", *stats, *serialStats)
					}
					n, cstats, err := Count(q, opts)
					if err != nil {
						t.Fatal(err)
					}
					if n != serialOut.Len() {
						t.Fatalf("parallel Count %d vs %d", n, serialOut.Len())
					}
					if *cstats != *serialCountStats {
						t.Errorf("count stats diverge: %+v vs %+v", *cstats, *serialCountStats)
					}
				})
			}
		}
	}
}

// TestExecuteFuncOrder asserts the streaming API emits the exact
// serial tuple sequence at every worker count, for every algorithm
// that streams.
func TestExecuteFuncOrder(t *testing.T) {
	for name, q := range parallelQueries(t) {
		for _, algo := range []Algorithm{AlgoGenericJoin, AlgoLeapfrog} {
			var want []Value
			_, err := ExecuteFunc(q, Options{Algorithm: algo, Parallelism: 1}, func(tu Tuple) error {
				want = append(want, tu...)
				return nil
			})
			if err != nil {
				t.Fatalf("%s/%v serial: %v", name, algo, err)
			}
			for _, p := range parallelisms[1:] {
				t.Run(fmt.Sprintf("%s/%v/p=%d", name, algo, p), func(t *testing.T) {
					var got []Value
					stats, err := ExecuteFunc(q, Options{Algorithm: algo, Parallelism: p}, func(tu Tuple) error {
						got = append(got, tu...)
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("emitted %d values, want %d", len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("emission sequence diverges at flat index %d", i)
						}
					}
					if stats.Output*len(q.Vars) != len(got) {
						t.Fatalf("stats.Output %d inconsistent with %d emitted values", stats.Output, len(got))
					}
				})
			}
		}
	}
}

// TestExecuteFuncEmitError asserts an emit error aborts the run and
// propagates at every worker count.
func TestExecuteFuncEmitError(t *testing.T) {
	qs := parallelQueries(t)
	q := qs["triangle-skew"]
	sentinel := errors.New("stop")
	for _, algo := range []Algorithm{AlgoGenericJoin, AlgoLeapfrog, AlgoBacktracking, AlgoBinaryJoin} {
		for _, p := range []int{1, 4} {
			seen := 0
			_, err := ExecuteFunc(q, Options{Algorithm: algo, Parallelism: p}, func(Tuple) error {
				seen++
				if seen == 3 {
					return sentinel
				}
				return nil
			})
			if !errors.Is(err, sentinel) {
				t.Fatalf("%v/p=%d: got %v, want sentinel", algo, p, err)
			}
			if seen != 3 {
				t.Fatalf("%v/p=%d: emit called %d times after error", algo, p, seen)
			}
		}
	}
}

// TestExecuteFuncCancelMidRun cancels the run's context from inside
// emit, on the first tuple, for every query, engine and worker count.
// The run must either report context.Canceled or — when the serial
// search finished before its watcher saw the cancellation — return
// the complete output; never a truncated success or the internal
// abort sentinel.
func TestExecuteFuncCancelMidRun(t *testing.T) {
	for name, q := range parallelQueries(t) {
		for _, algo := range []Algorithm{AlgoGenericJoin, AlgoLeapfrog} {
			want, _, err := Count(q, Options{Algorithm: algo, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			if want == 0 {
				continue
			}
			for _, p := range parallelisms {
				t.Run(fmt.Sprintf("%s/%v/p=%d", name, algo, p), func(t *testing.T) {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					seen := 0
					_, err := ExecuteFunc(q, Options{Algorithm: algo, Parallelism: p, Context: ctx}, func(Tuple) error {
						seen++
						cancel()
						return nil
					})
					switch {
					case errors.Is(err, context.Canceled):
					case err != nil:
						t.Fatalf("err = %v, want context.Canceled", err)
					case seen != want:
						t.Fatalf("nil error after %d of %d tuples", seen, want)
					}
				})
			}
		}
	}
}

// TestExecuteFuncAllAlgorithms asserts every algorithm's streaming
// output equals its materialized output.
func TestExecuteFuncAllAlgorithms(t *testing.T) {
	q := parallelQueries(t)["triangle-skew"]
	for _, algo := range []Algorithm{
		AlgoGenericJoin, AlgoLeapfrog, AlgoBacktracking, AlgoBinaryJoin, AlgoBinaryJoinProject,
	} {
		want, _, err := Execute(q, Options{Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		b := NewRelationBuilder("Q", q.Vars...)
		stats, err := ExecuteFunc(q, Options{Algorithm: algo}, func(tu Tuple) error {
			return b.Add(tu...)
		})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		got := b.Build()
		if !got.Equal(want) {
			t.Fatalf("%v: streaming result disagrees with Execute", algo)
		}
		if stats.Output != want.Len() {
			t.Fatalf("%v: stats.Output %d, want %d", algo, stats.Output, want.Len())
		}
	}
}

// TestParallelismDefault documents the 0 => GOMAXPROCS default wiring.
func TestParallelismDefault(t *testing.T) {
	if w := (Options{}).workers(); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("default workers %d, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
	if w := (Options{Parallelism: 7}).workers(); w != 7 {
		t.Fatalf("explicit workers %d, want 7", w)
	}
}
