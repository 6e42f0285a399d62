// Package lftj implements Veldhuizen's Leapfrog Triejoin [66], the
// worst-case optimal join algorithm that has been the work-horse of the
// LogicBlox engine. It walks one trie iterator per atom in lockstep
// through a global variable order; at each level the participating
// iterators run the leapfrog intersection (round-robin seek to the
// current maximum key). Like Generic-Join it runs in Õ(N^{ρ*}); the
// two differ operationally — LFTJ never materializes a level's
// intersection, Generic-Join does — which the benchmark harness
// measures as an ablation.
//
// With Options.Parallelism > 1 the depth-0 leapfrog is replaced by one
// materialized top-level intersection, cut into contiguous equal-work
// morsels (core.Plan.TopMorsels) that worker goroutines search with
// private trie iterators over the shared immutable tries, so results
// (and Stats totals) are identical to the serial run.
package lftj

import (
	"context"
	"sync/atomic"

	"wcoj/internal/core"
	"wcoj/internal/relation"
	"wcoj/internal/trie"
)

// Options configure a leapfrog triejoin run.
type Options struct {
	// Order is the global variable order; nil selects the degree-order
	// heuristic.
	Order []string
	// Policy, when non-nil, resolves the variable order and takes
	// precedence over Order (explicit, heuristic, or the cost-based
	// optimizer of internal/planner).
	Policy core.OrderPolicy
	// Parallelism is the number of worker goroutines sharding the
	// depth-0 intersection. Values <= 1 run the serial join. Output
	// order and Stats totals are identical at every setting.
	Parallelism int
	// Store, when non-nil, serves the per-atom tries (a long-lived DB
	// passes its own); nil uses the process-global trie store.
	Store *core.TrieStore
	// Ctx, when non-nil, cancels the run: workers poll it and unwind
	// promptly, and the entry points return ctx.Err(). Nil means no
	// cancellation.
	Ctx context.Context
}

// plan resolves the options into an execution plan: Policy wins when
// set, otherwise Order (nil Order selects the heuristic). Tries come
// from o.Store (nil = the process-global store).
func (o Options) plan(q *core.Query) (*core.Plan, error) {
	policy := o.Policy
	if policy == nil && o.Order != nil {
		policy = core.ExplicitOrder(o.Order)
	}
	return core.BuildPlanIn(o.Store, q, policy)
}

// Join evaluates the query with leapfrog triejoin and materializes the
// result.
func Join(q *core.Query, opts Options) (*relation.Relation, *core.Stats, error) {
	stats := &core.Stats{}
	out := relation.NewBuilder(q.OutputName(), q.Vars...)
	err := Visit(q, opts, stats, func(t relation.Tuple) error {
		return out.Add(t...)
	})
	if err != nil {
		return nil, nil, err
	}
	rel := out.Build()
	stats.Output = rel.Len()
	return rel, stats, nil
}

// Count evaluates the query, returning only the output cardinality.
// Under parallelism each worker counts locally; no tuples are
// buffered.
func Count(q *core.Query, opts Options) (int, *core.Stats, error) {
	p, err := opts.plan(q)
	if err != nil {
		return 0, nil, err
	}
	return PlanCount(opts.Ctx, p, opts.Parallelism)
}

// PlanCount is Count over a prebuilt plan — the re-execution path of
// prepared queries, with context cancellation.
func PlanCount(ctx context.Context, p *core.Plan, parallelism int) (int, *core.Stats, error) {
	stats := &core.Stats{}
	if err := core.CtxErr(ctx); err != nil {
		return 0, nil, err
	}
	n := 0
	var err error
	if parallelism <= 1 || len(p.Order) == 0 {
		var stop atomic.Bool
		defer core.WatchCancel(ctx, &stop)()
		w := newWorker(p, stats, func(relation.Tuple) error {
			n++
			return nil
		})
		w.stop = &stop
		w.budget = core.BudgetFrom(ctx)
		err = core.CtxAbortErr(ctx, w.rec(0))
	} else {
		vals, starts := p.TopMorsels(parallelism)
		stats.Recursions++
		n, err = core.RunShardedCount(ctx, vals, starts, parallelism, stats, shardRun(p, core.BudgetFrom(ctx)))
	}
	if err != nil {
		return 0, nil, err
	}
	stats.Output = n
	return n, stats, nil
}

// Visit streams the join result to emit in the canonical
// (variable-order lexicographic) sequence. The Tuple passed to emit is
// reused between calls; emit must copy it to retain it. With
// opts.Parallelism > 1 chunks of the top-level intersection are
// searched concurrently and replayed in deterministic chunk order.
func Visit(q *core.Query, opts Options, stats *core.Stats, emit func(relation.Tuple) error) error {
	p, err := opts.plan(q)
	if err != nil {
		return err
	}
	return PlanVisit(opts.Ctx, p, opts.Parallelism, stats, emit)
}

// PlanVisit is Visit over a prebuilt plan — the re-execution path of
// prepared queries, with context cancellation.
func PlanVisit(ctx context.Context, p *core.Plan, parallelism int, stats *core.Stats, emit func(relation.Tuple) error) error {
	if err := core.CtxErr(ctx); err != nil {
		return err
	}
	if parallelism <= 1 || len(p.Order) == 0 {
		var stop atomic.Bool
		defer core.WatchCancel(ctx, &stop)()
		w := newWorker(p, stats, emit)
		w.stop = &stop
		w.budget = core.BudgetFrom(ctx)
		return core.CtxAbortErr(ctx, w.rec(0))
	}
	vals, starts := p.TopMorsels(parallelism)
	// Account for the root node exactly as the serial search does;
	// per-value IntersectValues are counted by the workers.
	stats.Recursions++
	return core.RunShardedTop(ctx, vals, starts, parallelism, len(p.Q.Vars), stats, emit, shardRun(p, core.BudgetFrom(ctx)))
}

// shardRun adapts the leapfrog search to the sharded runner: each
// chunk gets a fresh worker (private iterators over the shared tries)
// walking its slice of the precomputed depth-0 intersection. All
// workers draw from the one budget, bounding the run's total nodes.
func shardRun(p *core.Plan, budget *core.NodeBudget) func([]relation.Value, *core.Stats, *atomic.Bool, func(relation.Tuple) error) error {
	return func(chunk []relation.Value, st *core.Stats, stop *atomic.Bool, emit func(relation.Tuple) error) error {
		// Charge the chunk's depth-0 values upfront: per-chunk Stats
		// restart the &255 poll stride, so without this a fleet of
		// small chunks could dodge the budget entirely.
		if !budget.Spend(int64(len(chunk))) {
			return core.ErrNodeBudget
		}
		w := newWorker(p, st, emit)
		w.stop = stop
		w.budget = budget
		return w.iterateTop(chunk)
	}
}

type atomState struct {
	it *trie.Iterator
	// levelOf[d] >= 0 iff the atom contains the variable at global
	// depth d.
	levelOf []int
}

// worker is the mutable state of one search goroutine: private trie
// iterators (cursors over the shared tries), private participant
// slices (rec sorts them in place) and a private binding tuple.
type worker struct {
	plan         *core.Plan
	atoms        []*atomState
	participants [][]*atomState
	binding      relation.Tuple
	stats        *core.Stats
	emit         func(relation.Tuple) error
	// stop, when non-nil, is polled every few hundred search nodes so a
	// cancelled (or aborted) run unwinds promptly even when it emits
	// rarely; the recursion returns core.ErrAborted.
	stop *atomic.Bool
	// budget, when non-nil, is drawn down at the same stride; an
	// exhausted budget unwinds with core.ErrNodeBudget.
	budget *core.NodeBudget
}

func newWorker(p *core.Plan, stats *core.Stats, emit func(relation.Tuple) error) *worker {
	atoms := make([]*atomState, len(p.Tries))
	for i, tr := range p.Tries {
		atoms[i] = &atomState{it: trie.NewIterator(tr), levelOf: p.LevelOf[i]}
	}
	w := &worker{
		plan:         p,
		atoms:        atoms,
		participants: make([][]*atomState, len(p.Order)),
		binding:      make(relation.Tuple, len(p.Q.Vars)),
		stats:        stats,
		emit:         emit,
	}
	for d, idx := range p.Participants {
		w.participants[d] = make([]*atomState, len(idx))
		for j, ai := range idx {
			w.participants[d][j] = atoms[ai]
		}
	}
	return w
}

// rec runs the leapfrog join from depth d (all iterators positioned on
// the levels above d).
func (w *worker) rec(d int) error {
	w.stats.Recursions++
	if w.stats.Recursions&255 == 0 {
		if w.stop != nil && w.stop.Load() {
			return core.ErrAborted
		}
		if !w.budget.Spend(256) {
			return core.ErrNodeBudget
		}
	}
	if d == len(w.plan.Order) {
		return w.emit(w.binding)
	}
	iters := w.participants[d]
	// Descend all participating iterators.
	for _, st := range iters {
		st.it.Open()
	}
	defer func() {
		for _, st := range iters {
			st.it.Up()
		}
	}()
	// leapfrog-init: if any is empty, the level is empty.
	for _, st := range iters {
		if st.it.AtEnd() {
			return nil
		}
	}
	k := len(iters)
	sortByKey(iters)
	p := 0
	for {
		xmax := iters[(p+k-1)%k].it.Key()
		x := iters[p].it.Key()
		if x == xmax {
			// All iterators agree on x: a match.
			w.stats.IntersectValues++
			w.binding[w.plan.OutPos[d]] = x
			if err := w.rec(d + 1); err != nil {
				return err
			}
			iters[p].it.Next()
			if iters[p].it.AtEnd() {
				return nil
			}
			p = (p + 1) % k
		} else {
			iters[p].it.Seek(xmax)
			if iters[p].it.AtEnd() {
				return nil
			}
			p = (p + 1) % k
		}
	}
}

// sortByKey orders freshly opened iterators by current key, the
// leapfrog invariant. An insertion sort: k is the number of atoms on
// one level — single digits — and unlike sort.Slice it does not
// allocate.
func sortByKey(iters []*atomState) {
	for i := 1; i < len(iters); i++ {
		for j := i; j > 0 && iters[j].it.Key() < iters[j-1].it.Key(); j-- {
			iters[j], iters[j-1] = iters[j-1], iters[j]
		}
	}
}

// iterateTop binds each top-level value of one chunk on this worker's
// iterators and recurses. Every v comes from the full depth-0
// intersection, so each participating iterator seeks directly to it.
func (w *worker) iterateTop(vals []relation.Value) error {
	iters := w.participants[0]
	for _, v := range vals {
		ok := true
		for _, st := range iters {
			st.it.Open()
			st.it.Seek(v)
			if st.it.AtEnd() || st.it.Key() != v {
				ok = false // cannot happen: v came from the intersection
				break
			}
		}
		var err error
		if ok {
			w.stats.IntersectValues++
			w.binding[w.plan.OutPos[0]] = v
			err = w.rec(1)
		}
		// Unwind any iterator this round opened (on the "cannot
		// happen" miss path some may still be at the root).
		for _, st := range iters {
			if st.it.Depth() == 0 {
				st.it.Up()
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}
