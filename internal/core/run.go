package core

// Entry points of the search (search.go). Every mode runs serially, or
// at parallelism > 1 cuts the depth-0 intersection into equal-work
// morsels (Plan.TopMorsels) that private workers search concurrently
// (parallel.go). Output order and Stats totals are identical at every
// setting. A context, when given, cancels the run and may carry a node
// budget (WithNodeBudget) that all workers draw from.

import (
	"context"
	"fmt"
	"sync/atomic"

	"wcoj/internal/agg"
	"wcoj/internal/relation"
)

// GenericJoinOptions configure the serial Generic-Join shorthands.
type GenericJoinOptions struct {
	// Order is the global variable order; nil selects the degree-order
	// heuristic (most-constrained variable first).
	Order []string
}

// GenericJoin evaluates the query with Generic-Join [52], the
// generalization of Algorithm 1, and materializes the result.
func GenericJoin(q *Query, opts GenericJoinOptions) (*relation.Relation, *Stats, error) {
	p, err := BuildPlan(q, opts.Order)
	if err != nil {
		return nil, nil, err
	}
	return Join(context.Background(), p, WalkGeneric, 1)
}

// GenericJoinCount runs Generic-Join without materializing the output,
// returning only the result cardinality: WCOJ algorithms stream their
// output with no intermediate state beyond the search stack.
func GenericJoinCount(q *Query, opts GenericJoinOptions) (int, *Stats, error) {
	p, err := BuildPlan(q, opts.Order)
	if err != nil {
		return 0, nil, err
	}
	return Count(context.Background(), p, WalkGeneric, 1)
}

// Join materializes the join result of a prebuilt plan.
func Join(ctx context.Context, p *Plan, walk Walk, parallelism int) (*relation.Relation, *Stats, error) {
	stats := &Stats{}
	out := relation.NewBuilder(p.Q.OutputName(), p.Q.Vars...)
	err := Visit(ctx, p, walk, parallelism, stats, func(t relation.Tuple) error {
		return out.Add(t...)
	})
	if err != nil {
		return nil, nil, err
	}
	rel := out.Build()
	stats.Output = rel.Len()
	return rel, stats, nil
}

// Visit streams the join result of a prebuilt plan to emit in the
// canonical (variable-order lexicographic) sequence. The Tuple passed
// to emit is reused between calls; emit must copy it to retain it.
// Sharded runs replay per-morsel results in morsel order, so the emit
// sequence is identical to the serial run's.
func Visit(ctx context.Context, p *Plan, walk Walk, parallelism int, stats *Stats, emit func(relation.Tuple) error) error {
	if err := CtxErr(ctx); err != nil {
		return err
	}
	r := &run{plan: p, walk: walk, budget: BudgetFrom(ctx)}
	if parallelism <= 1 || len(p.Order) == 0 {
		return r.enumerate(ctx, stats, emit)
	}
	vals, starts := r.morsels(parallelism, stats)
	return runSharded(ctx, vals, starts, parallelism, stats, r.enumChunk, newBufferSink(len(p.Q.Vars), emit))
}

// Count returns the result cardinality of a prebuilt plan by
// enumerating, never materializing, every result tuple. Under
// parallelism each worker counts locally; no tuple is buffered.
func Count(ctx context.Context, p *Plan, walk Walk, parallelism int) (int, *Stats, error) {
	stats := &Stats{}
	if err := CtxErr(ctx); err != nil {
		return 0, nil, err
	}
	r := &run{plan: p, walk: walk, budget: BudgetFrom(ctx)}
	n := 0
	var err error
	if parallelism <= 1 || len(p.Order) == 0 {
		err = r.enumerate(ctx, stats, func(relation.Tuple) error {
			n++
			return nil
		})
	} else {
		vals, starts := r.morsels(parallelism, stats)
		sink := newCountSink()
		err = runSharded(ctx, vals, starts, parallelism, stats, r.enumChunk, sink)
		n = sink.total
	}
	if err != nil {
		return 0, nil, err
	}
	stats.Output = n
	return n, stats, nil
}

// enumerate runs the plain search serially into emit.
func (r *run) enumerate(ctx context.Context, stats *Stats, emit func(relation.Tuple) error) error {
	var stop atomic.Bool
	defer WatchCancel(ctx, &stop)()
	return CtxAbortErr(ctx, r.worker(stats, &stop, emit).rec(0))
}

// Aggregate evaluates the aggregate a sunk plan was classified for
// (cls.Spec, see AggPlan). ModeCount returns the result cardinality:
// full multiplicity with a nil Project, distinct projected tuples
// otherwise. ModeExists returns 1 or 0, short-circuiting on the first
// witness across all workers.
func Aggregate(ctx context.Context, p *Plan, cls *agg.Classification, walk Walk, parallelism int) (int64, *Stats, error) {
	stats := &Stats{}
	if err := CtxErr(ctx); err != nil {
		return 0, nil, err
	}
	r := &run{plan: p, cls: cls, walk: walk, budget: BudgetFrom(ctx)}
	var n int64
	var err error
	switch {
	case cls.Spec.Mode == agg.ModeCount && len(cls.Spec.Project) > 0:
		// Distinct projected count: the projected enumeration with a
		// counting sink.
		err = r.projectVisit(ctx, parallelism, stats, func(relation.Tuple) error {
			n++
			return nil
		})
	case cls.Spec.Mode == agg.ModeCount:
		n, err = r.count(ctx, parallelism, stats)
	case cls.Spec.Mode == agg.ModeExists:
		var found bool
		if found, err = r.exists(ctx, parallelism, stats); found {
			n = 1
		}
	default:
		return 0, nil, fmt.Errorf("core: unsupported aggregate mode %v", cls.Spec.Mode)
	}
	if err != nil {
		return 0, nil, err
	}
	stats.Output = int(n)
	return n, stats, nil
}

// ProjectVisit streams the distinct projected tuples of a sunk plan
// classified for ModeEnumerate to emit, in the lexicographic order of
// the sunk variable-order prefix. The Tuple passed to emit is reused
// between calls; emit must copy it to retain it. Projected-away levels
// are existence-checked per prefix, short-circuiting on the first
// witness, rather than enumerated.
func ProjectVisit(ctx context.Context, p *Plan, cls *agg.Classification, walk Walk, parallelism int, stats *Stats, emit func(relation.Tuple) error) error {
	if err := CtxErr(ctx); err != nil {
		return err
	}
	r := &run{plan: p, cls: cls, walk: walk, budget: BudgetFrom(ctx)}
	return r.projectVisit(ctx, parallelism, stats, emit)
}

// count runs the counting search, sharding the depth-0 intersection
// unless the query is already a pure product (CountFrom == 0 answers
// in O(#atoms)).
func (r *run) count(ctx context.Context, parallelism int, stats *Stats) (int64, error) {
	if parallelism <= 1 || len(r.plan.Order) == 0 || r.cls.CountFrom == 0 {
		var stop atomic.Bool
		defer WatchCancel(ctx, &stop)()
		w := r.worker(stats, &stop, nil)
		n := w.count(0)
		return n, CtxAbortErr(ctx, w.countErr())
	}
	vals, starts := r.morsels(parallelism, stats)
	total, err := runShardedSum(ctx, vals, starts, parallelism, stats, r.countChunk)
	if err == nil && total < 0 { // cross-morsel summation wrapped
		err = agg.ErrCountOverflow
	}
	return total, err
}

// exists runs the existence search; shards poll a shared stop flag so
// the whole fleet unwinds once any worker finds a witness.
func (r *run) exists(ctx context.Context, parallelism int, stats *Stats) (bool, error) {
	if parallelism <= 1 || len(r.plan.Order) == 0 || r.cls.CountFrom == 0 {
		var stop atomic.Bool
		defer WatchCancel(ctx, &stop)()
		w := r.worker(stats, &stop, nil)
		found := w.exists(0)
		if !found {
			if w.budgetHit {
				return false, ErrNodeBudget
			}
			// The stop flag is only set by cancellation here, so a false
			// under a cancelled context is inconclusive, not a "no".
			if err := CtxErr(ctx); err != nil {
				return false, err
			}
		}
		return found, nil
	}
	vals, starts := r.morsels(parallelism, stats)
	return runShardedAny(ctx, vals, starts, parallelism, stats, r.existsChunk)
}

// projectVisit runs the projected enumeration, replaying sharded
// morsels in order exactly like the plain enumeration.
func (r *run) projectVisit(ctx context.Context, parallelism int, stats *Stats, emit func(relation.Tuple) error) error {
	if parallelism <= 1 || len(r.plan.Order) == 0 || r.cls.EnumEnd == 0 {
		var stop atomic.Bool
		defer WatchCancel(ctx, &stop)()
		w := r.worker(stats, &stop, emit)
		err := w.visit(0)
		if err == nil {
			err = w.abortErr()
		}
		if err == nil {
			// A cancellation landing after the last poll may still have
			// skipped prefixes through the existence checks: a nil
			// completion under a cancelled ctx is inconclusive.
			return CtxErr(ctx)
		}
		return CtxAbortErr(ctx, err)
	}
	vals, starts := r.morsels(parallelism, stats)
	return runSharded(ctx, vals, starts, parallelism, stats, r.visitChunk, newBufferSink(len(r.cls.Spec.Project), emit))
}

// morsels computes the depth-0 intersection once and cuts it into
// morsels for a sharded run, charging the root node to stats exactly
// as the serial search does (see openMorsel).
func (r *run) morsels(workers int, stats *Stats) ([]relation.Value, []int) {
	vals, starts := r.plan.TopMorsels(workers)
	stats.Recursions++
	if r.walk == WalkGeneric {
		stats.IntersectValues += len(vals)
	}
	return vals, starts
}

// morselWorker returns a fresh worker with depth 0 open over one
// morsel. The morsel's values are charged to the budget upfront:
// per-morsel Stats restart the &255 poll stride, so without this a
// fleet of small morsels could dodge the budget entirely.
func (r *run) morselWorker(morsel []relation.Value, st *Stats, stop *atomic.Bool, emit func(relation.Tuple) error) (*worker, error) {
	if !r.budget.Spend(int64(len(morsel))) {
		return nil, ErrNodeBudget
	}
	w := r.worker(st, stop, emit)
	w.openMorsel(morsel)
	return w, nil
}

func (r *run) enumChunk(morsel []relation.Value, st *Stats, stop *atomic.Bool, emit func(relation.Tuple) error) error {
	w, err := r.morselWorker(morsel, st, stop, emit)
	if err != nil {
		return err
	}
	return w.recEach(0)
}

func (r *run) visitChunk(morsel []relation.Value, st *Stats, stop *atomic.Bool, emit func(relation.Tuple) error) error {
	w, err := r.morselWorker(morsel, st, stop, emit)
	if err != nil {
		return err
	}
	return w.visitEach(0)
}

func (r *run) countChunk(morsel []relation.Value, st *Stats, stop *atomic.Bool) (int64, error) {
	w, err := r.morselWorker(morsel, st, stop, nil)
	if err != nil {
		return 0, err
	}
	n := w.countEach(0)
	return n, w.countErr()
}

func (r *run) existsChunk(morsel []relation.Value, st *Stats, stop *atomic.Bool) (bool, error) {
	w, err := r.morselWorker(morsel, st, stop, nil)
	if err != nil {
		return false, err
	}
	found := w.existsEach(0)
	if !found && w.budgetHit {
		return false, ErrNodeBudget
	}
	return found, nil
}
