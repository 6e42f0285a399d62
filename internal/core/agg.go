package core

// Aggregate plans. The aggregate-aware search modes (search.go) answer
// COUNT, EXISTS and projection queries over a plan whose variable
// order is sunk per the aggregate (count-irrelevant variables move to
// the end) and whose levels are classified by internal/agg. Results
// are byte-identical to enumerate-then-aggregate at every parallelism
// setting, under every order policy and under either walk.

import (
	"wcoj/internal/agg"
)

// atomVarLists projects the query's atoms to their variable lists, the
// schema shape the agg classifier works on.
func atomVarLists(q *Query) [][]string {
	out := make([][]string, len(q.Atoms))
	for i, a := range q.Atoms {
		out[i] = a.Vars
	}
	return out
}

// AggPlan builds the execution plan for an aggregate-aware run over
// the process-global trie store: the policy's variable order is sunk
// per spec before tries are built, then the levels are classified.
func AggPlan(q *Query, policy OrderPolicy, spec agg.Spec) (*Plan, *agg.Classification, error) {
	return AggPlanSrc(DefaultTrieStore(), q, policy, spec)
}

// AggPlanSrc is AggPlan with tries served from the given source;
// long-lived DBs plan through here (with their versioned source, so
// aggregate plans read the same base ⊎ delta snapshot views as the
// enumeration plans).
func AggPlanSrc(store TrieSource, q *Query, policy OrderPolicy, spec agg.Spec) (*Plan, *agg.Classification, error) {
	if policy == nil {
		policy = HeuristicOrder()
	}
	sunk := OrderFunc(func(q *Query) ([]string, error) {
		order, err := policy.ResolveOrder(q)
		if err != nil {
			return nil, err
		}
		return agg.Sink(order, atomVarLists(q), spec), nil
	})
	p, err := BuildPlanSrc(store, q, sunk)
	if err != nil {
		return nil, nil, err
	}
	cls, err := agg.Classify(p.Order, atomVarLists(q), spec)
	if err != nil {
		return nil, nil, err
	}
	return p, cls, nil
}
