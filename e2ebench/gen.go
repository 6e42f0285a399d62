package main

import (
	"bufio"
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"

	"wcoj"
	"wcoj/internal/dataset"
	"wcoj/internal/relation"
)

// Input sizes. The power-law graph matches the engine's skewed-degree
// experiments: its tries (a few MiB per order) fit the 256 MiB trie
// store many times over.
const (
	graphVertices = 20000
	graphEdges    = 100000
	graphZipf     = 1.3
	agmTriangleN  = 10000 // k = 100: 10k tuples per relation, 1M triangles

	ingestVertices = 10000
	ingestEdges    = 50000
)

// graphSeed draws the one power-law graph all seeds share, and a
// benchmark seed renames its vertices (relabel). Independent draws of a
// power-law graph, or a shuffle of its vertex ids, move query costs by
// tens of percent: a few hubs carry most of the work, and parallel
// shards split the vertex range in contiguous chunks, so where the hubs
// land decides the balance. An order-preserving renaming keeps the
// work and the balance while every seed still gets different values.
const graphSeed = 1

// powerLawE is the edge relation E(src,dst) the read workloads query.
func powerLawE(seed int64) *relation.Relation {
	return relabel(dataset.PowerLawGraph(graphVertices, graphEdges, graphZipf, graphSeed), graphVertices, seed)
}

// ingestE is the ingest workload's E: the same skew at half the size,
// so that a run spans several compactions (the default threshold folds
// the delta once it reaches a quarter of |E|) while every batch still
// pays fsync and the maintenance of three views.
func ingestE(seed int64) *relation.Relation {
	return relabel(dataset.PowerLawGraph(ingestVertices, ingestEdges, graphZipf, graphSeed), ingestVertices, seed)
}

// relabel renames the vertices [0, n) of the edge relation e to n
// seeded distinct values below 4n, preserving their order.
func relabel(e *relation.Relation, n int, seed int64) *relation.Relation {
	ids := vertexIDs(n, seed)
	b := relation.NewBuilder(e.Name(), e.Attrs()...)
	for _, t := range e.Tuples() {
		b.Add(ids[t[0]], ids[t[1]])
	}
	return b.Build()
}

// vertexIDs is the seeded, increasing renaming of the vertices [0, n).
func vertexIDs(n int, seed int64) []relation.Value {
	perm := rand.New(rand.NewSource(seed)).Perm(4 * n)[:n]
	sort.Ints(perm)
	ids := make([]relation.Value, n)
	for i, v := range perm {
		ids[i] = relation.Value(v)
	}
	return ids
}

func writeTSV(path string, r *relation.Relation) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := relation.WriteTSV(w, r); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// batchGen produces the ingest workload's update batches. It tracks the
// live edge set, so each batch's expected effect is known exactly:
// fresh skewed edges are inserted, live edges deleted, and a few
// deliberate no-ops (re-inserting a live edge, deleting an absent one)
// ride along. Inserts and deletes are equal in number, so |E| stays
// where it started. No tuple appears twice in one batch.
type batchGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	ids  []relation.Value // the seed's vertex renaming (see relabel)
	live []wcoj.Tuple
	pos  map[[2]int64]int
}

// genBatch is one generated batch. Every tuple in ins and del takes
// effect and every one in noopIns and noopDel is a no-op, so their
// lengths are the UpdateStats the batch must produce.
type genBatch struct {
	ins, del, noopIns, noopDel []wcoj.Tuple
}

func (b *genBatch) ops() int { return len(b.ins) + len(b.del) + len(b.noopIns) + len(b.noopDel) }

// batch renders the generated batch for DB.Apply.
func (b *genBatch) batch() *wcoj.Batch {
	wb := wcoj.NewBatch()
	wb.Delete("E", b.del...).Delete("E", b.noopDel...)
	wb.Insert("E", b.ins...).Insert("E", b.noopIns...)
	return wb
}

// newBatchGen starts the seed's batch stream over ingestE(seed).
func newBatchGen(e *relation.Relation, seed int64) *batchGen {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	g := &batchGen{
		rng:  rng,
		zipf: rand.NewZipf(rng, graphZipf, 1, ingestVertices-1),
		ids:  vertexIDs(ingestVertices, seed),
		pos:  make(map[[2]int64]int, e.Len()),
	}
	for _, t := range e.Tuples() {
		g.add(t)
	}
	return g
}

func key(t wcoj.Tuple) [2]int64 { return [2]int64{int64(t[0]), int64(t[1])} }

func (g *batchGen) add(t wcoj.Tuple) {
	g.pos[key(t)] = len(g.live)
	g.live = append(g.live, t)
}

func (g *batchGen) remove(t wcoj.Tuple) {
	i := g.pos[key(t)]
	last := g.live[len(g.live)-1]
	g.live[i] = last
	g.pos[key(last)] = i
	g.live = g.live[:len(g.live)-1]
	delete(g.pos, key(t))
}

// batchSize draws log-uniformly from 10 to 1000 operations, so per-batch
// fixed costs and per-tuple costs both show.
func (g *batchGen) batchSize() int {
	return int(math.Round(10 * math.Pow(100, g.rng.Float64())))
}

func (g *batchGen) next() *genBatch {
	size := g.batchSize()
	noops := size / 50
	half := (size - 2*noops) / 2
	used := make(map[[2]int64]bool, size)
	b := &genBatch{}
	for len(b.del) < half {
		t := g.live[g.rng.Intn(len(g.live))]
		if !used[key(t)] {
			used[key(t)] = true
			b.del = append(b.del, t)
		}
	}
	for len(b.noopIns) < noops {
		t := g.live[g.rng.Intn(len(g.live))]
		if !used[key(t)] {
			used[key(t)] = true
			b.noopIns = append(b.noopIns, t)
		}
	}
	fresh := func() wcoj.Tuple {
		for {
			u, v := g.ids[g.zipf.Uint64()], g.ids[g.rng.Intn(ingestVertices)]
			k := [2]int64{int64(u), int64(v)}
			if _, live := g.pos[k]; u != v && !live && !used[k] {
				used[k] = true
				return wcoj.Tuple{u, v}
			}
		}
	}
	for len(b.ins) < half {
		b.ins = append(b.ins, fresh())
	}
	for len(b.noopDel) < noops {
		b.noopDel = append(b.noopDel, fresh())
	}
	for _, t := range b.del {
		g.remove(t)
	}
	for _, t := range b.ins {
		g.add(t)
	}
	return b
}

// serveShape is one ad-hoc query shape over E, written with the
// variables A, B, C, D, F. rows marks shapes whose full output is small
// enough (under a million tuples) to ask for rows: at the daemon's
// default parallelism a limited enumeration is not cut short, so a
// limit-k request over a huge output would run for the whole output.
// The first shape, the cheapest, gets the most popular positions.
type serveShape struct {
	name string
	src  string
	vars []string
	rows bool
}

var serveShapes = []serveShape{
	{"outstar2", "Q(A,B,C) :- E(A,B), E(A,C).", []string{"A", "B", "C"}, false},
	{"triangle", "Q(A,B,C) :- E(A,B), E(B,C), E(A,C).", []string{"A", "B", "C"}, true},
	{"path3", "Q(A,B,C,D) :- E(A,B), E(B,C), E(C,D).", []string{"A", "B", "C", "D"}, false},
	{"cycle3", "Q(A,B,C) :- E(A,B), E(B,C), E(C,A).", []string{"A", "B", "C"}, true},
	{"instar2", "Q(A,B,C) :- E(B,A), E(C,A).", []string{"A", "B", "C"}, true},
	{"outstar3", "Q(A,B,C,D) :- E(A,B), E(A,C), E(A,D).", []string{"A", "B", "C", "D"}, false},
	{"path2", "Q(A,B,C) :- E(A,B), E(B,C).", []string{"A", "B", "C"}, true},
	{"cycle3_tail", "Q(A,B,C,D) :- E(A,B), E(B,C), E(C,A), E(A,D).", []string{"A", "B", "C", "D"}, true},
	{"instar3", "Q(A,B,C,D) :- E(B,A), E(C,A), E(D,A).", []string{"A", "B", "C", "D"}, false},
	{"triangle_tail", "Q(A,B,C,D) :- E(A,B), E(B,C), E(A,C), E(C,D).", []string{"A", "B", "C", "D"}, true},
}

// Serve request pool parameters. 10 shapes × 64 spellings × the
// projection and planner variants give well over the 512 distinct plan
// cache keys, so cold parse → bind → plan is steady-state traffic.
const (
	servePoolSize  = 2048
	serveSpellings = 64
	serveZipf      = 1.1
	// serveScheduleLen is the schedule length; clients wrap around it.
	serveScheduleLen = 1 << 16
)

var serveLimits = []int{10, 30, 100, 300, 1000}

// serveReq is one request of the pool: a shape, its spelling, and what
// is asked of it.
type serveReq struct {
	Shape    int
	Spelling int
	Mode     string   // "count", "exists" or "rows"
	Project  []string // in the shape's own variable names
	Limit    int      // rows mode
	Planner  string   // "" or "cost-based"
}

// rename spells a shape variable for this request. Odd spellings use a
// second set of variable names; the trie store keys tries by variable
// names, so two sets keep its footprint bounded while still sharing no
// tries between them.
func (r serveReq) rename(v string) string {
	if r.Spelling%2 == 1 {
		return v + "x"
	}
	return v
}

// text is the query text the client sends. The head name carries the
// spelling, as clients name their queries.
func (r serveReq) text() string {
	src := serveShapes[r.Shape].src
	var b strings.Builder
	fmt.Fprintf(&b, "Q%d", r.Spelling)
	for _, c := range src[1:] {
		if strings.ContainsRune("ABCDF", c) {
			b.WriteString(r.rename(string(c)))
		} else {
			b.WriteRune(c)
		}
	}
	return b.String()
}

// oracleKey names the answer this request must get: it does not depend
// on the spelling, and the limit only cuts a prefix of the rows.
func (r serveReq) oracleKey() string {
	planner := ""
	if r.Mode == "rows" {
		planner = r.Planner // the row order follows the plan
	}
	return fmt.Sprintf("%d|%s|%v|%s", r.Shape, r.Mode, r.Project, planner)
}

// body is the POST /query JSON body. It carries no "parallel" field,
// as real clients send none.
func (r serveReq) body() map[string]any {
	m := map[string]any{"query": r.text()}
	switch r.Mode {
	case "count":
		m["count"] = true
	case "exists":
		m["exists"] = true
	default:
		m["limit"] = r.Limit
	}
	if r.Project != nil {
		p := make([]string, len(r.Project))
		for i, v := range r.Project {
			p[i] = r.rename(v)
		}
		m["project"] = p
	}
	if r.Planner != "" {
		m["planner"] = r.Planner
	}
	return m
}

// serveSchedule is the order in which the clients take pool
// positions: stride scheduling over Zipf(serveZipf) weights, so that
// every stretch of the schedule holds each position in proportion to
// its popularity. Independent random draws would let the share of the
// rare, costly requests — and with it every latency metric — swing from
// run to run; the schedule keeps the mix fixed. Each position starts at
// a fixed pseudo-random phase of its stride, so positions of equal
// popularity do not arrive in bursts.
func serveSchedule(positions, length int) []int {
	phase := rand.New(rand.NewSource(1))
	h := make(strideHeap, positions)
	for i := range h {
		stride := math.Pow(float64(i+1), serveZipf)
		h[i] = strideEntry{pass: stride * phase.Float64(), stride: stride, pos: i}
	}
	heap.Init(&h)
	out := make([]int, length)
	for k := range out {
		out[k] = h[0].pos
		h[0].pass += h[0].stride
		heap.Fix(&h, 0)
	}
	return out
}

type strideEntry struct {
	pass, stride float64
	pos          int
}

// strideHeap orders positions by next pass, ties by position.
type strideHeap []strideEntry

func (h strideHeap) Len() int { return len(h) }
func (h strideHeap) Less(i, j int) bool {
	if h[i].pass != h[j].pass {
		return h[i].pass < h[j].pass
	}
	return h[i].pos < h[j].pos
}
func (h strideHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *strideHeap) Push(x any)   { *h = append(*h, x.(strideEntry)) }
func (h *strideHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// servePool builds the request pool. Its composition is fixed, so that
// every seed sends the same mix at every popularity rank: position i
// cycles through five request kinds per shape — count, exists, rows,
// exists, projection — and shapes too large for rows ask projected
// counts instead. Existence probes make up two of the five, so that
// cheap requests are a clear majority (about 63% of traffic): with a
// bare majority the median would sit on the edge between the cheap and
// the costly requests and swing between runs. Limits cycle from 10 to
// 1000. Positions 50 to 99 ask for the cost-based planner, about 8% of
// requests: popular enough to stay in the plan cache. A cold cost-based
// plan costs a few hundred milliseconds; at rarer positions nearly
// every use was cold, a fifth of the run hinged on a few dozen such
// events, and runs swung by 15%. Spellings, and with them the
// plan-cache keys, are drawn once for all seeds: which popular
// positions happen to share a key moves the hit ratio. A seed varies
// the graph's vertex values and where in serveSchedule the clients
// start.
func servePool() []serveReq {
	rng := rand.New(rand.NewSource(0x5e7e))
	pool := make([]serveReq, servePoolSize)
	for i := range pool {
		round := i / 50
		sh := (i / 5) % len(serveShapes)
		r := serveReq{Shape: sh, Spelling: rng.Intn(serveSpellings)}
		vars := serveShapes[sh].vars
		switch kind := i % 5; {
		case kind == 0:
			r.Mode = "count"
		case kind == 1 || kind == 3:
			r.Mode = "exists"
		case kind == 2 && serveShapes[sh].rows:
			r.Mode = "rows"
		case kind == 2:
			r.Mode, r.Project = "count", vars[:1]
		case serveShapes[sh].rows && round%2 == 0:
			r.Mode, r.Project = "rows", vars[:1]
		default:
			r.Mode, r.Project = "count", vars[:2]
		}
		if r.Mode == "rows" {
			r.Limit = serveLimits[round%len(serveLimits)]
		}
		if round == 1 {
			r.Planner = "cost-based"
		}
		pool[i] = r
	}
	return pool
}
