package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"wcoj/internal/relation"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{99, 0, 0, false},
		{100, 90, 10, true},
		{999, 90, 99, true},
		{1000, 99, 10, true},
		{9999, 99, 99, true},
		{10000, 99.9, 10, true},
	} {
		p, beyond, ok := tailPercentile(c.n)
		if p != c.p || beyond != c.beyond || ok != c.ok {
			t.Errorf("tailPercentile(%d) = p%g, %d beyond, %v; want p%g, %d, %v", c.n, p, beyond, ok, c.p, c.beyond, c.ok)
		}
	}
}

func TestTailFallsBackWhenTooFewBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[n-1-i] = float64(i + 1) // descending: sorting matters
		}
		return out
	}
	if v, p, beyond := tail(xs(2000), 99); p != 99 || beyond != 20 || v != 1980 {
		t.Errorf("tail(2000 samples, p99) = %g at p%g with %d beyond; want 1980 at p99 with 20", v, p, beyond)
	}
	if v, p, beyond := tail(xs(100), 90); p != 90 || beyond != 10 || v != 90 {
		t.Errorf("tail(100 samples, p90) = %g at p%g with %d beyond; want 90 at p90 with 10", v, p, beyond)
	}
	if v, p, _ := tail(xs(99), 90); p != 100 || v != 99 {
		t.Errorf("tail(99 samples, p90) = %g at p%g; want the maximum at p100", v, p)
	}
}

func TestKindsP50(t *testing.T) {
	// Two cheap kinds and one costly one: the median of all samples is
	// the middle kind's alone, the per-kind form weighs all three.
	byKind := [][]float64{{3, 1, 2}, {8, 4, 9}, {100, 200, 300}}
	if got, want := kindsP50(byKind), math.Cbrt(2*8*200); math.Abs(got-want) > 1e-9 {
		t.Errorf("kindsP50 = %g, want %g", got, want)
	}
	// A kind with no samples is left out, not counted as 0.
	if got := kindsP50([][]float64{{4}, nil, {16}}); math.Abs(got-8) > 1e-9 {
		t.Errorf("kindsP50 with an empty kind = %g, want 8", got)
	}
}

func TestSelfTimeNestedSpans(t *testing.T) {
	spans := []span{
		{Name: "bench.op", Start: 0, End: 100e6, Parent: -1},
		{Name: "wcojd.http", Start: 10e6, End: 40e6, Parent: 0},
		{Name: "wcojd.http", Start: 30e6, End: 60e6, Parent: 0}, // overlaps its sibling
		{Name: "wcoj.engine", Start: 15e6, End: 20e6, Parent: 1},
		{Name: "wcoj.engine", Start: 90e6, End: 120e6, Parent: 0}, // runs past its parent
	}
	got := selfTimes(spans)
	want := map[string]float64{
		"bench.op":    100 - 50 - 10, // [10,60] once, plus [90,100] clipped
		"wcojd.http":  (30 - 5) + 30,
		"wcoj.engine": 5 + 30,
	}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("self time of %s = %g ms, want %g", name, got[name], w)
		}
	}
	layers := layerSelfTimes(spans)
	if math.Abs(layers["wcojd"]-55) > 1e-9 || math.Abs(layers["bench"]-40) > 1e-9 {
		t.Errorf("layer self times %v, want bench 40 and wcojd 55", layers)
	}
}

func TestByteAccounting(t *testing.T) {
	dir := t.TempDir()
	w0, err := procWritten()
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 1<<16)
	if err := os.WriteFile(filepath.Join(dir, "wal-0.log"), payload, 0o644); err != nil {
		t.Fatal(err)
	}
	// A temporary renamed away before anyone lists the directory: its
	// bytes were still written.
	if err := os.WriteFile(filepath.Join(dir, ".snap-tmp"), payload[:1000], 0o644); err != nil {
		t.Fatal(err)
	}
	w1, err := procWritten()
	if err != nil {
		t.Fatal(err)
	}
	if d := w1 - w0; d < 1<<16+1000 || d > 1<<16+1000+4096 {
		t.Errorf("wchar grew by %d bytes, want the %d written", d, 1<<16+1000)
	}
	n, err := dirBytes(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1<<16 {
		t.Errorf("dirBytes = %d, want %d (dot-files skipped)", n, 1<<16)
	}
	if got := tupleBytes(1000, 2); got != 16000 {
		t.Errorf("tupleBytes(1000, 2) = %d, want 16000", got)
	}
	if got := ratio(float64(n), float64(tupleBytes(2048, 2))); got != 2 {
		t.Errorf("space amplification %g, want 2", got)
	}
}

// inputs renders everything a workload hands the program for one seed.
func inputs(t *testing.T, seed int64) []byte {
	var b bytes.Buffer
	for _, r := range []*relation.Relation{powerLawE(seed), ingestE(seed)} {
		if err := relation.WriteTSV(&b, r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range analyticsRelations(seed) {
		if err := relation.WriteTSV(&b, r); err != nil {
			t.Fatal(err)
		}
	}
	gen := newBatchGen(ingestE(seed), seed)
	for i := 0; i < 50; i++ {
		x := gen.next()
		fmt.Fprintln(&b, x.del, x.noopDel, x.ins, x.noopIns)
	}
	for _, r := range servePool() {
		fmt.Fprintln(&b, r.body())
	}
	return b.Bytes()
}

func TestSeedGivesIdenticalInputs(t *testing.T) {
	a, b := inputs(t, 5), inputs(t, 5)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 5 generated different inputs on two calls")
	}
	if bytes.Equal(a, inputs(t, 6)) {
		t.Fatal("seeds 5 and 6 generated the same inputs")
	}
}

func TestBatchesMatchTheirExpectation(t *testing.T) {
	e := ingestE(3)
	gen := newBatchGen(e, 3)
	live := make(map[[2]int64]bool, e.Len())
	for _, tu := range e.Tuples() {
		live[key(tu)] = true
	}
	for i := 0; i < 200; i++ {
		b := gen.next()
		if n := b.ops(); n < 10 || n > 1000 {
			t.Fatalf("batch %d has %d ops, want 10 to 1000", i, n)
		}
		for _, tu := range append(append([]relationTuple(nil), b.del...), b.noopIns...) {
			if !live[key(tu)] {
				t.Fatalf("batch %d deletes or re-inserts %v, which is not live", i, tu)
			}
		}
		for _, tu := range append(append([]relationTuple(nil), b.ins...), b.noopDel...) {
			if live[key(tu)] {
				t.Fatalf("batch %d inserts or deletes absent %v, which is live", i, tu)
			}
		}
		for _, tu := range b.del {
			delete(live, key(tu))
		}
		for _, tu := range b.ins {
			live[key(tu)] = true
		}
		if len(live) != e.Len() {
			t.Fatalf("after batch %d |E| = %d, want it to stay %d", i, len(live), e.Len())
		}
	}
}

type relationTuple = relation.Tuple
