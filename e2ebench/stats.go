package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the nearest-rank p-th percentile of xs (0 for no
// samples). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := rank(p, len(s))
	if r < 1 {
		r = 1
	}
	return s[r-1]
}

// rank is the 1-based nearest-rank position of the p-th percentile in
// n sorted samples. The epsilon keeps p·n/100 that is an exact integer
// from rounding up past itself.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// kindsP50 is read_p50_ms of a workload whose reads come in a few kinds
// of very different cost: the geometric mean over the kinds of each
// kind's median latency. The median of all samples together reads only
// what sits in the middle of the mix. On analytics that is the gap
// between its sixth and seventh of twelve latency clusters, spanning
// 0.1 to 150 ms, and there it moved by 20-40% of itself between runs of
// the same code. On ingest it is the 100-row read alone, the one of its
// three kinds that moves most from run to run.
func kindsP50(byKind [][]float64) float64 {
	meds := make([]float64, len(byKind))
	for i, lat := range byKind {
		meds[i] = median(lat)
	}
	return geomean(meds)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean is the geometric mean of the positive values in xs.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// tailLadder lists the percentile steps of the tail rule: report the
// highest step with at least minBeyond samples beyond it.
var tailLadder = []float64{90, 99, 99.9, 99.99}

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile.
const minBeyond = 10

// tailPercentile picks the highest ladder percentile with at least
// minBeyond of n samples beyond it, and returns that count. ok is
// false when even the lowest step has fewer. Runs log it beside the
// fixed percentile they report.
func tailPercentile(n int) (p float64, beyond int, ok bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		p := tailLadder[i]
		if b := n - rank(p, n); b >= minBeyond {
			return p, b, true
		}
	}
	return 0, 0, false
}

// tail is the p-th percentile of xs when at least minBeyond samples lie
// beyond it; otherwise it falls back to the maximum (got = 100).
func tail(xs []float64, p float64) (value, got float64, beyond int) {
	n := len(xs)
	if b := n - rank(p, n); b >= minBeyond {
		return percentile(xs, p), p, b
	}
	return percentile(xs, 100), 100, 0
}

// procWritten reads wchar from /proc/self/io: the bytes this process
// has handed to write(2). While the ingest workload runs, the only
// writes it makes go to the durable directory, so the delta across a
// phase counts every log append and snapshot, including snapshot files
// rotated away again before a directory listing could see them.
func procWritten() (int64, error) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar:"); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("no wchar in /proc/self/io")
}

// fileSizes maps each regular, non-dot file directly under dir to its
// size. A file removed between listing and stat is skipped.
func fileSizes(dir string) (map[string]int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(ents))
	for _, e := range ents {
		if !e.Type().IsRegular() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		info, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
		out[e.Name()] = info.Size()
	}
	return out, nil
}

// dirBytes is the total size of the files fileSizes lists.
func dirBytes(dir string) (int64, error) {
	sizes, err := fileSizes(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, s := range sizes {
		n += s
	}
	return n, nil
}

// tupleBytes is the user-visible size of n tuples of the given arity:
// eight bytes per integer value.
func tupleBytes(n, arity int) int64 { return int64(n) * int64(arity) * 8 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
