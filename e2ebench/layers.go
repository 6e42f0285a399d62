package main

import (
	"os"
	"path/filepath"

	"wcoj"
	"wcoj/internal/relation"
	"wcoj/internal/trie"
)

// probeStorage measures the storage layers on the workload's own
// relations: loading E from the TSV a user would hand the program
// (relation.load_ms, median of three), and building each relation's
// trie in both attribute orders of a binary relation (trie.build_ms is
// the mean per trie, trie.bytes the total SizeBytes).
func probeStorage(o *outcome, dir string, rels []*wcoj.Relation) error {
	path := filepath.Join(dir, "probe-E.tsv")
	if err := writeTSV(path, rels[0]); err != nil {
		return err
	}
	var loads []float64
	for i := 0; i < 3; i++ {
		ms, err := timeIt(func() error {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = relation.ReadTSV(f, "E")
			return err
		})
		if err != nil {
			return err
		}
		loads = append(loads, ms)
	}
	o.set("relation.load_ms", "ms", median(loads))

	var builds []float64
	var bytes int64
	for _, r := range rels {
		a := r.Attrs()
		for _, order := range [][]string{{a[0], a[1]}, {a[1], a[0]}} {
			var t *trie.Trie
			ms, err := timeIt(func() (err error) {
				t, err = trie.Build(r, order)
				return err
			})
			if err != nil {
				return err
			}
			builds = append(builds, ms)
			bytes += t.SizeBytes()
		}
	}
	o.set("trie.build_ms", "ms", mean(builds))
	o.set("trie.bytes", "bytes", float64(bytes))
	return nil
}
