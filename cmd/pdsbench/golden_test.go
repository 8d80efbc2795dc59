package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"pds/internal/obs"
)

// goldenPath holds the tables of `pdsbench -quick` for every experiment
// but the excluded ones. Re-capture it with
//
//	go run ./cmd/pdsbench -quick \
//	    -exp E1,E2,E3,E4,E5,E6,E7,E8,E9,E10,E11,E12,E13,E14,E15,E16,E17,E20,E21,E22 \
//	    > cmd/pdsbench/testdata/quick.golden
//
// A change that moves the paper's clock shows as a diff of this file.
var goldenPath = filepath.Join("testdata", "quick.golden")

// goldenExcluded names every experiment the golden does not pin, and why.
var goldenExcluded = map[string]string{
	"E18": "its faulty rows draw faults from a hash of each frame's ciphertext, " +
		"and fresh-IV sealing makes those bytes differ run to run; " +
		"ROADMAP item 15(a), keying the draws on frame identity, lifts this",
}

// sweep is the one quick run of the package's tests: the pinned
// experiments under an attached registry, as `pdsbench -quick -metrics`
// runs them. The golden, metrics and trace tests all read it.
var sweep struct {
	once sync.Once
	out  []byte
	reg  *obs.Registry
	err  error
}

// quickSweep returns the sweep's stdout and registry, running it on first
// use.
func quickSweep(t *testing.T) ([]byte, *obs.Registry) {
	t.Helper()
	sweep.once.Do(func() {
		r, w, err := os.Pipe()
		if err != nil {
			sweep.err = err
			return
		}
		read := make(chan []byte)
		go func() {
			b, _ := io.ReadAll(r)
			read <- b
		}()
		stdout := os.Stdout
		os.Stdout = w
		cfg := config{quick: true, obs: obs.NewRegistry()}
		for _, e := range experiments {
			if _, skip := goldenExcluded[e.id]; skip {
				continue
			}
			if err := e.print(cfg); err != nil {
				sweep.err = fmt.Errorf("%s: %w", e.id, err)
				break
			}
		}
		os.Stdout = stdout
		w.Close()
		sweep.out, sweep.reg = <-read, cfg.obs
		r.Close()
	})
	if sweep.err != nil {
		t.Fatalf("quick sweep: %v", sweep.err)
	}
	return sweep.out, sweep.reg
}

// TestQuickGolden compares the quick sweep byte for byte with the
// committed golden. The sweep runs with a registry attached, so it also
// checks that observing an experiment leaves its tables unchanged.
func TestQuickGolden(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]bool{}
	for _, line := range strings.Split(string(want), "\n") {
		if id, ok := strings.CutPrefix(line, "=== "); ok {
			id, _, _ = strings.Cut(id, ":")
			pinned[id] = true
		}
	}
	for _, e := range experiments {
		_, excluded := goldenExcluded[e.id]
		switch {
		case excluded && pinned[e.id]:
			t.Errorf("%s is both excluded and pinned by %s", e.id, goldenPath)
		case !excluded && !pinned[e.id]:
			t.Errorf("%s is neither pinned by %s nor named in goldenExcluded", e.id, goldenPath)
		}
		delete(pinned, e.id)
	}
	var stale []string
	for id := range pinned {
		stale = append(stale, id)
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("%s pins experiments that no longer exist: %v", goldenPath, stale)
	}

	got, _ := quickSweep(t)
	if bytes.Equal(got, want) {
		return
	}
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s:%d differs from the quick sweep\n got: %q\nwant: %q\n(re-capture with the command in goldenPath's comment if the change is intended)",
				goldenPath, i+1, g, w)
		}
	}
}
