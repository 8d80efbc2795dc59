package crashharness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"pds/internal/durable"
	"pds/internal/flash"
	"pds/internal/logstore"
)

// plainLog is the smallest possible durable store: one record log plus a
// journal. commit=false builds a deliberately broken store whose Sync
// never writes a commit record — the harness must catch the resulting
// durability violation.
type plainLog struct {
	l      *logstore.Log
	j      *logstore.Journal
	commit bool
	closed bool
	frozen int
}

func (p *plainLog) Close() error {
	if !p.closed {
		p.closed = true
		p.frozen = p.l.Pages()
	}
	return nil
}

func (p *plainLog) Pages() int {
	if p.closed {
		return p.frozen
	}
	return p.l.Pages()
}

func (p *plainLog) Apply(op int) error {
	_, err := p.l.Append([]byte(fmt.Sprintf("rec-%04d-padding-padding", op)))
	return err
}

func (p *plainLog) Sync() error {
	if err := p.l.Flush(); err != nil {
		return err
	}
	if !p.commit {
		return nil
	}
	return p.j.Commit(&logstore.Manifest{Streams: []logstore.Stream{logstore.StreamOf("log", p.l)}})
}

// A plain log never reorganizes.
func (p *plainLog) Reorganize() error { return nil }

func (p *plainLog) Fingerprint() (string, error) {
	h := sha256.New()
	it := p.l.Iter()
	for {
		rec, _, ok := it.Next()
		if !ok {
			break
		}
		h.Write(rec)
		h.Write([]byte{'\n'})
	}
	if err := it.Err(); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func logWorkload(commit bool) durable.Kind {
	return durable.Kind{
		Name:      "plainlog",
		Ops:       40,
		SyncEvery: 10,
		Open: func(alloc *flash.Allocator) (durable.Store, error) {
			j, err := logstore.NewJournal(alloc)
			if err != nil {
				return nil, err
			}
			return &plainLog{l: logstore.NewLog(alloc), j: j, commit: commit}, nil
		},
		Reopen: func(rec *logstore.Recovered) (durable.Store, error) {
			l, err := rec.OpenLog("log")
			if err != nil {
				return nil, err
			}
			return &plainLog{l: l, j: rec.Journal, commit: commit}, nil
		},
	}
}

func TestBaselineBoundaries(t *testing.T) {
	fps, err := Baseline(logWorkload(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != 5 { // initial + 4 syncs
		t.Fatalf("boundaries = %d, want 5", len(fps))
	}
	for i := 1; i < len(fps); i++ {
		if fps[i] == fps[i-1] {
			t.Fatalf("boundaries %d and %d collide", i-1, i)
		}
	}
}

func TestSweepPlainLog(t *testing.T) {
	w := logWorkload(true)
	base, err := Baseline(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []flash.CrashOp{flash.CrashWrite, flash.CrashTornWrite} {
		st, err := Sweep(w, op, 7, 1, base)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if st.Crashes == 0 {
			t.Fatalf("%v sweep never crashed", op)
		}
	}
}

// A store that acknowledges Syncs without committing must be rejected:
// after a crash past the first boundary it recovers empty, outside the
// admissible window.
func TestHarnessDetectsDurabilityViolation(t *testing.T) {
	w := logWorkload(false)
	base, err := Baseline(w)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Sweep(w, flash.CrashWrite, 7, 1, base)
	if err == nil {
		t.Fatal("sweep accepted a store that never commits")
	}
	t.Logf("violation caught: %v", err)
}

// The final (non-crashing) run of a sweep still power-cycles; a clean
// cycle must land exactly on the last boundary.
func TestCleanCycleRecoversFinalBoundary(t *testing.T) {
	w := logWorkload(true)
	base, err := Baseline(w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CrashRun(w, flash.CrashPlan{Seed: 1, Op: flash.CrashWrite, After: 1 << 30}, base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed {
		t.Fatal("plan unexpectedly fired")
	}
	if res.Boundary != len(base)-1 {
		t.Fatalf("clean cycle recovered boundary %d, want %d", res.Boundary, len(base)-1)
	}
}
