package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// TestImportSpansInterleavedParents: importSpans must preserve internal
// parent links even when the imported list is not in preorder — children
// appear before their parents and siblings interleave.
func TestImportSpansInterleavedParents(t *testing.T) {
	r := NewRegistry()
	tr := r.Tracer()
	local := tr.Start("local", nil)
	local.End()

	tr.importSpans([]SpanRecord{
		{ID: 2, Parent: 1, Name: "child-a", StartNS: 1, EndNS: 2},
		{ID: 3, Parent: 2, Name: "grandchild", StartNS: 1, EndNS: 2},
		{ID: 1, Parent: 0, Name: "foreign-root", StartNS: 0, EndNS: 4},
		{ID: 4, Parent: 1, Name: "child-b", StartNS: 3, EndNS: 4},
	})

	spans := r.Snapshot().Spans
	if len(spans) != 5 {
		t.Fatalf("span count = %d, want 5", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	if byName["child-a"].Parent != byName["foreign-root"].ID ||
		byName["child-b"].Parent != byName["foreign-root"].ID {
		t.Errorf("children lost their root after rebase: %+v", spans)
	}
	if byName["grandchild"].Parent != byName["child-a"].ID {
		t.Errorf("grandchild link broken: %+v", spans)
	}
	if byName["local"].Parent != 0 || byName["foreign-root"].Parent != 0 {
		t.Errorf("roots gained parents: %+v", spans)
	}
}

// TestImportSpansRebaseAvoidsCollisions: imported ids that would collide
// with live local ids must be rebased past the high-water mark, and the
// mark must advance so later local spans do not collide with the imports.
func TestImportSpansRebaseAvoidsCollisions(t *testing.T) {
	r := NewRegistry()
	tr := r.Tracer()
	a := tr.Start("a", nil) // local id 1
	b := tr.Start("b", a)   // local id 2
	b.End()
	a.End()

	// Foreign spans also numbered 1..2 — a guaranteed collision without
	// the rebase.
	tr.importSpans([]SpanRecord{
		{ID: 1, Parent: 0, Name: "f-root", StartNS: 0, EndNS: 1},
		{ID: 2, Parent: 1, Name: "f-leaf", StartNS: 0, EndNS: 1},
	})
	c := tr.Start("c", nil) // must mint a fresh id past the imports
	c.End()

	spans := r.Snapshot().Spans
	if len(spans) != 5 {
		t.Fatalf("span count = %d, want 5", len(spans))
	}
	seen := map[int]string{}
	for _, sp := range spans {
		if prev, dup := seen[sp.ID]; dup {
			t.Fatalf("id %d assigned to both %q and %q", sp.ID, prev, sp.Name)
		}
		seen[sp.ID] = sp.Name
	}
	byName := map[string]SpanRecord{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	if byName["f-leaf"].Parent != byName["f-root"].ID {
		t.Errorf("foreign link broken by rebase: %+v", spans)
	}
	if byName["b"].Parent != byName["a"].ID {
		t.Errorf("local link corrupted by import: %+v", spans)
	}
}

// TestMergeWithOpenSpansOnBothSides: merging two registries that each
// still hold open spans must keep every tree intact, keep ids unique, and
// leave the destination's open span usable afterwards.
func TestMergeWithOpenSpansOnBothSides(t *testing.T) {
	dst, src := NewRegistry(), NewRegistry()

	dstRoot := dst.Tracer().Start("dst-run", nil) // stays open across the merge

	srcRoot := src.Tracer().Start("src-run", nil)
	done := src.Tracer().Start("src-done", srcRoot)
	src.Clock().Advance(3 * time.Nanosecond)
	done.End()
	// srcRoot intentionally left open: it snapshots with EndNS == StartNS.

	dst.Merge(src)

	// The destination's open span still closes correctly after the merge.
	dst.Clock().Advance(9 * time.Nanosecond)
	dstRoot.End()

	spans := dst.Snapshot().Spans
	if len(spans) != 3 {
		t.Fatalf("span count = %d, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	ids := map[int]bool{}
	for _, sp := range spans {
		if ids[sp.ID] {
			t.Fatalf("duplicate id %d after merge", sp.ID)
		}
		ids[sp.ID] = true
		byName[sp.Name] = sp
	}
	if byName["src-done"].Parent != byName["src-run"].ID {
		t.Errorf("imported subtree broken: %+v", spans)
	}
	if sp := byName["src-run"]; sp.EndNS != sp.StartNS {
		t.Errorf("open imported span gained an end: %+v", sp)
	}
	if sp := byName["dst-run"]; sp.EndNS-sp.StartNS != 9 {
		t.Errorf("destination span closed wrong: %+v", sp)
	}
}

// TestDoubleMergeKeepsIDsUnique: merging two independent registries into
// one, in sequence, must not produce id collisions between the imports.
func TestDoubleMergeKeepsIDsUnique(t *testing.T) {
	dst := NewRegistry()
	for _, name := range []string{"one", "two"} {
		src := NewRegistry()
		root := src.Tracer().Start(name, nil)
		leaf := src.Tracer().Start(name+"-leaf", root)
		leaf.End()
		root.End()
		dst.Merge(src)
	}
	spans := dst.Snapshot().Spans
	if len(spans) != 4 {
		t.Fatalf("span count = %d, want 4", len(spans))
	}
	ids := map[int]bool{}
	byName := map[string]SpanRecord{}
	for _, sp := range spans {
		if ids[sp.ID] {
			t.Fatalf("duplicate id %d", sp.ID)
		}
		ids[sp.ID] = true
		byName[sp.Name] = sp
	}
	for _, name := range []string{"one", "two"} {
		if byName[name+"-leaf"].Parent != byName[name].ID {
			t.Errorf("%s subtree broken: %+v", name, spans)
		}
	}
}

// TestStartRemoteResolvesOnlyOwnContexts pins the trust boundary: a
// context minted by another tracer (or the zero context, or a dangling
// span id) yields a root span rather than a bogus link.
func TestStartRemoteResolvesOnlyOwnContexts(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	parent := r1.Tracer().Start("parent", nil)

	own := r1.Tracer().StartRemote("own", parent.Context())
	foreign := r2.Tracer().StartRemote("foreign", parent.Context())
	zero := r1.Tracer().StartRemote("zero", SpanContext{})
	dangling := r1.Tracer().StartRemote("dangling", SpanContext{Trace: parent.Context().Trace, Span: 999})
	own.End()
	foreign.End()
	zero.End()
	dangling.End()
	parent.End()

	find := func(reg *Registry, name string) SpanRecord {
		for _, sp := range reg.Snapshot().Spans {
			if sp.Name == name {
				return sp
			}
		}
		t.Fatalf("span %q missing", name)
		return SpanRecord{}
	}
	if find(r1, "own").Parent == 0 {
		t.Error("own-tracer context did not link")
	}
	if find(r2, "foreign").Parent != 0 {
		t.Error("foreign context linked across tracers")
	}
	if find(r1, "zero").Parent != 0 || find(r1, "dangling").Parent != 0 {
		t.Error("zero/dangling context linked")
	}
}

// FuzzParseSnapshot feeds the coordinator's decoder arbitrary bytes: the
// outcome is a typed JSON error, or a snapshot whose rendering is a fixed
// point — it parses back and renders to the same bytes — and never a
// panic. A rendering a registry produced is such a fixed point itself.
func FuzzParseSnapshot(f *testing.F) {
	full := NewRegistry()
	exercise(full)
	full.Alert(5_000_000, 4200, "slo_burn", "class", "kv")
	for _, r := range []*Registry{NewRegistry(), full} {
		seed, err := r.Snapshot().JSON()
		if err != nil {
			f.Fatal(err)
		}
		if s, err := ParseSnapshot(seed); err != nil {
			f.Fatal(err)
		} else if again, _ := s.JSON(); !bytes.Equal(again, seed) {
			f.Fatalf("registry rendering does not round-trip:\n%s\n---\n%s", seed, again)
		}
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
	}
	f.Add([]byte(`{"counters":[{"name":"x","value":1e40}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSnapshot(data)
		if err != nil {
			var syntax *json.SyntaxError
			var typ *json.UnmarshalTypeError
			if !errors.As(err, &syntax) && !errors.As(err, &typ) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		canon, err := s.JSON()
		if err != nil {
			t.Fatalf("parsed snapshot does not render: %v", err)
		}
		s2, err := ParseSnapshot(canon)
		if err != nil {
			t.Fatalf("rendering does not parse back: %v\n%s", err, canon)
		}
		if again, _ := s2.JSON(); !bytes.Equal(again, canon) {
			t.Fatalf("rendering is not a fixed point:\n%s\n---\n%s", canon, again)
		}
	})
}
