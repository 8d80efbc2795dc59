package scenario

import (
	"reflect"
	"testing"
)

// The catalog is the contract pdsd and the docs rely on: names are
// unique, every plan resolves, protocol plans have a sane shape.
func TestCatalog(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Plans() {
		if p.Name == "" || p.Description == "" {
			t.Fatalf("unnamed plan: %+v", p)
		}
		if seen[p.Name] {
			t.Fatalf("duplicate plan name %q", p.Name)
		}
		seen[p.Name] = true
		got, ok := ByName(p.Name)
		if !ok || got.Name != p.Name {
			t.Fatalf("ByName(%q) failed", p.Name)
		}
		if p.IsStore() {
			if p.StoreStride < 1 {
				t.Fatalf("%s: bad store stride", p.Name)
			}
			continue
		}
		if p.IsServe() {
			if p.Serve.Tenants < 1 || p.Serve.Arrivals < 1 || p.Serve.Seed == 0 {
				t.Fatalf("%s: incomplete hosting plan: %+v", p.Name, p.Serve)
			}
			continue
		}
		if p.Tokens < 1 || p.TuplesEach < 1 || p.Shards < 1 || p.ChunkSize < 1 {
			t.Fatalf("%s: incomplete protocol plan: %+v", p.Name, p)
		}
		if p.Faults != nil && p.MaxRetries < 1 {
			t.Fatalf("%s: fault plan without retry budget", p.Name)
		}
	}
	for _, want := range []string{"clean-64", "lossy-256", "restart-64", "lossy-1k", "store-sweep", "serve-quick", "serve-1k"} {
		if !seen[want] {
			t.Fatalf("catalog lost plan %q", want)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName accepted an unknown plan")
	}
}

// The population is a pure function of the seed — the property that lets
// the querier process verify the aggregate with no side channel.
func TestParticipantsDeterministic(t *testing.T) {
	p, _ := ByName("clean-64")
	a, b := p.Participants(), p.Participants()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("participants differ across derivations")
	}
	if len(a) != p.Tokens || len(a[0].Tuples) != p.TuplesEach {
		t.Fatalf("population shape: %d tokens x %d", len(a), len(a[0].Tuples))
	}
	kr1, err := p.Keyring()
	if err != nil {
		t.Fatal(err)
	}
	kr2, _ := p.Keyring()
	if string(kr1.MACKey) != string(kr2.MACKey) {
		t.Fatal("keyring not deterministic")
	}
}

// Every protocol plan meets its expectation in-process: the exact plans
// match the plain computation, the restart plan raises detection.
func TestRunInProcess(t *testing.T) {
	for _, name := range []string{"clean-64", "lossy-256", "restart-64", "lossy-1k"} {
		name := name
		t.Run(name, func(t *testing.T) {
			p, _ := ByName(name)
			if testing.Short() && p.Tokens > 256 {
				t.Skip("large plan skipped in -short mode")
			}
			rep, err := Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK {
				t.Fatalf("plan verdict failed: %s (report %+v)", rep.Failure, rep)
			}
			if p.ExpectDetection != rep.Detected {
				t.Fatalf("Detected = %v, want %v", rep.Detected, p.ExpectDetection)
			}
			if !p.ExpectDetection {
				if !rep.Exact || rep.Total != int64(p.Tokens*p.TuplesEach) {
					t.Fatalf("exact=%v total=%d, want exact over %d tuples", rep.Exact, rep.Total, p.Tokens*p.TuplesEach)
				}
			}
			if len(rep.Obs) == 0 || len(rep.Trace) == 0 {
				t.Fatal("report is missing the obs snapshot or trace export")
			}
			if p.Faults != nil && rep.Stats.Retransmits == 0 {
				t.Fatal("lossy plan reported no retransmits")
			}
		})
	}
}

// The store plan runs its battery inline too.
func TestRunStorePlanInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("store sweep skipped in -short mode (the durable battery covers it)")
	}
	p, _ := ByName("store-sweep")
	rep, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("store plan failed: %s", rep.Failure)
	}
}

// Hosting plans run inline through the same Run entry, and their
// verdict enforces the serve invariants (guard coverage, RAM budget).
func TestRunServePlanInProcess(t *testing.T) {
	for _, name := range []string{"serve-quick", "serve-1k"} {
		name := name
		t.Run(name, func(t *testing.T) {
			p, _ := ByName(name)
			if testing.Short() && p.Serve.Tenants > 200 {
				t.Skip("density plan skipped in -short mode")
			}
			rep, err := Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK {
				t.Fatalf("serve plan failed: %s (report %+v)", rep.Failure, rep.Hosting)
			}
			if rep.Mode != "serve" || rep.Hosting == nil || rep.Hosting.DecisionDigest == "" {
				t.Fatalf("serve report shape: %+v", rep)
			}
			if len(rep.Obs) == 0 {
				t.Fatal("serve report is missing the obs snapshot")
			}
		})
	}
}

func TestRunStoreSweepUnknownKind(t *testing.T) {
	if rep := RunStoreSweep("btree", 7); rep.OK || rep.Failure == "" {
		t.Fatalf("unknown engine accepted: %+v", rep)
	}
}
