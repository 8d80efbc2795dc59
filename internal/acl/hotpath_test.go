package acl

import (
	"testing"
	"time"

	"pds/internal/obs"
	"pds/internal/race"
)

// Hashes captured while entryHash still Fprintf'd its pre-image into a
// sha256.New: every audit chain ever recorded must keep verifying.
func TestEntryHashGoldenVectors(t *testing.T) {
	for _, c := range []struct {
		prev    string
		seq     int
		at      time.Time
		q       Request
		allowed bool
		want    string
	}{
		{"", 0, time.Unix(0, 0).UTC(),
			Request{Subject: "tenant-0007", Collection: "store/kv", Action: Write, Purpose: "serve"}, true,
			"c975edda608a207cc2e603e629cfb0c599a992bfbad12c09db02e55bd036ee1f"},
		{"9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08", 41, time.Unix(0, 1234567890123).UTC(),
			Request{Subject: "dr|who", Role: "doctor", Collection: "medical/prescriptions", Action: Read, Purpose: "care"}, false,
			"4768b3e085ee49225edc9c09d315795b5a1340a651f35dba6c0c71235ef7cb99"},
		{"x", -3, time.Unix(0, -5).UTC(), Request{Action: Action(9)}, true,
			"0871ba390ff044826548bcd248ba25eb841b2e94f4f2ff1170abeccd66a1dfbf"},
		{"", 1 << 40, time.Unix(1<<33, 7),
			Request{Subject: "é", Action: Share, Purpose: "%d"}, false,
			"8d618507c5394511410a8116802599994208bb5a809ff04ea97bd431f4547fd7"},
	} {
		if got := entryHash(c.prev, c.seq, c.at, c.q, c.allowed).String(); got != c.want {
			t.Errorf("entryHash(seq %d) = %s, want %s", c.seq, got, c.want)
		}
	}
}

// A check on an observed guard keeps its audit entry, whose only heap cost
// is the journal's amortised growth, and nothing else: no series name, no
// formatted pre-image, no hex of the hash.
func TestGuardCheckAllocCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	g := NewGuard()
	g.Policy.Add(Rule{Subject: "alice", Collection: "store/*", Purpose: "serve", Allow: true})
	g.Observe(obs.NewRegistry())
	q := Request{Subject: "alice", Role: "owner", Collection: "store/kv", Action: Write, Purpose: "serve"}
	if got := testing.AllocsPerRun(500, func() {
		if !g.Check(q) {
			t.Fatal("denied")
		}
	}); got > 1 {
		t.Errorf("Guard.Check: %.1f allocs/op, ceiling 1", got)
	}
	if bad := g.VerifyChain(); bad >= 0 {
		t.Fatalf("audit chain broken at %d", bad)
	}
}
