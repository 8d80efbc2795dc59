// Package scenario names end-to-end deployment plans for the Part III
// protocol stack: a plan fixes the participant population, the SSI shard
// layout, the fault/crash planes and the expected outcome, and can be
// executed either in-process (every node a goroutine over the netsim
// substrate) or multi-process (one OS process per SSI node over the TCP
// substrate, launched by cmd/pdsd). Results land as obs snapshots plus
// trace exports, so a plan run is comparable across substrates and across
// commits.
package scenario

import (
	"crypto/sha256"
	"fmt"
	"math/rand"

	"pds/internal/gquery"
	"pds/internal/netsim"
	"pds/internal/obs"
	"pds/internal/ssi"
	"pds/internal/tenant"
)

// DefaultDomain is the grouping-attribute domain plans draw tuples from
// (the tutorial's Part III example groups patients by diagnosis).
var DefaultDomain = []string{"asthma", "diabetes", "flu", "healthy", "injury", "allergy"}

// Plan is one named deployment scenario. The zero value is not a valid
// plan; use ByName or Plans.
type Plan struct {
	Name        string
	Description string

	// Protocol population: Tokens participants with TuplesEach tuples
	// drawn deterministically from Domain under Seed.
	Tokens     int
	TuplesEach int
	Domain     []string
	Seed       int64

	// Deployment shape.
	Shards    int // SSI nodes; each is its own OS process under pdsd
	ChunkSize int
	Workers   int
	Tree      int // fan-in arity of the aggregation tree; 0 = flat merge

	// Wire adversity: a seeded fault plan routed over ARQ links.
	Faults     *netsim.FaultPlan
	MaxRetries int

	// SSI adversary model.
	Mode     ssi.Mode
	Behavior ssi.Behavior

	// Crash adversity: RestartShard (when >= 0) names the SSI shard whose
	// process exits after ingesting RestartAfter uploads; pdsd respawns it
	// once, empty — the in-process executor swaps that shard's server for
	// a fresh one at the same point. The crash loses what the node held:
	// its partial chunk and the rest of the crashing upload frame, and
	// remotely also the uploads sent while it restarts. The tuple-id
	// checksum must catch the loss.
	RestartShard int
	RestartAfter int

	// Expected verdict: either the aggregate is exact (equals the plain
	// computation) or the token-side checks raise a DetectionError.
	ExpectDetection bool

	// StoreKinds, when non-empty, makes this a storage plan instead: one
	// process (or loop iteration) per durable engine kind, each running
	// the crash-recovery sweep at StoreStride.
	StoreKinds  []string
	StoreStride int

	// Serve, when non-nil, makes this a hosting plan: one pdsd daemon
	// multiplexing Serve.Tenants PDS instances under the plan's open-loop
	// schedule (DESIGN §13). Hosting plans are inherently single-process
	// — the density is the point — so both executors run them inline.
	Serve *tenant.ServeConfig
}

// IsStore reports whether the plan exercises the durable-store battery
// rather than a protocol run.
func (p Plan) IsStore() bool { return len(p.StoreKinds) > 0 }

// IsServe reports whether the plan is a multi-tenant hosting run.
func (p Plan) IsServe() bool { return p.Serve != nil }

// Plans returns the named scenario catalog.
func Plans() []Plan {
	lossy := func(seed int64) *netsim.FaultPlan {
		return &netsim.FaultPlan{
			Seed:    seed,
			Default: netsim.FaultSpec{Drop: 0.08, Duplicate: 0.05, Delay: 0.08, Reorder: 0.04},
			// Uploads bear the brunt: the collection phase is where the
			// paper's wire is weakest (tokens behind flaky links).
			PerKind: map[string]netsim.FaultSpec{
				"tuple": {Drop: 0.15, Duplicate: 0.08, Delay: 0.1, Reorder: 0.05},
			},
		}
	}
	return []Plan{
		{
			Name:        "clean-64",
			Description: "64 tokens, one SSI, clean wire: the aggregate must equal the plain computation",
			Tokens:      64, TuplesEach: 4, Seed: 1001,
			Shards: 1, ChunkSize: 16, Workers: 4,
			RestartShard: -1,
		},
		{
			Name:        "lossy-256",
			Description: "256 tokens over a lossy wire with ARQ, 3 SSI shards: exact despite drops and duplicates",
			Tokens:      256, TuplesEach: 4, Seed: 1002,
			Shards: 3, ChunkSize: 32, Workers: 8,
			Faults: lossy(71), MaxRetries: 25,
			RestartShard: -1,
		},
		{
			Name:        "restart-64",
			Description: "the SSI process dies mid-collection and respawns empty: the checksum must detect the loss",
			Tokens:      64, TuplesEach: 4, Seed: 1003,
			Shards: 1, ChunkSize: 16, Workers: 4,
			RestartShard: 0, RestartAfter: 100,
			ExpectDetection: true,
		},
		{
			Name:        "lossy-1k",
			Description: "1024 tokens, 4 shards, lossy wire, tree fan-in: the scale point of the lossy family",
			Tokens:      1024, TuplesEach: 2, Seed: 1004,
			Shards: 4, ChunkSize: 64, Workers: 0, Tree: 4,
			Faults: lossy(72), MaxRetries: 25,
			RestartShard: -1,
		},
		{
			Name:         "store-sweep",
			Description:  "one process per durable engine, each sweeping its power-fail crash battery",
			StoreKinds:   []string{"kv", "search", "embdb"},
			StoreStride:  7,
			RestartShard: -1,
		},
		{
			Name:         "serve-quick",
			Description:  "hosting smoke: 120 tenants under open-loop load, deterministic decision stream",
			RestartShard: -1,
			Serve:        &tenant.ServeConfig{Tenants: 120, Arrivals: 1500, RatePerSec: 4000, Seed: 901},
		},
		{
			Name:         "serve-1k",
			Description:  "hosting density: 1000 tenants on one daemon, RAM pinned under the arena by LRU eviction",
			RestartShard: -1,
			Serve:        &tenant.ServeConfig{Tenants: 1000, Arrivals: 6000, RatePerSec: 2000, Seed: 902},
		},
	}
}

// ByName resolves a plan from the catalog.
func ByName(name string) (Plan, bool) {
	for _, p := range Plans() {
		if p.Name == name {
			return p, true
		}
	}
	return Plan{}, false
}

// Participants generates the plan's deterministic population: both the
// querier process and the in-process executor derive the same tuples from
// the seed, so the querier can verify the protocol result against the
// plain computation without any side channel.
func (p Plan) Participants() []gquery.Participant {
	domain := p.Domain
	if len(domain) == 0 {
		domain = DefaultDomain
	}
	rng := rand.New(rand.NewSource(p.Seed))
	parts := make([]gquery.Participant, p.Tokens)
	for i := range parts {
		ts := make([]gquery.Tuple, p.TuplesEach)
		for j := range ts {
			ts[j] = gquery.Tuple{
				Group: domain[rng.Intn(len(domain))],
				Value: int64(rng.Intn(200) - 40),
			}
		}
		parts[i] = gquery.Participant{ID: fmt.Sprintf("pds-%04d", i), Tuples: ts}
	}
	return parts
}

// Keyring derives the token-shared keyring from the plan identity — the
// issuer provisioning every token of the deployment with the same master.
func (p Plan) Keyring() (*gquery.Keyring, error) {
	master := sha256.Sum256([]byte(fmt.Sprintf("scenario:%s:%d", p.Name, p.Seed)))
	return gquery.KeyringFrom(master[:])
}

// Options assembles the engine options the plan prescribes.
func (p Plan) Options(reg *obs.Registry) []gquery.Option {
	opts := []gquery.Option{gquery.WithWorkers(p.Workers)}
	if p.Faults != nil {
		opts = append(opts, gquery.WithFaults(p.Faults), gquery.WithRetries(p.MaxRetries))
	}
	if p.Tree >= 2 {
		opts = append(opts, gquery.WithTopology(gquery.Tree(p.Tree)))
	}
	if reg != nil {
		opts = append(opts, gquery.WithObserver(reg))
	}
	return opts
}
