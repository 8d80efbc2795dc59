// Open-loop request generation for the multi-tenant hosting experiments.
// A closed-loop driver (issue, wait, issue again) self-throttles under
// overload and hides queueing collapse — the coordinated-omission trap.
// The open-loop generator instead fixes an arrival RATE: request k
// arrives at its scheduled instant whether or not request k-1 finished,
// so saturation shows up where it belongs, in the latency tail and the
// shed counters. The schedule is drawn once from a seeded source and is
// a pure function of the config — two generators with equal configs
// enumerate byte-identical arrival streams.
package workload

import (
	"fmt"
	"math/rand"
)

// OpenLoopConfig shapes one arrival schedule.
type OpenLoopConfig struct {
	// Tenants is the size of the tenant population requests are drawn
	// over.
	Tenants int
	// RatePerSec is the mean arrival rate; inter-arrival gaps are
	// exponential (Poisson arrivals), the standard open-loop model.
	RatePerSec float64
	// Arrivals is the total number of requests to emit.
	Arrivals int
	// Seed fixes the schedule.
	Seed int64
	// ZipfS skews tenant popularity (s > 1; 0 → uniform). Hosting load
	// is never uniform: a few hot tenants dominate while the long tail
	// sits evictable.
	ZipfS float64
	// DenyFrac is the fraction of requests issued for a purpose the
	// tenant's policy forbids ("marketing" instead of "serve") — the
	// guard must refuse these on every path.
	DenyFrac float64
}

// Arrival is one scheduled request: who it targets and when it lands,
// in virtual nanoseconds from the start of the run.
type Arrival struct {
	AtNS    int64
	Tenant  int
	Purpose string
}

// Purposes of generated arrivals. PurposeDenied is chosen for a DenyFrac
// slice of the stream; tenant policies must reject it.
const (
	PurposeServe  = "serve"
	PurposeDenied = "marketing"
)

// OpenLoop enumerates one deterministic arrival schedule.
type OpenLoop struct {
	cfg    OpenLoopConfig
	rng    *rand.Rand
	zipf   *rand.Zipf
	nextNS float64
	issued int
}

// NewOpenLoop validates cfg and positions the generator at the first
// arrival.
func NewOpenLoop(cfg OpenLoopConfig) (*OpenLoop, error) {
	if cfg.Tenants < 1 {
		return nil, fmt.Errorf("openloop: tenants = %d, want >= 1", cfg.Tenants)
	}
	if cfg.RatePerSec <= 0 {
		return nil, fmt.Errorf("openloop: rate = %v req/s, want > 0", cfg.RatePerSec)
	}
	if cfg.Arrivals < 1 {
		return nil, fmt.Errorf("openloop: arrivals = %d, want >= 1", cfg.Arrivals)
	}
	if cfg.DenyFrac < 0 || cfg.DenyFrac > 1 {
		return nil, fmt.Errorf("openloop: deny fraction = %v, want [0,1]", cfg.DenyFrac)
	}
	g := &OpenLoop{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	if cfg.ZipfS > 1 && cfg.Tenants > 1 {
		g.zipf = rand.NewZipf(g.rng, cfg.ZipfS, 1, uint64(cfg.Tenants-1))
	}
	return g, nil
}

// Next returns the next scheduled arrival, or ok=false once the
// schedule is exhausted. Arrival times are non-decreasing.
func (g *OpenLoop) Next() (Arrival, bool) {
	if g.issued >= g.cfg.Arrivals {
		return Arrival{}, false
	}
	g.issued++
	// Exponential inter-arrival with mean 1/rate seconds.
	g.nextNS += g.rng.ExpFloat64() / g.cfg.RatePerSec * 1e9
	a := Arrival{AtNS: int64(g.nextNS), Purpose: PurposeServe}
	if g.zipf != nil {
		a.Tenant = int(g.zipf.Uint64())
	} else {
		a.Tenant = g.rng.Intn(g.cfg.Tenants)
	}
	if g.cfg.DenyFrac > 0 && g.rng.Float64() < g.cfg.DenyFrac {
		a.Purpose = PurposeDenied
	}
	return a, true
}
