// Experiment E22: multi-tenant PDS hosting under open-loop load. One
// pdsd-style daemon multiplexes a tenant population — per-tenant chips,
// policies, quotas, admission control, LRU eviction to flash — while a
// seeded open-loop generator fixes the arrival rate. The sweep crosses
// tenant count with arrival rate and reads the SLO surface off the obs
// histograms: per-class p50/p99/p999, shed and queue-depth breakdown,
// and the RAM high-water that stays pinned under the arena no matter
// the population.
package main

import (
	"fmt"
	"time"

	"pds/internal/tenant"
)

// e22Point is one cell of the hosting sweep.
type e22Point struct {
	tenants int
	rate    float64
}

func e22Points(quick bool) []e22Point {
	if quick {
		return []e22Point{
			{100, 1000}, {100, 8000},
			{400, 1000}, {400, 8000},
		}
	}
	return []e22Point{
		{250, 1000}, {250, 4000}, {250, 16000},
		{1000, 1000}, {1000, 4000}, {1000, 16000},
	}
}

func e22Config(p e22Point) tenant.ServeConfig {
	return tenant.ServeConfig{
		Tenants:    p.tenants,
		RatePerSec: p.rate,
		Arrivals:   6 * p.tenants,
		Seed:       22,
	}
}

// runE22 is the experiment entry: the tenant-count × arrival-rate sweep
// with the per-class SLO table.
func runE22(cfg config) error {
	fmt.Println("One daemon, many tenants: open-loop arrivals (fixed rate, never closed-loop),")
	fmt.Println("admission control per class (queue-or-shed), LRU eviction under the RAM arena,")
	fmt.Println("every request guarded and audited. Latency = queue wait + flash I/O under the")
	fmt.Println("default SLC cost model. Percentiles are histogram bucket upper bounds.")
	fmt.Println()
	fmt.Printf("%7s %8s %7s %7s %6s %6s %6s %7s %7s %9s %10s %10s\n",
		"tenants", "rate/s", "admit", "queued", "shed", "deny", "quota", "evict", "reopen", "ram", "kv p99", "search p99")
	for _, pt := range e22Points(cfg.quick) {
		rep, err := tenant.Serve(e22Config(pt), cfg.obs)
		if err != nil {
			return fmt.Errorf("serve %d@%v: %w", pt.tenants, pt.rate, err)
		}
		if rep.ACLDecisions != int64(rep.Arrivals) {
			return fmt.Errorf("serve %d@%v: %d acl decisions for %d arrivals — unguarded path",
				pt.tenants, pt.rate, rep.ACLDecisions, rep.Arrivals)
		}
		var kv99, se99 int64
		for _, c := range rep.Classes {
			switch c.Class {
			case "kv":
				kv99 = c.P99NS
			case "search":
				se99 = c.P99NS
			}
		}
		fmt.Printf("%7d %8.0f %7d %7d %6d %6d %6d %7d %7d %9s %10v %10v\n",
			pt.tenants, pt.rate, rep.Admitted, rep.Queued, rep.Shed, rep.Denied, rep.Quota,
			rep.Evictions, rep.Reopens,
			fmt.Sprintf("%d/%d", rep.RAMHighWater, rep.RAMBudget),
			time.Duration(kv99), time.Duration(se99))
	}
	fmt.Println()
	fmt.Println("Raising the rate at fixed population floods the class queues: queueing then")
	fmt.Println("shedding grows while admitted latency stays bounded — the open-loop signature a")
	fmt.Println("closed-loop driver would hide. Raising the population at fixed rate trades")
	fmt.Println("residency for churn: evictions and reopen I/O rise, RAM high-water does not.")
	return nil
}
