package main

import "pds/internal/netsim"

// gated names the workloads BENCHMARK.json lists, the ones the driver runs
// to accept or reject a change. It runs each some twenty times inside a
// fixed total, and on a shared host a run has to be long to sit through a
// neighbour's bursts; four workloads leave each run 30 seconds. They are
// the hosted request at its production point, the same path with eviction
// and recovery bypassed, the token's read path, and the global query with
// every one of its layers at work (the lossy wire adds the ARQ link to what
// the clean one exercises). serve-churn, gquery-clean and gquery-tcp run
// with the rest under `go run ./bench` and -compare.
var gated = []string{"serve-steady", "serve-overload", "token-query", "gquery-lossy"}

// workloads is the benchmark's fixed table. Episode counts are sized for
// 6 to 12 seconds of measured wall time per workload on a 2-vCPU box; a
// time-boxed run (-seconds) changes how many episodes run, never the
// shape of one.
func workloads(tiny bool) []workload {
	ws := []workload{
		&serveWorkload{
			name: "serve-steady",
			why:  "the production point: 1000 Zipf tenants at 2000 req/s, all three engines, some evict, reopen and shed",
			shape: serveShape{
				Tenants: 1000, ZipfS: 1.1, RatePerSec: 2000, DenyFrac: 0.02, Arrivals: 6000,
			},
			episodes: 60,
		},
		&serveWorkload{
			name: "serve-churn",
			why:  "working set far above the arena: nearly every request evicts and most reopen, no queueing",
			shape: serveShape{
				Tenants: 4000, RatePerSec: 1000, DenyFrac: 0.02, Arrivals: 12000,
			},
			episodes: 15,
		},
		&serveWorkload{
			name: "serve-overload",
			why:  "120 tenants that all fit the arena at 16000 req/s: admission and the cheapest paths dominate, no evict or reopen",
			shape: serveShape{
				Tenants: 120, RatePerSec: 16000, DenyFrac: 0.02, Arrivals: 3000,
			},
			episodes: 300,
		},
		&tokenWorkload{
			name: "token-query",
			why:  "the read path of the engines on one smartcard token: search, star query and key lookup on 2 KiB pages",
			shape: tokenShape{
				Docs: 5000, Vocab: 5000, TermsPerDoc: 8, LateDocs: 1250,
				StarSF: 0.002, Suppliers: 20, KVKeys: 4000, Queries: 1000,
			},
			episodes: 15,
		},
		&gqueryWorkload{
			name:         "gquery-clean",
			why:          "three global-query protocols over 200 participants on a clean simulated wire: crypto, fold and partitioning",
			participants: 200, tuplesEach: 3, episodes: 15, queries: 100,
		},
		&gqueryWorkload{
			name:         "gquery-lossy",
			why:          "the same protocols over 80 participants on a wire that drops, duplicates, delays and reorders: the ARQ link",
			participants: 80, tuplesEach: 3, episodes: 12, queries: 100,
			faults: &netsim.FaultSpec{Drop: 0.08, Duplicate: 0.08, Delay: 0.04, Reorder: 0.04},
		},
		&gqueryWorkload{
			name:         "gquery-tcp",
			why:          "the same protocols over 60 participants through one real TCP connection: codec, echo round trip, hand-offs",
			participants: 60, tuplesEach: 3, episodes: 15, queries: 100,
			tcp: true,
		},
	}
	if tiny {
		for _, w := range ws {
			switch w := w.(type) {
			case *serveWorkload:
				w.episodes, w.shape.Arrivals = 1, 600
				w.shape.Tenants = min(w.shape.Tenants, 400)
			case *tokenWorkload:
				w.episodes = 1
				w.shape = tokenShape{
					Docs: 200, Vocab: 300, TermsPerDoc: 6, LateDocs: 50,
					StarSF: 0.0004, Suppliers: 4, KVKeys: 200, Queries: 60,
				}
			case *gqueryWorkload:
				w.episodes, w.queries, w.participants = 1, 6, 12
			}
		}
	}
	return ws
}
