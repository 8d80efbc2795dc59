// The HTTP telemetry surface of pdsd (DESIGN §14): /metrics serves the
// Prometheus exposition, /healthz a liveness JSON, /telemetry the full
// live view pdsctl top renders, and /debug/pprof/* the standard Go
// profiling handlers. The serve subcommand binds it over the run's
// Telemetry plane; the coordinator binds it over the fleet — every
// scrape pulls a live snapshot from each shard process through the
// scn/tele control call and folds them into one registry.
package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"sync"
	"time"

	"pds/internal/obs"
	"pds/internal/scenario"
	"pds/internal/tenant"
)

// startHTTP binds mux on addr (":0" picks a free port) and serves it on
// a background goroutine. The bound address is announced on stderr so
// an operator — or an e2e test scraping a :0 port — can find it.
func startHTTP(addr string, mux *http.ServeMux) (*http.Server, net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "pdsd: telemetry on http://%s\n", ln.Addr())
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv, ln, nil
}

// withPprof wires the standard profiling handlers onto mux.
func withPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// serveMux is the HTTP surface of one hosting run: everything reads the
// run's live Telemetry plane.
func serveMux(tel *tenant.Telemetry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, tel.PrometheusText())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		st := tel.Status()
		ok := st.Failure == ""
		w.Header().Set("Content-Type", "application/json")
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(struct {
			OK     bool               `json:"ok"`
			Status tenant.ServeStatus `json:"status"`
		}{ok, st})
	})
	mux.HandleFunc("/telemetry", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(tel.View())
	})
	withPprof(mux)
	return mux
}

// MetricShardUp is the per-shard liveness gauge the fleet scrape adds to
// the merged exposition.
const MetricShardUp = "pdsd_shard_up"

// fleetTelemetry scrapes every shard process on each HTTP request and
// merges the snapshots. The last fully-successful exposition is kept so
// a scrape that lands after the fleet stopped (the querier's stop calls
// end the nodes) still answers with the final state instead of nothing.
type fleetTelemetry struct {
	fleet *scenario.Fleet

	mu   sync.Mutex
	last string // last exposition with every shard up
}

// scrape pulls a live snapshot from each shard and folds them into one
// registry, tagging per-shard liveness. up counts the shards that
// answered.
func (f *fleetTelemetry) scrape() (reg *obs.Registry, up int) {
	reg = obs.NewRegistry()
	for i := 0; i < f.fleet.Shards(); i++ {
		g := reg.Gauge(MetricShardUp, "shard", strconv.Itoa(i))
		snap, err := f.fleet.Telemetry(i)
		if err != nil {
			continue
		}
		up++
		g.Set(1)
		reg.MergeSnapshot(snap)
	}
	return reg, up
}

func (f *fleetTelemetry) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		reg, up := f.scrape()
		out := reg.Prometheus()
		f.mu.Lock()
		switch {
		case up == f.fleet.Shards():
			f.last = out
		case up == 0 && f.last != "":
			out = f.last
		}
		f.mu.Unlock()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, out)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		type shardHealth struct {
			Shard int  `json:"shard"`
			Up    bool `json:"up"`
		}
		res := struct {
			OK     bool          `json:"ok"`
			Shards []shardHealth `json:"shards"`
		}{OK: true}
		for i := 0; i < f.fleet.Shards(); i++ {
			h := shardHealth{Shard: i, Up: f.fleet.Ping(i)}
			if !h.Up {
				res.OK = false
			}
			res.Shards = append(res.Shards, h)
		}
		w.Header().Set("Content-Type", "application/json")
		if !res.OK {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(res)
	})
	mux.HandleFunc("/telemetry", func(w http.ResponseWriter, r *http.Request) {
		reg, up := f.scrape()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Up       int          `json:"up"`
			Shards   int          `json:"shards"`
			Snapshot obs.Snapshot `json:"snapshot"`
		}{up, f.fleet.Shards(), reg.Snapshot()})
	})
	withPprof(mux)
	return mux
}

// pacer maps a virtual instant to a wall deadline: factor is wall
// seconds per virtual second, so 1.0 replays the schedule in real time
// and 0 (or negative) disables pacing. Pacing stretches only wall
// execution — virtual arrivals, the decision stream and the window
// digest are untouched, which is what keeps a paced run same-seed
// byte-identical with an unpaced one.
func pacer(factor float64) func(atNS int64) {
	if factor <= 0 {
		return nil
	}
	start := time.Now()
	return func(atNS int64) {
		target := start.Add(time.Duration(float64(atNS) * factor))
		if d := time.Until(target); d > 0 {
			time.Sleep(d)
		}
	}
}
