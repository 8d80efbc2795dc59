// Command census demonstrates Part III end to end: a statistics agency
// runs a GROUP BY aggregate over 300 Personal Data Servers through an
// untrusted Supporting Server Infrastructure, under each of the [TNP14]
// protocols, then publishes a k-anonymous microdata table — and finally
// shows the covert-adversary deterrence: a weakly-malicious SSI is caught.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"pds/internal/anon"
	"pds/internal/gquery"
	"pds/internal/netsim"
	"pds/internal/ssi"
	"pds/internal/workload"
)

func main() {
	if err := Run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// Run executes the example end to end, writing the walkthrough to w.
func Run(w io.Writer) error {
	const nPDS = 300
	parts := workload.Participants(nPDS, 3, 42)
	truth := gquery.PlainResult(parts)
	kr, err := gquery.NewKeyring()
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "population: %d PDSs, %d tuples, %d diagnosis groups\n",
		nPDS, truth.TotalCount(), len(truth))
	fmt.Fprintln(w, "\nquery: SELECT diagnosis, SUM(cost), COUNT(*) FROM all-PDSs GROUP BY diagnosis")

	run := func(name string, f func(net *netsim.Network, srv *ssi.Server) (gquery.Result, gquery.RunStats, error)) error {
		net := netsim.New()
		srv := ssi.New(net, ssi.HonestButCurious, ssi.Behavior{})
		res, stats, err := f(net, srv)
		if err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		exact := len(res) == len(truth)
		for g, a := range truth {
			if res[g] != a {
				exact = false
			}
		}
		o := srv.Observations()
		fmt.Fprintf(w, "%-18s msgs=%-6d bytes=%-8d workers=%-4d exact=%-5v ssi-groups=%d\n",
			name, stats.Net.Messages, stats.Net.Bytes, stats.WorkerCalls, exact, len(o.GroupFrequencies))
		return nil
	}

	fmt.Fprintln(w, "\n-- protocols (honest-but-curious SSI) --")
	if err := run("secure-agg", func(net *netsim.Network, srv *ssi.Server) (gquery.Result, gquery.RunStats, error) {
		return gquery.New().SecureAgg(net, srv, parts, kr, 64)
	}); err != nil {
		return err
	}
	if err := run("noise-white", func(net *netsim.Network, srv *ssi.Server) (gquery.Result, gquery.RunStats, error) {
		return gquery.New().Noise(net, srv, parts, kr, workload.Diagnoses, 1.0, gquery.WhiteNoise, 1)
	}); err != nil {
		return err
	}
	if err := run("noise-controlled", func(net *netsim.Network, srv *ssi.Server) (gquery.Result, gquery.RunStats, error) {
		return gquery.New().Noise(net, srv, parts, kr, workload.Diagnoses, 1.0, gquery.ControlledNoise, 1)
	}); err != nil {
		return err
	}

	// Histogram: approximate per-group answers, minimal leakage.
	fmt.Fprintln(w, "\n-- histogram protocol accuracy vs bucket count --")
	for _, b := range []int{1, 2, 4, 8} {
		buckets, err := gquery.EquiDepthBuckets(workload.Diagnoses, nil, b)
		if err != nil {
			return err
		}
		net := netsim.New()
		srv := ssi.New(net, ssi.HonestButCurious, ssi.Behavior{})
		br, _, err := gquery.New().Histogram(net, srv, parts, kr, buckets)
		if err != nil {
			return err
		}
		est := gquery.EstimateGroups(br, buckets)
		var errSum, total float64
		for g, a := range truth {
			d := float64(est[g].Sum - a.Sum)
			if d < 0 {
				d = -d
			}
			errSum += d
			total += float64(a.Sum)
		}
		fmt.Fprintf(w, "  B=%d: relative SUM error %.1f%%, SSI sees %d bucket ids\n",
			len(buckets), 100*errSum/total, len(srv.Observations().GroupFrequencies))
	}

	// k-anonymous publication via tokens.
	fmt.Fprintln(w, "\n-- k-anonymous publication ([ANP13]-style) --")
	ds := workload.Census(600, 7)
	contributors := make([]anon.Contributor, 60)
	for i := range contributors {
		contributors[i].ID = fmt.Sprintf("pds-%03d", i)
	}
	for i, r := range ds.Records {
		c := &contributors[i%len(contributors)]
		c.Records = append(c.Records, r)
	}
	for _, k := range []int{5, 20, 50} {
		net := netsim.New()
		srv := ssi.New(net, ssi.HonestButCurious, ssi.Behavior{})
		a, _, err := anon.PublishViaTokens(gquery.New(), net, srv, kr, contributors,
			ds.QINames, ds.Hierarchies, anon.Params{K: k})
		if err != nil {
			return err
		}
		sizes := anon.ClassSizes(a.Records)
		fmt.Fprintf(w, "  k=%-3d levels=%v info-loss=%.2f classes=%d smallest-class=%d\n",
			k, a.Levels, a.InfoLoss, a.Classes, sizes[0])
	}

	// Covert adversary deterrence.
	fmt.Fprintln(w, "\n-- weakly-malicious SSI --")
	for _, b := range []ssi.Behavior{
		{DropRate: 0.05, Seed: 9},
		{DuplicateRate: 0.05, Seed: 10},
		{ForgeRate: 0.05, Seed: 11},
	} {
		net := netsim.New()
		srv := ssi.New(net, ssi.WeaklyMalicious, b)
		_, stats, err := gquery.New().SecureAgg(net, srv, parts, kr, 64)
		verdict := "MISSED"
		if errors.Is(err, gquery.ErrDetected) && stats.Detected {
			verdict = "DETECTED"
		}
		fmt.Fprintf(w, "  drop=%.0f%% dup=%.0f%% forge=%.0f%% → %s (mac failures: %d)\n",
			b.DropRate*100, b.DuplicateRate*100, b.ForgeRate*100, verdict, stats.MACFailures)
	}

	// The result itself, for the curious.
	fmt.Fprintln(w, "\n-- final aggregate (ground truth) --")
	groups := make([]string, 0, len(truth))
	for g := range truth {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		a := truth[g]
		fmt.Fprintf(w, "  %-13s count=%-5d sum=%-7d avg=%.1f\n", g, a.Count, a.Sum, a.Avg())
	}
	return nil
}
