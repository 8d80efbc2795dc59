package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"pds/internal/gquery"
	"pds/internal/netsim"
	"pds/internal/smc"
	"pds/internal/ssi"
	"pds/internal/workload"
)

// runE18 measures fault-tolerant Part III execution: the same global
// aggregation protocols as E6, but over a wire that drops, duplicates,
// delays and reorders envelopes under a seeded schedule. The reliability
// layer (ack/retry/backoff, per-kind links) must recover the exact result;
// the table reports what that recovery costs. A final section shows the
// complementary failure mode: faults the ARQ cannot absorb (a forging
// SSI) abort with the typed detection error instead of degrading the
// answer. (EXPERIMENTS.md discusses this study as E18.)
func runE18(cfg config) error {
	n := 200
	if cfg.quick {
		n = 80
	}
	kr, err := gquery.KeyringFrom(make([]byte, 32))
	if err != nil {
		return err
	}
	parts := workload.Participants(n, 3, 42)
	truth := gquery.PlainResult(parts)
	buckets, err := gquery.EquiDepthBuckets(workload.Diagnoses, nil, 4)
	if err != nil {
		return err
	}

	plans := []struct {
		name string
		plan *netsim.FaultPlan
	}{
		{"clean", nil},
		{"drop5%", &netsim.FaultPlan{Seed: 301, Default: netsim.FaultSpec{Drop: 0.05}}},
		{"drop10%", &netsim.FaultPlan{Seed: 302, Default: netsim.FaultSpec{Drop: 0.10}}},
		{"drop20%", &netsim.FaultPlan{Seed: 303, Default: netsim.FaultSpec{Drop: 0.20}}},
		{"dup10%", &netsim.FaultPlan{Seed: 304, Default: netsim.FaultSpec{Duplicate: 0.10}}},
		{"mixed", &netsim.FaultPlan{Seed: 305, Default: netsim.FaultSpec{Drop: 0.08, Duplicate: 0.08, Delay: 0.04, Reorder: 0.04}}},
	}

	type protoRun struct {
		name string
		run  func(eng *gquery.Engine) (gquery.Result, gquery.RunStats, error)
	}
	protos := []protoRun{
		{"secure-agg", func(eng *gquery.Engine) (gquery.Result, gquery.RunStats, error) {
			net := netsim.New()
			srv := ssi.New(net, ssi.HonestButCurious, ssi.Behavior{})
			return eng.SecureAgg(net, srv, parts, kr, 64)
		}},
		{"noise-ctrl(1x)", func(eng *gquery.Engine) (gquery.Result, gquery.RunStats, error) {
			net := netsim.New()
			srv := ssi.New(net, ssi.HonestButCurious, ssi.Behavior{})
			return eng.Noise(net, srv, parts, kr, workload.Diagnoses, 1, gquery.ControlledNoise, 1)
		}},
		{"histogram(B=4)", func(eng *gquery.Engine) (gquery.Result, gquery.RunStats, error) {
			net := netsim.New()
			srv := ssi.New(net, ssi.HonestButCurious, ssi.Behavior{})
			br, st, err := eng.Histogram(net, srv, parts, kr, buckets)
			if err != nil {
				return nil, st, err
			}
			return gquery.EstimateGroups(br, buckets), st, nil
		}},
	}

	fmt.Printf("-- degraded-mode cost: %d PDSs, serial token, retry budget %d --\n", n, netsim.DefaultMaxRetries)
	w := newTab()
	fmt.Fprintln(w, "protocol\tfaults\tmsgs\tbytes\tretx\tacks\tsim-time\tmsg-overhead%\texact")
	for _, p := range protos {
		var baseline gquery.Result
		var baseMsgs int64
		for _, pl := range plans {
			res, stats, err := p.run(gquery.New(
				gquery.WithWorkers(1), gquery.WithFaults(pl.plan), gquery.WithObserver(cfg.obs)))
			if err != nil {
				return fmt.Errorf("%s under %s: %w", p.name, pl.name, err)
			}
			if pl.plan == nil {
				baseline = res
				baseMsgs = stats.Net.Messages
			}
			exact := len(res) == len(baseline)
			for g, a := range baseline {
				if res[g] != a {
					exact = false
				}
			}
			simTime := time.Duration(stats.CriticalPath.TotalNS)
			overhead := 100 * float64(stats.Net.Messages-baseMsgs) / float64(baseMsgs)
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\t%v\t%.1f\t%v\n",
				p.name, pl.name, stats.Net.Messages, stats.Net.Bytes,
				stats.Retransmits, stats.AckMessages, simTime.Round(simTime/1000+1), overhead, exact)
		}
	}
	w.Flush()
	_ = truth

	fmt.Println("\n-- SMC secure-sum ring over the faulty wire --")
	w = newTab()
	fmt.Fprintln(w, "parties\tfaults\tmsgs\tretx\tbackoff\texact")
	for _, pl := range plans {
		values := make([]int64, 24)
		var want int64
		for i := range values {
			values[i] = int64(i*7 + 3)
			want += values[i]
		}
		net := netsim.New()
		net.SetObserver(cfg.obs)
		sum, stats, rel, err := smc.SecureSumOverNetwork(net, values, 1<<30, rand.New(rand.NewSource(18)), pl.plan)
		if err != nil {
			return fmt.Errorf("ring under %s: %w", pl.name, err)
		}
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%v\t%v\n",
			len(values), pl.name, stats.Messages, rel.Retransmits, rel.Backoff, sum == want)
	}
	w.Flush()

	fmt.Println("\n-- unrecoverable faults: forging SSI aborts with typed detection --")
	for _, forge := range []float64{0.02, 0.1} {
		net := netsim.New()
		srv := ssi.New(net, ssi.WeaklyMalicious, ssi.Behavior{ForgeRate: forge, Seed: 99})
		_, stats, err := gquery.New(
			gquery.WithWorkers(1), gquery.WithFaults(plans[3].plan), gquery.WithObserver(cfg.obs)).
			SecureAgg(net, srv, parts, kr, 64)
		var de *gquery.DetectionError
		switch {
		case errors.As(err, &de):
			fmt.Printf("  forge=%.0f%% + drop20%% wire → %s abort: reason=%s mac-failures=%d (retx=%d)\n",
				forge*100, de.Protocol, de.Reason, de.MACFailures, stats.Retransmits)
		case err != nil:
			return fmt.Errorf("forge=%.2f: unexpected error class: %w", forge, err)
		default:
			fmt.Printf("  forge=%.0f%% + drop20%% wire → MISSED (covert adversary won)\n", forge*100)
		}
	}
	return nil
}
