package smc

import (
	"math/rand"

	"pds/internal/netsim"
	"pds/internal/obs"
	"pds/internal/privcrypto"
	"pds/internal/transport"
)

// Metric families the toolkit emits on an attached observer, labeled by
// protocol ("secure-sum", "secure-sum-segmented", "scalar-product",
// "secure-sum-ring"). Ring runs over a real simulated wire additionally
// surface in the netsim_* families of the attached registry.
const (
	MetricMessages = "smc_messages_total"
	MetricBytes    = "smc_bytes_total"
)

// Engine is the option-based execution surface of the SMC toolkit,
// collapsing the Cfg-suffixed twins into one config path:
//
//	sum, tr, err := smc.New(smc.WithWorkers(8), smc.WithObserver(reg)).
//		SecureSumSegmented(values, modulus, segments, rng)
//
// An Engine is immutable after New and safe to reuse across runs.
type Engine struct {
	workers int
	reg     *obs.Registry
	faults  *netsim.FaultPlan
}

// Option configures an Engine.
type Option func(*Engine)

// New builds an engine; the default is the serial, clean-wire baseline.
func New(opts ...Option) *Engine {
	e := &Engine{workers: 1}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// WithWorkers bounds the worker pool for the parallelizable phases:
// 0 means every core, 1 (the default) runs serially.
func WithWorkers(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// WithObserver mirrors every run's transcript cost into reg.
func WithObserver(reg *obs.Registry) Option {
	return func(e *Engine) { e.reg = reg }
}

// WithFaults arms the netsim fault plane for SecureSumOverNetwork and
// routes the ring over a reliable ARQ link.
func WithFaults(plan *netsim.FaultPlan) Option {
	return func(e *Engine) { e.faults = plan }
}

// observe mirrors one finished transcript into the engine's registry.
func (e *Engine) observe(protocol string, tr *Trace) {
	if e.reg == nil || tr == nil {
		return
	}
	e.reg.Counter(MetricMessages, "protocol", protocol).Add(int64(tr.Messages))
	e.reg.Counter(MetricBytes, "protocol", protocol).Add(int64(tr.Bytes))
}

// SecureSum runs the [CKV+02] ring protocol.
func (e *Engine) SecureSum(values []int64, modulus int64, rng *rand.Rand) (int64, *Trace, error) {
	sum, tr, err := SecureSum(values, modulus, rng)
	e.observe("secure-sum", tr)
	return sum, tr, err
}

// SecureSumSegmented runs the collusion-hardened segmented variant over
// the engine's worker pool.
func (e *Engine) SecureSumSegmented(values []int64, modulus int64, segments int, rng *rand.Rand) (int64, *Trace, error) {
	sum, tr, err := secureSumSegmented(values, modulus, segments, rng, e.workers)
	e.observe("secure-sum-segmented", tr)
	return sum, tr, err
}

// ScalarProduct runs the two-party Paillier scalar product over the
// engine's worker pool.
func (e *Engine) ScalarProduct(a, b []int64, sk *privcrypto.PaillierPrivateKey) (int64, *Trace, error) {
	dot, tr, err := scalarProduct(a, b, sk, e.workers)
	e.observe("scalar-product", tr)
	return dot, tr, err
}

// SecureSumOverNetwork runs the ring over a wire substrate (simulated or
// TCP), armed with the engine's fault plan and the default retry budget.
// While the run is in flight the engine's registry observes the wire, so
// ring frames, injected faults and ARQ overhead land in the netsim_*
// families; the ring's wire cost is additionally mirrored under
// protocol="secure-sum-ring".
func (e *Engine) SecureSumOverNetwork(w transport.Transport, values []int64, modulus int64,
	rng *rand.Rand) (int64, netsim.Stats, netsim.RelStats, error) {

	var prev *obs.Registry
	if e.reg != nil {
		prev = w.Observer()
		if prev != e.reg {
			w.SetObserver(e.reg)
			defer w.SetObserver(prev)
		}
	}
	before := w.Stats()
	sum, st, rel, err := secureSumOverNetwork(w, values, modulus, rng, e.faults, netsim.Reliability{})
	e.observe("secure-sum-ring", &Trace{
		Messages: int(st.Messages - before.Messages),
		Bytes:    int(st.Bytes - before.Bytes),
	})
	return sum, st, rel, err
}
