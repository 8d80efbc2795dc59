package tenant

import (
	"sync"
	"time"

	"pds/internal/obs"
)

// Telemetry is the live observation plane of one serve run: the
// windowed view of the registry, the heavy-hitter sketches, the SLO
// burn tracker, and a coarse run status. The serve loop owns the write
// side; HTTP scrape handlers and pdsctl top read concurrently.
type Telemetry struct {
	Reg    *obs.Registry
	Window *obs.Window
	Attr   *Attribution
	Burn   *BurnTracker

	mu     sync.Mutex
	status ServeStatus
}

// ServeStatus is the coarse live state of a run.
type ServeStatus struct {
	Plan     string `json:"plan,omitempty"`
	Tenants  int    `json:"tenants"`
	Arrivals int    `json:"arrivals"`
	// Done counts arrivals fully processed so far.
	Done int `json:"done"`
	// NowNS is the virtual clock at the latest processed arrival.
	NowNS   int64 `json:"now_ns"`
	Running bool  `json:"running"`
	OK      bool  `json:"ok"`
	// Failure carries the abort error of a run that did not finish.
	Failure string `json:"failure,omitempty"`
}

// TelemetryView is one consistent read of the whole plane — what the
// /telemetry endpoint serves and pdsctl top renders.
type TelemetryView struct {
	Status ServeStatus       `json:"status"`
	Window obs.WindowView    `json:"window"`
	Hot    AttributionView   `json:"hot"`
	Burn   []ClassBurn       `json:"burn"`
	Alerts []obs.AlertRecord `json:"alerts"`
	// Samples/WindowDigest pin the windowed stream: two same-seed runs
	// agree on both at every point in virtual time.
	Samples      int    `json:"samples"`
	WindowDigest string `json:"window_digest"`
}

// NewTelemetry wires a telemetry plane over reg sampling every
// cfg.WindowNS; the ring size, the sketch size and the error budget are
// fixed.
func NewTelemetry(cfg ServeConfig, reg *obs.Registry) *Telemetry {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	t := &Telemetry{
		Reg:    reg,
		Window: obs.NewWindow(reg, time.Duration(cfg.WindowNS), 0),
		Attr:   NewAttribution(),
		Burn:   NewBurnTracker(reg),
	}
	t.Burn.Attach(t.Window)
	return t
}

// BindHost attaches the plane to a host: attribution credit on the
// request path, gauge refresh at sample boundaries.
func (t *Telemetry) BindHost(h *Host) {
	h.SetAttribution(t.Attr)
	t.Window.OnBeforeSample(func(int64) { h.ObserveGauges() })
}

// SetStatus replaces the coarse run status.
func (t *Telemetry) SetStatus(s ServeStatus) {
	t.mu.Lock()
	t.status = s
	t.mu.Unlock()
}

// Status returns the current coarse run status.
func (t *Telemetry) Status() ServeStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// View assembles one read of the whole plane.
func (t *Telemetry) View() TelemetryView {
	return TelemetryView{
		Status:       t.Status(),
		Window:       t.Window.View(),
		Hot:          t.Attr.Top(),
		Burn:         t.Burn.Burns(),
		Alerts:       t.Reg.Alerts(),
		Samples:      t.Window.Samples(),
		WindowDigest: t.Window.Digest(),
	}
}

// PrometheusText renders the full exposition: every registered series
// plus the scrape-time heavy-hitter gauges.
func (t *Telemetry) PrometheusText() string {
	return t.Reg.Prometheus() + t.Attr.PrometheusText()
}
