// Package tenant is the multi-tenant hosting plane of the PDS: one
// daemon multiplexing thousands of personal data servers, each inside
// its own envelope — a private flash chip, a RAM reservation carved from
// the host arena, a durable store opened through the internal/durable
// registry, and an acl.Guard that decides (and audits) every single
// request before any engine code runs.
//
// The paper's secure tokens are single-owner devices; a hosting provider
// runs the same stack server-side for owners whose token is lost,
// offline or too slow. The threat model carries over unchanged: the
// host is honest-but-curious infrastructure, so isolation is structural
// (per-tenant chips and policies, not shared tables with a tenant_id
// column) and the guard sits on the request path, not behind it.
//
// Scheduling is admission-controlled and deterministic: requests carry
// virtual arrival times (an open-loop schedule from internal/workload),
// each operation class has a bounded set of execution slots and a
// bounded pending queue, and overload is shed explicitly rather than
// absorbed into an unbounded backlog. Service times derive from the
// deterministic flash I/O of the request under the NAND cost model, so
// two runs over the same schedule produce byte-identical decision
// streams — the property TestServeDeterministic and
// TestHostDecisionStreamDeterministic pin.
package tenant

import (
	"errors"

	"pds/internal/durable"
)

// Typed request-plane errors. A Response always accompanies them, so
// callers can meter the refusal without parsing strings.
var (
	// ErrShed: the class queue was full at arrival; the request was
	// refused without touching the tenant's store.
	ErrShed = errors.New("tenant: shed: class queue full")
	// ErrQuota: the tenant's flash footprint reached its page quota.
	ErrQuota = errors.New("tenant: page quota exhausted")
	// ErrDenied: the tenant's access policy refused the request (the
	// refusal is in the tenant's audit chain).
	ErrDenied = errors.New("tenant: access denied by policy")
)

// Class is the operation class of a request — which storage engine the
// tenant's PDS runs. Admission control is per class: a burst of
// expensive search reorganizations cannot starve the kv tenants.
type Class int

// The hosted engine classes, in registry order.
const (
	ClassKV Class = iota
	ClassSearch
	ClassEmbDB
	NumClasses = 3
)

func (c Class) String() string {
	switch c {
	case ClassKV:
		return "kv"
	case ClassSearch:
		return "search"
	case ClassEmbDB:
		return "embdb"
	default:
		return "unknown"
	}
}

// Kind resolves the durable engine behind the class.
func (c Class) Kind() (durable.Kind, bool) {
	return durable.ByName(c.String())
}

// ClassOf assigns a stable class to a tenant index — the striping the
// serve plane uses to spread a population across all engines.
func ClassOf(tenantIndex int) Class {
	if tenantIndex < 0 {
		tenantIndex = -tenantIndex
	}
	return Class(tenantIndex % NumClasses)
}

// Request is one unit of hosted work: who (Subject/Role/Purpose, the
// acl triple), against which tenant and class, arriving at a virtual
// instant. Op selection is the host's job — the per-tenant operation
// counter is hosting state, not caller state.
type Request struct {
	Tenant string
	Class  Class
	// AtNS is the virtual arrival instant in nanoseconds. Arrivals must
	// be non-decreasing across calls; the host clamps regressions.
	AtNS int64
	// Subject/Role/Purpose feed the tenant's guard. An empty Subject
	// defaults to the tenant's own name (the owner asking for their own
	// data).
	Subject string
	Role    string
	Purpose string
}

// Decision is the admission outcome of one request — one byte, so a
// whole run's decisions concatenate into a stream a digest can pin.
type Decision byte

const (
	DecisionAdmit  Decision = 'a' // a slot was free at arrival
	DecisionQueued Decision = 'q' // waited in the class queue, then ran
	DecisionShed   Decision = 's' // queue full, refused
	DecisionDenied Decision = 'd' // policy refusal (audited)
	DecisionQuota  Decision = 'x' // page quota exhausted
)

// numDecisions is how many outcomes there are; index numbers them.
const numDecisions = 5

func (d Decision) index() int {
	switch d {
	case DecisionAdmit:
		return 0
	case DecisionQueued:
		return 1
	case DecisionShed:
		return 2
	case DecisionDenied:
		return 3
	default:
		return 4
	}
}

func (d Decision) String() string {
	switch d {
	case DecisionAdmit:
		return "admit"
	case DecisionQueued:
		return "queued"
	case DecisionShed:
		return "shed"
	case DecisionDenied:
		return "denied"
	case DecisionQuota:
		return "quota"
	default:
		return "unknown"
	}
}

// Response reports what one request experienced. For refused requests
// (shed/denied/quota) only Decision and the timestamps are meaningful.
type Response struct {
	Decision Decision
	// StartNS is when service began (== arrival for admits, later for
	// queued requests); EndNS when it completed.
	StartNS, EndNS int64
	// QueueNS is time spent waiting for a slot, ServiceNS the service
	// time itself (flash I/O under the NAND cost model + CPU epsilon).
	// LatencyNS = QueueNS + ServiceNS is what the SLO histograms see.
	QueueNS, ServiceNS, LatencyNS int64
	// Pages is the tenant's flash footprint after the request.
	Pages int
}
