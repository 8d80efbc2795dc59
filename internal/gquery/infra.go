package gquery

import (
	"pds/internal/netsim"
	"pds/internal/obs"
)

// Infra is the Supporting Server Infrastructure surface the Part III
// protocols drive. It is satisfied by a single *ssi.Server — the
// historical one-node SSI — and by *ssi.ShardSet, which partitions the
// tuple space across several SSI nodes, each with its own fault-plane
// kinds and ARQ links (the transport keys links per upload destination,
// see linkKey).
type Infra interface {
	// Receive ingests one PDS upload.
	Receive(e netsim.Envelope)
	// StartStream opens the streaming partition: until FinishStream,
	// uploads are cut into chunks of at most chunkSize envelopes as they
	// arrive and each chunk is handed to emit as soon as it fills, so the
	// infra holds at most one partial chunk per node. A weakly-malicious
	// infra misbehaves here. emit runs on the uploading goroutine and must
	// not call back into the infra.
	StartStream(chunkSize int, emit func(chunk []netsim.Envelope)) error
	// FinishStream emits what the stream still holds and closes it.
	FinishStream() error
	// ObserveGroup records the opaque key under which the infra grouped
	// an envelope — the leakage channel of the deterministic protocols.
	ObserveGroup(key []byte)
	// BindTrace parents the infra's partition spans under a wire context.
	BindTrace(ctx obs.SpanContext)
	// Dest names the wire destination for an upload from the given PDS:
	// "ssi" for a single server, "ssi:<shard>" under sharding.
	Dest(pds string) string
}
