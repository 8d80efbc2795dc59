package gquery

import "pds/internal/ssi"

// Infra is the Supporting Server Infrastructure surface the Part III
// protocols drive: one SSI node's surface (ssi.Node) plus the routing of
// each upload to its node. It is satisfied by a single *ssi.Server — the
// one-node SSI of the experiments — and by *ssi.ShardSet, the SSI fleet
// of the deployed scenarios, in-process or remote, which partitions the
// tuple space across its nodes, each with its own fault-plane kinds and
// ARQ links (the transport keys links per upload destination, see
// linkKey).
type Infra interface {
	ssi.Node
	// Dest names the wire destination for an upload from the given PDS:
	// "ssi" for a single server, ssi.ShardDest of its shard in a
	// ShardSet.
	Dest(pds string) string
}
