package congest

import (
	"context"

	"congestlb/internal/graphs"
)

// BatchItem is one run of a RunBatch call.
//
// Deprecated: build a Network with NewNetwork and call RunCtx.
type BatchItem struct {
	Graph    *graphs.Graph
	Programs []NodeProgram
	Config   Config
}

// BatchStats describes one RunBatch call.
//
// Deprecated: count the items yourself.
type BatchStats struct {
	// Instances is the number of items submitted.
	Instances int
}

// RunBatch runs every item through NewNetwork and RunCtx, one after the
// other, and returns per-item results and errors (results[i] is zero iff
// errs[i] is non-nil). A nil ctx means Background.
//
// Deprecated: call NewNetwork(...).RunCtx per item; RunBatch is that loop.
func RunBatch(ctx context.Context, items []BatchItem) ([]Result, []error, BatchStats) {
	results := make([]Result, len(items))
	errs := make([]error, len(items))
	for i, it := range items {
		net, err := NewNetwork(it.Graph, it.Programs, it.Config)
		if err == nil {
			results[i], err = net.RunCtx(ctx)
		}
		errs[i] = err
	}
	return results, errs, BatchStats{Instances: len(items)}
}
