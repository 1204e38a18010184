package analysis

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rat"
	"repro/internal/sdf"
)

// Bottleneck identifies the timing-critical part of a graph: the channels
// whose initial tokens lie on a critical cycle of the max-plus iteration
// matrix. The paper's symbolic machinery makes this cheap — the critical
// cycle of the matrix's precedence graph names critical *tokens*, and the
// token numbering maps them back onto the channels that hold them. Those
// are the places where adding pipelining tokens (or speeding up the
// actors between them) improves throughput; anywhere else is slack.
type Bottleneck struct {
	// Period is the iteration period (the critical cycle mean).
	Period rat.Rat
	// CriticalTokens lists the initial-token indices on one critical
	// cycle.
	CriticalTokens []int
	// CriticalChannels lists the channels holding those tokens, deduped,
	// in token order.
	CriticalChannels []sdf.ChannelID
	// Unbounded is true when no cycle constrains the steady state.
	Unbounded bool
}

// FindBottleneck analyses g and returns its critical cycle in terms of
// the original graph's channels: the cycle Howard's iteration ends on
// when it computes the matrix eigenvalue.
func FindBottleneck(g *sdf.Graph) (*Bottleneck, error) {
	r, err := core.SymbolicIteration(g)
	if err != nil {
		return nil, fmt.Errorf("analysis: bottleneck: %w", err)
	}
	lam, cycle, hasCycle, err := r.Matrix.CriticalCycle()
	if err != nil {
		return nil, fmt.Errorf("analysis: bottleneck: %w", err)
	}
	if !hasCycle {
		return &Bottleneck{Unbounded: true}, nil
	}
	b := &Bottleneck{Period: lam, CriticalTokens: cycle}
	seen := make(map[sdf.ChannelID]bool)
	for _, tok := range cycle {
		ch := r.TokenChannel[tok]
		if !seen[ch] {
			seen[ch] = true
			b.CriticalChannels = append(b.CriticalChannels, ch)
		}
	}
	return b, nil
}
