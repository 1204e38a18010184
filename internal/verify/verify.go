// Package verify is the certificate layer of the analysis stack: every
// major analysis result can be packaged together with a witness that an
// independent checker validates in exact arithmetic, without re-running
// (or trusting) the engine that produced it.
//
// The paper's central claims are relational — the symbolic SDF→HSDF
// conversion of Algorithm 1 must agree with the classical conversion,
// and abstraction throughput must conservatively bound concrete
// throughput (Theorem 1) — so a wrong engine answer is silent unless
// something cheaper and simpler re-derives the claim from first
// principles. The certificates here follow the classical
// witness-checking discipline for maximum-cycle-mean problems:
//
//   - a repetition-vector certificate re-checks the balance equations
//     q(src)·prod = q(dst)·cons and minimality (gcd 1 per weakly
//     connected component) in overflow-checked integer arithmetic;
//   - a schedule certificate replays the schedule against the token
//     counts: buffers stay non-negative and the marking returns to the
//     initial one, which together certify a minimal single iteration;
//   - a matrix certificate cross-checks Algorithm 1's symbolic max-plus
//     matrix against concrete replays of one iteration (see
//     MatrixCert);
//   - a throughput certificate pairs a critical-cycle witness (lower
//     bound: the cycle attains the claimed period) with a
//     potential feasibility witness (upper bound: feasible potentials
//     are a max-plus sub-eigenvector, proving no cycle exceeds the
//     claimed period), both checked by replaying one iteration from the
//     witnesses, without the matrix, whichever engine produced them;
//   - an SADF certificate makes the same two-sided claim about the
//     max-plus automaton of an FSM-SADF model, checked by replaying each
//     FSM transition's scenario from the source state's potentials;
//   - a trace certificate replays a timed simulation event by event;
//   - an abstraction certificate discharges the Theorem 1 obligation
//     mechanically through the Proposition 1 machinery of
//     internal/core/conservativity.go.
//
// Checkers use only the exact rational arithmetic of internal/rat and
// overflow-checked int64 max-plus arithmetic; a certificate whose
// arithmetic would overflow is invalid, never silently accepted.
package verify

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/guard"
	"repro/internal/rat"
	"repro/internal/sdf"
)

// ErrInvalid is the sentinel wrapped by every certificate rejection, so
// callers can distinguish "the certificate does not prove the claim"
// from the resource errors of the guard taxonomy.
var ErrInvalid = errors.New("verify: certificate invalid")

func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
}

// Kind identifies the claim a certificate proves.
type Kind int

const (
	// KindRepetition certifies a minimal repetition vector.
	KindRepetition Kind = iota
	// KindSchedule certifies a minimal single-iteration schedule.
	KindSchedule
	// KindMatrix certifies a symbolic max-plus iteration matrix.
	KindMatrix
	// KindThroughput certifies an iteration period (or unboundedness).
	KindThroughput
	// KindTrace certifies a timed self-timed execution trace.
	KindTrace
	// KindAbstraction certifies a Theorem 1 conservative bound.
	KindAbstraction
	// KindReduction certifies a throughput answer lifted through a
	// chain of reduction steps back to the original graph.
	KindReduction
	// KindSADF certifies a worst-case iteration period of an FSM-SADF
	// model via its max-plus automaton.
	KindSADF
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindRepetition:
		return "repetition"
	case KindSchedule:
		return "schedule"
	case KindMatrix:
		return "matrix"
	case KindThroughput:
		return "throughput"
	case KindTrace:
		return "trace"
	case KindAbstraction:
		return "abstraction"
	case KindReduction:
		return "reduction"
	case KindSADF:
		return "sadf"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Certificate is a self-contained, machine-checkable witness for one
// analysis claim about an SDF graph.
type Certificate interface {
	// Kind identifies the claim.
	Kind() Kind
	// Check validates the certificate against g using only the carried
	// witnesses and exact arithmetic — it never re-runs the producing
	// engine. A nil return means the claim is proven for g; a rejection
	// wraps ErrInvalid. Long replays honour the budget and deadline
	// carried by ctx.
	Check(ctx context.Context, g *sdf.Graph) error
}

// checkRepetition verifies that q is the minimal positive integer
// solution of g's balance equations: every entry >= 1, every channel
// balanced (overflow-checked), and each weakly connected component
// scaled to gcd 1.
func checkRepetition(g *sdf.Graph, q []int64) error {
	n := g.NumActors()
	if len(q) != n {
		return invalidf("repetition vector covers %d of %d actors", len(q), n)
	}
	for i, v := range q {
		if v < 1 {
			return invalidf("repetition count of actor %s is %d, want >= 1", g.Actor(sdf.ActorID(i)).Name, v)
		}
	}
	for _, c := range g.Channels() {
		lhs, ok1 := rat.MulChecked(q[c.Src], int64(c.Prod))
		rhs, ok2 := rat.MulChecked(q[c.Dst], int64(c.Cons))
		if !ok1 || !ok2 {
			return invalidf("balance equation of channel %s -> %s overflows int64",
				g.Actor(c.Src).Name, g.Actor(c.Dst).Name)
		}
		if lhs != rhs {
			return invalidf("channel %s -> %s violates balance: %d*%d != %d*%d",
				g.Actor(c.Src).Name, g.Actor(c.Dst).Name, q[c.Src], c.Prod, q[c.Dst], c.Cons)
		}
	}
	// Minimality per weakly connected component: a global gcd would let
	// one component of a disconnected graph carry a non-minimal scale.
	for _, comp := range weakComponents(g) {
		gcd := int64(0)
		for _, a := range comp {
			gcd = rat.GCD(gcd, q[a])
		}
		if gcd != 1 {
			return invalidf("component containing actor %s has gcd %d, not minimal",
				g.Actor(comp[0]).Name, gcd)
		}
	}
	return nil
}

// weakComponents returns the weakly connected components of g as actor
// lists (singletons for isolated actors).
func weakComponents(g *sdf.Graph) [][]sdf.ActorID {
	n := g.NumActors()
	adj := make([][]sdf.ActorID, n)
	for _, c := range g.Channels() {
		adj[c.Src] = append(adj[c.Src], c.Dst)
		adj[c.Dst] = append(adj[c.Dst], c.Src)
	}
	seen := make([]bool, n)
	var comps [][]sdf.ActorID
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		comp := []sdf.ActorID{sdf.ActorID(s)}
		seen[s] = true
		for head := 0; head < len(comp); head++ {
			for _, b := range adj[comp[head]] {
				if !seen[b] {
					seen[b] = true
					comp = append(comp, b)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// RepetitionCert certifies that Q is the minimal repetition vector of
// the graph: the balance equations hold and no smaller positive integer
// solution exists.
type RepetitionCert struct {
	// Q is the claimed repetition vector, indexed by ActorID.
	Q []int64
}

// Kind returns KindRepetition.
func (c *RepetitionCert) Kind() Kind { return KindRepetition }

// Check re-derives the balance equations from g and verifies Q against
// them in overflow-checked arithmetic.
func (c *RepetitionCert) Check(_ context.Context, g *sdf.Graph) error {
	return checkRepetition(g, c.Q)
}

// ScheduleCert certifies that Schedule is a valid minimal
// single-iteration schedule of the graph: replaying it keeps every
// buffer non-negative, returns the marking to the initial token
// distribution, and fires each actor its (minimal) repetition count.
type ScheduleCert struct {
	// Schedule lists the actor firings in order.
	Schedule []sdf.ActorID
}

// Kind returns KindSchedule.
func (c *ScheduleCert) Kind() Kind { return KindSchedule }

// Check replays the schedule against g's token counts.
func (c *ScheduleCert) Check(ctx context.Context, g *sdf.Graph) error {
	_, err := newTokenReplay(guard.NewMeter(ctx, "verify"), g, c.Schedule, 1)
	return err
}
