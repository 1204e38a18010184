package sdf

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/rat"
)

// ErrInconsistent indicates a graph whose balance equations have no
// non-trivial solution: no finite schedule returns it to its initial token
// distribution (§3).
var ErrInconsistent = errors.New("sdf: graph is not consistent")

// InconsistentError is RepetitionVector's error when the balance
// equations admit only the zero solution. It prints the first conflict
// the rate propagation meets and unwraps to ErrInconsistent.
type InconsistentError struct {
	// Conflicts lists, ascending, every channel whose balance equation
	// disagrees with the rates propagated over a BFS spanning forest.
	Conflicts []ChannelID
	// Overflows lists, ascending, every channel met past the first
	// conflict across which the propagated rate overflows int64. The
	// actors behind such a channel get no rate, so no balance equation
	// that needs one counts as a conflict.
	Overflows []ChannelID
	first     string
}

func (e *InconsistentError) Error() string { return e.first + ": " + ErrInconsistent.Error() }
func (e *InconsistentError) Unwrap() error { return ErrInconsistent }

// RepetitionVector solves the balance equations q(src)·prod = q(dst)·cons
// for every channel and returns the minimal positive integer solution.
// For a graph with several weakly connected components, each component is
// scaled to its own minimal solution (the convention of the SDF3 tool
// set). Actors with no channels get repetition count 1.
//
// When the equations only admit the zero solution it propagates on past
// the first conflict and returns an *InconsistentError naming every
// conflicting channel, and apart from them every channel whose rate
// overflows. An overflow met first is returned instead.
func (g *Graph) RepetitionVector() ([]int64, error) {
	n := len(g.actors)
	if n == 0 {
		return nil, nil
	}
	// Undirected adjacency over channels for component traversal.
	type half struct {
		other ActorID
		// rate of this actor on the channel and rate of the other side:
		// q(this)·mine = q(other)·theirs
		mine, theirs int
		chID         ChannelID
	}
	adj := make([][]half, n)
	for i, c := range g.channels {
		adj[c.Src] = append(adj[c.Src], half{other: c.Dst, mine: c.Prod, theirs: c.Cons, chID: ChannelID(i)})
		adj[c.Dst] = append(adj[c.Dst], half{other: c.Src, mine: c.Cons, theirs: c.Prod, chID: ChannelID(i)})
	}

	rates := make([]rat.Rat, n)
	assigned := make([]bool, n)
	unknown := make([]bool, n) // reached only past an overflow: no rate
	q := make([]int64, n)
	var inc *InconsistentError

	for start := 0; start < n; start++ {
		if assigned[start] {
			continue
		}
		// BFS the weakly connected component, propagating rational rates.
		comp := []ActorID{ActorID(start)}
		rates[start] = rat.One()
		assigned[start] = true
		for head := 0; head < len(comp); head++ {
			a := comp[head]
			for _, h := range adj[a] {
				// q(a)·mine = q(other)·theirs  =>  q(other) = q(a)·mine/theirs
				var want rat.Rat
				var err error
				if !unknown[a] {
					want, err = rates[a].Mul(rat.MustNew(int64(h.mine), int64(h.theirs)))
				}
				switch {
				case err != nil && inc == nil:
					return nil, fmt.Errorf("sdf: repetition vector: %w", err)
				case err != nil || unknown[a]:
					if err != nil {
						inc.Overflows = append(inc.Overflows, h.chID)
					}
					if !assigned[h.other] {
						assigned[h.other], unknown[h.other] = true, true
						comp = append(comp, h.other)
					}
				case unknown[h.other]:
					// No rate to compare against.
				case !assigned[h.other]:
					rates[h.other] = want
					assigned[h.other] = true
					comp = append(comp, h.other)
				case !rates[h.other].Equal(want):
					if inc == nil {
						c := g.channels[h.chID]
						inc = &InconsistentError{first: fmt.Sprintf("sdf: channel %s -> %s (prod=%d cons=%d) violates balance",
							g.actors[c.Src].Name, g.actors[c.Dst].Name, c.Prod, c.Cons)}
					}
					inc.Conflicts = append(inc.Conflicts, h.chID)
				}
			}
		}
		if inc != nil {
			continue // no repetition vector to scale, only conflicts to find
		}
		// Scale the component to the minimal integer solution: multiply by
		// the lcm of denominators, then divide by the gcd of numerators.
		l := int64(1)
		for _, a := range comp {
			var err error
			l, err = rat.LCM(l, rates[a].Den())
			if err != nil {
				return nil, fmt.Errorf("sdf: repetition vector: %w", err)
			}
		}
		gcd := int64(0)
		scaled := make([]int64, len(comp))
		for i, a := range comp {
			// rates[a] * l is integral by construction of l.
			v, err := rates[a].MulInt(l)
			if err != nil {
				return nil, fmt.Errorf("sdf: repetition vector: %w", err)
			}
			scaled[i] = v.Num()
			gcd = rat.GCD(gcd, scaled[i])
		}
		for i, a := range comp {
			q[a] = scaled[i] / gcd
		}
	}
	if inc == nil {
		return q, nil
	}
	slices.Sort(inc.Conflicts) // met from both ends, a channel may appear twice
	inc.Conflicts = slices.Compact(inc.Conflicts)
	slices.Sort(inc.Overflows)
	inc.Overflows = slices.Compact(inc.Overflows)
	return nil, inc
}

// IsConsistent reports whether the balance equations have a non-trivial
// solution.
func (g *Graph) IsConsistent() bool {
	_, err := g.RepetitionVector()
	return err == nil
}

// IterationLength returns the total number of firings in one iteration:
// the sum of the repetition vector. This is exactly the number of actors
// the traditional SDF→HSDF conversion produces (§3), the quantity in the
// left column of Table 1.
func (g *Graph) IterationLength() (int64, error) {
	q, err := g.RepetitionVector()
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, v := range q {
		sum += v
		if sum < 0 {
			return 0, fmt.Errorf("sdf: iteration length overflows int64")
		}
	}
	return sum, nil
}
