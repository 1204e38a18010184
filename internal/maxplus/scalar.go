// Package maxplus implements max-plus algebra: scalars over the reals
// extended with −∞, vectors, matrices, matrix products, eigenvalue
// computation (maximum cycle mean of the precedence graph, solved by
// Howard's iteration in internal/mcm) and power iteration with
// periodicity detection.
//
// Max-plus algebra is the natural semantics of self-timed execution of
// timed synchronous dataflow graphs (Baccelli et al., "Synchronization and
// Linearity"): actor start times are maxima over token arrival times, and
// execution delays are additions. The DAC'09 reduction paper's novel
// SDF→HSDF conversion runs one symbolic graph iteration to obtain exactly
// such a max-plus matrix over the graph's initial tokens.
//
// Time values are int64. −∞ is represented by a reserved sentinel; all
// operations treat it as the absorbing zero element of ⊗ (addition) and
// the neutral element of ⊕ (max).
package maxplus

import (
	"fmt"
	"math"
)

// T is a max-plus scalar: either a finite int64 time or −∞.
type T int64

// NegInf is the max-plus zero element: the neutral element of ⊕ (max) and
// the absorbing element of ⊗ (plus).
const NegInf T = math.MinInt64

// FromInt converts a finite time value to a max-plus scalar.
func FromInt(v int64) T {
	return T(v)
}

// IsNegInf reports whether t is −∞.
func (t T) IsNegInf() bool { return t == NegInf }

// Int returns the finite value of t. It panics if t is −∞; callers must
// check IsNegInf first when −∞ is possible.
func (t T) Int() int64 {
	if t == NegInf {
		panic("maxplus: Int() on -inf")
	}
	return int64(t)
}

// Add is the max-plus ⊗ operation: ordinary addition with −∞ absorbing.
func (t T) Add(u T) T {
	if t == NegInf || u == NegInf {
		return NegInf
	}
	return T(int64(t) + int64(u))
}

// Max is the max-plus ⊕ operation.
func (t T) Max(u T) T {
	if t > u {
		return t
	}
	return u
}

// Cmp returns -1, 0, +1 comparing t with u; −∞ is smaller than everything
// finite.
func (t T) Cmp(u T) int {
	switch {
	case t < u:
		return -1
	case t > u:
		return 1
	default:
		return 0
	}
}

// String renders t, using "-inf" for −∞.
func (t T) String() string {
	if t == NegInf {
		return "-inf"
	}
	return fmt.Sprintf("%d", int64(t))
}
