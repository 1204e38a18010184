package maxplus

import (
	"fmt"
	"strings"
)

// Vec is a dense max-plus vector. In the symbolic execution of an SDF
// iteration, a Vec of length N expresses a token's production time as
// t = max_j (t_j + v[j]) over the N initial tokens t_j; entries equal to
// −∞ mean "no dependency on that token".
type Vec []T

// NewVec returns a vector of length n with every entry −∞ (the max-plus
// zero vector).
func NewVec(n int) Vec {
	v := make(Vec, n)
	for i := range v {
		v[i] = NegInf
	}
	return v
}

// UnitVec returns the i-th max-plus unit vector of length n: 0 at index i
// and −∞ elsewhere. It is the symbolic time stamp of the i-th initial
// token at the start of an iteration.
func UnitVec(n, i int) Vec {
	v := NewVec(n)
	v[i] = 0
	return v
}

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	w := make(Vec, len(v))
	copy(w, v)
	return w
}

// Max returns the entrywise maximum of v and u. The vectors must have the
// same length.
func (v Vec) Max(u Vec) Vec {
	if len(v) != len(u) {
		panic(fmt.Sprintf("maxplus: Max of vectors with lengths %d and %d", len(v), len(u)))
	}
	w := make(Vec, len(v))
	for i := range v {
		w[i] = v[i].Max(u[i])
	}
	return w
}

// MaxInto sets v to the entrywise maximum of v and u, avoiding an
// allocation. The vectors must have the same length.
func (v Vec) MaxInto(u Vec) {
	if len(v) != len(u) {
		panic(fmt.Sprintf("maxplus: MaxInto of vectors with lengths %d and %d", len(v), len(u)))
	}
	for i := range v {
		if u[i] > v[i] {
			v[i] = u[i]
		}
	}
}

// AddScalar returns v with c added to every finite entry (max-plus scalar
// multiplication).
func (v Vec) AddScalar(c T) Vec {
	w := make(Vec, len(v))
	for i := range v {
		w[i] = v[i].Add(c)
	}
	return w
}

// MaxEntry returns the largest entry of v (−∞ for an empty or all-−∞
// vector).
func (v Vec) MaxEntry() T {
	m := NegInf
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// FiniteCount returns the number of finite entries of v.
func (v Vec) FiniteCount() int {
	n := 0
	for _, x := range v {
		if x != NegInf {
			n++
		}
	}
	return n
}

// Equal reports whether v and u are identical.
func (v Vec) Equal(u Vec) bool {
	if len(v) != len(u) {
		return false
	}
	for i := range v {
		if v[i] != u[i] {
			return false
		}
	}
	return true
}

// Normalise returns v shifted so that its maximum finite entry is 0,
// together with the shift that was subtracted. An all-−∞ vector is
// returned unchanged with shift −∞. Normalised vectors are the state
// fingerprints used for periodicity detection in power iteration.
func (v Vec) Normalise() (Vec, T) {
	m := v.MaxEntry()
	if m == NegInf {
		return v.Clone(), NegInf
	}
	w := make(Vec, len(v))
	for i := range v {
		if v[i] == NegInf {
			w[i] = NegInf
		} else {
			w[i] = T(int64(v[i]) - int64(m))
		}
	}
	return w, m
}

// String renders v as "[a b c]" with "-inf" entries.
func (v Vec) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(x.String())
	}
	b.WriteByte(']')
	return b.String()
}

// key returns a map key uniquely identifying v's contents.
func (v Vec) key() string {
	var b strings.Builder
	for _, x := range v {
		fmt.Fprintf(&b, "%d,", int64(x))
	}
	return b.String()
}
