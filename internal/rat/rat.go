// Package rat implements exact rational arithmetic on int64 numerators and
// denominators with explicit overflow detection.
//
// SDF analysis needs exact fractions in two places: solving the balance
// equations for the repetition vector, and reporting cycle means and
// throughput values. Floating point is not acceptable there because
// consistency checking compares fractions for exact equality. The values
// involved are small (rates and execution times of embedded dataflow
// models), so int64 with overflow checks is both faster and easier to audit
// than math/big.
package rat

import (
	"errors"
	"fmt"
)

// ErrOverflow is returned (wrapped) by operations whose exact result does
// not fit in an int64 numerator or denominator.
var ErrOverflow = errors.New("rat: int64 overflow")

// ErrDivZero is returned by operations that would divide by zero.
var ErrDivZero = errors.New("rat: division by zero")

// Rat is an exact rational number. The zero value is 0/1. Rats produced by
// this package are always normalised: the denominator is positive and
// gcd(|num|, den) == 1.
type Rat struct {
	num int64
	den int64 // > 0 after normalisation; 0 only in an unnormalised zero value path
}

// New returns the normalised rational num/den. It returns an error if den
// is zero.
func New(num, den int64) (Rat, error) {
	if den == 0 {
		return Rat{}, fmt.Errorf("rat: New(%d, 0): %w", num, ErrDivZero)
	}
	return normalise(num, den)
}

// MustNew is like New but panics on error. Intended for constants in tests
// and table literals.
func MustNew(num, den int64) Rat {
	r, err := New(num, den)
	if err != nil {
		panic(err)
	}
	return r
}

// FromInt returns the rational n/1.
func FromInt(n int64) Rat { return Rat{num: n, den: 1} }

// Zero returns the rational 0/1.
func Zero() Rat { return Rat{num: 0, den: 1} }

// One returns the rational 1/1.
func One() Rat { return Rat{num: 1, den: 1} }

// Num returns the normalised numerator.
func (r Rat) Num() int64 { return r.num }

// Den returns the normalised denominator. For the zero value of Rat it
// reports 1.
func (r Rat) Den() int64 {
	if r.den == 0 {
		return 1
	}
	return r.den
}

// IsZero reports whether r equals 0.
func (r Rat) IsZero() bool { return r.num == 0 }

// IsInt reports whether r is an integer.
func (r Rat) IsInt() bool { return r.Den() == 1 }

// Sign returns -1, 0, or +1 according to the sign of r.
func (r Rat) Sign() int {
	switch {
	case r.num > 0:
		return 1
	case r.num < 0:
		return -1
	default:
		return 0
	}
}

// Float returns a float64 approximation of r (for reporting only).
func (r Rat) Float() float64 { return float64(r.num) / float64(r.Den()) }

// String renders r as "num/den", or just "num" when r is an integer.
func (r Rat) String() string {
	if r.Den() == 1 {
		return fmt.Sprintf("%d", r.num)
	}
	return fmt.Sprintf("%d/%d", r.num, r.Den())
}

// Cmp compares r and s, returning -1, 0 or +1. Comparison is exact and
// never overflows: it falls back to a continued-fraction style comparison
// when the cross products would not fit in an int64.
func (r Rat) Cmp(s Rat) int {
	a, aerr := mulCheck(r.num, s.Den())
	b, berr := mulCheck(s.num, r.Den())
	if aerr == nil && berr == nil {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	return cmpSlow(r.num, r.Den(), s.num, s.Den())
}

// cmpSlow compares a/b with c/d without overflow using the Euclidean
// continued-fraction expansion. b, d > 0.
func cmpSlow(a, b, c, d int64) int {
	for {
		// Compare integer parts first.
		qa, ra := floorDiv(a, b), mod(a, b)
		qc, rc := floorDiv(c, d), mod(c, d)
		if qa != qc {
			if qa < qc {
				return -1
			}
			return 1
		}
		// Same integer part; compare fractional parts ra/b vs rc/d.
		if ra == 0 && rc == 0 {
			return 0
		}
		if ra == 0 {
			return -1
		}
		if rc == 0 {
			return 1
		}
		// ra/b vs rc/d  <=>  d/rc vs b/ra (reversed).
		a, b, c, d = d, rc, b, ra
	}
}

// Equal reports whether r == s exactly.
func (r Rat) Equal(s Rat) bool { return r.num == s.num && r.Den() == s.Den() }

// Add returns r + s.
func (r Rat) Add(s Rat) (Rat, error) {
	// r.num/r.den + s.num/s.den = (r.num*s.den + s.num*r.den) / (r.den*s.den)
	// Use the lcm of the denominators to keep intermediates small.
	g := GCD(r.Den(), s.Den())
	rb := r.Den() / g
	sb := s.Den() / g
	den, err := mulCheck(r.Den(), sb)
	if err != nil {
		return Rat{}, fmt.Errorf("rat: %v + %v: %w", r, s, err)
	}
	t1, err := mulCheck(r.num, sb)
	if err != nil {
		return Rat{}, fmt.Errorf("rat: %v + %v: %w", r, s, err)
	}
	t2, err := mulCheck(s.num, rb)
	if err != nil {
		return Rat{}, fmt.Errorf("rat: %v + %v: %w", r, s, err)
	}
	num, err := addCheck(t1, t2)
	if err != nil {
		return Rat{}, fmt.Errorf("rat: %v + %v: %w", r, s, err)
	}
	return normalise(num, den)
}

// Sub returns r - s.
func (r Rat) Sub(s Rat) (Rat, error) {
	neg, err := s.Neg()
	if err != nil {
		return Rat{}, err
	}
	return r.Add(neg)
}

// Neg returns -r.
func (r Rat) Neg() (Rat, error) {
	if r.num == minInt64 {
		return Rat{}, fmt.Errorf("rat: -(%v): %w", r, ErrOverflow)
	}
	return Rat{num: -r.num, den: r.Den()}, nil
}

// Mul returns r * s.
func (r Rat) Mul(s Rat) (Rat, error) {
	// Cross-cancel before multiplying to keep intermediates small.
	g1 := GCD(abs(r.num), s.Den())
	g2 := GCD(abs(s.num), r.Den())
	n1 := r.num / g1
	n2 := s.num / g2
	d1 := r.Den() / g2
	d2 := s.Den() / g1
	num, err := mulCheck(n1, n2)
	if err != nil {
		return Rat{}, fmt.Errorf("rat: %v * %v: %w", r, s, err)
	}
	den, err := mulCheck(d1, d2)
	if err != nil {
		return Rat{}, fmt.Errorf("rat: %v * %v: %w", r, s, err)
	}
	return normalise(num, den)
}

// Div returns r / s. It returns an error when s is zero.
func (r Rat) Div(s Rat) (Rat, error) {
	if s.num == 0 {
		return Rat{}, fmt.Errorf("rat: %v / 0: %w", r, ErrDivZero)
	}
	inv, err := s.Inv()
	if err != nil {
		return Rat{}, err
	}
	return r.Mul(inv)
}

// Inv returns 1/r. It returns an error when r is zero.
func (r Rat) Inv() (Rat, error) {
	if r.num == 0 {
		return Rat{}, fmt.Errorf("rat: Inv(0): %w", ErrDivZero)
	}
	return normalise(r.Den(), r.num)
}

// MulInt returns r * n.
func (r Rat) MulInt(n int64) (Rat, error) { return r.Mul(FromInt(n)) }

// Floor returns the largest integer <= r.
func (r Rat) Floor() int64 { return floorDiv(r.num, r.Den()) }

// Ceil returns the smallest integer >= r.
func (r Rat) Ceil() int64 {
	d := r.Den()
	q := floorDiv(r.num, d)
	if mod(r.num, d) != 0 {
		q++
	}
	return q
}

const minInt64 = -1 << 63

func normalise(num, den int64) (Rat, error) {
	if den == 0 {
		return Rat{}, ErrDivZero
	}
	if num == 0 {
		return Rat{num: 0, den: 1}, nil
	}
	if den < 0 {
		if num == minInt64 || den == minInt64 {
			return Rat{}, ErrOverflow
		}
		num, den = -num, -den
	}
	g := GCD(abs(num), den)
	return Rat{num: num / g, den: den / g}, nil
}

func abs(x int64) int64 {
	if x < 0 {
		if x == minInt64 {
			// |minInt64| overflows; but gcd with minInt64 only appears via
			// normalise, which rejects it above. Guard anyway.
			return 1 << 62 // unreachable in practice; see normalise
		}
		return -x
	}
	return x
}

// GCD returns the greatest common divisor of |a| and |b|. GCD(0, 0) == 0.
func GCD(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of |a| and |b|, or an error when the
// result overflows int64. LCM(0, x) == 0.
func LCM(a, b int64) (int64, error) {
	if a == 0 || b == 0 {
		return 0, nil
	}
	g := GCD(a, b)
	return mulCheck(a/g, b)
}

// mulCheck returns a*b or ErrOverflow.
func mulCheck(a, b int64) (int64, error) {
	if a == 0 || b == 0 {
		return 0, nil
	}
	p := a * b
	if p/b != a || (a == minInt64 && b == -1) || (b == minInt64 && a == -1) {
		return 0, ErrOverflow
	}
	return p, nil
}

// addCheck returns a+b or ErrOverflow.
func addCheck(a, b int64) (int64, error) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, ErrOverflow
	}
	return s, nil
}

// AddChecked returns a+b and true, or false when the sum overflows
// int64. It is the overflow-safe helper for iteration-length and
// time-stamp accounting on adversarial graphs.
func AddChecked(a, b int64) (int64, bool) {
	s, err := addCheck(a, b)
	return s, err == nil
}

// MulChecked returns a*b and true, or false when the product overflows
// int64.
func MulChecked(a, b int64) (int64, bool) {
	p, err := mulCheck(a, b)
	return p, err == nil
}

// floorDiv returns floor(a/b) for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// mod returns a - floorDiv(a,b)*b, always in [0, b) for b > 0.
func mod(a, b int64) int64 {
	m := a % b
	if m != 0 && (m < 0) != (b < 0) {
		m += b
	}
	return m
}

// FloorDiv returns floor(a/b) for b != 0 (Euclidean-style toward -inf).
func FloorDiv(a, b int64) int64 { return floorDiv(a, b) }

// Mod returns the non-negative remainder a mod b for b > 0.
func Mod(a, b int64) int64 { return mod(a, b) }
