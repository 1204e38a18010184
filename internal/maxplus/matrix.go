package maxplus

import (
	"fmt"
	"strings"
)

// Matrix is a dense square max-plus matrix. Apply follows the usual
// max-plus convention: (A⊗x)[i] = max_j (A[i][j] + x[j]), i.e. row i lists
// the dependencies of output component i on the input components.
//
// The DAC'09 paper writes the transposed form t'_k = max_j (g_{j,k} + t_j);
// the conversion code in internal/core stores g_{j,k} at At(k, j).
type Matrix struct {
	n    int
	rows []Vec
}

// NewMatrix returns an n×n matrix with all entries −∞. The rows share
// one backing array.
func NewMatrix(n int) *Matrix {
	m := &Matrix{n: n, rows: make([]Vec, n)}
	all := NewVec(n * n)
	for i := range m.rows {
		m.rows[i] = all[i*n : (i+1)*n : (i+1)*n]
	}
	return m
}

// Identity returns the n×n max-plus identity: 0 on the diagonal, −∞
// elsewhere.
func Identity(n int) *Matrix {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		m.rows[i][i] = 0
	}
	return m
}

// Size returns the dimension n of the matrix.
func (m *Matrix) Size() int { return m.n }

// At returns entry (i, j).
func (m *Matrix) At(i, j int) T { return m.rows[i][j] }

// Set assigns entry (i, j).
func (m *Matrix) Set(i, j int, v T) { m.rows[i][j] = v }

// Row returns row i as a vector; the caller must not modify it.
func (m *Matrix) Row(i int) Vec { return m.rows[i] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{n: m.n, rows: make([]Vec, m.n)}
	for i, r := range m.rows {
		c.rows[i] = r.Clone()
	}
	return c
}

// Equal reports whether m and o have identical dimensions and entries.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.n != o.n {
		return false
	}
	for i := range m.rows {
		if !m.rows[i].Equal(o.rows[i]) {
			return false
		}
	}
	return true
}

// Apply returns A⊗x.
func (m *Matrix) Apply(x Vec) Vec {
	if len(x) != m.n {
		panic(fmt.Sprintf("maxplus: Apply: matrix %d×%d, vector length %d", m.n, m.n, len(x)))
	}
	y := NewVec(m.n)
	for i := 0; i < m.n; i++ {
		row := m.rows[i]
		best := NegInf
		for j := 0; j < m.n; j++ {
			if row[j] == NegInf || x[j] == NegInf {
				continue
			}
			if s := T(int64(row[j]) + int64(x[j])); s > best {
				best = s
			}
		}
		y[i] = best
	}
	return y
}

// Mul returns the max-plus product A⊗B.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.n != o.n {
		panic(fmt.Sprintf("maxplus: Mul: dimensions %d and %d", m.n, o.n))
	}
	p := NewMatrix(m.n)
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			best := NegInf
			for k := 0; k < m.n; k++ {
				a := m.rows[i][k]
				b := o.rows[k][j]
				if a == NegInf || b == NegInf {
					continue
				}
				if s := T(int64(a) + int64(b)); s > best {
					best = s
				}
			}
			p.rows[i][j] = best
		}
	}
	return p
}

// Permute returns the matrix conjugated by the permutation perm, where
// perm[i] is the new index of old index i: Permute(P)[perm[i]][perm[j]] =
// m[i][j]. It relabels the coordinate system of both the domain and the
// codomain at once, so Apply in the new coordinates agrees with Apply in
// the old ones. perm must be a permutation of 0..n-1; Permute panics
// otherwise.
func (m *Matrix) Permute(perm []int) *Matrix {
	if len(perm) != m.n {
		panic(fmt.Sprintf("maxplus: Permute: matrix %d×%d, permutation length %d", m.n, m.n, len(perm)))
	}
	seen := make([]bool, m.n)
	for _, p := range perm {
		if p < 0 || p >= m.n || seen[p] {
			panic(fmt.Sprintf("maxplus: Permute: not a permutation of 0..%d", m.n-1))
		}
		seen[p] = true
	}
	out := NewMatrix(m.n)
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			out.rows[perm[i]][perm[j]] = m.rows[i][j]
		}
	}
	return out
}

// FiniteCount returns the number of finite entries of m; this is the number
// of matrix actors in the paper's Figure-4 HSDF construction.
func (m *Matrix) FiniteCount() int {
	c := 0
	for _, r := range m.rows {
		c += r.FiniteCount()
	}
	return c
}

// String renders the matrix row by row.
func (m *Matrix) String() string {
	var b strings.Builder
	for _, r := range m.rows {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}
