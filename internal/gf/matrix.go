package gf

import (
	"errors"
	"fmt"
	"math/rand"
)

// Matrix is a dense row-major matrix over GF(2^8).
type Matrix struct {
	Rows, Cols int
	Data       []byte // len == Rows*Cols
}

// ErrSingular is returned when a matrix that must be invertible is not.
var ErrSingular = errors.New("gf: matrix is singular")

// NewMatrix returns a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("gf: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]byte, rows*cols)}
}

// MatrixFromRows builds a matrix from row slices, copying the data.
func MatrixFromRows(rows [][]byte) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("gf: MatrixFromRows needs at least one non-empty row")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("gf: ragged rows")
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) byte { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v byte) { m.Data[r*m.Cols+c] = v }

// Row returns a view (not a copy) of row r.
func (m *Matrix) Row(r int) []byte { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Reshape resizes m to rows×cols, reusing its backing array when capacity
// allows. Contents after Reshape are unspecified; callers overwrite. It
// returns m for chaining.
func (m *Matrix) Reshape(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("gf: invalid matrix dimensions %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]byte, n)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	return m
}

// CopyFrom reshapes m to o's dimensions and copies its contents.
func (m *Matrix) CopyFrom(o *Matrix) *Matrix {
	m.Reshape(o.Rows, o.Cols)
	copy(m.Data, o.Data)
	return m
}

// Equal reports whether two matrices have identical shape and contents.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i := range m.Data {
		if m.Data[i] != o.Data[i] {
			return false
		}
	}
	return true
}

// Mul returns m * o.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	return m.MulInto(o, NewMatrix(m.Rows, o.Cols))
}

// MulInto computes m * o into dst, reshaping dst as needed (dst must not
// alias m or o). It allocates only if dst's backing array is too small.
func (m *Matrix) MulInto(o, dst *Matrix) *Matrix {
	if m.Cols != o.Rows {
		panic(fmt.Sprintf("gf: dimension mismatch %dx%d * %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	dst.Reshape(m.Rows, o.Cols)
	clear(dst.Data)
	for i := 0; i < m.Rows; i++ {
		mi := m.Row(i)
		oi := dst.Row(i)
		for k, a := range mi {
			if a != 0 {
				MulSlice(a, o.Row(k), oi)
			}
		}
	}
	return dst
}

// MulVec returns m * v where v is a column vector (len == m.Cols).
func (m *Matrix) MulVec(v []byte) []byte {
	out := make([]byte, m.Rows)
	m.MulVecInto(v, out)
	return out
}

// MulVecInto computes m * v into dst (len(dst) == m.Rows), applying each
// coefficient row through the multiplication tables. dst must not alias v.
func (m *Matrix) MulVecInto(v, dst []byte) {
	if len(v) != m.Cols {
		panic("gf: MulVecInto dimension mismatch")
	}
	if len(dst) != m.Rows {
		panic("gf: MulVecInto bad destination length")
	}
	for i := 0; i < m.Rows; i++ {
		var acc byte
		for j, a := range m.Row(i) {
			acc ^= mulTable[a][v[j]]
		}
		dst[i] = acc
	}
}

// MulBlocks treats blocks as a column vector of equal-length byte blocks and
// returns m * blocks: out[i] = XOR_j m[i][j]*blocks[j]. This is the encode
// primitive of information slicing (paper Eq. 3): each output block is one
// "information slice" payload.
func (m *Matrix) MulBlocks(blocks [][]byte) [][]byte {
	if len(blocks) != m.Cols {
		panic("gf: MulBlocks dimension mismatch")
	}
	bl := len(blocks[0])
	for _, b := range blocks {
		if len(b) != bl {
			panic("gf: MulBlocks ragged blocks")
		}
	}
	out := make([][]byte, m.Rows)
	for i := range out {
		out[i] = make([]byte, bl)
	}
	m.MulBlocksInto(blocks, out)
	return out
}

// MulBlocksInto is MulBlocks with caller-provided destination blocks: each
// out[i] must already have the block length. The first non-zero coefficient
// of a row assigns (no need to pre-zero out), the rest accumulate. out must
// not alias blocks.
func (m *Matrix) MulBlocksInto(blocks, out [][]byte) {
	if len(blocks) != m.Cols {
		panic("gf: MulBlocksInto dimension mismatch")
	}
	if len(out) != m.Rows {
		panic("gf: MulBlocksInto bad destination count")
	}
	bl := len(blocks[0])
	for _, b := range blocks {
		if len(b) != bl {
			panic("gf: MulBlocksInto ragged blocks")
		}
	}
	for i := 0; i < m.Rows; i++ {
		o := out[i]
		if len(o) != bl {
			panic("gf: MulBlocksInto ragged destination")
		}
		row := m.Row(i)
		first := true
		j := 0
		// Fused columns: one pass over the destination applies four (or two)
		// coefficient columns — four table lookups, one store per byte —
		// instead of four read-modify-write passes.
		for ; j+4 <= len(row); j += 4 {
			if row[j]|row[j+1]|row[j+2]|row[j+3] == 0 {
				continue
			}
			mulSliceQuad(row[j], row[j+1], row[j+2], row[j+3],
				blocks[j], blocks[j+1], blocks[j+2], blocks[j+3], o, first)
			first = false
		}
		for ; j+2 <= len(row); j += 2 {
			if row[j]|row[j+1] == 0 {
				continue
			}
			mulSlicePair(row[j], row[j+1], blocks[j], blocks[j+1], o, first)
			first = false
		}
		if j < len(row) && row[j] != 0 {
			if first {
				MulSliceAssign(row[j], blocks[j], o)
				first = false
			} else {
				MulSlice(row[j], blocks[j], o)
			}
		}
		if first {
			clear(o)
		}
	}
}

// mulSliceQuad computes dst = c1*s1 ^ c2*s2 ^ c3*s3 ^ c4*s4 (assign) or
// dst ^= ... (not assign) in a single pass: the bulk through the fused
// four-source platform kernel (each destination vector is loaded and stored
// once per group of four coefficients), the tail through the scalar fused
// loop.
func mulSliceQuad(c1, c2, c3, c4 byte, s1, s2, s3, s4, dst []byte, assign bool) {
	s1 = s1[:len(dst)]
	s2 = s2[:len(dst)]
	s3 = s3[:len(dst)]
	s4 = s4[:len(dst)]
	n := mulSliceQuadFast(c1, c2, c3, c4, s1, s2, s3, s4, dst, assign)
	mulSliceQuadGeneric(c1, c2, c3, c4, s1[n:], s2[n:], s3[n:], s4[n:], dst[n:], assign)
}

// mulSliceQuadGeneric is the portable fused four-source kernel: four table
// lookups, one store per byte. mulTable[0] is all zeros and mulTable[1] the
// identity, so no per-coefficient special cases are needed.
func mulSliceQuadGeneric(c1, c2, c3, c4 byte, s1, s2, s3, s4, dst []byte, assign bool) {
	t1, t2, t3, t4 := &mulTable[c1], &mulTable[c2], &mulTable[c3], &mulTable[c4]
	s1 = s1[:len(dst)]
	s2 = s2[:len(dst)]
	s3 = s3[:len(dst)]
	s4 = s4[:len(dst)]
	if assign {
		for i := range dst {
			dst[i] = t1[s1[i]] ^ t2[s2[i]] ^ t3[s3[i]] ^ t4[s4[i]]
		}
	} else {
		for i := range dst {
			dst[i] ^= t1[s1[i]] ^ t2[s2[i]] ^ t3[s3[i]] ^ t4[s4[i]]
		}
	}
}

// mulSlicePair computes dst = c1*s1 ^ c2*s2 (assign) or dst ^= ... (not
// assign) in a single pass, bulk through the fused two-source platform
// kernel.
func mulSlicePair(c1, c2 byte, s1, s2, dst []byte, assign bool) {
	s1 = s1[:len(dst)]
	s2 = s2[:len(dst)]
	n := mulSlicePairFast(c1, c2, s1, s2, dst, assign)
	mulSlicePairGeneric(c1, c2, s1[n:], s2[n:], dst[n:], assign)
}

// mulSlicePairGeneric is the portable fused two-source kernel.
func mulSlicePairGeneric(c1, c2 byte, s1, s2, dst []byte, assign bool) {
	t1, t2 := &mulTable[c1], &mulTable[c2]
	s1 = s1[:len(dst)]
	s2 = s2[:len(dst)]
	if assign {
		for i := range dst {
			dst[i] = t1[s1[i]] ^ t2[s2[i]]
		}
	} else {
		for i := range dst {
			dst[i] ^= t1[s1[i]] ^ t2[s2[i]]
		}
	}
}

// Inverse returns the inverse of a square matrix via Gauss-Jordan
// elimination, or ErrSingular.
func (m *Matrix) Inverse() (*Matrix, error) {
	inv := NewMatrix(m.Rows, max(m.Cols, 1))
	if err := m.InverseInto(NewMatrix(m.Rows, max(m.Cols, 1)), inv); err != nil {
		return nil, err
	}
	return inv, nil
}

// InverseInto computes m's inverse into inv using work as the elimination
// workspace, reshaping both; neither may alias m. It allocates nothing when
// the workspaces have capacity, which is what lets decoders run inversion
// per round without garbage.
func (m *Matrix) InverseInto(work, inv *Matrix) error {
	if m.Rows != m.Cols {
		return fmt.Errorf("gf: cannot invert %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	work.CopyFrom(m)
	inv.Reshape(n, n)
	clear(inv.Data)
	for i := 0; i < n; i++ {
		inv.Data[i*n+i] = 1
	}
	for col := 0; col < n; col++ {
		// Find pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if work.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return ErrSingular
		}
		if pivot != col {
			swapRows(work, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Normalize pivot row.
		if p := work.At(col, col); p != 1 {
			ip := Inv(p)
			scaleRow(work, col, ip)
			scaleRow(inv, col, ip)
		}
		// Eliminate the column everywhere else.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			if c := work.At(r, col); c != 0 {
				addScaledRow(work, r, col, c)
				addScaledRow(inv, r, col, c)
			}
		}
	}
	return nil
}

// Rank returns the rank of the matrix.
func (m *Matrix) Rank() int {
	return m.RankInto(NewMatrix(m.Rows, m.Cols))
}

// RankInto computes the rank using work (reshaped, contents destroyed) as
// the elimination copy, allocating nothing when work has capacity.
func (m *Matrix) RankInto(work *Matrix) int {
	work.CopyFrom(m)
	return work.rankInPlace()
}

// rankInPlace eliminates m destructively and returns its rank.
func (work *Matrix) rankInPlace() int {
	rank := 0
	for col := 0; col < work.Cols && rank < work.Rows; col++ {
		pivot := -1
		for r := rank; r < work.Rows; r++ {
			if work.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		if pivot != rank {
			swapRows(work, pivot, rank)
		}
		ip := Inv(work.At(rank, col))
		scaleRow(work, rank, ip)
		for r := 0; r < work.Rows; r++ {
			if r == rank {
				continue
			}
			if c := work.At(r, col); c != 0 {
				addScaledRow(work, r, rank, c)
			}
		}
		rank++
	}
	return rank
}

// IsInvertible reports whether the matrix is square with full rank.
func (m *Matrix) IsInvertible() bool {
	return m.Rows == m.Cols && m.Rank() == m.Rows
}

// FillRandomInvertible overwrites dst (already shaped n×n) with a uniformly
// random invertible matrix, using work as the rank-check scratch. It is
// RandomInvertible without the per-call allocations.
func (dst *Matrix) FillRandomInvertible(work *Matrix, rng *rand.Rand) {
	if dst.Rows != dst.Cols {
		panic("gf: FillRandomInvertible needs a square matrix")
	}
	for {
		for i := range dst.Data {
			dst.Data[i] = byte(rng.Intn(Order))
		}
		if dst.RankInto(work) == dst.Rows {
			return
		}
	}
}

func swapRows(m *Matrix, a, b int) {
	ra, rb := m.Row(a), m.Row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

func scaleRow(m *Matrix, r int, c byte) {
	row := m.Row(r)
	for i := range row {
		row[i] = Mul(row[i], c)
	}
}

// addScaledRow does row[dst] ^= c * row[src].
func addScaledRow(m *Matrix, dst, src int, c byte) {
	MulSlice(c, m.Row(src), m.Row(dst))
}

// RandomInvertible returns a uniformly random invertible n×n matrix, sampling
// candidates until one has full rank (the paper's "random but invertible
// d×d matrix A", §4.1). The expected number of retries is tiny: a random
// matrix over GF(256) is singular with probability ≈ 1/255.
func RandomInvertible(n int, rng *rand.Rand) *Matrix {
	m := NewMatrix(n, n)
	m.FillRandomInvertible(NewMatrix(n, n), rng)
	return m
}

// Cauchy returns a rows×cols Cauchy matrix: element (i,j) = 1/(x_i + y_j)
// with all x_i, y_j distinct. Every square submatrix of a Cauchy matrix is
// invertible, so any `cols` rows of the result are linearly independent —
// exactly the property the paper requires of the redundant d'×d matrix A'
// (§4.4b). Requires rows+cols <= 256.
func Cauchy(rows, cols int) *Matrix {
	if rows+cols > Order {
		panic("gf: Cauchy matrix needs rows+cols <= 256")
	}
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		xi := byte(i)
		for j := 0; j < cols; j++ {
			yj := byte(rows + j)
			m.Set(i, j, Inv(Add(xi, yj)))
		}
	}
	return m
}

// SubmatrixRows returns a new matrix made of the given rows, in order.
func (m *Matrix) SubmatrixRows(rows []int) *Matrix {
	out := NewMatrix(len(rows), m.Cols)
	for i, r := range rows {
		copy(out.Row(i), m.Row(r))
	}
	return out
}
