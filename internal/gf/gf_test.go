package gf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddIsXor(t *testing.T) {
	for a := 0; a < 256; a += 7 {
		for b := 0; b < 256; b += 5 {
			if Add(byte(a), byte(b)) != byte(a)^byte(b) {
				t.Fatalf("Add(%d,%d) != xor", a, b)
			}
		}
	}
}

func TestMulMatchesSlowReference(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			got, want := Mul(byte(a), byte(b)), MulSlow(byte(a), byte(b))
			if got != want {
				t.Fatalf("Mul(%d,%d)=%d want %d", a, b, got, want)
			}
		}
	}
}

func TestMulCommutativeAssociativeDistributive(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(func(a, b, c byte) bool {
		if Mul(a, b) != Mul(b, a) {
			return false
		}
		if Mul(Mul(a, b), c) != Mul(a, Mul(b, c)) {
			return false
		}
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestInvAndDiv(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if Mul(byte(a), inv) != 1 {
			t.Fatalf("Inv(%d) wrong", a)
		}
		for b := 1; b < 256; b += 17 {
			q := Div(byte(a), byte(b))
			if Mul(q, byte(b)) != byte(a) {
				t.Fatalf("Div(%d,%d) wrong", a, b)
			}
		}
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Div(3, 0)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Inv(0)
}

func TestExpGeneratorCycle(t *testing.T) {
	seen := make(map[byte]bool)
	for i := 0; i < 255; i++ {
		e := Exp(i)
		if seen[e] {
			t.Fatalf("generator repeats at %d", i)
		}
		seen[e] = true
	}
	if len(seen) != 255 {
		t.Fatalf("generator does not cover field: %d", len(seen))
	}
	if Exp(0) != 1 {
		t.Fatal("g^0 != 1")
	}
}

func TestMulSlice(t *testing.T) {
	src := []byte{1, 2, 3, 0, 255}
	dst := []byte{9, 9, 9, 9, 9}
	want := make([]byte, len(src))
	for i := range src {
		want[i] = dst[i] ^ Mul(7, src[i])
	}
	MulSlice(7, src, dst)
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("MulSlice mismatch at %d", i)
		}
	}
	// c=1 is plain xor; c=0 is a no-op.
	d2 := []byte{1, 1, 1, 1, 1}
	MulSlice(0, src, d2)
	for _, v := range d2 {
		if v != 1 {
			t.Fatal("MulSlice(0) modified dst")
		}
	}
	MulSlice(1, src, d2)
	for i := range d2 {
		if d2[i] != 1^src[i] {
			t.Fatal("MulSlice(1) not xor")
		}
	}
}

func TestMulSliceAssign(t *testing.T) {
	src := []byte{0, 1, 2, 200}
	dst := make([]byte, 4)
	MulSliceAssign(5, src, dst)
	for i := range src {
		if dst[i] != Mul(5, src[i]) {
			t.Fatalf("assign mismatch at %d", i)
		}
	}
	MulSliceAssign(0, src, dst)
	for _, v := range dst {
		if v != 0 {
			t.Fatal("assign c=0 should zero dst")
		}
	}
}

func TestMatrixIdentityMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := RandomInvertible(5, rng)
	if !Identity(5).Mul(m).Equal(m) || !m.Mul(Identity(5)).Equal(m) {
		t.Fatal("identity multiplication broken")
	}
}

func TestMatrixInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 1; n <= 12; n++ {
		m := RandomInvertible(n, rng)
		inv, err := m.Inverse()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !m.Mul(inv).Equal(Identity(n)) {
			t.Fatalf("n=%d: m*inv != I", n)
		}
		if !inv.Mul(m).Equal(Identity(n)) {
			t.Fatalf("n=%d: inv*m != I", n)
		}
	}
}

func TestSingularMatrixInverse(t *testing.T) {
	m := NewMatrix(3, 3) // all zero
	if _, err := m.Inverse(); err != ErrSingular {
		t.Fatalf("want ErrSingular, got %v", err)
	}
	// Duplicate rows.
	m2 := MatrixFromRows([][]byte{{1, 2, 3}, {1, 2, 3}, {4, 5, 6}})
	if _, err := m2.Inverse(); err != ErrSingular {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestRank(t *testing.T) {
	if got := Identity(4).Rank(); got != 4 {
		t.Fatalf("identity rank=%d", got)
	}
	m := MatrixFromRows([][]byte{{1, 2, 3}, {2, 4, 6}, {0, 0, 1}})
	// Row 2 = 2*row 1 in GF(2^8)? 2*1=2, 2*2=4, 2*3=6 — yes, dependent.
	if got := m.Rank(); got != 2 {
		t.Fatalf("rank=%d want 2", got)
	}
	if m.IsInvertible() {
		t.Fatal("singular matrix reported invertible")
	}
}

func TestMulVecAgainstMulBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := RandomInvertible(4, rng)
	v := []byte{10, 20, 30, 40}
	blocks := make([][]byte, 4)
	for i := range blocks {
		blocks[i] = []byte{v[i]}
	}
	mv := m.MulVec(v)
	mb := m.MulBlocks(blocks)
	for i := range mv {
		if mb[i][0] != mv[i] {
			t.Fatalf("MulBlocks disagrees with MulVec at %d", i)
		}
	}
}

func TestMulBlocksRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for n := 2; n <= 8; n++ {
		m := RandomInvertible(n, rng)
		inv, err := m.Inverse()
		if err != nil {
			t.Fatal(err)
		}
		blocks := make([][]byte, n)
		for i := range blocks {
			blocks[i] = make([]byte, 64)
			rng.Read(blocks[i])
		}
		enc := m.MulBlocks(blocks)
		dec := inv.MulBlocks(enc)
		for i := range blocks {
			for j := range blocks[i] {
				if dec[i][j] != blocks[i][j] {
					t.Fatalf("n=%d round trip failed at block %d byte %d", n, i, j)
				}
			}
		}
	}
}

func TestCauchyAnySubmatrixInvertible(t *testing.T) {
	const rows, cols = 7, 3
	m := Cauchy(rows, cols)
	// Exhaustively check every cols-row subset is invertible.
	var rec func(start int, pick []int)
	rec = func(start int, pick []int) {
		if len(pick) == cols {
			sub := m.SubmatrixRows(pick)
			if !sub.IsInvertible() {
				t.Fatalf("Cauchy submatrix %v singular", pick)
			}
			return
		}
		for i := start; i < rows; i++ {
			rec(i+1, append(pick, i))
		}
	}
	rec(0, nil)
}

// The encoder's coefficient matrix is a Cauchy matrix times a random
// invertible one: right multiplication by an invertible matrix preserves
// submatrix ranks, so any d of the d' rows still decode.
func TestRandomizedCauchyAnySubsetDecodes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		rows := 3 + rng.Intn(6)
		cols := 2 + rng.Intn(rows-1)
		if cols > rows {
			cols = rows
		}
		m := Cauchy(rows, cols).Mul(RandomInvertible(cols, rng))
		// Random subset of cols rows must be invertible.
		perm := rng.Perm(rows)[:cols]
		if !m.SubmatrixRows(perm).IsInvertible() {
			t.Fatalf("trial %d: MDS subset %v singular (rows=%d cols=%d)", trial, perm, rows, cols)
		}
	}
}

func TestSubmatrixRows(t *testing.T) {
	m := MatrixFromRows([][]byte{{1, 2}, {3, 4}, {5, 6}})
	s := m.SubmatrixRows([]int{2, 0})
	if s.At(0, 0) != 5 || s.At(1, 1) != 2 {
		t.Fatal("SubmatrixRows wrong content")
	}
}

// Property: inverse of inverse is the original matrix.
func TestInverseInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(9)
		m := RandomInvertible(n, rng)
		inv, err := m.Inverse()
		if err != nil {
			t.Fatal(err)
		}
		back, err := inv.Inverse()
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(m) {
			t.Fatalf("trial %d: (m^-1)^-1 != m", trial)
		}
	}
}

func BenchmarkMulTable(b *testing.B) {
	var acc byte
	for i := 0; i < b.N; i++ {
		acc ^= Mul(byte(i), byte(i>>8))
	}
	_ = acc
}

func BenchmarkMulShiftAdd(b *testing.B) {
	var acc byte
	for i := 0; i < b.N; i++ {
		acc ^= MulSlow(byte(i), byte(i>>8))
	}
	_ = acc
}

func BenchmarkMulSlice1500(b *testing.B) {
	src := make([]byte, 1500)
	dst := make([]byte, 1500)
	rand.New(rand.NewSource(1)).Read(src)
	b.SetBytes(1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulSlice(0xb7, src, dst)
	}
}

// Ablation (DESIGN.md): deterministic Cauchy MDS construction vs sampling
// random matrices until one is invertible. Cauchy is O(d'·d) with no
// retries; random sampling needs a rank check per candidate.
func BenchmarkAblationMDSConstruction(b *testing.B) {
	b.Run("cauchy-7x3", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			Cauchy(7, 3).Mul(RandomInvertible(3, rng))
		}
	})
	b.Run("random-retry-3x3", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			RandomInvertible(3, rng)
		}
	})
}

func BenchmarkMatrixInverse8(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := RandomInvertible(8, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Inverse(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table-driven kernel properties ------------------------------------------

// The table kernels (MulSlice, MulSliceAssign, MulVecInto, MulBlocksInto)
// must match the scalar reference Mul byte-for-byte on arbitrary inputs,
// including the c==0 and c==1 special paths and lengths that exercise the
// word-wide and unrolled tails.
func TestMulTableMatchesMul(t *testing.T) {
	for c := 0; c < 256; c++ {
		mt := MulTable(byte(c))
		for x := 0; x < 256; x++ {
			if mt[x] != Mul(byte(c), byte(x)) {
				t.Fatalf("MulTable(%d)[%d] = %d want %d", c, x, mt[x], Mul(byte(c), byte(x)))
			}
		}
	}
}

func TestMulSlicePropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	lengths := []int{0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 63, 100, 1501}
	coeffs := []byte{0, 1, 2, 0x53, 0xff}
	for trial := 0; trial < 50; trial++ {
		n := lengths[rng.Intn(len(lengths))]
		c := coeffs[rng.Intn(len(coeffs))]
		if trial >= len(coeffs)*len(lengths)/2 {
			c = byte(rng.Intn(256))
		}
		src := make([]byte, n)
		dst := make([]byte, n)
		rng.Read(src)
		rng.Read(dst)
		want := make([]byte, n)
		for i := range want {
			want[i] = dst[i] ^ Mul(c, src[i])
		}
		MulSlice(c, src, dst)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("MulSlice(c=%#x, len=%d) wrong at %d", c, n, i)
			}
		}
	}
}

func TestMulSliceAssignPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(300)
		c := byte(rng.Intn(256))
		if trial < 3 {
			c = byte(trial) // force 0, 1, 2
		}
		src := make([]byte, n)
		dst := make([]byte, n)
		rng.Read(src)
		rng.Read(dst)
		MulSliceAssign(c, src, dst)
		for i := range dst {
			if dst[i] != Mul(c, src[i]) {
				t.Fatalf("MulSliceAssign(c=%#x, len=%d) wrong at %d", c, n, i)
			}
		}
	}
}

func TestXorSliceOddLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 7, 8, 9, 16, 17, 255} {
		src := make([]byte, n)
		dst := make([]byte, n)
		rng.Read(src)
		rng.Read(dst)
		want := make([]byte, n)
		for i := range want {
			want[i] = src[i] ^ dst[i]
		}
		XorSlice(src, dst)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("XorSlice len=%d wrong at %d", n, i)
			}
		}
	}
}

func TestMulVecIntoMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 30; trial++ {
		rows := 1 + rng.Intn(10)
		cols := 1 + rng.Intn(10)
		m := NewMatrix(rows, cols)
		rng.Read(m.Data)
		v := make([]byte, cols)
		rng.Read(v)
		want := m.MulVec(v)
		got := make([]byte, rows)
		m.MulVecInto(v, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("MulVecInto disagrees with MulVec at %d", i)
			}
		}
	}
}

// MulBlocksInto must agree with a scalar-reference computation for matrices
// containing 0 and 1 coefficients (fused-kernel special rows) and odd block
// lengths (kernel tails).
func TestMulBlocksIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		rows := 1 + rng.Intn(9)
		cols := 1 + rng.Intn(9)
		bl := 1 + rng.Intn(130)
		m := NewMatrix(rows, cols)
		rng.Read(m.Data)
		// Sprinkle 0 and 1 coefficients to hit the skip/identity paths.
		for i := 0; i < rows*cols/3; i++ {
			m.Data[rng.Intn(len(m.Data))] = byte(rng.Intn(2))
		}
		if trial%7 == 0 {
			clear(m.Row(rng.Intn(rows))) // full zero row
		}
		blocks := make([][]byte, cols)
		for j := range blocks {
			blocks[j] = make([]byte, bl)
			rng.Read(blocks[j])
		}
		out := make([][]byte, rows)
		for i := range out {
			out[i] = make([]byte, bl)
			rng.Read(out[i]) // must be fully overwritten
		}
		m.MulBlocksInto(blocks, out)
		for i := 0; i < rows; i++ {
			for k := 0; k < bl; k++ {
				var want byte
				for j := 0; j < cols; j++ {
					want ^= Mul(m.At(i, j), blocks[j][k])
				}
				if out[i][k] != want {
					t.Fatalf("trial %d: MulBlocksInto wrong at row %d byte %d", trial, i, k)
				}
			}
		}
	}
}

func TestInverseIntoMatchesInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	work := NewMatrix(1, 1)
	inv := NewMatrix(1, 1)
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(10)
		m := RandomInvertible(n, rng)
		want, err := m.Inverse()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.InverseInto(work, inv); err != nil {
			t.Fatal(err)
		}
		if !inv.Equal(want) {
			t.Fatalf("trial %d: InverseInto disagrees with Inverse", trial)
		}
	}
	// Singular input must be reported through the workspace path too.
	if err := NewMatrix(3, 3).InverseInto(work, inv); err != ErrSingular {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestRankIntoMatchesRank(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	work := NewMatrix(1, 1)
	for trial := 0; trial < 40; trial++ {
		rows := 1 + rng.Intn(8)
		cols := 1 + rng.Intn(8)
		m := NewMatrix(rows, cols)
		rng.Read(m.Data)
		if m.RankInto(work) != m.Rank() {
			t.Fatalf("trial %d: RankInto disagrees with Rank", trial)
		}
	}
}

func TestReshapeReusesBacking(t *testing.T) {
	m := NewMatrix(4, 4)
	data := &m.Data[0]
	m.Reshape(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("Reshape wrong shape: %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	if &m.Data[0] != data {
		t.Fatal("Reshape reallocated despite sufficient capacity")
	}
	m.Reshape(8, 8)
	if len(m.Data) != 64 {
		t.Fatal("Reshape failed to grow")
	}
}

func TestMulIntoMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	dst := NewMatrix(1, 1)
	for trial := 0; trial < 20; trial++ {
		a := NewMatrix(1+rng.Intn(6), 1+rng.Intn(6))
		b := NewMatrix(a.Cols, 1+rng.Intn(6))
		rng.Read(a.Data)
		rng.Read(b.Data)
		want := a.Mul(b)
		if !a.MulInto(b, dst).Equal(want) {
			t.Fatalf("trial %d: MulInto disagrees with Mul", trial)
		}
	}
}

func BenchmarkMulSliceXor1500(b *testing.B) {
	src := make([]byte, 1500)
	dst := make([]byte, 1500)
	rand.New(rand.NewSource(1)).Read(src)
	b.SetBytes(1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulSlice(1, src, dst)
	}
}
