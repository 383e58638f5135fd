package code

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"infoslicing/internal/gf"
)

func newEnc(t *testing.T, d, dp int, seed int64) *Encoder {
	t.Helper()
	e, err := NewEncoder(d, dp, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	msgs := [][]byte{
		[]byte("Let's meet at 5pm"),
		{},
		{0},
		bytes.Repeat([]byte{0xab}, 1500),
		[]byte("x"),
	}
	for d := 1; d <= 6; d++ {
		e := newEnc(t, d, d, int64(d))
		for _, msg := range msgs {
			slices, err := e.Encode(msg)
			if err != nil {
				t.Fatal(err)
			}
			if len(slices) != d {
				t.Fatalf("d=%d: got %d slices", d, len(slices))
			}
			got, err := Decode(d, slices)
			if err != nil {
				t.Fatalf("d=%d len=%d: %v", d, len(msg), err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatalf("d=%d: round trip mismatch", d)
			}
		}
	}
}

func TestRedundantDecodeFromAnySubset(t *testing.T) {
	const d, dp = 3, 7
	e := newEnc(t, d, dp, 99)
	msg := []byte("redundant slicing survives churn")
	slices, err := e.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	// Every subset of size d must decode.
	idx := []int{0, 0, 0}
	for idx[0] = 0; idx[0] < dp; idx[0]++ {
		for idx[1] = idx[0] + 1; idx[1] < dp; idx[1]++ {
			for idx[2] = idx[1] + 1; idx[2] < dp; idx[2]++ {
				sub := []Slice{slices[idx[0]], slices[idx[1]], slices[idx[2]]}
				got, err := Decode(d, sub)
				if err != nil {
					t.Fatalf("subset %v: %v", idx, err)
				}
				if !bytes.Equal(got, msg) {
					t.Fatalf("subset %v: wrong message", idx)
				}
			}
		}
	}
}

func TestDecodeFailsWithTooFewSlices(t *testing.T) {
	e := newEnc(t, 4, 4, 5)
	slices, _ := e.Encode([]byte("secret"))
	if _, err := Decode(4, slices[:3]); err == nil {
		t.Fatal("decoding with d-1 slices should fail")
	}
	if Decodable(4, slices[:3]) {
		t.Fatal("d-1 slices reported decodable")
	}
	if !Decodable(4, slices) {
		t.Fatal("full set not decodable")
	}
}

func TestDecodeToleratesDuplicates(t *testing.T) {
	e := newEnc(t, 3, 3, 6)
	msg := []byte("dup tolerant")
	slices, _ := e.Encode(msg)
	withDup := []Slice{slices[0], slices[0], slices[1], slices[0], slices[2]}
	got, err := Decode(3, withDup)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("mismatch with duplicates present")
	}
}

func TestDecodeDimensionChecks(t *testing.T) {
	s1 := Slice{Coeff: []byte{1, 2}, Payload: []byte{1}}
	bad := Slice{Coeff: []byte{1}, Payload: []byte{1}}
	if _, err := Decode(2, []Slice{s1, bad}); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("coefficient length mismatch: got %v, want ErrInconsistent", err)
	}
	badPay := Slice{Coeff: []byte{3, 4}, Payload: []byte{1, 2}}
	if _, err := Decode(2, []Slice{s1, badPay}); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("payload length mismatch: got %v, want ErrInconsistent", err)
	}
}

func TestNewEncoderValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct{ d, dp int }{{0, 1}, {3, 2}, {-1, -1}, {200, 250}}
	for _, c := range cases {
		if _, err := NewEncoder(c.d, c.dp, rng); err == nil {
			t.Fatalf("d=%d dp=%d should be rejected", c.d, c.dp)
		}
	}
	if _, err := NewEncoder(2, 4, nil); err == nil {
		t.Fatal("nil rng should be rejected")
	}
	if _, err := NewEncoder(2, 6, rng); err != nil {
		t.Fatal(err)
	}
}

func TestChopUnchopProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	err := quick.Check(func(msg []byte, dRaw uint8) bool {
		d := int(dRaw%8) + 1
		got, err := Unchop(Chop(msg, d))
		return err == nil && bytes.Equal(got, msg)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cfg := &quick.Config{MaxCount: 150, Rand: rng}
	err := quick.Check(func(msg []byte, dRaw, extraRaw uint8) bool {
		d := int(dRaw%6) + 1
		dp := d + int(extraRaw%4)
		e, err := NewEncoder(d, dp, rng)
		if err != nil {
			return false
		}
		slices, err := e.Encode(msg)
		if err != nil {
			return false
		}
		// Shuffle, decode from a random d-subset.
		rng.Shuffle(len(slices), func(i, j int) { slices[i], slices[j] = slices[j], slices[i] })
		got, err := Decode(d, slices)
		return err == nil && bytes.Equal(got, msg)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecombineRegeneratesRedundancy(t *testing.T) {
	const d, dp = 2, 3
	rng := rand.New(rand.NewSource(31))
	e, _ := NewEncoder(d, dp, rng)
	msg := []byte("network coding regenerates lost redundancy at relays")
	slices, _ := e.Encode(msg)

	// Lose one slice (a failed parent), keep d=2 — enough to decode but no
	// spare. A relay recombines the survivors back into dp=3 fresh slices.
	survivors := slices[:2]
	fresh, err := RecombineInto(nil, survivors, dp, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != dp {
		t.Fatalf("got %d fresh slices", len(fresh))
	}
	// Now lose ANY one of the fresh slices; decoding must still work with
	// high probability (random coefficients are independent w.h.p.).
	for drop := 0; drop < dp; drop++ {
		var sub []Slice
		for i, s := range fresh {
			if i != drop {
				sub = append(sub, s)
			}
		}
		got, err := Decode(d, sub)
		if err != nil {
			t.Fatalf("drop %d: %v", drop, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("drop %d: wrong message", drop)
		}
	}
}

func TestRecombineStaysInSpan(t *testing.T) {
	// Combinations of fewer than d independent slices must never become
	// decodable: rank cannot grow through recombination.
	const d = 4
	rng := rand.New(rand.NewSource(37))
	e, _ := NewEncoder(d, d, rng)
	slices, _ := e.Encode([]byte("span invariant"))
	partial := slices[:2] // rank 2
	fresh, err := RecombineInto(nil, partial, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := Rank(d, fresh); got > 2 {
		t.Fatalf("recombination increased rank to %d", got)
	}
	if Decodable(d, fresh) {
		t.Fatal("recombined partial slices decodable — pi-security violated")
	}
}

func TestRecombineInputValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := RecombineInto(nil, nil, 3, rng); err == nil {
		t.Fatal("empty input should error")
	}
	s := []Slice{
		{Coeff: []byte{1, 2}, Payload: []byte{1, 2, 3}},
		{Coeff: []byte{1}, Payload: []byte{1, 2, 3}},
	}
	if _, err := RecombineInto(nil, s, 1, rng); err == nil {
		t.Fatal("ragged coeffs should error")
	}
}

func TestRankHelper(t *testing.T) {
	if Rank(3, nil) != 0 {
		t.Fatal("rank of no slices should be 0")
	}
	s := Slice{Coeff: []byte{1, 0, 0}, Payload: []byte{5}}
	if Rank(3, []Slice{s, s}) != 1 {
		t.Fatal("duplicate slices should have rank 1")
	}
	if Rank(3, []Slice{{Coeff: []byte{1}, Payload: nil}}) != 0 {
		t.Fatal("wrong-dimension slices should have rank 0")
	}
}

// piSecure checks the operational meaning of Lemma 5.1 on a small message
// space: given d-1 slices, every value of the first message byte remains
// consistent with the observation (there exists a completion), so the
// conditional distribution over that byte is unchanged.
func TestPiSecurityWitness(t *testing.T) {
	const d = 2
	rng := rand.New(rand.NewSource(41))
	a := gf.RandomInvertible(d, rng)
	// Message vector (m0, m1), observe only slice 0: y = a00*m0 + a01*m1.
	// For every candidate value v of m0, show some m1 explains y.
	m := []byte{0x42, 0x99}
	y := gf.Add(gf.Mul(a.At(0, 0), m[0]), gf.Mul(a.At(0, 1), m[1]))
	if a.At(0, 1) == 0 {
		t.Skip("degenerate row; rerun with different seed")
	}
	for v := 0; v < 256; v++ {
		// Solve a01*m1 = y - a00*v.
		rhs := gf.Add(y, gf.Mul(a.At(0, 0), byte(v)))
		m1 := gf.Div(rhs, a.At(0, 1))
		check := gf.Add(gf.Mul(a.At(0, 0), byte(v)), gf.Mul(a.At(0, 1), m1))
		if check != y {
			t.Fatalf("no completion for m0=%d — pi-security broken", v)
		}
	}
}

func TestITEncodeDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for d := 2; d <= 5; d++ {
		msg := []byte("information theoretic mode pays d-fold space")
		groups, err := ITEncode(msg, d, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(groups) != d {
			t.Fatalf("d=%d: %d groups", d, len(groups))
		}
		for _, g := range groups {
			if len(g.Slices) != d {
				t.Fatalf("group has %d slices", len(g.Slices))
			}
		}
		got, err := ITDecode(groups, d)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("d=%d: IT round trip mismatch", d)
		}
	}
}

func TestITEncodeRejectsD1(t *testing.T) {
	if _, err := ITEncode([]byte("x"), 1, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("d=1 should be rejected in IT mode")
	}
}

func TestITDecodeWrongGroupCount(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	groups, _ := ITEncode([]byte("abc"), 3, rng)
	if _, err := ITDecode(groups[:2], 3); err == nil {
		t.Fatal("missing group should fail")
	}
}

// Information-theoretic mode: with one slice missing from a group, every
// candidate first block is consistent — statistical secrecy, not just
// pi-security of the mixed blocks.
func TestITPartialGroupRevealsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const d = 2
	groups, err := ITEncode([]byte{0x7f}, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	g := groups[0]
	// With only slice 0 of the group, rank is 1 < d: not decodable.
	if Decodable(d, g.Slices[:1]) {
		t.Fatal("single IT slice decodable")
	}
}

func TestSliceClone(t *testing.T) {
	s := Slice{Coeff: []byte{1, 2}, Payload: []byte{3, 4}}
	c := s.Clone()
	c.Coeff[0] = 99
	c.Payload[0] = 99
	if s.Coeff[0] == 99 || s.Payload[0] == 99 {
		t.Fatal("Clone aliases original")
	}
}

func BenchmarkEncode1500(b *testing.B) {
	for _, d := range []int{2, 3, 5, 8} {
		b.Run(benchName("d", d), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(d)))
			e, _ := NewEncoder(d, d, rng)
			msg := make([]byte, 1500)
			rng.Read(msg)
			b.ReportAllocs()
			b.SetBytes(1500)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Encode(msg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecode1500(b *testing.B) {
	for _, d := range []int{2, 3, 5, 8} {
		b.Run(benchName("d", d), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(d)))
			e, _ := NewEncoder(d, d, rng)
			msg := make([]byte, 1500)
			rng.Read(msg)
			slices, _ := e.Encode(msg)
			b.ReportAllocs()
			b.SetBytes(1500)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(d, slices); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(k string, v int) string {
	return k + "=" + string(rune('0'+v))
}

// --- Zero-copy pipeline APIs -------------------------------------------------

// EncodeInto must reuse the destination's backing arrays across rounds and
// still produce independently decodable output each time.
func TestEncodeIntoReusesBuffers(t *testing.T) {
	e := newEnc(t, 3, 5, 77)
	msgA := bytes.Repeat([]byte{0xa1}, 900)
	msgB := bytes.Repeat([]byte{0xb2}, 900)

	dst, err := e.EncodeInto(msgA, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotA, err := Decode(3, dst)
	if err != nil || !bytes.Equal(gotA, msgA) {
		t.Fatalf("first round decode failed: %v", err)
	}
	p0 := &dst[0].Payload[0]
	dst2, err := e.EncodeInto(msgB, dst)
	if err != nil {
		t.Fatal(err)
	}
	if &dst2[0].Payload[0] != p0 {
		t.Fatal("EncodeInto reallocated despite sufficient capacity")
	}
	gotB, err := Decode(3, dst2)
	if err != nil || !bytes.Equal(gotB, msgB) {
		t.Fatalf("second round decode failed: %v", err)
	}
}

// A shared Encoder must produce slices whose coefficients differ between
// messages (fresh randomness per call, the anonymity invariant).
func TestEncodeIntoFreshCoefficients(t *testing.T) {
	e := newEnc(t, 2, 2, 78)
	a, _ := e.Encode([]byte("one"))
	b, _ := e.Encode([]byte("two"))
	same := true
	for i := range a {
		if !bytes.Equal(a[i].Coeff, b[i].Coeff) {
			same = false
		}
	}
	if same {
		t.Fatal("two encodes drew identical transform matrices")
	}
}

func TestDecoderReuse(t *testing.T) {
	dec, err := NewDecoder(3)
	if err != nil {
		t.Fatal(err)
	}
	e := newEnc(t, 3, 3, 79)
	for round := 0; round < 5; round++ {
		msg := bytes.Repeat([]byte{byte(round)}, 333+round)
		slices, err := e.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(slices)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("round %d: mismatch", round)
		}
	}
	// Re-target at a different d.
	if err := dec.Reset(4); err != nil {
		t.Fatal(err)
	}
	e4 := newEnc(t, 4, 4, 80)
	msg := []byte("retargeted decoder")
	slices, _ := e4.Encode(msg)
	got, err := dec.Decode(slices)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("after Reset: %v", err)
	}
}

// Decode results must be caller-owned: decoding a second message must not
// mutate the bytes returned for the first.
func TestDecodeReturnsOwnedBytes(t *testing.T) {
	e := newEnc(t, 2, 2, 81)
	msgA := bytes.Repeat([]byte{0x11}, 500)
	msgB := bytes.Repeat([]byte{0x22}, 500)
	sa, _ := e.Encode(msgA)
	sb, _ := e.Encode(msgB)
	gotA, err := Decode(2, sa)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(2, sb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotA, msgA) {
		t.Fatal("second Decode clobbered the first result")
	}
}

// DecodeTo appends exactly what Decode returns behind whatever dst holds,
// whether dst has room or must grow, for every d and for messages whose
// length prefix straddles several blocks; a failed decode leaves dst alone.
func TestDecodeToAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	for d := 1; d <= 8; d++ {
		e := newEnc(t, d, d+1, int64(86+d))
		dec, _ := NewDecoder(d)
		for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 9, 31, 100, 1500} {
			msg := make([]byte, n)
			rng.Read(msg)
			slices, _ := e.Encode(msg)
			want, err := Decode(d, slices[1:])
			if err != nil || !bytes.Equal(want, msg) {
				t.Fatalf("d=%d n=%d: Decode: %v", d, n, err)
			}
			prefix := make([]byte, rng.Intn(8))
			rng.Read(prefix)
			dst := make([]byte, len(prefix), len(prefix)+rng.Intn(2*n+8)) // room or not
			copy(dst, prefix)
			got, err := dec.DecodeTo(dst, slices[1:])
			if err != nil || !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], msg) {
				t.Fatalf("d=%d n=%d prefix %d: DecodeTo = %x, %v", d, n, len(prefix), got, err)
			}
		}
	}
	// A length prefix past the decoded bytes is an error, not a panic, and
	// dst comes back as it went in.
	bad := []Slice{{Coeff: []byte{1}, Payload: []byte{0, 0, 1, 0, 'x'}}}
	dst := []byte("kept")
	got, err := DecodeTo(1, dst[:4:4], bad)
	if err == nil || string(got) != "kept" || cap(got) != 4 {
		t.Fatalf("corrupt prefix: got %q (cap %d), err %v", got, cap(got), err)
	}
	if got, err := DecodeTo(1, dst, []Slice{{Coeff: []byte{1}, Payload: []byte{0, 0}}}); err == nil || string(got) != "kept" {
		t.Fatalf("blocks shorter than the prefix: got %q, err %v", got, err)
	}
}

func TestRecombineIntoReusesBuffers(t *testing.T) {
	const d = 2
	rng := rand.New(rand.NewSource(83))
	e, _ := NewEncoder(d, d, rng)
	msg := []byte("recombine into reuses buffers")
	slices, _ := e.Encode(msg)

	dst, err := RecombineInto(nil, slices, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(d, dst)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("first recombine decode: %v", err)
	}
	p0 := &dst[0].Payload[0]
	dst2, err := RecombineInto(dst, slices, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	if &dst2[0].Payload[0] != p0 {
		t.Fatal("RecombineInto reallocated despite capacity")
	}
	got2, err := Decode(d, dst2)
	if err != nil || !bytes.Equal(got2, msg) {
		t.Fatalf("second recombine decode: %v", err)
	}
}

// --- Allocation-regression benchmarks ---------------------------------------

// The steady-state data path — encode a round into reused slices, frame
// nothing, decode with a held Decoder — must stay allocation-light; these
// benchmarks report allocs/op so a future PR reintroducing per-round garbage
// shows up as a regression.
func BenchmarkEncodeIntoSteadyState(b *testing.B) {
	for _, d := range []int{2, 8} {
		b.Run(benchName("d", d), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(d)))
			e, _ := NewEncoder(d, d, rng)
			msg := make([]byte, 1500)
			rng.Read(msg)
			dst, _ := e.EncodeInto(msg, nil)
			b.SetBytes(1500)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				dst, err = e.EncodeInto(msg, dst)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecoderSteadyState(b *testing.B) {
	for _, d := range []int{2, 8} {
		b.Run(benchName("d", d), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(d)))
			e, _ := NewEncoder(d, d, rng)
			msg := make([]byte, 1500)
			rng.Read(msg)
			slices, _ := e.Encode(msg)
			dec, _ := NewDecoder(d)
			b.SetBytes(1500)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dec.DecodeBlocks(slices); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Regression: reusing a dst across messages of growing size must not let a
// slice grow() into its slab neighbor's region — overlapping rows corrupt
// the encoding before the CRC is computed, so nothing downstream catches it.
func TestEncodeIntoGrowingMessages(t *testing.T) {
	e := newEnc(t, 3, 3, 91)
	var dst []Slice
	for _, n := range []int{100, 300, 50, 2000} {
		msg := bytes.Repeat([]byte{byte(n)}, n)
		var err error
		dst, err = e.EncodeInto(msg, dst)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(3, dst)
		if err != nil {
			t.Fatalf("len=%d: %v", n, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("len=%d: round trip mismatch (overlapping slab views?)", n)
		}
	}
}
