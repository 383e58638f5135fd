package slcrypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math/rand"
	"testing"
)

// testRand adapts math/rand for deterministic key generation in tests.
func testRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestSealOpenRoundTrip(t *testing.T) {
	r := testRand(1)
	k, err := NewSymmetricKey(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range [][]byte{{}, []byte("a"), bytes.Repeat([]byte{0x5a}, 4096)} {
		sealed, err := k.Seal(r, msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := k.Open(sealed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("len=%d mismatch", len(msg))
		}
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	r := testRand(2)
	k, _ := NewSymmetricKey(r)
	sealed, _ := k.Seal(r, []byte("integrity matters"))
	for i := 0; i < len(sealed); i += 7 {
		bad := append([]byte(nil), sealed...)
		bad[i] ^= 1
		if _, err := k.Open(bad); err == nil {
			t.Fatalf("tamper at byte %d accepted", i)
		}
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	r := testRand(3)
	k1, _ := NewSymmetricKey(r)
	k2, _ := NewSymmetricKey(r)
	sealed, _ := k1.Seal(r, []byte("hello"))
	if _, err := k2.Open(sealed); err == nil {
		t.Fatal("wrong key accepted")
	}
}

func TestOpenRejectsShortInput(t *testing.T) {
	r := testRand(4)
	k, _ := NewSymmetricKey(r)
	if _, err := k.Open([]byte("short")); err == nil {
		t.Fatal("short input accepted")
	}
}

func TestSealProducesDistinctCiphertexts(t *testing.T) {
	r := testRand(5)
	k, _ := NewSymmetricKey(r)
	a, _ := k.Seal(r, []byte("same message"))
	b, _ := k.Seal(r, []byte("same message"))
	if bytes.Equal(a, b) {
		t.Fatal("IV reuse: identical ciphertexts")
	}
}

func TestIdentityWrapUnwrap(t *testing.T) {
	r := testRand(6)
	id, err := NewIdentity(r, 1024) // small key: test speed only
	if err != nil {
		t.Fatal(err)
	}
	k, _ := NewSymmetricKey(r)
	wrapped, err := WrapKey(r, id.Public(), k)
	if err != nil {
		t.Fatal(err)
	}
	got, err := id.UnwrapKey(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if got != k {
		t.Fatal("unwrapped key differs")
	}
}

func TestUnwrapWithWrongIdentityFails(t *testing.T) {
	r := testRand(7)
	id1, _ := NewIdentity(r, 1024)
	id2, _ := NewIdentity(r, 1024)
	k, _ := NewSymmetricKey(r)
	wrapped, _ := WrapKey(r, id1.Public(), k)
	if _, err := id2.UnwrapKey(wrapped); err == nil {
		t.Fatal("wrong identity unwrapped key")
	}
}

// referenceSeal is the sealing construction written out longhand: the AES
// block and a 16-byte-nonce GCM built per message, the IV read whole from r
// and, for a Sealer's n-th message, n written over its first 8 bytes. The
// wire bytes are pinned to it.
func referenceSeal(k SymmetricKey, r io.Reader, plaintext []byte, counter *uint64) []byte {
	block, _ := aes.NewCipher(k[:])
	aead, _ := cipher.NewGCMWithNonceSize(block, 16)
	iv := make([]byte, 16)
	io.ReadFull(r, iv)
	if counter != nil {
		binary.BigEndian.PutUint64(iv, *counter)
		*counter++
	}
	return aead.Seal(iv, iv, plaintext, nil)
}

// TestSealerWireBytesIdentical: one Sealer reused across many messages —
// appending behind a prefix, as the sender's frame buffer does — produces
// byte for byte what the per-message construction produced, and opens it.
func TestSealerWireBytesIdentical(t *testing.T) {
	k, _ := NewSymmetricKey(testRand(8))
	s := NewSealer(k)
	rNew, rRef := testRand(9), testRand(9)
	sizes := testRand(10)
	var count uint64
	for i := 0; i < 200; i++ {
		msg := make([]byte, sizes.Intn(3000))
		sizes.Read(msg)
		prefix := []byte{0xde, 0xad, byte(i)}
		got, err := s.SealTo(append([]byte(nil), prefix...), rNew, msg)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceSeal(k, rRef, msg, &count)
		if !bytes.Equal(got[:3], prefix) || !bytes.Equal(got[3:], want) {
			t.Fatalf("message %d (%d bytes): SealTo differs from the reference construction", i, len(msg))
		}
		if len(want) != SealedLen(len(msg)) {
			t.Fatalf("SealedLen(%d) = %d, sealed %d", len(msg), SealedLen(len(msg)), len(want))
		}
		if viaKey, _ := k.Seal(testRand(int64(100+i)), msg); !bytes.Equal(viaKey, referenceSeal(k, testRand(int64(100+i)), msg, nil)) {
			t.Fatalf("message %d: SymmetricKey.Seal differs from the reference construction", i)
		}
		pt, err := s.OpenTo(prefix[:1:1], want)
		if err != nil || pt[0] != prefix[0] || !bytes.Equal(pt[1:], msg) {
			t.Fatalf("message %d: OpenTo after prefix: err %v", i, err)
		}
		want[len(want)-1] ^= 1
		if _, err := s.OpenTo(nil, want); err != ErrAuth {
			t.Fatalf("message %d: tampered tag opened (err %v)", i, err)
		}
	}
}

// TestSealKnownAnswer pins the format to a vector computed by an independent
// AES-GCM implementation: key 00..0f, IV a0..af, a 56-byte plaintext.
func TestSealKnownAnswer(t *testing.T) {
	var k SymmetricKey
	iv := make([]byte, 16)
	for i := range k {
		k[i], iv[i] = byte(i), byte(0xa0+i)
	}
	pt := []byte("information slicing: anonymity using unreliable overlays")
	want, _ := hex.DecodeString("a0a1a2a3a4a5a6a7a8a9aaabacadaeaf" +
		"57373022c568b7217a0b5bf5763d0977b80c270cfeccd146226954b2f76aa92f" +
		"c8fa3521022bf21eda446c30827683d75373d437af416927" +
		"aa919648a2e6e4ab4090d79c33e636e9")
	got, err := k.Seal(bytes.NewReader(iv), pt)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Seal = %x (err %v), want %x", got, err, want)
	}
	if back, err := NewSealer(k).OpenTo(nil, want); err != nil || !bytes.Equal(back, pt) {
		t.Fatalf("OpenTo(vector) = %q, %v", back, err)
	}
}

// constReader returns the same byte forever: the worst r a caller can pass.
type constReader byte

func (c constReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(c)
	}
	return len(p), nil
}

// TestSealerIVsNeverRepeat: a Sealer's IVs stay distinct even when r returns
// the same bytes every time, so a broken RNG cannot make it reuse a GCM nonce.
func TestSealerIVsNeverRepeat(t *testing.T) {
	k, _ := NewSymmetricKey(testRand(13))
	s := NewSealer(k)
	seen := make(map[[16]byte]bool, 10000)
	var buf []byte
	for i := 0; i < 10000; i++ {
		buf, _ = s.SealTo(buf[:0], constReader(0x42), []byte("x"))
		iv := [16]byte(buf[:16])
		if seen[iv] {
			t.Fatalf("seal %d repeated IV %x", i, iv)
		}
		seen[iv] = true
	}
}

// FuzzOpen: arbitrary bytes never panic and never open; sealed for real they
// open to themselves, and flipping any one byte of the seal gives ErrAuth.
// The committed corpus holds no seal under the fuzz key: one that did would
// be a single mutation away from opening.
func FuzzOpen(f *testing.F) {
	var k SymmetricKey
	copy(k[:], "fuzz-open-key-16")
	s := NewSealer(k)
	f.Add([]byte{}, uint16(0), byte(1))
	f.Add(make([]byte, 31), uint16(31), byte(0x80))
	f.Add(make([]byte, 32), uint16(15), byte(0xff))
	f.Fuzz(func(t *testing.T, data []byte, at uint16, flip byte) {
		if pt, err := s.OpenTo(nil, data); err != ErrAuth {
			t.Fatalf("arbitrary %d bytes opened to %x (err %v)", len(data), pt, err)
		}
		sealed, err := s.SealTo(nil, constReader(flip), data)
		if err != nil {
			t.Fatal(err)
		}
		if pt, err := s.OpenTo(nil, sealed); err != nil || !bytes.Equal(pt, data) {
			t.Fatalf("genuine seal of %d bytes did not open back (err %v)", len(data), err)
		}
		if flip == 0 {
			flip = 1
		}
		i := int(at) % len(sealed)
		sealed[i] ^= flip
		if _, err := s.OpenTo(nil, sealed); err != ErrAuth {
			t.Fatalf("seal with byte %d of %d flipped by %#x: err %v, want ErrAuth", i, len(sealed), flip, err)
		}
	})
}

// The reused Sealer is the point of the type: sealing into a reused buffer
// allocates nothing.
func BenchmarkSealerSeal(b *testing.B) {
	k, _ := NewSymmetricKey(testRand(11))
	s, r := NewSealer(k), testRand(12)
	msg, buf := make([]byte, 1200), make([]byte, 0, 2048)
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = s.SealTo(buf[:0], r, msg)
	}
}

// BenchmarkSealerOpen is the receiver's half: opening into a reused buffer
// allocates nothing.
func BenchmarkSealerOpen(b *testing.B) {
	k, _ := NewSymmetricKey(testRand(14))
	s := NewSealer(k)
	msg := make([]byte, 1200)
	sealed, _ := s.SealTo(nil, testRand(15), msg)
	buf := make([]byte, 0, len(msg))
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = s.OpenTo(buf[:0], sealed); err != nil {
			b.Fatal(err)
		}
	}
}
