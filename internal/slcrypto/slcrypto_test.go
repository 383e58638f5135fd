package slcrypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
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

// referenceSeal is the sealing construction written out longhand, as Seal
// was before Sealer existed: every primitive built per message. The wire
// bytes are pinned to it.
func referenceSeal(k SymmetricKey, r io.Reader, plaintext []byte) []byte {
	block, _ := aes.NewCipher(k[:])
	out := make([]byte, aes.BlockSize+len(plaintext)+KeySize)
	io.ReadFull(r, out[:aes.BlockSize])
	cipher.NewCTR(block, out[:aes.BlockSize]).XORKeyStream(out[aes.BlockSize:aes.BlockSize+len(plaintext)], plaintext)
	h := hmac.New(sha256.New, k[:])
	h.Write(out[:aes.BlockSize+len(plaintext)])
	copy(out[aes.BlockSize+len(plaintext):], h.Sum(nil)[:KeySize])
	return out
}

// TestSealerWireBytesIdentical: one Sealer reused across many messages —
// appending behind a prefix, as the sender's frame buffer does — produces
// byte for byte what the per-message construction produced, and opens it.
func TestSealerWireBytesIdentical(t *testing.T) {
	k, _ := NewSymmetricKey(testRand(8))
	s := NewSealer(k)
	rNew, rRef := testRand(9), testRand(9)
	sizes := testRand(10)
	for i := 0; i < 200; i++ {
		msg := make([]byte, sizes.Intn(3000))
		sizes.Read(msg)
		prefix := []byte{0xde, 0xad, byte(i)}
		got, err := s.SealTo(append([]byte(nil), prefix...), rNew, msg)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceSeal(k, rRef, msg)
		if !bytes.Equal(got[:3], prefix) || !bytes.Equal(got[3:], want) {
			t.Fatalf("message %d (%d bytes): SealTo differs from the reference construction", i, len(msg))
		}
		if len(want) != SealedLen(len(msg)) {
			t.Fatalf("SealedLen(%d) = %d, sealed %d", len(msg), SealedLen(len(msg)), len(want))
		}
		if viaKey, _ := k.Seal(testRand(int64(100+i)), msg); !bytes.Equal(viaKey, referenceSeal(k, testRand(int64(100+i)), msg)) {
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

// The reused Sealer is the point of the type: sealing allocates only the
// CTR stream, opening only that and the plaintext it returns.
func BenchmarkSealerSeal(b *testing.B) {
	k, _ := NewSymmetricKey(testRand(11))
	s, r := NewSealer(k), testRand(12)
	msg, buf := make([]byte, 1200), make([]byte, 0, 2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = s.SealTo(buf[:0], r, msg)
	}
}
