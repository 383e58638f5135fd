// Package slcrypto holds the small amount of conventional cryptography the
// system needs.
//
// Information slicing itself uses no public-key cryptography — that is the
// point of the paper. Symmetric keys appear in two places sanctioned by the
// design:
//
//  1. The source sends each relay (and the destination) a symmetric secret
//     key inside its sliced per-node information (§4.3.1); data messages are
//     sealed with the destination's key before slicing (§4.3.7).
//  2. The source shares keys with its pseudo-sources over secure channels
//     (§3c).
//
// RSA identities exist only for the onion-routing baseline (§2, §7), which
// needs per-node public keys for route setup.
package slcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
)

// KeySize is the symmetric key length in bytes (AES-128 + HMAC truncation).
const KeySize = 16

// SymmetricKey is the per-node secret delivered in the sliced setup message.
type SymmetricKey [KeySize]byte

// ErrAuth indicates a failed integrity check or malformed ciphertext.
var ErrAuth = errors.New("slcrypto: authentication failed")

// NewSymmetricKey draws a key from the given randomness source (pass
// crypto/rand.Reader in production, a seeded reader in tests).
func NewSymmetricKey(r io.Reader) (SymmetricKey, error) {
	var k SymmetricKey
	if _, err := io.ReadFull(r, k[:]); err != nil {
		return k, fmt.Errorf("slcrypto: %w", err)
	}
	return k, nil
}

// Seal encrypts plaintext with AES-CTR under a random IV drawn from r, and
// appends an HMAC-SHA256 tag. Layout: iv ‖ ciphertext ‖ tag[:16]. It is
// Sealer.SealTo with a throwaway Sealer; per-flow callers keep one.
func (k SymmetricKey) Seal(r io.Reader, plaintext []byte) ([]byte, error) {
	return NewSealer(k).SealTo(nil, r, plaintext)
}

// Open reverses Seal, verifying the tag first.
func (k SymmetricKey) Open(sealed []byte) ([]byte, error) {
	return NewSealer(k).OpenTo(nil, sealed)
}

// SealedLen is the length Seal produces for n plaintext bytes.
func SealedLen(n int) int { return aes.BlockSize + n + KeySize }

// Sealer seals and opens messages under one key with the AES block and the
// HMAC state built once, so the per-message cost is the keystream and the
// digest, not their construction. Not safe for concurrent use: hold one per
// flow, under that flow's lock.
type Sealer struct {
	block cipher.Block
	mac   hash.Hash
	dirty bool // mac has absorbed a message and needs a Reset
	sum   [sha256.Size]byte
}

// NewSealer keys a Sealer.
func NewSealer(k SymmetricKey) *Sealer {
	block, err := aes.NewCipher(k[:])
	if err != nil {
		panic(err) // unreachable: KeySize is a valid AES key length
	}
	return &Sealer{block: block, mac: hmac.New(sha256.New, k[:])}
}

// SealTo appends Seal's output for plaintext to dst and returns the
// extended slice; plaintext must not alias dst's spare capacity.
func (s *Sealer) SealTo(dst []byte, r io.Reader, plaintext []byte) ([]byte, error) {
	start := len(dst)
	dst = append(dst, make([]byte, SealedLen(len(plaintext)))...)
	out := dst[start:]
	iv, body := out[:aes.BlockSize], out[:aes.BlockSize+len(plaintext)]
	if _, err := io.ReadFull(r, iv); err != nil {
		return dst[:start], fmt.Errorf("slcrypto: %w", err)
	}
	cipher.NewCTR(s.block, iv).XORKeyStream(body[aes.BlockSize:], plaintext)
	copy(out[len(body):], s.tag(body))
	return dst, nil
}

// OpenTo verifies sealed and appends its plaintext to dst.
func (s *Sealer) OpenTo(dst, sealed []byte) ([]byte, error) {
	if len(sealed) < aes.BlockSize+KeySize {
		return dst, ErrAuth
	}
	body, tag := sealed[:len(sealed)-KeySize], sealed[len(sealed)-KeySize:]
	if !hmac.Equal(tag, s.tag(body)) {
		return dst, ErrAuth
	}
	start := len(dst)
	dst = append(dst, body[aes.BlockSize:]...)
	cipher.NewCTR(s.block, body[:aes.BlockSize]).XORKeyStream(dst[start:], dst[start:])
	return dst, nil
}

// tag returns the truncated HMAC of msg; valid until the next call.
func (s *Sealer) tag(msg []byte) []byte {
	if s.dirty {
		s.mac.Reset() // the first Reset snapshots the keyed state: not free, so not for a one-shot
	}
	s.dirty = true
	s.mac.Write(msg)
	return s.mac.Sum(s.sum[:0])[:KeySize]
}

// Identity is an RSA keypair for the onion baseline. Information slicing
// relays never have one.
type Identity struct {
	Private *rsa.PrivateKey
}

// Public returns the public half.
func (id *Identity) Public() *rsa.PublicKey { return &id.Private.PublicKey }

// NewIdentity generates an RSA key of the given size from r.
func NewIdentity(r io.Reader, bits int) (*Identity, error) {
	key, err := rsa.GenerateKey(r, bits)
	if err != nil {
		return nil, fmt.Errorf("slcrypto: %w", err)
	}
	return &Identity{Private: key}, nil
}

// WrapKey encrypts a symmetric key to a public key (RSA-OAEP), the hybrid
// step of onion route setup.
func WrapKey(r io.Reader, pub *rsa.PublicKey, k SymmetricKey) ([]byte, error) {
	return rsa.EncryptOAEP(sha256.New(), r, pub, k[:], nil)
}

// UnwrapKey decrypts a wrapped symmetric key.
func (id *Identity) UnwrapKey(wrapped []byte) (SymmetricKey, error) {
	var k SymmetricKey
	pt, err := rsa.DecryptOAEP(sha256.New(), nil, id.Private, wrapped, nil)
	if err != nil {
		return k, fmt.Errorf("slcrypto: %w", err)
	}
	if len(pt) != KeySize {
		return k, ErrAuth
	}
	copy(k[:], pt)
	return k, nil
}
