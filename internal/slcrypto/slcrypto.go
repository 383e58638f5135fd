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
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// KeySize is the symmetric key length in bytes (AES-128).
const KeySize = 16

// ivSize and tagSize frame a sealed message: iv ‖ ciphertext ‖ tag.
const ivSize, tagSize = 16, 16

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

// Seal encrypts and authenticates plaintext with AES-128-GCM under a 16-byte
// IV drawn whole from r. Layout: iv ‖ ciphertext ‖ tag (16 bytes). It is a
// throwaway Sealer that skips the counter: per-flow callers keep a Sealer.
func (k SymmetricKey) Seal(r io.Reader, plaintext []byte) ([]byte, error) {
	dst, iv, err := readIV(nil, r, len(plaintext))
	if err != nil {
		return nil, err
	}
	return NewSealer(k).aead.Seal(dst, iv, plaintext, nil), nil
}

// Open reverses Seal (or SealTo), verifying the tag.
func (k SymmetricKey) Open(sealed []byte) ([]byte, error) {
	return NewSealer(k).OpenTo(nil, sealed)
}

// SealedLen is the length Seal produces for n plaintext bytes.
func SealedLen(n int) int { return ivSize + n + tagSize }

// Sealer seals and opens messages under one key with the AES key schedule
// and the GHASH table built once, so a message costs one fused
// encrypt-and-authenticate pass. Not safe for concurrent use: hold one per
// flow, under that flow's lock.
type Sealer struct {
	aead cipher.AEAD
	// sealed counts SealTo calls; it is written over the first 8 bytes of
	// each IV so no two IVs under one Sealer are equal, whatever r returns.
	sealed uint64
}

// NewSealer keys a Sealer.
func NewSealer(k SymmetricKey) *Sealer {
	block, err := aes.NewCipher(k[:])
	if err != nil {
		panic(err) // unreachable: KeySize is a valid AES key length
	}
	aead, err := cipher.NewGCMWithNonceSize(block, ivSize)
	if err != nil {
		panic(err) // only in FIPS 140-only mode, which forbids caller-chosen IVs
	}
	return &Sealer{aead: aead}
}

// SealTo appends Seal's output for plaintext to dst and returns the
// extended slice; plaintext must not alias dst's spare capacity. The IV is
// 16 bytes read from r with the Sealer's message count over its first 8.
func (s *Sealer) SealTo(dst []byte, r io.Reader, plaintext []byte) ([]byte, error) {
	dst, iv, err := readIV(dst, r, len(plaintext))
	if err != nil {
		return dst, err
	}
	binary.BigEndian.PutUint64(iv, s.sealed)
	s.sealed++
	return s.aead.Seal(dst, iv, plaintext, nil), nil
}

// readIV grows dst to hold a sealed n-byte message and appends the 16 IV
// bytes read from r, returning them as a view. On error dst is unchanged.
func readIV(dst []byte, r io.Reader, n int) ([]byte, []byte, error) {
	start := len(dst)
	dst = slices.Grow(dst, SealedLen(n))[:start+ivSize]
	iv := dst[start:]
	if _, err := io.ReadFull(r, iv); err != nil {
		return dst[:start], nil, fmt.Errorf("slcrypto: %w", err)
	}
	return dst, iv, nil
}

// OpenTo verifies sealed and appends its plaintext to dst; on ErrAuth dst
// is returned unchanged.
func (s *Sealer) OpenTo(dst, sealed []byte) ([]byte, error) {
	if len(sealed) < ivSize+tagSize {
		return dst, ErrAuth
	}
	out, err := s.aead.Open(dst, sealed[:ivSize], sealed[ivSize:], nil)
	if err != nil {
		return dst, ErrAuth
	}
	return out, nil
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
