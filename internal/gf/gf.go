// Package gf implements arithmetic over the finite field GF(2^8) and dense
// matrices over that field.
//
// Information slicing performs all of its coding in a small finite field
// (paper §4.1, footnote 1): message blocks are treated as vectors of field
// elements and multiplied by random invertible matrices. GF(2^8) is the
// conventional choice for byte-oriented codes: every byte is a field element,
// addition is XOR, and multiplication is a table lookup.
//
// The field is constructed from the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the same polynomial used by most
// Reed-Solomon deployments. The generator 2 is primitive for this polynomial,
// which lets multiplication and division run through log/exp tables.
package gf

import "encoding/binary"

// Poly is the primitive polynomial used to construct GF(2^8), expressed with
// the x^8 term included (0x11d = x^8+x^4+x^3+x^2+1).
const Poly = 0x11d

// Order is the number of elements in the field.
const Order = 256

var (
	expTable [2 * Order]byte // expTable[i] = g^i, doubled to skip a mod in Mul
	logTable [Order]byte     // logTable[x] = log_g(x), logTable[0] unused

	// mulTable[c] is the full multiplication table of the coefficient c:
	// mulTable[c][x] = c*x. 64 KiB total; each row is 256 bytes (four cache
	// lines), so a slice-kernel applying one coefficient to a block touches
	// only its own row. This turns MulSlice into a branch-free table walk —
	// no log/exp indirection, no zero test per byte.
	mulTable [Order][Order]byte

	// mulTableNib[c] is the split-nibble table pair of c, packed for the
	// SIMD kernels: bytes 0..15 hold c*n for every low nibble n, bytes
	// 16..31 hold c*(n<<4) for every high nibble. Because GF addition is
	// XOR, c*x == c*(x&0x0f) ^ c*(x&0xf0), so one 16-entry shuffle per
	// nibble (PSHUFB on x86, TBL on ARM) multiplies 16 or 32 bytes at once.
	// 8 KiB total, precomputed alongside mulTable.
	mulTableNib [Order][32]byte
)

func init() {
	x := 1
	for i := 0; i < Order-1; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	// Double the exp table so Mul can index logs summed without reducing
	// mod 255.
	for i := Order - 1; i < 2*Order; i++ {
		expTable[i] = expTable[i-(Order-1)]
	}
	for c := 1; c < Order; c++ {
		lc := int(logTable[c])
		row := &mulTable[c]
		for x := 1; x < Order; x++ {
			row[x] = expTable[lc+int(logTable[x])]
		}
	}
	// Derive the nibble tables from the full tables (mulTable[0] stays all
	// zero, so mulTableNib[0] does too).
	for c := 0; c < Order; c++ {
		row := &mulTable[c]
		nib := &mulTableNib[c]
		for n := 0; n < 16; n++ {
			nib[n] = row[n]
			nib[16+n] = row[n<<4]
		}
	}
}

// MulTable returns the 256-byte multiplication table of c: MulTable(c)[x] is
// c*x. Indexing the returned array with a byte needs no bounds check, which
// is what makes the slice kernels branch-free.
func MulTable(c byte) *[Order]byte { return &mulTable[c] }

// Add returns a+b in GF(2^8). Addition and subtraction coincide (XOR).
func Add(a, b byte) byte { return a ^ b }

// Mul returns a*b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Div returns a/b in GF(2^8). Div panics if b is zero.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf: division by zero")
	}
	if a == 0 {
		return 0
	}
	d := int(logTable[a]) - int(logTable[b])
	if d < 0 {
		d += Order - 1
	}
	return expTable[d]
}

// Inv returns the multiplicative inverse of a. Inv panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf: zero has no inverse")
	}
	return expTable[Order-1-int(logTable[a])]
}

// Exp returns the generator raised to the power n (n may be any
// non-negative integer).
func Exp(n int) byte { return expTable[n%(Order-1)] }

// XorSlice computes dst[i] ^= src[i]: a SIMD pass over the bulk of the
// block when the platform kernel is active (see KernelName), then word-wide
// with a byte tail. It is the c==1 fast path of MulSlice and the a+b of
// every row operation.
func XorSlice(src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf: XorSlice length mismatch")
	}
	n := xorSliceFast(src, dst)
	xorSliceGeneric(src[n:], dst[n:])
}

// xorSliceGeneric is the portable xor kernel: eight bytes per step through
// the bulk, a byte tail at the end.
func xorSliceGeneric(src, dst []byte) {
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		d := binary.LittleEndian.Uint64(dst[i:])
		s := binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], d^s)
	}
	for i := n; i < len(dst); i++ {
		dst[i] ^= src[i]
	}
}

// MulSlice computes dst[i] ^= c * src[i] for every i. It is the inner loop of
// all encode/decode operations: one coefficient applied to one block. The
// bulk goes through the runtime-selected platform kernel (split-nibble
// shuffles, 16-32 bytes per step); the tail and non-SIMD platforms run the
// scalar table walk. dst and src must have equal length.
func MulSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf: MulSlice length mismatch")
	}
	switch c {
	case 0:
		return
	case 1:
		XorSlice(src, dst)
	default:
		n := mulSliceFast(c, src, dst)
		mulSliceGeneric(c, src[n:], dst[n:])
	}
}

// mulSliceGeneric is the portable accumulate kernel: a branch-free walk of
// the coefficient's 256-byte table. Byte-indexed array lookups are
// bounds-check free; unroll by four to keep the loop body ahead of the
// loads. c must not be 0 or 1 (callers take the cheaper paths).
func mulSliceGeneric(c byte, src, dst []byte) {
	mt := &mulTable[c]
	i := 0
	for ; i+4 <= len(src); i += 4 {
		dst[i] ^= mt[src[i]]
		dst[i+1] ^= mt[src[i+1]]
		dst[i+2] ^= mt[src[i+2]]
		dst[i+3] ^= mt[src[i+3]]
	}
	for ; i < len(src); i++ {
		dst[i] ^= mt[src[i]]
	}
}

// MulSliceAssign computes dst[i] = c * src[i] (overwriting dst).
func MulSliceAssign(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf: MulSliceAssign length mismatch")
	}
	switch c {
	case 0:
		clear(dst)
	case 1:
		copy(dst, src)
	default:
		n := mulSliceAssignFast(c, src, dst)
		mulSliceAssignGeneric(c, src[n:], dst[n:])
	}
}

// mulSliceAssignGeneric is the portable overwrite kernel; c must not be 0
// or 1.
func mulSliceAssignGeneric(c byte, src, dst []byte) {
	mt := &mulTable[c]
	i := 0
	for ; i+4 <= len(src); i += 4 {
		dst[i] = mt[src[i]]
		dst[i+1] = mt[src[i+1]]
		dst[i+2] = mt[src[i+2]]
		dst[i+3] = mt[src[i+3]]
	}
	for ; i < len(src); i++ {
		dst[i] = mt[src[i]]
	}
}

// KernelName reports which slice-kernel implementation this process
// selected at init: "avx2", "neon", or "generic". Diagnostics only; the
// choice is fixed for the life of the process (force "generic" with the
// noasm build tag).
func KernelName() string { return kernelName() }

// mulSlow multiplies using shift-and-add ("Russian peasant") reduction. It is
// retained as an ablation/verification reference for the table-driven Mul.
func mulSlow(a, b byte) byte {
	var p byte
	aa, bb := int(a), int(b)
	for bb != 0 {
		if bb&1 != 0 {
			p ^= byte(aa)
		}
		aa <<= 1
		if aa&0x100 != 0 {
			aa ^= Poly
		}
		bb >>= 1
	}
	return p
}

// MulSlow exposes the shift-and-add reference multiplier for benchmarks and
// cross-checking tests.
func MulSlow(a, b byte) byte { return mulSlow(a, b) }
