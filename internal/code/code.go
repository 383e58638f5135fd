// Package code implements the coding scheme at the heart of information
// slicing (paper §4.1, §4.4).
//
// A message is chopped into d equal blocks, viewed as a vector over GF(2^8),
// and multiplied by a d'×d transform matrix A' whose every d rows are
// linearly independent (d' == d gives the non-redundant case of Eq. 3,
// d' > d the churn-resilient case of Eq. 4). Each output block, concatenated
// with the matrix row that produced it, is an "information slice". Any d
// slices reconstruct the message; fewer than d reveal nothing (pi-security,
// Lemma 5.1).
//
// Relays may re-randomize slices without decoding (network coding, §4.4.1):
// a random linear combination of received slices — combining both payloads
// and coefficient rows with the same scalars — is a fresh, equally useful
// slice. This is what lets the overlay regenerate redundancy lost to node
// failures in the middle of the network.
//
// Buffer ownership (see DESIGN.md): Encoder and Decoder carry reusable
// scratch and are not safe for concurrent use; the Into-variants write into
// caller-provided storage, while the plain variants return freshly allocated
// results the caller owns. Package-level Decode/Rank/Decodable draw pooled
// workspaces internally and are safe to call from any goroutine.
package code

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"infoslicing/internal/gf"
)

// Slice is one information slice: the row of the transform matrix that
// produced the payload, followed by the encoded payload itself. A slice in
// isolation is indistinguishable from random bytes.
type Slice struct {
	Coeff   []byte // length d, the row A'_i
	Payload []byte
}

// Clone deep-copies a slice.
func (s Slice) Clone() Slice {
	return Slice{
		Coeff:   append([]byte(nil), s.Coeff...),
		Payload: append([]byte(nil), s.Payload...),
	}
}

// Common errors.
var (
	ErrNotEnoughSlices = errors.New("code: fewer than d linearly independent slices")
	ErrInconsistent    = errors.New("code: slices have inconsistent dimensions")
	ErrBadParameters   = errors.New("code: invalid coding parameters")
)

// lenPrefix is the number of bytes used to record the original message
// length before padding.
const lenPrefix = 4

// Encoder slices messages into DPrime coded slices such that any D decode.
// The zero value is not usable; construct with NewEncoder. An Encoder keeps
// reusable scratch (transform matrices, the chop buffer) between calls and
// is therefore NOT safe for concurrent use.
type Encoder struct {
	D      int // number of independent blocks (split factor d, Table 1)
	DPrime int // number of slices emitted (d' ≥ d, §4.4)
	rng    *rand.Rand

	// Reusable scratch. cauchy is the fixed d'×d MDS base (only when
	// d' > d); a receives the per-message transform; mix and work serve the
	// random-invertible sampling.
	cauchy    *gf.Matrix
	a         *gf.Matrix
	mix, work *gf.Matrix
	padded    []byte
	blocks    [][]byte
	payloads  [][]byte
}

// NewEncoder returns an encoder with split factor d emitting dprime slices.
// dprime == d reproduces Eq. 3 (all slices required); dprime > d adds
// (dprime-d)/d redundancy per Eq. 4.
func NewEncoder(d, dprime int, rng *rand.Rand) (*Encoder, error) {
	if d < 1 || dprime < d || dprime >= gf.Order-d {
		return nil, fmt.Errorf("%w: d=%d d'=%d", ErrBadParameters, d, dprime)
	}
	if rng == nil {
		return nil, fmt.Errorf("%w: nil rng", ErrBadParameters)
	}
	e := &Encoder{
		D: d, DPrime: dprime, rng: rng,
		a:        gf.NewMatrix(dprime, d),
		mix:      gf.NewMatrix(d, d),
		work:     gf.NewMatrix(d, d),
		blocks:   make([][]byte, d),
		payloads: make([][]byte, dprime),
	}
	if dprime > d {
		e.cauchy = gf.Cauchy(dprime, d)
	}
	return e, nil
}

// Encode slices msg into e.DPrime freshly allocated slices. The message is
// length-prefixed and zero-padded to a multiple of e.D, so arbitrary lengths
// round-trip.
func (e *Encoder) Encode(msg []byte) ([]Slice, error) {
	return e.EncodeInto(msg, nil)
}

// EncodeInto is Encode writing into dst: each dst slice's Coeff and Payload
// backing arrays are reused when they have capacity, so a caller cycling the
// same dst through consecutive rounds encodes without per-round garbage.
// Passing nil dst allocates fresh slices (one coefficient slab, one payload
// slab). The returned slices are valid until the next EncodeInto with the
// same dst; the Encoder keeps no references to them.
func (e *Encoder) EncodeInto(msg []byte, dst []Slice) ([]Slice, error) {
	blockLen := e.chop(msg)
	e.fillTransform()

	if cap(dst) >= e.DPrime {
		dst = dst[:e.DPrime]
	} else {
		dst = make([]Slice, e.DPrime)
		coeffs := make([]byte, e.DPrime*e.D)
		pays := make([]byte, e.DPrime*blockLen)
		for i := range dst {
			// Full slice expressions cap each view at its own segment:
			// without them a later, larger message would grow() a slice into
			// its neighbor's slab region and the rows would overlap.
			dst[i].Coeff = coeffs[i*e.D : (i+1)*e.D : (i+1)*e.D]
			dst[i].Payload = pays[i*blockLen : (i+1)*blockLen : (i+1)*blockLen]
		}
	}
	for i := range dst {
		dst[i].Coeff = grow(dst[i].Coeff, e.D)
		copy(dst[i].Coeff, e.a.Row(i))
		dst[i].Payload = grow(dst[i].Payload, blockLen)
		e.payloads[i] = dst[i].Payload
	}
	e.a.MulBlocksInto(e.blocks, e.payloads)
	return dst, nil
}

// chop length-prefixes and zero-pads msg into the encoder's scratch buffer
// and points e.blocks at the d equal segments. Returns the block length.
func (e *Encoder) chop(msg []byte) int {
	total := lenPrefix + len(msg)
	blockLen := (total + e.D - 1) / e.D
	if blockLen == 0 {
		blockLen = 1
	}
	padded := grow(e.padded, blockLen*e.D)
	e.padded = padded
	binary.BigEndian.PutUint32(padded, uint32(len(msg)))
	copy(padded[lenPrefix:], msg)
	clear(padded[total:])
	for i := 0; i < e.D; i++ {
		e.blocks[i] = padded[i*blockLen : (i+1)*blockLen]
	}
	return blockLen
}

// fillTransform samples the per-message transform matrix into e.a: a random
// invertible d×d matrix when d' == d, otherwise the cached Cauchy base mixed
// by a random invertible d×d matrix (preserving the MDS property).
func (e *Encoder) fillTransform() {
	if e.DPrime == e.D {
		e.a.Reshape(e.D, e.D)
		e.a.FillRandomInvertible(e.work, e.rng)
		return
	}
	e.mix.FillRandomInvertible(e.work, e.rng)
	e.cauchy.MulInto(e.mix, e.a)
}

// grow returns b resized to n bytes, reusing its backing array when
// possible.
func grow(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n)
}

// Chop length-prefixes and zero-pads msg, then splits it into d equal blocks
// (the ~m vector of Eq. 3). Exposed for callers that apply their own
// transform matrix.
func Chop(msg []byte, d int) [][]byte {
	padded := make([]byte, lenPrefix+len(msg))
	binary.BigEndian.PutUint32(padded, uint32(len(msg)))
	copy(padded[lenPrefix:], msg)
	blockLen := (len(padded) + d - 1) / d
	if blockLen == 0 {
		blockLen = 1
	}
	padded = append(padded, make([]byte, blockLen*d-len(padded))...)
	blocks := make([][]byte, d)
	for i := range blocks {
		blocks[i] = padded[i*blockLen : (i+1)*blockLen]
	}
	return blocks
}

// Unchop reverses Chop: concatenates blocks and strips the length prefix.
func Unchop(blocks [][]byte) ([]byte, error) {
	var joined []byte
	for _, b := range blocks {
		joined = append(joined, b...)
	}
	if len(joined) < lenPrefix {
		return nil, ErrInconsistent
	}
	n := binary.BigEndian.Uint32(joined)
	if int(n) > len(joined)-lenPrefix {
		return nil, fmt.Errorf("code: corrupt length prefix %d > %d", n, len(joined)-lenPrefix)
	}
	return joined[lenPrefix : lenPrefix+int(n)], nil
}

// Decoder reconstructs messages from slices, keeping every workspace the
// reconstruction needs — the selection echelon, the coefficient matrix, the
// Gauss-Jordan scratch, the block assembly buffer — alive between calls.
// Not safe for concurrent use; the package-level Decode draws Decoders from
// a pool.
type Decoder struct {
	d            int
	elim         *gf.Matrix // incremental row-echelon workspace for selection
	sel          []Slice
	a, inv, work *gf.Matrix
	joined       []byte
	blocks       [][]byte
	pay          [][]byte
}

// NewDecoder returns a decoder for split factor d.
func NewDecoder(d int) (*Decoder, error) {
	if d < 1 {
		return nil, ErrBadParameters
	}
	return &Decoder{
		d:    d,
		elim: gf.NewMatrix(d, d),
		sel:  make([]Slice, 0, d),
		a:    gf.NewMatrix(d, d),
		inv:  gf.NewMatrix(d, d),
		work: gf.NewMatrix(d, d),
	}, nil
}

// Reset re-targets the decoder at a (possibly different) split factor.
func (dec *Decoder) Reset(d int) error {
	if d < 1 {
		return ErrBadParameters
	}
	dec.d = d
	dec.elim.Reshape(d, d)
	dec.a.Reshape(d, d)
	return nil
}

// Decode reconstructs the original message from any d linearly independent
// slices. The returned bytes are freshly allocated and owned by the caller.
func (dec *Decoder) Decode(slices []Slice) ([]byte, error) {
	return dec.DecodeTo(nil, slices)
}

// DecodeTo appends the message reconstructed from any d linearly independent
// slices to dst and returns the extended slice; on error dst comes back
// unchanged. Blocks are multiplied straight into dst — only the ones the
// length prefix overlaps (one, unless blocks are under four bytes) pass
// through the decoder's scratch — so a receiver appending rounds to its
// stream writes each message byte once.
func (dec *Decoder) DecodeTo(dst []byte, slices []Slice) ([]byte, error) {
	blockLen, err := dec.invert(slices)
	if err != nil {
		return dst, err
	}
	d, start := dec.d, len(dst)
	body := d*blockLen - lenPrefix // message bytes and padding
	if body < 0 {
		return dst, ErrInconsistent
	}
	head := (lenPrefix + blockLen - 1) / blockLen // blocks the prefix overlaps
	dec.joined = grow(dec.joined, head*blockLen)
	out := extend(dst, body)
	for i := range dec.blocks {
		if i < head {
			dec.blocks[i] = dec.joined[i*blockLen : (i+1)*blockLen]
		} else {
			off := start + i*blockLen - lenPrefix
			dec.blocks[i] = out[off : off+blockLen]
		}
	}
	dec.inv.MulBlocksInto(dec.pay, dec.blocks)
	n := binary.BigEndian.Uint32(dec.joined)
	if int64(n) > int64(body) {
		return dst, fmt.Errorf("code: corrupt length prefix %d > %d", n, body)
	}
	copy(out[start:], dec.joined[lenPrefix:head*blockLen])
	return out[:start+int(n)], nil
}

// extend returns b lengthened by n bytes, reusing spare capacity and
// otherwise doubling; the new bytes are unspecified.
func extend(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b[:len(b)+n]
	}
	nb := make([]byte, len(b)+n, 2*cap(b)+n)
	copy(nb, b)
	return nb
}

// DecodeBlocks recovers the d raw blocks without interpreting padding. The
// returned blocks are views into the decoder's scratch, valid until the next
// call.
func (dec *Decoder) DecodeBlocks(slices []Slice) ([][]byte, error) {
	blockLen, err := dec.invert(slices)
	if err != nil {
		return nil, err
	}
	dec.joined = grow(dec.joined, dec.d*blockLen)
	for i := range dec.blocks {
		dec.blocks[i] = dec.joined[i*blockLen : (i+1)*blockLen]
	}
	dec.inv.MulBlocksInto(dec.pay, dec.blocks)
	return dec.blocks, nil
}

// invert selects d independent slices, inverts their coefficient matrix
// into dec.inv and gathers their payloads into dec.pay, leaving dec.blocks d
// entries long for the caller to point at the output. Returns the block
// length.
func (dec *Decoder) invert(slices []Slice) (int, error) {
	sel, err := dec.selectIndependent(slices)
	if err != nil {
		return 0, err
	}
	d := dec.d
	for i, s := range sel {
		copy(dec.a.Row(i), s.Coeff)
	}
	if err := dec.a.InverseInto(dec.work, dec.inv); err != nil {
		// selectIndependent guarantees full rank; reaching here means the
		// caller mutated slices concurrently.
		return 0, fmt.Errorf("code: %w", err)
	}
	if cap(dec.blocks) < d {
		dec.blocks = make([][]byte, d)
	}
	dec.blocks = dec.blocks[:d]
	dec.pay = dec.pay[:0]
	for _, s := range sel {
		dec.pay = append(dec.pay, s.Payload)
	}
	return len(sel[0].Payload), nil
}

// selectIndependent greedily picks d slices with linearly independent
// coefficient rows by incremental Gaussian elimination against dec.elim:
// each candidate row is reduced by the pivots accepted so far and kept iff a
// non-zero pivot survives. O(d²) per candidate, no allocation.
func (dec *Decoder) selectIndependent(slices []Slice) ([]Slice, error) {
	d := dec.d
	dec.sel = dec.sel[:0]
	elim := dec.elim.Reshape(d, d)
	payloadLen := -1
	for i := range slices {
		s := &slices[i]
		if len(s.Coeff) != d {
			return nil, fmt.Errorf("%w: coeff len %d want %d", ErrInconsistent, len(s.Coeff), d)
		}
		if payloadLen == -1 {
			payloadLen = len(s.Payload)
		} else if len(s.Payload) != payloadLen {
			return nil, fmt.Errorf("%w: payload len %d want %d", ErrInconsistent, len(s.Payload), payloadLen)
		}
		r := len(dec.sel)
		row := elim.Row(r)
		copy(row, s.Coeff)
		if reduceRow(elim, row, r) {
			dec.sel = append(dec.sel, *s)
			if len(dec.sel) == d {
				return dec.sel, nil
			}
		}
	}
	return nil, fmt.Errorf("%w: have %d of %d", ErrNotEnoughSlices, len(dec.sel), d)
}

// reduceRow eliminates row against the first r echelon rows of elim (each of
// which has its pivot normalized to 1), then normalizes row's own leading
// coefficient. Reports whether the row is independent of the span.
func reduceRow(elim *gf.Matrix, row []byte, r int) bool {
	for k := 0; k < r; k++ {
		prev := elim.Row(k)
		lead := leadingCol(prev)
		if c := row[lead]; c != 0 {
			gf.MulSlice(c, prev, row)
		}
	}
	lead := leadingCol(row)
	if lead < 0 {
		return false
	}
	if p := row[lead]; p != 1 {
		gf.MulSliceAssign(gf.Inv(p), row, row)
	}
	return true
}

func leadingCol(row []byte) int {
	for j, v := range row {
		if v != 0 {
			return j
		}
	}
	return -1
}

// decoderPool recycles Decoders for the package-level helpers so hot callers
// (relays decode every round) get workspace reuse without holding their own
// Decoder.
var decoderPool = sync.Pool{
	New: func() any {
		dec, _ := NewDecoder(1)
		return dec
	},
}

// Decode reconstructs the original message from any d linearly independent
// slices (paper: ~m = A^-1 ~I*). Extra or linearly dependent slices are
// tolerated and skipped. The returned bytes are owned by the caller.
func Decode(d int, slices []Slice) ([]byte, error) {
	return DecodeTo(d, nil, slices)
}

// DecodeTo is Decode appending to dst on a pooled Decoder (see
// Decoder.DecodeTo): a receiver decodes an in-order round straight onto its
// reassembly stream. On error dst comes back unchanged.
func DecodeTo(d int, dst []byte, slices []Slice) ([]byte, error) {
	if d < 1 {
		return dst, ErrBadParameters
	}
	dec := decoderPool.Get().(*Decoder)
	defer decoderPool.Put(dec)
	if err := dec.Reset(d); err != nil {
		return dst, err
	}
	return dec.DecodeTo(dst, slices)
}

// DecodeBlocks recovers the d raw blocks without interpreting padding. Used
// by the data plane, where the source applies Chop once per message. The
// returned blocks are freshly allocated.
func DecodeBlocks(d int, slices []Slice) ([][]byte, error) {
	if d < 1 {
		return nil, ErrBadParameters
	}
	dec := decoderPool.Get().(*Decoder)
	defer decoderPool.Put(dec)
	if err := dec.Reset(d); err != nil {
		return nil, err
	}
	views, err := dec.DecodeBlocks(slices)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(views))
	for i, v := range views {
		out[i] = append([]byte(nil), v...)
	}
	return out, nil
}

// Rank returns the rank of the coefficient matrix spanned by the slices —
// how many degrees of freedom a holder of these slices has (d means
// decodable).
func Rank(d int, slices []Slice) int {
	if len(slices) == 0 || d < 1 {
		return 0
	}
	for i := range slices {
		if len(slices[i].Coeff) != d {
			return 0
		}
	}
	dec := decoderPool.Get().(*Decoder)
	defer decoderPool.Put(dec)
	if err := dec.Reset(d); err != nil {
		return 0
	}
	elim := dec.elim
	rank := 0
	for i := range slices {
		if rank == d {
			break
		}
		row := elim.Row(rank)
		copy(row, slices[i].Coeff)
		if reduceRow(elim, row, rank) {
			rank++
		}
	}
	return rank
}

// Decodable reports whether the slices suffice to reconstruct the message.
func Decodable(d int, slices []Slice) bool { return Rank(d, slices) >= d }

// RecombineInto implements the network-coding regeneration step of §4.4.1:
// it produces count fresh slices, each a random linear combination
// m'_new = Σ p_i m'_i with matching coefficient row A'_new = Σ p_i A'_i.
// The inputs must share coefficient and payload lengths. If the inputs span
// rank r, each output lies in the same span, so a downstream node that
// gathers d independent combinations can still decode. It writes into dst,
// reusing each dst slice's backing arrays when they have capacity (relays
// regenerate per missing child per round; this keeps that path
// allocation-free).
func RecombineInto(dst []Slice, slices []Slice, count int, rng *rand.Rand) ([]Slice, error) {
	if len(slices) == 0 {
		return nil, ErrNotEnoughSlices
	}
	d := len(slices[0].Coeff)
	plen := len(slices[0].Payload)
	for _, s := range slices {
		if len(s.Coeff) != d || len(s.Payload) != plen {
			return nil, ErrInconsistent
		}
	}
	if cap(dst) >= count {
		dst = dst[:count]
	} else {
		dst = make([]Slice, count)
	}
	for k := 0; k < count; k++ {
		coeff := grow(dst[k].Coeff, d)
		payload := grow(dst[k].Payload, plen)
		for {
			clear(coeff)
			clear(payload)
			nonzero := false
			for i := range slices {
				p := byte(rng.Intn(gf.Order))
				if p != 0 {
					nonzero = true
				}
				gf.MulSlice(p, slices[i].Coeff, coeff)
				gf.MulSlice(p, slices[i].Payload, payload)
			}
			if nonzero {
				break
			}
			// All-zero combination is useless; resample (vanishingly rare).
		}
		dst[k] = Slice{Coeff: coeff, Payload: payload}
	}
	return dst, nil
}
