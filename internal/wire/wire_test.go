package wire

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"infoslicing/internal/code"
	"infoslicing/internal/slcrypto"
)

func TestPacketRoundTrip(t *testing.T) {
	p := &Packet{
		Type:     MsgSetup,
		Flow:     0xdeadbeefcafef00d,
		Seq:      7,
		CoeffLen: 3,
		SlotLen:  10,
		Slots:    [][]byte{bytes.Repeat([]byte{1}, 10), bytes.Repeat([]byte{2}, 10)},
	}
	b := p.Marshal()
	if len(b) != p.Size() {
		t.Fatalf("Size()=%d marshaled=%d", p.Size(), len(b))
	}
	got, err := UnmarshalPacket(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != p.Type || got.Flow != p.Flow || got.Seq != p.Seq ||
		got.CoeffLen != p.CoeffLen || got.SlotLen != p.SlotLen || len(got.Slots) != 2 {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range p.Slots {
		if !bytes.Equal(got.Slots[i], p.Slots[i]) {
			t.Fatalf("slot %d mismatch", i)
		}
	}
}

func TestPacketTruncation(t *testing.T) {
	p := &Packet{Type: MsgData, Flow: 1, CoeffLen: 2, SlotLen: 8,
		Slots: [][]byte{make([]byte, 8)}}
	b := p.Marshal()
	for cut := 0; cut < len(b); cut++ {
		if _, err := UnmarshalPacket(b[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestPacketSlotSizePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong slot size")
		}
	}()
	p := &Packet{SlotLen: 4, Slots: [][]byte{{1, 2}}}
	p.Marshal()
}

func TestSlotRoundTrip(t *testing.T) {
	s := code.Slice{Coeff: []byte{9, 8, 7}, Payload: []byte("payload bytes")}
	slot := EncodeSlot(s)
	if len(slot) != SlotLenFor(3, len(s.Payload)) {
		t.Fatalf("slot len %d", len(slot))
	}
	got, err := DecodeSlot(slot, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Coeff, s.Coeff) || !bytes.Equal(got.Payload, s.Payload) {
		t.Fatal("slot round trip mismatch")
	}
}

func TestSlotChecksumRejectsCorruption(t *testing.T) {
	slot := EncodeSlot(code.Slice{Coeff: []byte{1, 2}, Payload: []byte{3, 4, 5}})
	for i := range slot {
		bad := append([]byte(nil), slot...)
		bad[i] ^= 0x80
		if _, err := DecodeSlot(bad, 2); err == nil {
			t.Fatalf("corruption at %d accepted", i)
		}
	}
}

func TestRandomSlotRejectedAsSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		if _, err := DecodeSlot(RandomSlot(32, rng), 3); err == nil {
			t.Fatal("random padding decoded as valid slice")
		}
	}
}

// FillRandom draws eight bytes at a time: every length must be covered to
// its last byte, nothing past it touched, and the draws counted per word.
func TestFillRandomCoversEveryLength(t *testing.T) {
	for n := 0; n <= 40; n++ {
		rng, twin := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
		buf := make([]byte, n+1)
		zero := make([]bool, n)
		for try := 0; try < 8; try++ { // a byte is 0 by chance once in 256
			FillRandom(buf[:n], rng)
			for i := range zero {
				zero[i] = (try == 0 || zero[i]) && buf[i] == 0
			}
		}
		for i, z := range zero {
			if z {
				t.Fatalf("length %d: byte %d never written", n, i)
			}
		}
		if buf[n] != 0 {
			t.Fatalf("length %d: wrote past the end", n)
		}
		for i := 0; i < 8*((n+7)/8); i++ {
			twin.Uint64()
		}
		if rng.Uint64() != twin.Uint64() {
			t.Fatalf("length %d: not one draw per eight bytes", n)
		}
	}
}

// SlotArea is the one view behind all of a parsed packet's slots, and
// survives Clone.
func TestSlotAreaBacksSlots(t *testing.T) {
	p := &Packet{Type: MsgSetup, Flow: 7, CoeffLen: 2, SlotLen: 5,
		Slots: [][]byte{[]byte("aaaaa"), []byte("bbbbb"), []byte("ccccc")}}
	if p.SlotArea() != nil {
		t.Fatal("a packet that was not parsed has no slot area")
	}
	var q Packet
	if err := ParsePacket(p.Marshal(), &q); err != nil {
		t.Fatal(err)
	}
	for _, area := range [][]byte{q.SlotArea(), q.Clone().SlotArea()} {
		if string(area) != "aaaaabbbbbccccc" || &area[5] != &q.Slots[1][0] {
			t.Fatalf("slot area %q does not back the slots", area)
		}
	}
}

func TestDecodeSlotTooShort(t *testing.T) {
	if _, err := DecodeSlot([]byte{1, 2, 3}, 3); err == nil {
		t.Fatal("short slot accepted")
	}
}

func TestTransformRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	err := quick.Check(func(data []byte) bool {
		tr := RandomTransform(rng)
		buf := append([]byte(nil), data...)
		tr.Apply(buf)
		tr.Invert(buf)
		return bytes.Equal(buf, data)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTransformChangesBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := bytes.Repeat([]byte{0xAA}, 64)
	tr := RandomTransform(rng)
	buf := append([]byte(nil), data...)
	tr.Apply(buf)
	if bytes.Equal(buf, data) {
		t.Fatal("transform left pattern intact")
	}
	// A repeated input byte must not map to a repeated output byte
	// (keystream breaks positional patterns).
	allSame := true
	for _, b := range buf[1:] {
		if b != buf[0] {
			allSame = false
			break
		}
	}
	if allSame {
		t.Fatal("transform preserved constant pattern")
	}
}

func TestIdentityTransform(t *testing.T) {
	var id Transform
	if !id.IsIdentity() {
		t.Fatal("zero transform should be identity")
	}
	b := []byte{1, 2, 3}
	id.Apply(b)
	id.Invert(b)
	if !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Fatal("identity modified data")
	}
}

func TestComposeStripsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := []byte("slice travelling through three relays")
	chain := []Transform{RandomTransform(rng), RandomTransform(rng), RandomTransform(rng)}
	buf := append([]byte(nil), data...)
	Compose(buf, chain)
	// Relays strip layers front to back.
	views := make([][]byte, 0, len(chain))
	for _, tr := range chain {
		tr.Invert(buf)
		views = append(views, append([]byte(nil), buf...))
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("compose/strip chain does not restore data")
	}
	// No two intermediate views may be identical (pattern defeated).
	for i := 0; i < len(views); i++ {
		for j := i + 1; j < len(views); j++ {
			if bytes.Equal(views[i], views[j]) {
				t.Fatalf("views %d and %d identical", i, j)
			}
		}
	}
}

func samplePerNodeInfo() *PerNodeInfo {
	var key slcrypto.SymmetricKey
	copy(key[:], bytes.Repeat([]byte{0x11}, 16))
	return &PerNodeInfo{
		Children:   []NodeID{10, 20, 30},
		ChildFlows: []FlowID{100, 200, 300},
		Receiver:   true,
		Recode:     true,
		Key:        key,
		SliceMap: []SliceForward{
			{Child: 0, DstSlot: 0, Src: SlotRef{Parent: 5, Slot: 2},
				Unscramble: Transform{Scalar: 7, Seed: 42}},
			{Child: 2, DstSlot: 3, Src: SlotRef{Parent: 6, Slot: 1}},
		},
		DataMap: []DataForward{{Parent: 5, Child: 0}, {Parent: 6, Child: 1}},
	}
}

func TestPerNodeInfoRoundTrip(t *testing.T) {
	pi := samplePerNodeInfo()
	b := pi.Marshal()
	got, err := UnmarshalPerNodeInfo(b)
	if err != nil {
		t.Fatal(err)
	}
	checkInfoEqual(t, pi, got)
}

func TestPerNodeInfoToleratesPadding(t *testing.T) {
	pi := samplePerNodeInfo()
	b := append(pi.Marshal(), make([]byte, 100)...)
	got, err := UnmarshalPerNodeInfo(b)
	if err != nil {
		t.Fatal(err)
	}
	checkInfoEqual(t, pi, got)
}

func TestPerNodeInfoRejectsCorruption(t *testing.T) {
	b := samplePerNodeInfo().Marshal()
	for i := 0; i < len(b); i += 3 {
		bad := append([]byte(nil), b...)
		bad[i] ^= 1
		if _, err := UnmarshalPerNodeInfo(bad); err == nil {
			t.Fatalf("corruption at %d accepted", i)
		}
	}
}

func TestPerNodeInfoRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalPerNodeInfo([]byte("nonsense")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := UnmarshalPerNodeInfo(nil); err == nil {
		t.Fatal("nil accepted")
	}
}

func TestPerNodeInfoEmptyMaps(t *testing.T) {
	pi := &PerNodeInfo{} // leaf node: no children, no maps
	got, err := UnmarshalPerNodeInfo(pi.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Children) != 0 || len(got.SliceMap) != 0 || len(got.DataMap) != 0 {
		t.Fatal("empty info grew fields")
	}
}

func TestPerNodeInfoMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pi := &PerNodeInfo{Children: []NodeID{1}, ChildFlows: nil}
	pi.Marshal()
}

// Info blocks survive the full pipeline: marshal, pad, slice, decode, parse.
func TestPerNodeInfoThroughSlicing(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pi := samplePerNodeInfo()
	blob := pi.Marshal()
	padded := append(append([]byte(nil), blob...), make([]byte, 37)...)
	enc, err := code.NewEncoder(3, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	slices, err := enc.Encode(padded)
	if err != nil {
		t.Fatal(err)
	}
	// Ship each slice through a slot and back.
	recovered := make([]code.Slice, 0, len(slices))
	for _, s := range slices[1:4] { // any 3 of 5
		slot := EncodeSlot(s)
		rs, err := DecodeSlot(slot, 3)
		if err != nil {
			t.Fatal(err)
		}
		recovered = append(recovered, rs)
	}
	dec, err := code.Decode(3, recovered)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalPerNodeInfo(dec)
	if err != nil {
		t.Fatal(err)
	}
	checkInfoEqual(t, pi, got)
}

func checkInfoEqual(t *testing.T, want, got *PerNodeInfo) {
	t.Helper()
	if got.Receiver != want.Receiver || got.Recode != want.Recode ||
		got.Spliced != want.Spliced || got.Key != want.Key {
		t.Fatal("flags/key mismatch")
	}
	if len(got.Children) != len(want.Children) {
		t.Fatal("children count mismatch")
	}
	for i := range want.Children {
		if got.Children[i] != want.Children[i] || got.ChildFlows[i] != want.ChildFlows[i] {
			t.Fatalf("child %d mismatch", i)
		}
	}
	if len(got.SliceMap) != len(want.SliceMap) {
		t.Fatal("slice map size mismatch")
	}
	for i := range want.SliceMap {
		if got.SliceMap[i] != want.SliceMap[i] {
			t.Fatalf("slice map %d: %+v != %+v", i, got.SliceMap[i], want.SliceMap[i])
		}
	}
	if len(got.DataMap) != len(want.DataMap) {
		t.Fatal("data map size mismatch")
	}
	for i := range want.DataMap {
		if got.DataMap[i] != want.DataMap[i] {
			t.Fatalf("data map %d mismatch", i)
		}
	}
}

func BenchmarkPacketMarshal(b *testing.B) {
	slots := make([][]byte, 8)
	for i := range slots {
		slots[i] = make([]byte, 187)
	}
	p := &Packet{Type: MsgSetup, Flow: 1, CoeffLen: 3, SlotLen: 187, Slots: slots}
	b.SetBytes(int64(p.Size()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Marshal()
	}
}

// --- Append-style framing ----------------------------------------------------

func TestAppendToMatchesMarshal(t *testing.T) {
	p := &Packet{
		Type:     MsgData,
		Flow:     42,
		Seq:      9,
		CoeffLen: 2,
		SlotLen:  6,
		Slots:    [][]byte{{1, 2, 3, 4, 5, 6}, {7, 8, 9, 10, 11, 12}},
	}
	buf := p.AppendTo(nil)
	if !bytes.Equal(buf, p.Marshal()) {
		t.Fatal("AppendTo disagrees with Marshal")
	}
	// Appending after a prefix must leave the prefix intact.
	withPrefix := p.AppendTo([]byte("prefix"))
	if !bytes.Equal(withPrefix[:6], []byte("prefix")) || !bytes.Equal(withPrefix[6:], buf) {
		t.Fatal("AppendTo clobbered prefix")
	}
}

func TestAppendSlotMatchesEncodeSlot(t *testing.T) {
	s := code.Slice{Coeff: []byte{9, 8, 7}, Payload: []byte("payload bytes")}
	if !bytes.Equal(AppendSlot(nil, s), EncodeSlot(s)) {
		t.Fatal("AppendSlot disagrees with EncodeSlot")
	}
}

func TestAppendPacketHeaderParses(t *testing.T) {
	s := code.Slice{Coeff: []byte{1, 2}, Payload: []byte{3, 4, 5}}
	slotLen := uint16(len(s.Coeff) + len(s.Payload) + 4)
	buf := AppendPacketHeader(nil, MsgData, 77, 5, 2, slotLen, 1)
	buf = AppendSlot(buf, s)
	p, err := UnmarshalPacket(buf)
	if err != nil {
		t.Fatal(err)
	}
	if p.Flow != 77 || p.Seq != 5 || len(p.Slots) != 1 {
		t.Fatalf("parsed header wrong: %+v", p)
	}
	got, err := DecodeSlot(p.Slots[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Coeff, s.Coeff) || !bytes.Equal(got.Payload, s.Payload) {
		t.Fatal("slot did not round trip through append framing")
	}
}

func TestPatchFlow(t *testing.T) {
	p := &Packet{Type: MsgData, Flow: 1, CoeffLen: 1, SlotLen: 5,
		Slots: [][]byte{{1, 2, 3, 4, 5}}}
	buf := p.Marshal()
	PatchFlow(buf, 0xfeedface)
	got, err := UnmarshalPacket(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Flow != 0xfeedface {
		t.Fatalf("flow not patched: %x", got.Flow)
	}
	if got.Seq != p.Seq || len(got.Slots) != 1 || !bytes.Equal(got.Slots[0], p.Slots[0]) {
		t.Fatal("PatchFlow disturbed other fields")
	}
}

// UnmarshalPacket returns views: the slots must alias the input buffer (the
// zero-copy contract relays rely on).
func TestUnmarshalPacketReturnsViews(t *testing.T) {
	p := &Packet{Type: MsgData, Flow: 3, CoeffLen: 1, SlotLen: 4,
		Slots: [][]byte{{1, 2, 3, 4}}}
	buf := p.Marshal()
	got, err := UnmarshalPacket(buf)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] = 0xEE
	if got.Slots[0][3] != 0xEE {
		t.Fatal("slots are copies; expected views into the receive buffer")
	}
}

// The word-wide keystream must be byte-compatible with the per-byte
// reference generator (old wire captures must still unscramble).
func TestXorKeystreamMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 7, 8, 9, 64, 1501} {
		seed := rng.Uint64()
		buf := make([]byte, n)
		xorKeystream(seed, buf) // XOR into zeros == raw stream
		ks := newKeystream(seed)
		for i := 0; i < n; i++ {
			if want := ks.next(); buf[i] != want {
				t.Fatalf("seed %#x len %d: stream diverges at %d", seed, n, i)
			}
		}
	}
}

// TestParsePacketReusesCallerStorage: parsing into a caller-owned Packet
// gives what UnmarshalPacket gives, allocates nothing once the slot table
// has its capacity (never, for single-slot packets), and a Clone survives
// the scratch being parsed over.
func TestParsePacketReusesCallerStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mk := func(seq uint32, slots int) []byte {
		p := &Packet{Type: MsgData, Flow: 77, Seq: seq, CoeffLen: 2, SlotLen: 24}
		for i := 0; i < slots; i++ {
			p.Slots = append(p.Slots, RandomSlot(24, rng))
		}
		return p.Marshal()
	}
	one, three, none := mk(1, 1), mk(3, 3), mk(0, 0)

	var p Packet
	for _, b := range [][]byte{three, one, none, three, one} {
		if err := ParsePacket(b, &p); err != nil {
			t.Fatal(err)
		}
		want, _ := UnmarshalPacket(b)
		if p.Seq != want.Seq || p.Flow != want.Flow || p.SlotLen != want.SlotLen || len(p.Slots) != len(want.Slots) {
			t.Fatalf("ParsePacket header %+v, UnmarshalPacket %+v", p, want)
		}
		for i := range p.Slots {
			if !bytes.Equal(p.Slots[i], want.Slots[i]) || &p.Slots[i][0] != &b[packetHeader+i*24] {
				t.Fatalf("slot %d is not a view of the input", i)
			}
		}
	}
	if err := ParsePacket(three[:len(three)-1], &p); err != ErrTruncated {
		t.Fatalf("truncated packet: err %v", err)
	}

	ParsePacket(three, &p)
	kept := p.Clone()
	ParsePacket(one, &p)
	ParsePacket(mk(9, 3), &p)
	if kept.Seq != 3 || len(kept.Slots) != 3 || !bytes.Equal(kept.Slots[2], three[packetHeader+48:]) {
		t.Fatal("clone changed when its source was parsed over")
	}
	ParsePacket(one, &p)
	kept = p.Clone()
	ParsePacket(mk(5, 1), &p)
	if kept.Seq != 1 || !bytes.Equal(kept.Slots[0], one[packetHeader:]) {
		t.Fatal("single-slot clone shares its slot table with the source")
	}

	for _, b := range [][]byte{one, three} {
		if n := testing.AllocsPerRun(100, func() { ParsePacket(b, &p) }); n != 0 {
			t.Fatalf("ParsePacket of %d slots allocates %v times per call into warm storage", b[16], n)
		}
	}
}
