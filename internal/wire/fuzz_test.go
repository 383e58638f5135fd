package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// Parsers must never panic on adversarial input — relays feed them raw
// bytes from the network.

func TestUnmarshalPacketNeverPanics(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}
	err := quick.Check(func(b []byte) bool {
		p, err := UnmarshalPacket(b)
		if err != nil {
			return true
		}
		// A successful parse must round-trip to the same header.
		rt, err2 := UnmarshalPacket(p.Marshal())
		return err2 == nil && rt.Flow == p.Flow && rt.Type == p.Type &&
			len(rt.Slots) == len(p.Slots)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalPerNodeInfoNeverPanics(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(2))}
	err := quick.Check(func(b []byte) bool {
		// Any outcome is fine; no panic is the property. The CRC makes a
		// random accept astronomically unlikely but not a failure.
		_, _ = UnmarshalPerNodeInfo(b)
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// Mutated valid info blocks must be rejected or parse to *something* without
// panicking — this exercises deeper branches than pure noise does.
func TestUnmarshalPerNodeInfoMutated(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := samplePerNodeInfo().Marshal()
	for i := 0; i < 5000; i++ {
		b := append([]byte(nil), base...)
		// 1-4 random mutations: flips, truncations, extensions.
		for m := 0; m < 1+rng.Intn(4); m++ {
			switch rng.Intn(3) {
			case 0:
				b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
			case 1:
				if len(b) > 1 {
					b = b[:1+rng.Intn(len(b)-1)]
				}
			case 2:
				b = append(b, byte(rng.Intn(256)))
			}
		}
		_, _ = UnmarshalPerNodeInfo(b) // must not panic
	}
}

// Control-plane parsers face the same adversary as the data-plane ones: a
// relay hands them whatever bytes arrive on the wire. Heartbeat, ParentDown,
// Splice, and Ack frames — genuine, mutated, and pure noise — must never
// panic.

func TestParseControlNeverPanics(t *testing.T) {
	cfg := &quick.Config{MaxCount: 4000, Rand: rand.New(rand.NewSource(5))}
	err := quick.Check(func(b []byte) bool {
		p, err := UnmarshalPacket(b)
		if err != nil {
			return true
		}
		// Whatever type the noise claims to be, the control parsers must
		// fail closed, never panic.
		_, _, _ = ParseParentDown(p)
		if body, err := ParseSplice(p); err == nil {
			_, _ = UnmarshalPerNodeInfo(body)
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMutatedControlFramesNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sealed := make([]byte, 64)
	rng.Read(sealed)
	bases := [][]byte{
		AppendHeartbeat(nil, 0xaaaa),
		AppendParentDown(nil, 0xbbbb, rng.Uint64(), sealed),
		AppendSplice(nil, 0xcccc, sealed),
		(&Packet{Type: MsgAck, Flow: 0xdddd}).Marshal(),
	}
	for _, base := range bases {
		for i := 0; i < 3000; i++ {
			b := append([]byte(nil), base...)
			for m := 0; m < 1+rng.Intn(4); m++ {
				switch rng.Intn(3) {
				case 0:
					b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
				case 1:
					if len(b) > 1 {
						b = b[:1+rng.Intn(len(b)-1)]
					}
				case 2:
					b = append(b, byte(rng.Intn(256)))
				}
			}
			p, err := UnmarshalPacket(b)
			if err != nil {
				continue
			}
			_, _, _ = ParseParentDown(p)
			_, _ = ParseSplice(p)
		}
	}
}

// A ParentDown whose sealed body has been tampered with must be rejected by
// the open step, not crash it; the report decoder itself must reject any
// length but the exact one.
func TestDownReportNeverPanics(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(7))}
	err := quick.Check(func(b []byte) bool {
		_, _ = UnmarshalDownReport(b)
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDecodeSlotNeverPanics(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(4))}
	err := quick.Check(func(b []byte, dRaw uint8) bool {
		d := int(dRaw%10) + 1
		_, _ = DecodeSlot(b, d)
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// FuzzParsePacket is the one parser every packet crosses, with DecodeSlot
// over every slot it claims: whatever bytes arrive, neither may panic or
// touch memory outside the input, and what they accept must say exactly
// what the input said — an accepted packet re-marshals to the bytes it was
// parsed from, an accepted slot re-encodes to the slot. The seeds (valid
// data / set-up / heartbeat packets, a truncated header, zero-length slots,
// and the largest slot area a header can claim: 255 × 65535 bytes, which an
// 8-bit count and a 16-bit length keep below 2^31 where int is 32 bits)
// live in testdata/fuzz.
func FuzzParsePacket(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// Exact capacity: a view reaching past the input is a slice-bounds
		// panic here, not a silent read of a neighbour's bytes.
		in := append(make([]byte, 0, len(data)), data...)
		var p Packet
		if err := ParsePacket(in, &p); err != nil {
			if len(in) >= HeaderLen && len(in) >= HeaderLen+int(in[16])*int(binary.BigEndian.Uint16(in[14:])) {
				t.Fatalf("rejected a packet that holds every byte it claims: %v", err)
			}
			return
		}
		if !bytes.Equal(in, data) {
			t.Fatal("parsing wrote to the input")
		}
		if p.Size() > len(in) || !bytes.Equal(p.Marshal(), in[:p.Size()]) {
			t.Fatalf("accepted packet does not re-marshal to its %d input bytes", p.Size())
		}
		if !bytes.Equal(p.SlotArea(), in[HeaderLen:p.Size()]) {
			t.Fatal("slot area is not the bytes behind the slots")
		}
		// The slot table is parse scratch: a Packet that last held another
		// shape must come out the same as a fresh one.
		q := Packet{Slots: make([][]byte, 3, 5)}
		if err := ParsePacket(in, &q); err != nil || len(q.Slots) != len(p.Slots) {
			t.Fatalf("reused Packet parsed to %d slots (%v), fresh to %d", len(q.Slots), err, len(p.Slots))
		}
		for i, slot := range p.Slots {
			if len(slot) != int(p.SlotLen) || cap(slot) != len(slot) {
				t.Fatalf("slot %d: len %d cap %d, header says %d", i, len(slot), cap(slot), p.SlotLen)
			}
			if !bytes.Equal(q.Slots[i], slot) {
				t.Fatalf("slot %d differs between a reused and a fresh Packet", i)
			}
			s, err := DecodeSlot(slot, int(p.CoeffLen))
			if err != nil {
				continue
			}
			if len(s.Coeff) != int(p.CoeffLen) || !bytes.Equal(EncodeSlot(s), slot) {
				t.Fatalf("slot %d: accepted slice does not re-encode to the slot", i)
			}
		}
	})
}
