package relay

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"infoslicing/internal/wire"
)

// routeOf reads a flow's route back as a block: its children and their flows,
// flags and key, and the data map as stageRound walks it.
func routeOf(fs *flowState) *wire.PerNodeInfo {
	pi := &wire.PerNodeInfo{
		Key:      fs.route.key,
		Receiver: fs.has(routeReceiver), Recode: fs.has(routeRecode), Spliced: fs.has(routeSpliced),
	}
	kids, flows := fs.kids()
	pi.Children, pi.ChildFlows = slices.Clone(kids), slices.Clone(flows)
	pi.DataMap = fs.dataMap(nil)
	return pi
}

// routeSeeds are blocks of every shape the in-place decode distinguishes: the
// builder's (three children, a data map in child order), a fan-out and a
// parent set past the inline room, a data map that does not fold (a parent
// feeding two children, children out of order, entries naming no child), a
// leaf naming parents in its slice map, and the builder's leaf block (its d'
// parents as data-map entries that feed no child, wire.NoChild).
func routeSeeds() []*wire.PerNodeInfo {
	key := testKey(0x3c)
	sm := func(parents ...wire.NodeID) (m []wire.SliceForward) {
		for i, p := range parents {
			m = append(m, wire.SliceForward{Child: uint8(i % 3), DstSlot: 1, Src: wire.SlotRef{Parent: p, Slot: 2},
				Unscramble: wire.Transform{Scalar: 7, Seed: uint64(p)}})
		}
		return m
	}
	return []*wire.PerNodeInfo{
		{
			Children: []wire.NodeID{11, 12, 13}, ChildFlows: []wire.FlowID{0x11, 0x12, 0x13}, Recode: true, Key: key,
			DataMap:  []wire.DataForward{{Parent: 1, Child: 0}, {Parent: 2, Child: 1}, {Parent: 3, Child: 2}},
			SliceMap: sm(1, 2, 3, 1, 2, 3),
		},
		{
			Children:   []wire.NodeID{21, 22, 23, 24, 25, 26},
			ChildFlows: []wire.FlowID{0x21, 0x22, 0x23, 0x24, 0x25, 0x26}, Receiver: true, Key: key,
			DataMap: []wire.DataForward{{Parent: 1, Child: 0}, {Parent: 2, Child: 1}, {Parent: 3, Child: 2},
				{Parent: 4, Child: 3}, {Parent: 5, Child: 4}, {Parent: 6, Child: 5}},
			SliceMap: sm(6, 7, 8),
		},
		{
			Children: []wire.NodeID{31, 32, 33}, ChildFlows: []wire.FlowID{0x31, 0x32, 0x33}, Spliced: true, Key: key,
			DataMap: []wire.DataForward{{Parent: 1, Child: 2}, {Parent: 2, Child: 9}, {Parent: 1, Child: 0},
				{Parent: 3, Child: 1}},
		},
		{Receiver: true, Key: key, SliceMap: sm(1, 2)},
		{Key: key, DataMap: []wire.DataForward{{Parent: 1, Child: wire.NoChild}, {Parent: 2, Child: wire.NoChild}, {Parent: 3, Child: wire.NoChild}}},
	}
}

// FuzzRouteDecode holds the relay's in-place decode to wire's parser: on any
// bytes, UnmarshalPerNodeInfoInto — into a scratch still holding an earlier
// block — accepts exactly what UnmarshalPerNodeInfo accepts and yields the
// same block, and a flow that takes it as its route, over an earlier route of
// another shape, reads back the same children, child flows, flags and key, and
// the same data map (its entries naming a child, in block order), inline or
// spilled; its hop table holds exactly the maps' parents.
func FuzzRouteDecode(f *testing.F) {
	seeds := routeSeeds()
	for i, pi := range seeds {
		b := pi.Marshal()
		f.Add(uint8(i), b)
		f.Add(uint8(i+1), append(b, 0, 0, 0))                       // padded
		f.Add(uint8(i+2), b[:len(b)-5])                             // truncated
		f.Add(uint8(i+3), append([]byte("IXSL"), b[4:len(b)/2]...)) // cut mid-map
	}
	f.Fuzz(func(t *testing.T, prev uint8, b []byte) {
		want, werr := wire.UnmarshalPerNodeInfo(b)
		scratch := *seeds[int(prev)%len(seeds)].Clone()
		gerr := wire.UnmarshalPerNodeInfoInto(&scratch, b)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("UnmarshalPerNodeInfo says %v, the in-place decode %v", werr, gerr)
		}
		if werr != nil {
			return
		}
		if !slices.Equal(scratch.Children, want.Children) || !slices.Equal(scratch.ChildFlows, want.ChildFlows) ||
			!slices.Equal(scratch.SliceMap, want.SliceMap) || !slices.Equal(scratch.DataMap, want.DataMap) ||
			scratch.Key != want.Key || scratch.Receiver != want.Receiver || scratch.Recode != want.Recode || scratch.Spliced != want.Spliced {
			t.Fatalf("decoded in place\n%+v\nwant\n%+v", scratch, *want)
		}
		fs := &flowState{}
		old := seeds[int(prev>>4)%len(seeds)]
		fs.setRoute(old)
		fs.declareParents(old, 1)
		fs.setRoute(&scratch)
		fs.declareParents(&scratch, 2)

		got := routeOf(fs)
		if !slices.Equal(got.Children, want.Children) || !slices.Equal(got.ChildFlows, want.ChildFlows) ||
			got.Key != want.Key || got.Receiver != want.Receiver || got.Recode != want.Recode || got.Spliced != want.Spliced {
			t.Fatalf("route reads back %+v, want %+v", got, want)
		}
		var dm []wire.DataForward
		for _, e := range want.DataMap {
			if int(e.Child) < len(want.Children) {
				dm = append(dm, e)
			}
		}
		if !slices.Equal(got.DataMap, dm) {
			t.Fatalf("data map reads back %v, want %v", got.DataMap, dm)
		}
		parents := map[wire.NodeID]bool{}
		for _, e := range want.DataMap {
			parents[e.Parent] = true
		}
		for _, e := range want.SliceMap {
			parents[e.Src.Parent] = true
		}
		for _, h := range fs.hops() {
			if !parents[h.id] {
				t.Fatalf("hop %d recorded, the maps do not name it", h.id)
			}
		}
		if len(fs.hops()) != len(parents) {
			t.Fatalf("%d hops recorded, the maps name %d parents", len(fs.hops()), len(parents))
		}
	})
}

// TestFlowLayout holds a resting flow to one heap object the collector
// barely reads: flowState within 384 bytes with at most four pointer-bearing
// words — the LRU links, the tail and the spill — at its head, where the
// collector stops scanning after them, and the route, the inline hop records
// and the window header with none. The child index maps to flow-ids, so it is
// not scanned at all.
func TestFlowLayout(t *testing.T) {
	if size, rec := unsafe.Sizeof(flowState{}), unsafe.Sizeof(hop{}); size > 384 || rec > 32 {
		t.Errorf("flowState is %d bytes and a hop record %d, want at most 384 and 32", size, rec)
	}
	var words int
	var fields []string
	var scanned uintptr // the collector scans a record up to its last pointer word
	ty := reflect.TypeOf(flowState{})
	for i := range ty.NumField() {
		if f := ty.Field(i); pointerWords(f.Type) > 0 {
			words += pointerWords(f.Type)
			fields = append(fields, f.Name)
			scanned = f.Offset + f.Type.Size()
		}
	}
	if word := unsafe.Sizeof(uintptr(0)); words > 4 || scanned > 4*word {
		t.Errorf("flowState holds %d pointer words (%v) in its first %d bytes, want at most 4 in the first %d", words, fields, scanned, 4*word)
	}
	for _, v := range []any{route{}, hop{}, roundWindow{}} {
		if n := pointerWords(reflect.TypeOf(v)); n > 0 {
			t.Errorf("%T holds %d pointer words, want none", v, n)
		}
	}
	if f, _ := reflect.TypeOf(shard{}).FieldByName("byChild"); pointerWords(f.Type.Key())+pointerWords(f.Type.Elem()) > 0 {
		t.Errorf("the child index is a %v: its entries hold pointers", f.Type)
	}
}

// pointerWords counts the words of a value of type ty that the collector
// must scan.
func pointerWords(ty reflect.Type) (n int) {
	switch ty.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Chan, reflect.Func, reflect.UnsafePointer, reflect.Slice, reflect.String:
		return 1
	case reflect.Interface:
		return 2
	case reflect.Array:
		return ty.Len() * pointerWords(ty.Elem())
	case reflect.Struct:
		for i := range ty.NumField() {
			n += pointerWords(ty.Field(i).Type)
		}
	}
	return n
}
