// Package core constructs information-slicing forwarding graphs — the
// paper's primary contribution (Algorithm 1, §4.2-§4.3).
//
// A forwarding graph arranges L·d' relay nodes (the destination hidden
// uniformly among them) into L stages of d' nodes, fully connected between
// consecutive stages. The source must deliver to every relay x its private
// routing block Ix along d' vertex-disjoint paths, one slice per path, while
// reusing the same L·d' nodes for every relay's slices — the trick that
// avoids the exponential blow-up a naive recursion would cause.
//
// # Slice placement
//
// For the owner x with in-stage index j, slice k's holder at stage m is
// derived from per-stage-pair transfer maps
//
//	T_m(u, j) = λ_m( (μ_m(u) + j) mod d' )
//
// with λ_m, μ_m independent random permutations of the stage positions.
// Because T_m(u, ·) is a bijection for fixed u, every edge (u, v) between
// stages m and m+1 carries exactly one slice per downstream stage, and for
// each owner the holders form one-per-node bijections, which makes the d'
// slice paths vertex-disjoint. The packet on any edge therefore holds at
// most L slices — slot 0 is always the receiving node's own slice, slot t
// carries the slice owned by a node t stages further down — and is padded
// with random bytes to exactly L slots, so packet size is constant
// everywhere in the graph (§9.4c).
//
// # Maps
//
// From the placement the builder derives, for every relay, the slice-map
// (§4.3.6: which incoming slot moves to which outgoing slot, with one
// scrambling layer to strip, §9.4a) and the data-map (§4.3.7: which
// parent's data slice serves which child so that every node receives d'
// distinct coded slices per message). Both ride inside Ix and are opaque to
// every other node.
package core

import (
	"errors"
	"fmt"

	"math/rand"

	"infoslicing/internal/code"
	"infoslicing/internal/slcrypto"
	"infoslicing/internal/wire"
)

// Spec describes the graph the source wants to build.
type Spec struct {
	L      int  // number of relay stages (path length, Table 1)
	D      int  // split factor: slices needed to decode
	DPrime int  // slices sent per message, d' ≥ d (§4.4); also stage width
	Recode bool // relays regenerate redundancy via network coding (§4.4.1)

	// Scramble enables the per-hop pattern-hiding transforms of §9.4a.
	Scramble bool

	// Relays lists the L*DPrime overlay nodes to arrange into stages.
	// Dest must appear in it; its stage and position are chosen uniformly
	// at random, hiding it among the relays (§4.2.1).
	Relays []wire.NodeID
	Dest   wire.NodeID

	// Sources are the d' source endpoints: the source plus its
	// pseudo-sources (§3c), each of which originates one disjoint path.
	Sources []wire.NodeID

	Rng *rand.Rand
}

// Send is one packet the source side must emit to establish the graph.
type Send struct {
	From wire.NodeID // source endpoint
	To   wire.NodeID // stage-1 relay
	Pkt  *wire.Packet
}

// Graph is a fully constructed forwarding graph, including everything the
// source knows: stage layout, per-node secrets, and the setup packets.
type Graph struct {
	Spec
	Stages    [][]wire.NodeID // [L][DPrime]
	DestStage int             // 1-indexed stage of the destination
	DestPos   int

	Infos map[wire.NodeID]*wire.PerNodeInfo
	Flows map[wire.NodeID]wire.FlowID           // flow-id stamped on packets TO the node
	Keys  map[wire.NodeID]slcrypto.SymmetricKey // per-node symmetric secrets

	SlotLen int // bytes per setup slice slot
	Setup   []Send
	DestKey slcrypto.SymmetricKey

	// holders[x][k][m] = in-stage position of slice k of owner x at stage m
	// (m=0 is the source stage). Retained for validation and tests.
	holders map[wire.NodeID][][]int

	// chains[x,k] is the scrambling chain pre-applied to slice k of owner x;
	// relays along the path strip one layer each (§9.4a).
	chains map[chainKey][]wire.Transform

	// spliceSeq counts repairs on this graph; every splice patch carries it
	// so relays can drop stale or reordered patches (see Splice).
	spliceSeq uint64
}

// Validation errors.
var (
	ErrSpec = errors.New("core: invalid graph spec")
)

// Build runs Algorithm 1 and derives all per-node state.
func Build(s Spec) (*Graph, error) {
	if err := checkSpec(&s); err != nil {
		return nil, err
	}
	g := &Graph{
		Spec:    s,
		Infos:   make(map[wire.NodeID]*wire.PerNodeInfo),
		Flows:   make(map[wire.NodeID]wire.FlowID),
		Keys:    make(map[wire.NodeID]slcrypto.SymmetricKey),
		holders: make(map[wire.NodeID][][]int),
	}
	g.layoutStages()
	g.assignFlowsAndKeys()
	if err := g.placeSlices(); err != nil {
		return nil, err
	}
	if err := g.buildInfos(); err != nil {
		return nil, err
	}
	if err := g.encodeSetup(); err != nil {
		return nil, err
	}
	return g, nil
}

func checkSpec(s *Spec) error {
	switch {
	case s.L < 1:
		return fmt.Errorf("%w: L=%d", ErrSpec, s.L)
	case s.D < 1 || s.DPrime < s.D:
		return fmt.Errorf("%w: d=%d d'=%d", ErrSpec, s.D, s.DPrime)
	case s.DPrime > 255 || s.L > 255:
		return fmt.Errorf("%w: L=%d d'=%d exceed wire limits", ErrSpec, s.L, s.DPrime)
	case len(s.Relays) != s.L*s.DPrime:
		return fmt.Errorf("%w: need %d relays, have %d", ErrSpec, s.L*s.DPrime, len(s.Relays))
	case len(s.Sources) != s.DPrime:
		return fmt.Errorf("%w: need %d source endpoints, have %d", ErrSpec, s.DPrime, len(s.Sources))
	case s.Rng == nil:
		return fmt.Errorf("%w: nil rng", ErrSpec)
	}
	seen := make(map[wire.NodeID]bool, len(s.Relays)+len(s.Sources))
	hasDest := false
	for _, id := range s.Relays {
		if seen[id] {
			return fmt.Errorf("%w: duplicate node %d", ErrSpec, id)
		}
		seen[id] = true
		if id == s.Dest {
			hasDest = true
		}
	}
	for _, id := range s.Sources {
		if seen[id] {
			return fmt.Errorf("%w: source endpoint %d also a relay", ErrSpec, id)
		}
		seen[id] = true
	}
	if !hasDest {
		return fmt.Errorf("%w: destination %d not among relays", ErrSpec, s.Dest)
	}
	return nil
}

// layoutStages shuffles the relays into L stages of d' nodes. The
// destination lands wherever the shuffle puts it — uniformly random, as the
// anonymity analysis assumes.
func (g *Graph) layoutStages() {
	shuffled := append([]wire.NodeID(nil), g.Relays...)
	g.Rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	g.Stages = make([][]wire.NodeID, g.L)
	for l := 0; l < g.L; l++ {
		g.Stages[l] = shuffled[l*g.DPrime : (l+1)*g.DPrime]
		for p, id := range g.Stages[l] {
			if id == g.Dest {
				g.DestStage, g.DestPos = l+1, p
			}
		}
	}
}

func (g *Graph) assignFlowsAndKeys() {
	for _, st := range g.Stages {
		for _, id := range st {
			g.Flows[id] = wire.FlowID(g.Rng.Uint64())
			var k slcrypto.SymmetricKey
			fillBytes(k[:], g.Rng)
			g.Keys[id] = k
		}
	}
	g.DestKey = g.Keys[g.Dest]
}

// placeSlices computes holders[x][k][m] per the Latin-square transfer maps.
func (g *Graph) placeSlices() error {
	dp := g.DPrime
	// Per stage pair m -> m+1 (m = 0..L-2): permutations λ_m, μ_m.
	lambda := make([][]int, g.L-1)
	mu := make([][]int, g.L-1)
	for m := range lambda {
		lambda[m] = g.Rng.Perm(dp)
		mu[m] = g.Rng.Perm(dp)
	}
	for l := 1; l <= g.L; l++ { // owner stage, 1-indexed
		for j, x := range g.Stages[l-1] {
			hs := make([][]int, dp)
			rho := g.Rng.Perm(dp) // source-endpoint assignment per owner
			for k := 0; k < dp; k++ {
				// positions at stages 0..l-1
				path := make([]int, l)
				path[0] = rho[k]
				for m := 0; m < l-1; m++ {
					path[m+1] = lambda[m][(mu[m][path[m]]+j)%dp]
				}
				hs[k] = path
			}
			g.holders[x] = hs
		}
	}
	return nil
}

// nodeAt returns the node at (stage, pos) with stage 0 meaning the source
// endpoints.
func (g *Graph) nodeAt(stage, pos int) wire.NodeID {
	if stage == 0 {
		return g.Sources[pos]
	}
	return g.Stages[stage-1][pos]
}

// transforms draws the scrambling chain for one slice travelling to a
// stage-l owner: layers for the relays at stages 1..l-1.
func (g *Graph) transforms(l int) []wire.Transform {
	chain := make([]wire.Transform, l-1)
	if !g.Scramble {
		return chain // identity layers
	}
	for i := range chain {
		chain[i] = wire.RandomTransform(g.Rng)
	}
	return chain
}

// buildInfos derives every relay's PerNodeInfo and remembers the scrambling
// chains so encodeSetup can pre-apply them.
func (g *Graph) buildInfos() error {
	dp := g.DPrime
	g.chains = make(map[chainKey][]wire.Transform)
	for l := 1; l <= g.L; l++ {
		for j, x := range g.Stages[l-1] {
			pi := &wire.PerNodeInfo{
				Receiver: x == g.Dest,
				Recode:   g.Recode,
				Key:      g.Keys[x],
			}
			if l < g.L {
				pi.Children = append([]wire.NodeID(nil), g.Stages[l]...)
				pi.ChildFlows = make([]wire.FlowID, dp)
				for c, ch := range g.Stages[l] {
					pi.ChildFlows[c] = g.Flows[ch]
				}
			}
			// Data-map (§4.3.7): stage 1 serves child c from source endpoint
			// (j+c) mod d'; later stages serve child c from the parent at
			// position c. Either way each child ends the round holding d'
			// distinct coded slices (see package comment), and every block
			// names all d' parents: a last-stage block, which has no child,
			// lists them in entries that feed none.
			pi.DataMap = make([]wire.DataForward, dp)
			for c := range pi.DataMap {
				parentPos, child := c, uint8(c)
				if l == 1 {
					parentPos = (j + c) % dp
				}
				if l == g.L {
					child = wire.NoChild
				}
				pi.DataMap[c] = wire.DataForward{Parent: g.nodeAt(l-1, parentPos), Child: child}
			}
			g.Infos[x] = pi
		}
	}
	// Slice-map entries: walk every slice path once.
	for l := 1; l <= g.L; l++ {
		for j, x := range g.Stages[l-1] {
			hs := g.holders[x]
			for k := 0; k < dp; k++ {
				chain := g.transforms(l)
				g.chains[chainKey{x, k}] = chain
				path := hs[k]
				// Relay at stage m (1..l-1) forwards this slice.
				for m := 1; m < l; m++ {
					relay := g.nodeAt(m, path[m])
					var childPos int
					if m == l-1 {
						childPos = j
					} else {
						childPos = path[m+1]
					}
					entry := wire.SliceForward{
						Child:   uint8(childPos),
						DstSlot: uint8(l - m - 1),
						Src: wire.SlotRef{
							Parent: g.nodeAt(m-1, path[m-1]),
							Slot:   uint8(l - m),
						},
						Unscramble: chain[m-1],
					}
					g.Infos[relay].SliceMap = append(g.Infos[relay].SliceMap, entry)
				}
			}
		}
	}
	return nil
}

type chainKey struct {
	owner wire.NodeID
	k     int
}

// encodeSetup slices every Ix, scrambles each slice with its chain, and
// assembles the source-endpoint packets (slot t of the packet from endpoint
// e to stage-1 node v carries the slice owned by a stage-(t+1) node whose
// path starts at (e, v)).
func (g *Graph) encodeSetup() error {
	dp := g.DPrime
	// Serialize and pad all infos to a common length so every slice slot in
	// the graph has identical size.
	blobs := make(map[wire.NodeID][]byte, len(g.Infos))
	maxLen := 0
	for id, pi := range g.Infos {
		b := pi.Marshal()
		blobs[id] = b
		if len(b) > maxLen {
			maxLen = len(b)
		}
	}
	enc, err := code.NewEncoder(g.D, dp, g.Rng)
	if err != nil {
		return err
	}
	// Slot size: coeff(d) + payload + crc. Payload length is what Chop
	// produces for the padded blob.
	padded := make([]byte, maxLen)
	payloadLen := len(code.Chop(padded, g.D)[0])
	g.SlotLen = wire.SlotLenFor(g.D, payloadLen)

	// Source packets, keyed (endpoint pos, stage-1 pos).
	pkts := make([][]*wire.Packet, dp)
	for e := range pkts {
		pkts[e] = make([]*wire.Packet, dp)
		for v := range pkts[e] {
			p := &wire.Packet{
				Type:     wire.MsgSetup,
				Flow:     g.Flows[g.Stages[0][v]],
				CoeffLen: uint8(g.D),
				SlotLen:  uint16(g.SlotLen),
				Slots:    make([][]byte, g.L),
			}
			pkts[e][v] = p
		}
	}

	for l := 1; l <= g.L; l++ {
		for _, x := range g.Stages[l-1] {
			blob := blobs[x]
			paddedBlob := make([]byte, maxLen)
			copy(paddedBlob, blob)
			slices, err := enc.Encode(paddedBlob)
			if err != nil {
				return err
			}
			hs := g.holders[x]
			for k := 0; k < dp; k++ {
				slot := wire.EncodeSlot(slices[k])
				if len(slot) != g.SlotLen {
					return fmt.Errorf("core: slot size %d != %d", len(slot), g.SlotLen)
				}
				wire.Compose(slot, g.chains[chainKey{x, k}])
				e := hs[k][0]
				var v int
				if l == 1 {
					// Own slice of a stage-1 node: delivered directly in
					// slot 0 of the packet to that node.
					v = g.posInStage(1, x)
				} else {
					v = hs[k][1]
				}
				p := pkts[e][v]
				slotIdx := l - 1
				if p.Slots[slotIdx] != nil {
					return fmt.Errorf("core: slot collision at endpoint %d relay %d slot %d", e, v, slotIdx)
				}
				p.Slots[slotIdx] = slot
			}
		}
	}
	// Pad unused slots with randomness and emit sends.
	for e := range pkts {
		for v, p := range pkts[e] {
			for i, s := range p.Slots {
				if s == nil {
					p.Slots[i] = wire.RandomSlot(g.SlotLen, g.Rng)
				}
			}
			g.Setup = append(g.Setup, Send{
				From: g.Sources[e],
				To:   g.Stages[0][v],
				Pkt:  p,
			})
		}
	}
	return nil
}

func (g *Graph) posInStage(stage int, id wire.NodeID) int {
	for p, n := range g.Stages[stage-1] {
		if n == id {
			return p
		}
	}
	panic(fmt.Sprintf("core: node %d not in stage %d", id, stage))
}

// Stage1 returns the nodes of the first relay stage, in position order.
func (g *Graph) Stage1() []wire.NodeID {
	return append([]wire.NodeID(nil), g.Stages[0]...)
}

// HolderPath returns the relays that carry slice k of owner x, in stage
// order (stages 1..stage(x)-1). The source endpoint at stage 0 is omitted.
// This is source-side knowledge, exposed for analysis and auditing.
func (g *Graph) HolderPath(x wire.NodeID, k int) []wire.NodeID {
	hs, ok := g.holders[x]
	if !ok || k < 0 || k >= len(hs) {
		return nil
	}
	path := hs[k]
	out := make([]wire.NodeID, 0, len(path)-1)
	for m := 1; m < len(path); m++ {
		out = append(out, g.nodeAt(m, path[m]))
	}
	return out
}

// StageOf returns the 1-indexed stage of a relay, or 0 if unknown.
func (g *Graph) StageOf(id wire.NodeID) int {
	for l, st := range g.Stages {
		for _, n := range st {
			if n == id {
				return l + 1
			}
		}
	}
	return 0
}

func fillBytes(b []byte, rng *rand.Rand) {
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
}
