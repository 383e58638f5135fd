// Command slicesend is the source utility of the paper's prototype (§7.1):
// given a list of willing overlay nodes and the protocol parameters L, d,
// d', it arranges the relays into a forwarding graph, anonymously
// establishes it via sliced routing blocks injected from the source
// endpoints (the source plus its pseudo-sources, §3c), and streams a
// message — or a file — to the hidden destination.
//
// Usage:
//
//	slicesend -book overlay.book -relays 1,2,3,4,5,6 -dest 6 \
//	          -sources 100,101 -L 3 -d 2 -msg "Let's meet at 5pm"
//
//	slicesend -book overlay.book -relays 1,2,3,4,5,6 -dest 6 \
//	          -sources 100,101,102 -L 2 -d 2 -dprime 3 \
//	          -in secret.tar -chunk 4096 -gap 50ms
//
// The source endpoints must also appear in the address book: they listen
// there for the establishment acknowledgment the destination floods back
// (§7.4), which is what lets slicesend retransmit a setup wave lost to a
// dead or slow relay instead of streaming into the void. With -gap the
// payload is paced, and with -resetup the (idempotent) setup wave is
// re-injected periodically so a relay that crashed and restarted
// mid-transfer can rejoin the graph.
package main

import (
	"flag"
	"log"
	"math/rand"
	"os"
	"time"

	"infoslicing/internal/core"
	"infoslicing/internal/simnet"
	"infoslicing/internal/source"
	"infoslicing/internal/wire"

	"infoslicing/cmd/internal/book"
)

func main() {
	bookPath := flag.String("book", "overlay.book", "address book file")
	relaysFlag := flag.String("relays", "", "comma-separated relay ids (L*d' of them)")
	destFlag := flag.Uint("dest", 0, "destination id (must be among -relays)")
	sourcesFlag := flag.String("sources", "", "comma-separated source endpoint ids (d' of them, in the book)")
	l := flag.Int("L", 3, "path length (relay stages)")
	d := flag.Int("d", 2, "split factor")
	dp := flag.Int("dprime", 0, "slices sent per message (default d; > d adds churn redundancy)")
	msg := flag.String("msg", "hello from information slicing", "message to send anonymously")
	inPath := flag.String("in", "", "send this file instead of -msg, chopped into -chunk byte messages")
	chunk := flag.Int("chunk", 4096, "bytes per message when sending -in")
	repeat := flag.Int("repeat", 1, "number of copies to send (-msg mode)")
	gap := flag.Duration("gap", 0, "pause between messages (paces a transfer)")
	resetup := flag.Duration("resetup", 0, "re-inject the setup wave at this interval during the transfer (0 = off)")
	estTimeout := flag.Duration("establish-timeout", 10*time.Second, "how long to wait for the establishment ack")
	seed := flag.Int64("seed", 0, "rng seed (0 = process base seed, printed for replay)")
	transportKind := flag.String("transport", "tcp", "wire transport: tcp (stream, reconnecting) or udp (congestion-controlled datagrams; loss absorbed by slicing redundancy, never retransmitted)")
	flag.Parse()

	if *dp == 0 {
		*dp = *d
	}
	if *seed == 0 {
		*seed = simnet.NextSeed()
	}
	addrs, err := book.Load(*bookPath)
	if err != nil {
		log.Fatalf("slicesend: %v", err)
	}
	relays, err := book.ParseIDs(*relaysFlag)
	if err != nil {
		log.Fatalf("slicesend: -relays: %v", err)
	}
	sources, err := book.ParseIDs(*sourcesFlag)
	if err != nil {
		log.Fatalf("slicesend: -sources: %v", err)
	}
	if *chunk <= 0 {
		log.Fatalf("slicesend: -chunk must be positive, got %d", *chunk)
	}
	var payloads [][]byte
	if *inPath != "" {
		blob, err := os.ReadFile(*inPath)
		if err != nil {
			log.Fatalf("slicesend: %v", err)
		}
		for off := 0; off < len(blob); off += *chunk {
			end := min(off+*chunk, len(blob))
			payloads = append(payloads, blob[off:end])
		}
	} else {
		for i := 0; i < *repeat; i++ {
			payloads = append(payloads, []byte(*msg))
		}
	}

	// Printed up front so any later failure — establishment, a lossy
	// transfer, corrupt output — is replayable with -seed.
	log.Printf("slicesend: seed %d", *seed)

	tr, err := book.NewTransport(*transportKind, addrs)
	if err != nil {
		log.Fatalf("slicesend: %v", err)
	}
	defer tr.Close()
	// The endpoints listen: the destination's establishment ack (and, were
	// repair enabled, failure reports) come back to them hop by hop.
	eps, err := source.AttachEndpoints(tr, sources)
	if err != nil {
		log.Fatalf("slicesend: %v", err)
	}
	defer eps.Close()

	rng := rand.New(rand.NewSource(*seed))
	g, err := core.Build(core.Spec{
		L: *l, D: *d, DPrime: *dp,
		Relays: relays, Dest: wire.NodeID(*destFlag), Sources: sources,
		Recode: true, Scramble: true, Rng: rng,
	})
	if err != nil {
		log.Fatalf("slicesend: %v", err)
	}
	snd := source.New(tr, g, source.Config{}, rng)
	start := time.Now()
	if err := snd.EstablishAndWait(eps, *estTimeout); err != nil {
		log.Fatalf("slicesend: establish: %v", err)
	}
	log.Printf("graph established in %v: L=%d d=%d d'=%d, destination hidden in stage %d of %d",
		time.Since(start), *l, *d, *dp, g.DestStage, *l)

	lastSetup := time.Now()
	sent := 0
	for _, p := range payloads {
		if *resetup > 0 && time.Since(lastSetup) >= *resetup {
			// Idempotent at every live relay; a relay that crashed and
			// came back decodes a fresh routing block and rejoins.
			if err := snd.Establish(); err != nil {
				log.Printf("slicesend: re-setup: %v", err)
			}
			lastSetup = time.Now()
		}
		if err := snd.Send(p); err != nil {
			log.Fatalf("slicesend: send: %v", err)
		}
		sent += len(p)
		if *gap > 0 {
			time.Sleep(*gap)
		}
	}
	// Transport Close drains each peer's queued frames (bounded by the
	// drain timeout); the extra beat lets the last round cross the graph.
	time.Sleep(500 * time.Millisecond)
	log.Printf("sent %d message(s), %d bytes, along %d disjoint paths", len(payloads), sent, *dp)
	log.Printf("slicesend flow: %v", snd.Counters())
	log.Printf("slicesend transport: %v", tr.Counters())
}
