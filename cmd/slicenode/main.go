// Command slicenode runs information-slicing overlay daemons — the
// per-host program of the paper's prototype (§7.1). It listens at its
// address-book endpoints, maintains a flow table keyed on flow-ids,
// forwards slices per the maps delivered in its sliced routing blocks, and
// prints (or writes) any message for which one of its relays turns out to
// be the destination.
//
// Usage:
//
//	slicenode -id 3 -book overlay.book
//	slicenode -id 2,3,5 -book overlay.book -out received.bin
//
// where overlay.book has one "id host:port" pair per line, e.g.
//
//	1 127.0.0.1:7001
//	2 127.0.0.2:7002
//	3 127.0.0.1:7003
//
// -id accepts a comma-separated list so one process can host several
// relays (a deployment packing more than one overlay identity per host);
// all of them share one transport — and therefore one connection (TCP) or
// one paced datagram peer (UDP, -transport=udp) per remote host, the peer
// model of internal/transport.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"infoslicing/internal/relay"

	"infoslicing/cmd/internal/book"
)

func main() {
	ids := flag.String("id", "", "this process's overlay id(s), comma-separated (each must appear in the book)")
	bookPath := flag.String("book", "overlay.book", "address book file: lines of 'id host:port'")
	outPath := flag.String("out", "", "append received message payloads to this file (default: print them)")
	transportKind := flag.String("transport", "tcp", "wire transport: tcp (stream, reconnecting) or udp (congestion-controlled datagrams; loss absorbed by slicing redundancy, never retransmitted)")
	maxFlows := flag.Int("maxflows", 0, "flow-table bound per relay: resident flows before admission refuses creations (0: relay default)")
	tenantQuota := flag.Int("tenantquota", 0, "per-tenant flow quota: max flows any one previous-hop may hold at a relay (0: no per-tenant bound below -maxflows)")
	flag.Parse()
	if *ids == "" {
		log.Fatal("slicenode: -id is required")
	}
	nodeIDs, err := book.ParseIDs(*ids)
	if err != nil {
		log.Fatalf("slicenode: -id: %v", err)
	}
	addrs, err := book.Load(*bookPath)
	if err != nil {
		log.Fatalf("slicenode: %v", err)
	}
	var out *os.File
	if *outPath != "" {
		out, err = os.OpenFile(*outPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("slicenode: %v", err)
		}
		defer out.Close()
	}
	tr, err := book.NewTransport(*transportKind, addrs)
	if err != nil {
		log.Fatalf("slicenode: %v", err)
	}
	defer tr.Close()

	// All relays of this process feed one delivery channel.
	delivered := make(chan relay.Message, 256)
	nodes := make([]*relay.Node, 0, len(nodeIDs))
	for _, id := range nodeIDs {
		node, err := relay.New(id, tr, relay.Config{
			MaxFlows:    *maxFlows,
			TenantQuota: *tenantQuota,
		})
		if err != nil {
			log.Fatalf("slicenode: relay %d: %v", id, err)
		}
		defer node.Close()
		nodes = append(nodes, node)
		go func(n *relay.Node) {
			for m := range n.Received() {
				delivered <- m
			}
		}(node)
		log.Printf("slicenode %d listening at %s", id, addrs[id])
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	for {
		select {
		case m := <-delivered:
			if out != nil {
				// No per-message fsync: Write alone updates the in-kernel
				// size (what pollers Stat) and durability-per-chunk would
				// make the receiver disk-flush-bound.
				if _, err := out.Write(m.Data); err != nil {
					log.Fatalf("slicenode: write -out: %v", err)
				}
				log.Printf("received anonymous message (flow %x): %d bytes -> %s",
					uint64(m.Flow), len(m.Data), *outPath)
				continue
			}
			fmt.Printf("received anonymous message (flow %x): %q\n", uint64(m.Flow), m.Data)
		case <-sig:
			// Every counter, by name: one line per relay, one for the transport.
			for _, n := range nodes {
				log.Printf("slicenode %d: flows=%d %v", n.ID(), n.FlowTableSize(), n.Counters())
			}
			log.Printf("slicenode transport: learned_endpoints=%d %v", tr.LearnedEndpoints(), tr.Counters())
			return
		}
	}
}
