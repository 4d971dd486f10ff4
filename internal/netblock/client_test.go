package netblock

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ebslab/internal/storage"
)

// TestInFlightCallFailsWhenConnDies is the regression for the readLoop
// contract: a call whose connection dies mid-response must get a real error
// promptly — not hang forever on its response channel.
func TestInFlightCallFailsWhenConnDies(t *testing.T) {
	srvConn, cliConn := net.Pipe()
	c := NewClient(cliConn)
	defer c.Close()
	go func() {
		// Accept the request, then kill the connection without answering —
		// a server crash mid-call.
		ReadRequest(srvConn)
		srvConn.Close()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := c.Read(1, 0, storage.BlockSize)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call succeeded against a server that died mid-call")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call hung after the connection died")
	}
}

// TestServerCloseMidCallReturnsWithinDeadline kills a real TCP server while
// a call is stalled inside it: the client must return well before its
// (generous) deadline, via the readLoop's connection-death signal.
func TestServerCloseMidCallReturnsWithinDeadline(t *testing.T) {
	bs := storage.NewBlockServer(storage.NewChunkServer(1 << 20))
	srv := NewServer(bs)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	c, err := DialConfig("tcp", l.Addr().String(), Config{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.AddSegment(1, 16); err != nil {
		t.Fatal(err)
	}
	// Stall the next request long enough for Close to land mid-call.
	srv.SetFaultHook(func(*Request) FaultDecision {
		return FaultDecision{DelayUS: 300_000}
	})
	go func() {
		time.Sleep(30 * time.Millisecond)
		srv.Close()
	}()
	start := time.Now()
	err = c.Write(1, 0, make([]byte, storage.BlockSize))
	if err == nil {
		t.Fatal("write succeeded through a server killed mid-call")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("call took %v to fail; the deadline, not the conn death, saved it", elapsed)
	}
}

// TestCallTimesOutOnSilentServer: a peer that accepts the request but never
// answers (and keeps the connection open) is caught by the per-call
// deadline.
func TestCallTimesOutOnSilentServer(t *testing.T) {
	srvConn, cliConn := net.Pipe()
	c := NewClientConfig(cliConn, Config{Timeout: 50 * time.Millisecond})
	defer c.Close()
	silent := make(chan struct{})
	go func() {
		ReadRequest(srvConn) // swallow the request, never reply
		<-silent
		srvConn.Close()
	}()
	defer close(silent)
	_, err := c.Read(1, 0, storage.BlockSize)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("error = %v, want ErrTimeout", err)
	}
}

// TestRedialAfterReset: connection resets are retried on a fresh connection,
// transparently to the caller, with the retry counter recording the work.
func TestRedialAfterReset(t *testing.T) {
	bs := storage.NewBlockServer(storage.NewChunkServer(1 << 20))
	srv := NewServer(bs)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	var n atomic.Int64
	srv.SetFaultHook(func(*Request) FaultDecision {
		if n.Add(1) <= 2 {
			return FaultDecision{Fault: FaultReset}
		}
		return FaultDecision{}
	})
	c, err := DialConfig("tcp", l.Addr().String(), Config{
		Timeout: 5 * time.Second, MaxRetries: 5, BackoffBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.AddSegment(1, 16); err != nil {
		t.Fatalf("call failed despite retry budget: %v", err)
	}
	if c.Retries() == 0 {
		t.Fatal("resets were served without any recorded retry")
	}
	if srv.FaultsInjected() < 2 {
		t.Fatalf("server injected %d faults, want >= 2", srv.FaultsInjected())
	}
	// The redialed connection is healthy.
	if err := c.Write(1, 0, make([]byte, storage.BlockSize)); err != nil {
		t.Fatalf("connection unhealthy after redial: %v", err)
	}
}

// TestNoRetriesWithoutBudget: the zero Config keeps the legacy semantics —
// one attempt, no retry.
func TestNoRetriesWithoutBudget(t *testing.T) {
	srvConn, cliConn := net.Pipe()
	c := NewClient(cliConn)
	defer c.Close()
	go func() {
		ReadRequest(srvConn)
		srvConn.Close()
	}()
	if _, err := c.Read(1, 0, storage.BlockSize); err == nil {
		t.Fatal("call succeeded over a dying pipe")
	}
	if got := c.Retries(); got != 0 {
		t.Fatalf("zero-config client retried %d times", got)
	}
}

// TestBackoffDeterministicJitter pins the backoff schedule: exponential
// growth capped at backoffCap, jitter inside [50%, 100%], and bit-identical
// for the same (Seed, call ID, attempt).
func TestBackoffDeterministicJitter(t *testing.T) {
	mk := func(seed int64) *Client { return &Client{cfg: Config{Seed: seed}} }
	a, b := mk(42), mk(42)
	base, cap := time.Millisecond, backoffCap
	for attempt := 0; attempt < 12; attempt++ {
		d := a.backoff(7, attempt)
		if d != b.backoff(7, attempt) {
			t.Fatalf("attempt %d: backoff not deterministic", attempt)
		}
		want := base << uint(attempt)
		if want <= 0 || want > cap {
			want = cap
		}
		if d < want/2 || d > want {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, want/2, want)
		}
	}
	other := mk(43)
	same := true
	for attempt := 0; attempt < 12; attempt++ {
		if other.backoff(7, attempt) != a.backoff(7, attempt) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed does not perturb the jitter stream")
	}
}
