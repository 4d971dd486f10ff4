package netblock

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ebslab/internal/storage"
	"ebslab/internal/xrand"
)

// Client-side errors.
var (
	// ErrTimeout reports a call that exceeded its per-call deadline.
	ErrTimeout = errors.New("netblock: call deadline exceeded")
	// ErrClosed reports use of a client after Close.
	ErrClosed = errors.New("netblock: client closed")

	errMidCall = errors.New("netblock: connection closed mid-call")
	errNoConn  = errors.New("netblock: connection down")
)

// Config tunes the client's resilience. The zero value is the legacy
// behaviour: no deadline, no retries (Dial still redials a dead connection
// on the next call, since it knows the address).
type Config struct {
	// Timeout is the per-call deadline (0 = wait forever). A timed-out call
	// abandons its connection: a peer that swallows one response cannot be
	// trusted with the rest of the pipeline.
	Timeout time.Duration
	// MaxRetries is how many extra transport-level attempts a call makes
	// after a transport failure (remote StatusError responses are final and
	// never retried). Note retried writes are at-least-once: the fault may
	// have struck after execution.
	MaxRetries int
	// BackoffBase is the first retry delay (default 1ms); attempt n waits
	// about BackoffBase << n, capped at 250ms, jittered into [50%, 100%].
	BackoffBase time.Duration
	// Seed drives the deterministic backoff jitter: a fixed (Seed, call ID,
	// attempt) always produces the same delay.
	Seed int64
}

// Client is a pipelining RPC client: many goroutines (worker threads) can
// issue requests concurrently over one connection; a demux goroutine routes
// responses back by request ID. When the connection dies, every in-flight
// call fails immediately with a real error — and if the client knows how to
// redial (Dial/DialConfig), the next attempt transparently reconnects.
type Client struct {
	cfg  Config
	dial func() (net.Conn, error) // nil: NewClient over a fixed conn

	nextID  atomic.Uint64
	retries atomic.Int64

	mu     sync.Mutex
	cs     *connState
	gen    int // bumped on every redial, to pair drop() with the conn it saw
	closed bool
}

// connState is one connection's demux state. A client replaces its
// connState wholesale on redial; abandoned states drain and die.
type connState struct {
	conn    net.Conn
	writeMu sync.Mutex // serializes request frames

	mu      sync.Mutex
	pending map[uint64]chan *Response
	readErr error
	done    chan struct{}
}

// Dial connects to a netblock server with the legacy zero Config.
func Dial(network, addr string) (*Client, error) {
	return DialConfig(network, addr, Config{})
}

// DialConfig connects to a netblock server with explicit resilience
// settings. The returned client redials automatically after connection
// loss.
func DialConfig(network, addr string, cfg Config) (*Client, error) {
	c := &Client{
		cfg:  cfg,
		dial: func() (net.Conn, error) { return net.Dial(network, addr) },
	}
	conn, err := c.dial()
	if err != nil {
		return nil, fmt.Errorf("netblock: dial: %w", err)
	}
	c.cs = newConnState(conn)
	c.gen = 1
	return c, nil
}

// NewClient wraps an established connection (handy for tests over
// net.Pipe). Without a dialer there is no redial: once the connection dies,
// calls fail.
func NewClient(conn net.Conn) *Client {
	return NewClientConfig(conn, Config{})
}

// NewClientConfig is NewClient with explicit resilience settings.
func NewClientConfig(conn net.Conn, cfg Config) *Client {
	return &Client{cfg: cfg, cs: newConnState(conn), gen: 1}
}

func newConnState(conn net.Conn) *connState {
	cs := &connState{
		conn:    conn,
		pending: make(map[uint64]chan *Response),
		done:    make(chan struct{}),
	}
	go cs.readLoop()
	return cs
}

// Close tears down the connection; in-flight calls fail and later calls
// return ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	cs := c.cs
	c.cs = nil
	c.mu.Unlock()
	if cs == nil {
		return nil
	}
	err := cs.conn.Close()
	<-cs.done
	return err
}

// Retries returns how many transport-level retries the client has made.
func (c *Client) Retries() int64 { return c.retries.Load() }

// RemoteAddr returns the current connection's remote address, or nil when
// the client has no live connection.
func (c *Client) RemoteAddr() net.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cs == nil {
		return nil
	}
	return c.cs.conn.RemoteAddr()
}

func (cs *connState) readLoop() {
	defer close(cs.done)
	for {
		resp, err := ReadResponse(cs.conn)
		cs.mu.Lock()
		if err != nil {
			cs.readErr = err
			for id, ch := range cs.pending {
				close(ch)
				delete(cs.pending, id)
			}
			cs.mu.Unlock()
			return
		}
		ch, ok := cs.pending[resp.ID]
		if ok {
			delete(cs.pending, resp.ID)
		}
		cs.mu.Unlock()
		if ok {
			ch <- resp // buffered: never blocks, even if the caller timed out
		}
	}
}

// register adds a pending slot for id, failing if the connection is
// already dead.
func (cs *connState) register(id uint64) (chan *Response, error) {
	ch := make(chan *Response, 1)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.readErr != nil {
		return nil, cs.readErr
	}
	cs.pending[id] = ch
	return ch, nil
}

func (cs *connState) forget(id uint64) {
	cs.mu.Lock()
	delete(cs.pending, id)
	cs.mu.Unlock()
}

// state returns the live connection, redialing if the previous one was
// dropped and the client knows how.
func (c *Client) state() (*connState, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, 0, ErrClosed
	}
	if c.cs == nil {
		if c.dial == nil {
			return nil, 0, errNoConn
		}
		conn, err := c.dial()
		if err != nil {
			return nil, 0, fmt.Errorf("netblock: redial: %w", err)
		}
		c.cs = newConnState(conn)
		c.gen++
	}
	return c.cs, c.gen, nil
}

// drop discards the connection a failed attempt used, unless a concurrent
// caller already replaced it.
func (c *Client) drop(cs *connState, gen int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen == gen && c.cs == cs {
		c.cs.conn.Close()
		c.cs = nil
	}
}

// attempt performs one wire exchange of req (already carrying its call ID).
func (c *Client) attempt(req *Request) (*Response, error) {
	cs, gen, err := c.state()
	if err != nil {
		return nil, err
	}
	ch, err := cs.register(req.ID)
	if err != nil {
		c.drop(cs, gen)
		return nil, fmt.Errorf("netblock: connection down: %w", err)
	}
	cs.writeMu.Lock()
	werr := WriteRequest(cs.conn, req)
	cs.writeMu.Unlock()
	if werr != nil {
		cs.forget(req.ID)
		c.drop(cs, gen) // frame may be half-written; the conn is desynced
		return nil, werr
	}
	var timeout <-chan time.Time
	if c.cfg.Timeout > 0 {
		tm := time.NewTimer(c.cfg.Timeout)
		defer tm.Stop()
		timeout = tm.C
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			c.drop(cs, gen)
			return nil, errMidCall
		}
		return resp, nil
	case <-timeout:
		cs.forget(req.ID)
		c.drop(cs, gen)
		return nil, fmt.Errorf("netblock: %s call: %w", req.Op, ErrTimeout)
	}
}

// call sends one request and waits for its response, retrying transport
// failures up to Config.MaxRetries times with capped exponential backoff
// and deterministic jitter.
func (c *Client) call(req *Request) (*Response, error) {
	if err := req.validate(); err != nil {
		return nil, err // unsendable: fail without touching the connection
	}
	req.ID = c.nextID.Add(1)
	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, err := c.attempt(req)
		if err == nil {
			return resp, resp.Err()
		}
		lastErr = err
		if attempt >= c.cfg.MaxRetries || errors.Is(err, ErrClosed) {
			return nil, lastErr
		}
		c.retries.Add(1)
		time.Sleep(c.backoff(req.ID, attempt))
	}
}

// backoffCap bounds the exponential retry backoff.
const backoffCap = 250 * time.Millisecond

// backoff computes the delay before retry #attempt of call id:
// BackoffBase << attempt, capped at backoffCap, jittered into [50%, 100%]
// by a splitmix64 hash of (Seed, id, attempt) — fully deterministic.
func (c *Client) backoff(id uint64, attempt int) time.Duration {
	base := c.cfg.BackoffBase
	if base <= 0 {
		base = time.Millisecond
	}
	d := base
	if attempt < 62 {
		d = base << uint(attempt)
	}
	if d <= 0 || d > backoffCap {
		d = backoffCap
	}
	h := xrand.Mix((uint64(c.cfg.Seed) + 0x9e3779b97f4a7c15*id) ^ uint64(attempt)<<32)
	frac := 0.5 + 0.5*float64(h>>11)/(1<<53)
	return time.Duration(float64(d) * frac)
}

// Call performs one generic RPC: an opaque payload under the given op,
// answered by the peer handler's opaque response payload. The fabric
// control plane (JoinFleet, AssignShard, ShardResult, Heartbeat, Drain)
// rides on this; the typed block-IO methods below remain the data plane.
func (c *Client) Call(op OpCode, payload []byte) ([]byte, error) {
	resp, err := c.call(&Request{Op: op, Length: uint32(len(payload)), Payload: payload})
	if err != nil {
		return nil, err
	}
	return resp.Payload, nil
}

// AddSegment creates a segment of sizeBlocks 4 KiB blocks on the server.
func (c *Client) AddSegment(seg storage.SegKey, sizeBlocks int) error {
	_, err := c.call(&Request{Op: OpAddSegment, Segment: int32(seg), Length: uint32(sizeBlocks)})
	return err
}

// HasSegment reports whether the server hosts seg.
func (c *Client) HasSegment(seg storage.SegKey) bool {
	_, err := c.call(&Request{Op: OpHasSegment, Segment: int32(seg)})
	return err == nil
}

// Write stores block-aligned data at the segment-relative offset.
func (c *Client) Write(seg storage.SegKey, off int64, data []byte) error {
	_, err := c.call(&Request{
		Op: OpWrite, Segment: int32(seg), Offset: off,
		Length: uint32(len(data)), Payload: data,
	})
	return err
}

// Read returns n block-aligned bytes from the segment-relative offset.
func (c *Client) Read(seg storage.SegKey, off int64, n int) ([]byte, error) {
	resp, err := c.call(&Request{Op: OpRead, Segment: int32(seg), Offset: off, Length: uint32(n)})
	if err != nil {
		return nil, err
	}
	return resp.Payload, nil
}

// Stats fetches the server's cumulative traffic counters.
func (c *Client) Stats() (readBytes, writeBytes, prefetchHitBytes int64, err error) {
	resp, err := c.call(&Request{Op: OpStats})
	if err != nil {
		return 0, 0, 0, err
	}
	if len(resp.Payload) != 24 {
		return 0, 0, 0, errors.New("netblock: malformed stats payload")
	}
	return int64(binary.LittleEndian.Uint64(resp.Payload[0:])),
		int64(binary.LittleEndian.Uint64(resp.Payload[8:])),
		int64(binary.LittleEndian.Uint64(resp.Payload[16:])), nil
}
