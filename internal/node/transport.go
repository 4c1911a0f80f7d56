package node

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"peercache/internal/wire"
)

// Transport errors.
var (
	// ErrTimeout is returned by an RPC whose every attempt (initial
	// send plus retries) expired without a response.
	ErrTimeout = errors.New("node: rpc timed out")
	// ErrClosed is returned once the node has shut down.
	ErrClosed = errors.New("node: closed")
	// ErrCancelled is returned by a cancellable RPC whose cancel channel
	// closed before a response arrived (the α-parallel lookup driver
	// cancels the losing probes once one response settles a step).
	ErrCancelled = errors.New("node: rpc cancelled")
)

// transport owns the datagram endpoint: a single read loop decodes
// datagrams and routes responses to the inflight waiter registered under
// their MsgID, while requests go to the node's handler. RPCs are
// synchronous for the caller — register a waiter, send, block on the
// waiter channel with a timeout — but any number may be in flight
// concurrently, and the read loop itself never blocks on protocol work
// (handlers only touch local state and write one reply datagram).
//
// The transport is medium-agnostic: it speaks only PacketConn, so the
// same correlation/retry machinery runs unchanged over a real UDP
// socket or memnet's in-process fault-injecting switchboard.
type transport struct {
	conn PacketConn
	self wire.Contact
	// handler processes incoming requests; set before the read loop
	// starts and never changed.
	handler func(m *wire.Message, src string)

	mu       sync.Mutex
	inflight map[uint64]*waiter
	nextID   atomic.Uint64

	// onReply, when set before start, receives every correlated
	// response with one RTT sample: the elapsed time between the
	// attempt's datagram going out and the response arriving. Retried
	// attempts measure from their own send, so a retry cannot inflate
	// the sample.
	onReply func(resp *wire.Message, sample time.Duration)

	done   chan struct{}
	closed atomic.Bool
	wg     sync.WaitGroup

	// Counters, all atomic; surfaced through Node.Metrics.
	datagramsIn  atomic.Uint64
	datagramsOut atomic.Uint64
	bytesIn      atomic.Uint64
	bytesOut     atomic.Uint64
	decodeErrs   atomic.Uint64
	rpcs         atomic.Uint64
	retries      atomic.Uint64
	timeouts     atomic.Uint64
}

// encBufs recycles encode buffers across sends. Both datagram writers
// (real UDP sockets and memnet endpoints) copy the payload before
// WriteTo returns, so a buffer can go back in the pool immediately
// after the write; without this every datagram — including each hop of
// every lookup — allocated its own encode buffer, the top allocation
// site in the 1k-node live-bench profile.
var encBufs = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 256)
		return &b
	},
}

func newTransport(conn PacketConn, self wire.Contact, handler func(*wire.Message, string)) *transport {
	return &transport{
		conn:     conn,
		self:     self,
		handler:  handler,
		inflight: make(map[uint64]*waiter),
		done:     make(chan struct{}),
	}
}

// start launches the read loop. Separate from construction so the
// owning Node can finish wiring itself up before the first datagram can
// reach the handler.
func (t *transport) start() {
	t.wg.Add(1)
	go t.readLoop()
}

// readLoop is the node's only endpoint reader. A response datagram
// claims (and deregisters) its waiter; delivery cannot block because
// each waiter channel has capacity 1 and is sent to at most once per
// registration — whoever deletes the map entry owns the send.
func (t *transport) readLoop() {
	defer t.wg.Done()
	buf := make([]byte, wire.MaxMessageLen)
	for {
		n, src, err := t.conn.ReadFrom(buf)
		if err != nil {
			if t.closed.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		t.datagramsIn.Add(1)
		t.bytesIn.Add(uint64(n))
		m, err := wire.Decode(buf[:n])
		if err != nil {
			t.decodeErrs.Add(1)
			continue
		}
		if m.Type.IsResponse() {
			t.mu.Lock()
			w, ok := t.inflight[m.MsgID]
			if ok {
				delete(t.inflight, m.MsgID)
			}
			t.mu.Unlock()
			if ok {
				w.ch <- m
			}
			continue
		}
		t.handler(m, src)
	}
}

// send encodes and writes one datagram, returning the bytes written (0
// when the send failed — over a datagram network a lost send and a lost
// packet are the same event, and the caller's timeout handles both; the
// byte count exists so per-plane accounting like the replication
// counters can attribute traffic without re-encoding).
func (t *transport) send(dst string, m *wire.Message) int {
	n, _, _ := t.write(dst, m, nil)
	return n
}

// write encodes m into a pooled buffer and writes it to dst as one
// datagram, counted when the write succeeds, and returns the bytes
// written. A non-nil w is registered as the waiter of m's MsgID between
// the encode and the write, so no response can beat it, and sentAt is
// then the moment just before the write, where the RTT sample starts; a
// zero sentAt means m did not encode and nothing was registered.
func (t *transport) write(dst string, m *wire.Message, w *waiter) (n int, sentAt time.Time, err error) {
	bp := encBufs.Get().(*[]byte)
	b, err := wire.AppendEncode((*bp)[:0], m)
	if err != nil {
		encBufs.Put(bp)
		return 0, sentAt, err
	}
	if w != nil {
		t.mu.Lock()
		t.inflight[m.MsgID] = w
		t.mu.Unlock()
		sentAt = time.Now()
	}
	if _, err = t.conn.WriteTo(b, dst); err == nil {
		t.datagramsOut.Add(1)
		t.bytesOut.Add(uint64(len(b)))
		n = len(b)
	}
	*bp = b[:0]
	encBufs.Put(bp)
	return n, sentAt, err
}

// call performs one RPC: it fills in From and a fresh MsgID, sends, and
// waits up to timeout for the paired response, retrying up to retries
// further times. Each attempt uses a new MsgID, so a response straggling
// in after its attempt timed out finds no waiter and is dropped rather
// than being mistaken for an answer to the retry. (The same rule also
// makes duplicated datagrams harmless: the second copy of a response
// finds its waiter already claimed and is discarded.)
func (t *transport) call(addr string, req *wire.Message, timeout time.Duration, retries int) (*wire.Message, error) {
	return t.callCancel(addr, req, timeout, retries, nil)
}

// waiter is one call's rendezvous with the read loop: the response
// arrives on ch, and timer bounds each attempt's wait. Records are
// pooled, so a healthy call allocates neither. A record goes back to
// the pool only when nothing of the call can surface in the next one:
// its channel is empty (abandon), and its timer was stopped short of
// firing, so no tick is in flight (callCancel).
type waiter struct {
	ch    chan *wire.Message // capacity 1
	timer *time.Timer        // created on first use
}

var waiters = sync.Pool{
	New: func() any { return &waiter{ch: make(chan *wire.Message, 1)} },
}

// arm points the timer d from now. Within a call it is re-armed only
// after it fired and its tick was taken.
func (w *waiter) arm(d time.Duration) {
	if w.timer == nil {
		w.timer = time.NewTimer(d)
		return
	}
	w.timer.Reset(d)
}

// abandon gives up the attempt registered under msgID: its inflight
// entry goes, with the attempt's one delete. Whoever deletes an entry
// owns the one send on its channel, so when the read loop got there
// first its send is already on the way — it follows the delete without
// blocking — and is taken here and dropped, exactly as a response
// arriving a moment later would be; the channel is empty either way.
func (t *transport) abandon(msgID uint64, w *waiter) {
	t.mu.Lock()
	_, mine := t.inflight[msgID]
	delete(t.inflight, msgID)
	t.mu.Unlock()
	if !mine {
		<-w.ch
	}
}

// callCancel is call with a cancellation channel: when cancel closes
// before a response arrives, the attempt's inflight entry is
// deregistered and ErrCancelled returned immediately — no retries. A
// response straggling in after cancellation finds no waiter and is
// dropped by the read loop, so cancelled probes can never leak inflight
// entries or deliver into a dead lookup. A nil cancel never fires.
func (t *transport) callCancel(addr string, req *wire.Message, timeout time.Duration, retries int, cancel <-chan struct{}) (*wire.Message, error) {
	if t.closed.Load() {
		return nil, ErrClosed
	}
	req.From = t.self
	want := req.Type.Response()
	t.rpcs.Add(1)
	w := waiters.Get().(*waiter)
	defer func() {
		if w.timer == nil || w.timer.Stop() {
			waiters.Put(w)
		}
	}()
	for attempt := 0; ; attempt++ {
		msgID := t.nextID.Add(1)
		req.MsgID = msgID
		_, sentAt, err := t.write(addr, req, w)
		if sentAt.IsZero() {
			return nil, err // malformed request: retrying cannot help
		}
		if err != nil {
			t.abandon(msgID, w)
			if t.closed.Load() {
				return nil, ErrClosed
			}
			return nil, fmt.Errorf("node: rpc %v to %s: %w", req.Type, addr, err)
		}
		w.arm(timeout) // the attempt's one arm
		select {
		case resp := <-w.ch:
			// The read loop deleted the entry before it sent.
			if resp.Type != want {
				return nil, fmt.Errorf("node: rpc %v to %s: got %v response", req.Type, addr, resp.Type)
			}
			if t.onReply != nil {
				t.onReply(resp, time.Since(sentAt))
			}
			return resp, nil
		case <-w.timer.C:
			t.abandon(msgID, w)
			t.timeouts.Add(1)
		case <-cancel:
			t.abandon(msgID, w)
			return nil, ErrCancelled
		case <-t.done:
			t.abandon(msgID, w)
			return nil, ErrClosed
		}
		if attempt >= retries {
			return nil, fmt.Errorf("node: rpc %v to %s after %d attempts: %w", req.Type, addr, attempt+1, ErrTimeout)
		}
		t.retries.Add(1)
	}
}

// inflightLen reports the number of registered RPC waiters — every
// entry belongs to an attempt that is still blocked in callCancel, so
// anything else (a cancelled or timed-out probe, say) leaking an entry
// is a bug the regression tests check for.
func (t *transport) inflightLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.inflight)
}

// close shuts the endpoint down and waits for the read loop to exit.
// Ordering matters: done is closed first so every blocked call returns
// ErrClosed immediately, then the endpoint close unblocks the read
// loop's ReadFrom; only then does close return, guaranteeing no
// transport goroutine survives it.
func (t *transport) close() error {
	if t.closed.Swap(true) {
		return nil
	}
	close(t.done)
	err := t.conn.Close()
	t.wg.Wait()
	return err
}
