package chunk

import (
	"fmt"
	"io"
	"time"

	"peercache/internal/id"
)

// Stats accumulates what a Reader observed; read it after (or during)
// the stream with Reader.Stats.
type Stats struct {
	// Chunks is how many chunks were consumed so far.
	Chunks int
	// BytesRead is how many object bytes were returned to the caller.
	BytesRead int64
	// FetchHops sums the lookup hops of every successful chunk fetch,
	// whether the reader waited for it or the prefetcher had it ready.
	FetchHops int
	// WaitChunks counts the chunks the reader actually had to block on —
	// the fetch was not complete when the stream position reached it.
	// With Prefetch 0 this equals Chunks; with a warm window it tends
	// toward the first chunk only.
	WaitChunks int
	// WaitHops sums the lookup hops of just the WaitChunks fetches: the
	// hops the stream position actually stalled behind. Prefetch turns
	// FetchHops into background work and drives WaitHops toward zero.
	WaitHops int
	// WaitTime is the total wall-clock time the reader spent blocked
	// waiting for chunk fetches — the stream's critical-path stall. A
	// blocked-on fetch that was issued ahead of need and is nearly done
	// contributes almost nothing here even though its full hops land in
	// WaitHops, so this is the sharpest measure of what prefetch buys.
	WaitTime time.Duration
	// TTFB is the time from NewReader until the first byte was
	// available to Read (the manifest fetch plus the first blocking
	// chunk fetch).
	TTFB time.Duration
}

// fetchResult is one chunk fetch's outcome, parked in a buffered
// channel until the stream position reaches it.
type fetchResult struct {
	data []byte
	hops int
	err  error
}

// pending is an in-flight or completed chunk fetch.
type pending struct {
	index int
	ch    chan fetchResult // buffered, cap 1: the fetch goroutine never blocks
}

// Reader streams a chunked object sequentially. While the caller
// consumes chunk i, up to Prefetch subsequent chunks are being resolved
// and fetched concurrently — each prefetch walks the normal lookup
// path, so it warms the origin node's frequency observer and owner-hint
// cache (and thus the item-driven aux aliasing) before the stream
// position arrives. Not safe for concurrent use by multiple goroutines.
type Reader struct {
	s     *Store
	root  id.ID
	m     *Manifest
	start time.Time

	inflight []pending // fetches issued, in index order
	next     int       // next chunk index to issue
	cur      []byte    // unread remainder of the current chunk
	err      error     // sticky terminal error
	eof      bool

	stats Stats
}

// NewReader fetches the manifest under root and returns a streaming
// reader positioned at byte 0. The manifest fetch happens here, so TTFB
// as reported in Stats covers it.
func (s *Store) NewReader(root id.ID) (*Reader, error) {
	start := time.Now()
	m, err := s.Manifest(root)
	if err != nil {
		return nil, err
	}
	r := &Reader{s: s, root: root, m: m, start: start}
	r.fill()
	return r, nil
}

// Manifest returns the object's manifest (total length, chunk layout).
func (r *Reader) Manifest() *Manifest { return r.m }

// Len returns the object's total byte length.
func (r *Reader) Len() int64 { return int64(r.m.TotalLen) }

// Stats returns a snapshot of the reader's counters.
func (r *Reader) Stats() Stats { return r.stats }

// fill tops the prefetch window up: the chunk the stream needs next
// plus Prefetch lookahead chunks, each fetched in its own goroutine.
// With Prefetch 0 there is no window: advance issues each chunk only
// when the stream position reaches it.
func (r *Reader) fill() {
	for r.s.o.Prefetch > 0 && len(r.inflight) < 1+r.s.o.Prefetch && r.next < r.m.Chunks() {
		r.issue()
	}
}

// issue starts the fetch of chunk r.next and queues it in stream order.
func (r *Reader) issue() {
	p := pending{index: r.next, ch: make(chan fetchResult, 1)}
	r.next++
	r.inflight = append(r.inflight, p)
	go func() {
		data, hops, err := r.s.fetchChunk(r.m, r.root, p.index)
		p.ch <- fetchResult{data: data, hops: hops, err: err}
	}()
}

// advance blocks until the next chunk in stream order is available and
// makes it the current chunk, accounting wait-vs-prefetched in stats.
// A chunk issued on demand is a wait by construction, however fast it
// lands.
func (r *Reader) advance() error {
	onDemand := len(r.inflight) == 0 && r.next < r.m.Chunks()
	if onDemand {
		r.issue()
	}
	if len(r.inflight) == 0 {
		return io.EOF
	}
	p := r.inflight[0]
	var res fetchResult
	ready := false
	if !onDemand {
		select {
		case res = <-p.ch: // prefetch already done: no stall
			ready = true
		default:
		}
	}
	if !ready {
		blocked := time.Now()
		res = <-p.ch
		r.stats.WaitTime += time.Since(blocked)
		r.stats.WaitChunks++
		r.stats.WaitHops += res.hops
	}
	if res.err != nil {
		return res.err
	}
	r.inflight = r.inflight[1:]
	r.stats.Chunks++
	r.stats.FetchHops += res.hops
	if r.stats.TTFB == 0 {
		r.stats.TTFB = time.Since(r.start)
	}
	r.cur = res.data
	r.fill()
	return nil
}

// Read implements io.Reader over the object's bytes.
func (r *Reader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	for len(r.cur) == 0 {
		if r.eof {
			return 0, io.EOF
		}
		if err := r.advance(); err != nil {
			if err == io.EOF {
				r.eof = true
				if r.stats.TTFB == 0 { // empty object: first "byte" is EOF
					r.stats.TTFB = time.Since(r.start)
				}
				return 0, io.EOF
			}
			r.err = err
			return 0, err
		}
	}
	n := copy(p, r.cur)
	r.cur = r.cur[n:]
	r.stats.BytesRead += int64(n)
	return n, nil
}

// Close abandons the stream. In-flight prefetches finish in the
// background and park their results in buffered channels, so no
// goroutine leaks; their hops are simply not accounted.
func (r *Reader) Close() error {
	if r.err == nil {
		r.err = fmt.Errorf("chunk: reader for root %d closed", r.root)
	}
	r.inflight = nil
	return nil
}
