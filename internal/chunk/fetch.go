package chunk

import (
	"errors"
	"fmt"
	"time"

	"peercache/internal/id"
)

// KV is the data-plane surface the chunk layer drives. The adapters in
// tree wrap internal/node — cmd/p2pstream its anonymous Client, the
// harnesses a Node — over FindValue, whose α-raced any-copy walk gives
// chunk reads the owner+replica fallback for free. Implementations must be safe for
// concurrent use; the fetch engine calls Get from Window goroutines.
type KV interface {
	// Put stores value under key at the key's owner.
	Put(key id.ID, value []byte) error
	// Get fetches the value stored under key and reports the lookup
	// hops spent resolving it (0 when the adapter cannot count them).
	Get(key id.ID) (value []byte, hops int, err error)
}

// FuncKV adapts two closures to KV, the idiom for wrapping a node or a
// client without a dependency on either from this package.
type FuncKV struct {
	PutFunc func(id.ID, []byte) error
	GetFunc func(id.ID) ([]byte, int, error)
}

// Put implements KV.
func (f FuncKV) Put(key id.ID, value []byte) error { return f.PutFunc(key, value) }

// Get implements KV.
func (f FuncKV) Get(key id.ID) ([]byte, int, error) { return f.GetFunc(key) }

// Options parameterizes a Store.
type Options struct {
	// Space is the ring's identifier space (required; chunk keys are
	// derived in it).
	Space id.Space
	// ChunkSize is the split width (default DefaultChunkSize, the wire
	// value limit; smaller values trade per-chunk overhead for more
	// placement spread and are mainly useful in tests).
	ChunkSize int
	// Window bounds the parallel chunk transfers of PutObject and
	// GetObject (default 4).
	Window int
	// Prefetch is a Reader's lookahead depth w: while the application
	// consumes chunk i, chunks i+1..i+w are already being resolved and
	// fetched, warming the origin's frequency observer and owner-hint
	// cache before the read arrives. 0 (the default here) fetches
	// strictly on demand; user-facing layers pick their own default
	// (cmd/p2pstream uses 2).
	Prefetch int
	// Retries is how many times one chunk fetch is retried after an
	// error or digest mismatch (default 2). Each retry re-resolves the
	// key, so a churned or partitioned-away owner falls back to
	// whatever holder the next lookup finds.
	Retries int
	// RetryBackoff is the delay before the first retry, doubling per
	// attempt (default 20ms).
	RetryBackoff time.Duration
	// StrongGet, when set, replaces Get on the retry attempts that
	// follow a digest or manifest-decode mismatch. An any-copy read may
	// return a bounded-stale replica copy — after an overwrite, up to
	// one replication period behind the owner — and for
	// integrity-checked chunk data that staleness surfaces as a digest
	// mismatch. Re-racing the same any-copy lookup can land on the same
	// stale holder, so the escalation is an authoritative read (the
	// key's resolved owner). Plain errors (timeouts, lookup failures)
	// keep using Get: those are availability problems, where the
	// any-copy race is the right tool.
	StrongGet func(id.ID) ([]byte, int, error)
}

func (o Options) withDefaults() (Options, error) {
	if o.Space.Bits() == 0 {
		return o, fmt.Errorf("chunk: zero-value id space")
	}
	if o.ChunkSize == 0 {
		o.ChunkSize = DefaultChunkSize
	}
	if o.ChunkSize < 1 || o.ChunkSize > DefaultChunkSize {
		return o, fmt.Errorf("chunk: chunk size %d outside [1, %d]", o.ChunkSize, DefaultChunkSize)
	}
	if o.Window == 0 {
		o.Window = 4
	}
	if o.Window < 1 {
		return o, fmt.Errorf("chunk: window %d below 1", o.Window)
	}
	if o.Prefetch < 0 {
		return o, fmt.Errorf("chunk: negative prefetch %d", o.Prefetch)
	}
	if o.Retries < 0 {
		return o, fmt.Errorf("chunk: negative retries %d", o.Retries)
	}
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 20 * time.Millisecond
	}
	return o, nil
}

// Error is the typed failure of one chunk transfer: which chunk index
// (and derived key) exhausted its retries, wrapping the last cause.
// -1 indexes the manifest itself.
type Error struct {
	// Index is the failed chunk's position, or -1 for the manifest.
	Index int
	// Key is the derived ring key the transfer targeted.
	Key id.ID
	// Err is the last attempt's failure.
	Err error
}

func (e *Error) Error() string {
	if e.Index < 0 {
		return fmt.Sprintf("chunk: manifest (key %d): %v", e.Key, e.Err)
	}
	return fmt.Sprintf("chunk: chunk %d (key %d): %v", e.Index, e.Key, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// ErrDigest reports a fetched chunk whose content digest does not match
// the manifest — a corrupt or truncated copy, retried like a miss.
var ErrDigest = errors.New("chunk: digest mismatch")

// Store puts and gets chunked objects over a KV. Safe for concurrent
// use; each operation runs its own bounded worker set.
type Store struct {
	kv KV
	o  Options
}

// New builds a Store over kv.
func New(kv KV, o Options) (*Store, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Store{kv: kv, o: o}, nil
}

// Options returns the store's resolved options.
func (s *Store) Options() Options { return s.o }

// PutObject splits value, stores every chunk under its derived key with
// Window-bounded parallelism and per-chunk retry, and finally stores
// the manifest under root — manifest last, so a reader that can decode
// a manifest can rely on the chunks having been offered to the ring
// already. Returns the manifest it stored.
func (s *Store) PutObject(root id.ID, value []byte) (*Manifest, error) {
	if uint64(len(value)) > MaxObjectLen(s.o.ChunkSize) {
		return nil, fmt.Errorf("%w: %d bytes exceeds %d-byte limit at chunk size %d",
			ErrTooLarge, len(value), MaxObjectLen(s.o.ChunkSize), s.o.ChunkSize)
	}
	chunks := Split(value, s.o.ChunkSize)
	m := &Manifest{
		TotalLen:  uint64(len(value)),
		ChunkSize: uint32(s.o.ChunkSize),
		Digests:   make([]uint64, len(chunks)),
	}
	for i, c := range chunks {
		m.Digests[i] = Digest(c)
	}
	if err := s.forEachChunk(len(chunks), func(i int) error {
		return s.putChunk(Key(s.o.Space, root, i), chunks[i], i)
	}); err != nil {
		return nil, err
	}
	enc, err := m.Encode()
	if err != nil {
		return nil, err
	}
	if err := s.putChunk(root, enc, -1); err != nil {
		return nil, err
	}
	return m, nil
}

// Manifest fetches and decodes the manifest stored under root, with the
// same retry policy as a chunk.
func (s *Store) Manifest(root id.ID) (*Manifest, error) {
	var (
		m     *Manifest
		stale bool
	)
	err := s.withRetry(root, -1, func() error {
		b, _, err := s.get(root, &stale)
		if err != nil {
			return err
		}
		if m, err = DecodeManifest(b); err != nil {
			stale = true
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// GetObject fetches the manifest under root and reassembles the whole
// object with Window-bounded parallel chunk fetches, verifying every
// chunk's digest.
func (s *Store) GetObject(root id.ID) ([]byte, error) {
	m, err := s.Manifest(root)
	if err != nil {
		return nil, err
	}
	out := make([]byte, m.TotalLen)
	if err := s.forEachChunk(m.Chunks(), func(i int) error {
		b, _, err := s.fetchChunk(m, root, i)
		if err != nil {
			return err
		}
		copy(out[uint64(i)*uint64(m.ChunkSize):], b)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// fetchChunk fetches and verifies chunk i of m, reporting the lookup
// hops its successful attempt spent.
func (s *Store) fetchChunk(m *Manifest, root id.ID, i int) ([]byte, int, error) {
	key := Key(s.o.Space, root, i)
	var (
		value []byte
		hops  int
		stale bool
	)
	err := s.withRetry(key, i, func() error {
		b, h, err := s.get(key, &stale)
		if err != nil {
			return err
		}
		if len(b) != m.ChunkLen(i) || Digest(b) != m.Digests[i] {
			stale = true
			return fmt.Errorf("%w: %d bytes, digest %#x", ErrDigest, len(b), Digest(b))
		}
		value, hops = b, h
		return nil
	})
	return value, hops, err
}

// get issues one read attempt: the plain any-copy Get normally, the
// StrongGet escalation once a previous attempt for this key proved the
// copy it reached stale (*stale set by the caller's verification).
func (s *Store) get(key id.ID, stale *bool) ([]byte, int, error) {
	if *stale && s.o.StrongGet != nil {
		return s.o.StrongGet(key)
	}
	return s.kv.Get(key)
}

// putChunk stores one value with the retry policy; index names the
// chunk in the typed error (-1: the manifest).
func (s *Store) putChunk(key id.ID, value []byte, index int) error {
	return s.withRetry(key, index, func() error {
		return s.kv.Put(key, value)
	})
}

// withRetry runs op up to 1+Retries times with doubling backoff and
// wraps exhaustion in the typed per-chunk Error.
func (s *Store) withRetry(key id.ID, index int, op func() error) error {
	backoff := s.o.RetryBackoff
	var err error
	for attempt := 0; attempt <= s.o.Retries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		if err = op(); err == nil {
			return nil
		}
	}
	return &Error{Index: index, Key: key, Err: err}
}

// forEachChunk runs fn(i) for every chunk index with Window-bounded
// parallelism, returning the first error (remaining work is skipped,
// in-flight calls drain).
func (s *Store) forEachChunk(n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	workers := s.o.Window
	if workers > n {
		workers = n
	}
	work := make(chan int)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			var err error
			for i := range work {
				if err != nil {
					continue // drain after failure
				}
				err = fn(i)
			}
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	var first error
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}
