package node

import (
	"fmt"
	"sync"

	"peercache/internal/id"
	"peercache/internal/wire"
)

// Client is an anonymous data-plane endpoint: it resolves, writes and
// reads keys through any ring member without joining the overlay. It
// opens the same transport a Node does, with the zero contact as its
// own — ring members never note an addressless sender, so clients come
// and go without touching routing state, and replies ride the datagram
// source address — and it drops every request it receives. It never
// joins, runs no maintenance and observes no lookup frequencies; every
// walk runs on the node's lookup driver through an anonRouter. Safe for
// concurrent use.
type Client struct {
	cfg       Config
	bootstrap string
	tr        *transport
	lk        lookup

	// entry is the bootstrap's contact, the seed of every walk. The
	// driver ranks and deduplicates candidates by id, so the first
	// operation pings the bootstrap once to learn it.
	entryMu sync.Mutex
	entry   wire.Contact
}

// Dial opens a client endpoint for the overlay a member of which
// listens at bootstrap. Of cfg it reads Space, Addr, LookupAlpha,
// RPCTimeout, RPCRetries, MaxLookupHops and Listen, defaulted as for a
// Node; the other fields describe a ring member and are ignored. Dial
// sends nothing: the first operation contacts the bootstrap.
func Dial(bootstrap string, cfg Config) (*Client, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if bootstrap == "" {
		return nil, fmt.Errorf("node: no bootstrap address")
	}
	conn, err := cfg.Listen(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	c := &Client{cfg: cfg, bootstrap: bootstrap}
	c.tr = newTransport(conn, wire.Contact{}, func(*wire.Message, string) {})
	c.lk = newLookup(c.tr, anonRouter{cfg.Space}, cfg)
	c.tr.start()
	return c, nil
}

// Close shuts the endpoint down; calls in flight return ErrClosed.
func (c *Client) Close() error { return c.tr.close() }

func (c *Client) call(addr string, req *wire.Message) (*wire.Message, error) {
	return c.tr.call(addr, req, c.cfg.RPCTimeout, c.cfg.RPCRetries)
}

// race runs one walk for key, seeded with the bootstrap's contact.
func (c *Client) race(key id.ID, valueMode bool) (raceOutcome, error) {
	if uint64(key) >= c.cfg.Space.Size() {
		return raceOutcome{}, fmt.Errorf("node: key %d outside %d-bit space", key, c.cfg.Space.Bits())
	}
	c.entryMu.Lock()
	if c.entry.Addr == "" {
		resp, err := c.call(c.bootstrap, &wire.Message{Type: wire.TPing})
		if err != nil {
			c.entryMu.Unlock()
			return raceOutcome{}, fmt.Errorf("node: bootstrap %s: %w", c.bootstrap, err)
		}
		c.entry = wire.Contact{ID: resp.From.ID, Addr: c.bootstrap}
	}
	entry := c.entry
	c.entryMu.Unlock()
	return c.lk.race(key, []wire.Contact{entry}, valueMode, false)
}

// Resolve finds the node currently responsible for key, and the depth
// of the walk that found it.
func (c *Client) Resolve(key id.ID) (wire.Contact, int, error) {
	out, err := c.race(key, false)
	return out.owner, out.hops, err
}

// Put stores value under key at the key's owner, which assigns the
// version.
func (c *Client) Put(key id.ID, value []byte) (PutResult, error) {
	if err := checkValueLen(key, value); err != nil {
		return PutResult{}, err
	}
	owner, hops, err := c.Resolve(key)
	if err != nil {
		return PutResult{}, err
	}
	resp, err := c.call(owner.Addr, &wire.Message{Type: wire.TPut, Key: key, Value: value})
	if err != nil {
		return PutResult{}, fmt.Errorf("node: put %d at %v: %w", key, owner, err)
	}
	if !resp.OK {
		return PutResult{}, fmt.Errorf("node: put %d at %v: %w", key, owner, ErrStoreFull)
	}
	return PutResult{Owner: owner, Version: resp.Version, Hops: hops}, nil
}

// Get is the strict read: it resolves key's owner and reads there only,
// so it returns the latest acknowledged write or ErrNotFound, and fails
// rather than read around an unreachable owner.
func (c *Client) Get(key id.ID) (GetResult, error) {
	owner, hops, err := c.Resolve(key)
	if err != nil {
		return GetResult{Hops: hops}, err
	}
	resp, err := c.call(owner.Addr, &wire.Message{Type: wire.TGet, Key: key})
	if err != nil {
		return GetResult{Hops: hops}, fmt.Errorf("node: get %d at %v: %w", key, owner, err)
	}
	if !resp.OK {
		return GetResult{Hops: hops}, fmt.Errorf("node: get %d at %v: %w", key, owner, ErrNotFound)
	}
	return GetResult{Value: resp.Value, Version: resp.Version, Hops: hops}, nil
}

// FindValue is the any-copy read: a value-mode walk that ends at the
// first copy holder, owner or replica, under the data plane's
// bounded-staleness contract — the copy is at worst one anti-entropy
// round behind the last acknowledged write, and the returned version is
// the caller's evidence. It reads around an unreachable owner.
func (c *Client) FindValue(key id.ID) (GetResult, error) {
	out, err := c.race(key, true)
	if err != nil {
		return GetResult{Hops: out.hops}, fmt.Errorf("node: get %d: %w", key, err)
	}
	return GetResult{Value: out.value, Version: out.version, Hops: out.hops}, nil
}

// anonRouter is the Client's router. It holds no routing table: every
// step is a TFindSucc, which each geometry answers through its NextHop;
// candidates rank by circular distance to the target; a failed peer has
// no table entry to retire; and no contact is an aux neighbor.
type anonRouter struct{ space id.Space }

func (r anonRouter) Distance(target, candidate id.ID) uint64 {
	return min(r.space.Gap(candidate, target), r.space.Gap(target, candidate))
}

func (anonRouter) LookupRequest(target id.ID) *wire.Message {
	return &wire.Message{Type: wire.TFindSucc, Target: target}
}

func (anonRouter) ParseLookupResponse(_ id.ID, resp *wire.Message) (wire.Contact, bool, []wire.Contact) {
	if resp.Done {
		return resp.Found, true, nil
	}
	return wire.Contact{}, false, []wire.Contact{resp.Next}
}

func (anonRouter) DropPeer(id.ID)    {}
func (anonRouter) HasAux(id.ID) bool { return false }
