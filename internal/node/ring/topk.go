package ring

import (
	"peercache/internal/id"
	"peercache/internal/wire"
)

// TopK builds a Candidates answer in one pass over the routing table:
// the NextHop pick at the head, then the best-ranked distinct contacts
// behind it, at most max in all. It is what sorting every table entry
// and truncating would return, without the sort or a seen-set: a
// lookup wants α of a few dozen entries, and Candidates runs on every
// lookup and on the read loop for every find-value miss.
//
// A rank is (major, minor), smaller first. Contacts of equal rank keep
// the order they were added in, and an id that is already listed — or
// that is the head's or the excluded one — is ignored, so the first
// table slot naming an id supplies its address. An id once pushed off
// the end cannot re-enter: everything still listed ranks at or before
// it, and a later duplicate ranks the same, behind all of them.
type TopK struct {
	max     int
	exclude id.ID
	list    []wire.Contact
	// ranks[i] ranks list[i+1]. A fixed array, not a slice into one, so
	// that a TopK stays on its caller's stack and allocates only its
	// answer; it bounds max at wire.MaxClosest+1, above anything the
	// runtime asks for.
	ranks [wire.MaxClosest]rank
}

type rank struct{ major, minor uint64 }

func (a rank) before(b rank) bool {
	return a.major < b.major || (a.major == b.major && a.minor < b.minor)
}

// Init starts a list of at most max contacts (capped at
// wire.MaxClosest+1) headed by head; contacts with the id exclude (the
// node itself) are never listed.
func (t *TopK) Init(head wire.Contact, exclude id.ID, max int) {
	if max > len(t.ranks)+1 {
		max = len(t.ranks) + 1
	}
	t.max, t.exclude = max, exclude
	t.list = append(make([]wire.Contact, 0, max), head)
}

// Add offers one contact with its rank.
func (t *TopK) Add(c wire.Contact, major, minor uint64) {
	if c.IsZero() || c.ID == t.list[0].ID || c.ID == t.exclude {
		return
	}
	r := rank{major, minor}
	n := len(t.list) - 1
	if len(t.list) == t.max && (n == 0 || !r.before(t.ranks[n-1])) {
		return // full, and no better than the last: the common case
	}
	for _, have := range t.list[1:] {
		if have.ID == c.ID {
			return
		}
	}
	i := n
	for i > 0 && r.before(t.ranks[i-1]) {
		i--
	}
	if len(t.list) < t.max {
		t.list = append(t.list, wire.Contact{})
		n++
	}
	copy(t.list[i+2:], t.list[i+1:])
	copy(t.ranks[i+1:n], t.ranks[i:])
	t.list[i+1], t.ranks[i] = c, r
}

// List returns the answer, best first. The TopK must not be used again.
func (t *TopK) List() []wire.Contact { return t.list }
