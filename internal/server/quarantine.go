package server

import (
	"container/list"
	"errors"
	"sync"
)

// This file is the query quarantine: an LRU of query strings that have
// panicked the evaluator. A panic is recovered and isolated (concurrent
// queries still get answers), but a query that keeps crashing is a
// poison pill — re-admitting it burns an evaluation slot and a recovery
// per attempt, and under retry-happy clients that is a crash loop by
// proxy. After quarantineAfter crashes admission rejects the exact
// query string up front with ErrQuarantined, which
// rpqd maps to 422: the request is well-formed but the server refuses
// to evaluate it again.

// ErrQuarantined rejects a query string that has repeatedly panicked
// the evaluator. Unlike ErrOverloaded this is not transient — retrying
// the same string gets the same answer until the entry ages out of the
// LRU — so rpqd maps it to 422 rather than 503.
var ErrQuarantined = errors.New("server: query quarantined after repeated evaluator crashes")

const (
	// quarantineAfter is how many recovered panics a single query string
	// survives before it is rejected up front. Two, not one: a lone
	// panic may be an unlucky coincidence (e.g. corruption elsewhere),
	// but the same string crashing twice is evidence about the string.
	quarantineAfter = 2
	// quarantineCap bounds the tracked strings; the least recently
	// crashed entry is evicted first. Eviction forgives: a poison query
	// pushed out by quarantineCap fresher crashers gets re-admitted and
	// must crash its way back in.
	quarantineCap = 256
)

// quarantine tracks crash counts per query string with LRU eviction.
// All methods are safe for concurrent use.
type quarantine struct {
	mu      sync.Mutex
	order   *list.List // front = most recently crashed
	entries map[string]*list.Element
}

// quarEntry is one tracked query string.
type quarEntry struct {
	key     string
	crashes int
}

// newQuarantine returns an empty quarantine.
func newQuarantine() *quarantine {
	return &quarantine{order: list.New(), entries: make(map[string]*list.Element)}
}

// note records one recovered panic attributed to key.
func (q *quarantine) note(key string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if el, ok := q.entries[key]; ok {
		el.Value.(*quarEntry).crashes++
		q.order.MoveToFront(el)
		return
	}
	q.entries[key] = q.order.PushFront(&quarEntry{key: key, crashes: 1})
	for q.order.Len() > quarantineCap {
		oldest := q.order.Back()
		q.order.Remove(oldest)
		delete(q.entries, oldest.Value.(*quarEntry).key)
	}
}

// blocked reports whether key has crashed enough to be rejected up
// front. A blocked lookup refreshes the entry's recency, so an actively
// retried poison query does not age out while it is still being sent.
func (q *quarantine) blocked(key string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	el, ok := q.entries[key]
	if !ok {
		return false
	}
	if el.Value.(*quarEntry).crashes < quarantineAfter {
		return false
	}
	q.order.MoveToFront(el)
	return true
}

// size returns how many strings are currently tracked (crashed at least
// once, not necessarily blocked).
func (q *quarantine) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.order.Len()
}
