package cluster

import (
	"bytes"
	"sync"

	"repro/internal/obs"
	"repro/internal/xxh"
)

// DefaultCacheBytes bounds the response cache's total retained bytes
// (request + response bodies) when Config.CacheBytes is zero.
const DefaultCacheBytes = 64 << 20

// cacheEntry is one cached worker response. The full request body is kept
// so a 64-bit key collision degrades to a miss, never a wrong answer. The
// body is replayed as stored: an answer names no trace and carries no timing
// (the trace id travels in the X-Zoom-Trace-Id header), so a hit and a
// freshly forwarded answer are the same bytes.
type cacheEntry struct {
	key         uint64
	path        string
	reqBody     []byte
	epoch       uint64
	contentType string
	body        []byte

	// prev and next link the entry into its segment's list, so moving it
	// between segments allocates nothing. hit is set by its first hit.
	prev, next *cacheEntry
	seg        *segment
	hit        bool
}

func (e *cacheEntry) size() int64 { return int64(len(e.reqBody) + len(e.body)) }

// segment is one LRU list of the cache: a circular list through a sentinel
// whose next is the most recently used entry and whose prev the least.
type segment struct {
	root   cacheEntry
	n, max int
}

func (s *segment) pushFront(e *cacheEntry) {
	e.prev, e.next, e.seg = &s.root, s.root.next, s
	e.prev.next, e.next.prev = e, e
	s.n++
}

func (s *segment) unlink(e *cacheEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	s.n--
}

// respCache is a bounded segmented LRU over full (path, request body) keys.
// The paper's query model makes the request body a complete cache key: a
// /v1/query or /v1/batch body spells out (run, view or relevant set,
// data, kind), and the worker's answer is a pure function of those plus
// the shard's loaded data — so entries are invalidated by the owning
// shard's epoch (bumped when the router observes the worker's warehouse
// generation change), never by time.
//
// An entry is admitted only within its fair share of the byte bound,
// maxBytes/maxEnts. That keeps the small answers that are asked again and
// declines the large ones a cold sweep asks once, which would otherwise
// fill the byte bound with answers nobody reads twice. It also makes the
// byte bound hold by construction: at most maxEnts entries of at most
// share bytes each, so eviction only ever counts entries.
//
// An admitted entry enters probation; its first hit promotes it to
// protected. Protected's tail goes back to the front of probation, and only
// probation's tail is evicted, so answers nobody asks twice hold at most a
// fifth of the cache and the answers asked again keep the rest.
type respCache struct {
	mu         sync.Mutex
	share      int64
	probation  segment // new entries, at most a fifth of them
	protected  segment // entries hit since they were stored
	entries    map[uint64]*cacheEntry
	promotions *obs.Counter // first hits; nil counts nothing
}

func newRespCache(maxEntries int, maxBytes int64) *respCache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	c := &respCache{share: maxBytes / int64(maxEntries), entries: make(map[uint64]*cacheEntry)}
	c.probation.max = max(1, maxEntries/5)
	c.protected.max = maxEntries - c.probation.max
	for _, s := range []*segment{&c.probation, &c.protected} {
		s.root.prev, s.root.next = &s.root, &s.root
	}
	return c
}

// cacheKey hashes the body once and folds the path in with FNV-1a steps.
// Any mixing will do: a hit is confirmed on the stored (path, reqBody).
func cacheKey(path string, reqBody []byte) uint64 {
	h := xxh.Sum64(reqBody)
	for i := 0; i < len(path); i++ {
		h = (h ^ uint64(path[i])) * 1099511628211
	}
	return h
}

// lookup returns the fresh entry for (path, reqBody), or nil. stale
// reports that an entry existed but was dropped because the shard's
// epoch moved past it — the caller counts that as an invalidation.
func (c *respCache) lookup(path string, reqBody []byte, epoch uint64) (e *cacheEntry, stale bool) {
	key := cacheKey(path, reqBody)
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	if ent.path != path || !bytes.Equal(ent.reqBody, reqBody) {
		// 64-bit collision: a different request hashed here. Miss.
		return nil, false
	}
	if ent.epoch != epoch {
		c.remove(ent)
		return nil, true
	}
	if !ent.hit {
		ent.hit = true
		c.promotions.Inc()
	}
	ent.seg.unlink(ent)
	c.protected.pushFront(ent)
	if c.protected.n > c.protected.max {
		demoted := c.protected.root.prev
		c.protected.unlink(demoted)
		c.probation.pushFront(demoted)
	}
	return ent, false
}

// store admits ent if it fits its fair share and reports whether it did.
// ent.body may be a buffer the caller reuses: an admitted entry keeps a
// copy of it and inserts (or replaces) that copy at the front of probation,
// evicting probation's tail past its bound. ent.reqBody is kept as given.
func (c *respCache) store(ent cacheEntry) bool {
	if ent.size() > c.share {
		return false
	}
	e := new(cacheEntry)
	*e = ent
	e.body = bytes.Clone(ent.body)
	e.key = cacheKey(e.path, e.reqBody)
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[e.key]; ok {
		c.remove(old)
	}
	c.entries[e.key] = e
	c.probation.pushFront(e)
	if c.probation.n > c.probation.max {
		c.remove(c.probation.root.prev)
	}
	return true
}

// remove unlinks an entry and forgets its key; callers hold c.mu.
func (c *respCache) remove(e *cacheEntry) {
	e.seg.unlink(e)
	delete(c.entries, e.key)
}

// Len reports the live entry count of both segments (tests and /v1/shards
// introspection).
func (c *respCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.probation.n + c.protected.n
}
