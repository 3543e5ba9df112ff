package cluster

import (
	"bytes"
	"container/list"
	"sync"

	"repro/internal/xxh"
)

// DefaultCacheBytes bounds the response cache's total retained bytes
// (request + response bodies) when Config.CacheBytes is zero.
const DefaultCacheBytes = 64 << 20

// cacheEntry is one cached worker response. The full request body is kept
// so a 64-bit key collision degrades to a miss, never a wrong answer. The
// body is replayed as stored: an answer names no trace and carries no timing
// (the trace id travels in TraceIDHeader), so a hit and a freshly forwarded
// answer are the same bytes.
type cacheEntry struct {
	key         uint64
	path        string
	reqBody     []byte
	epoch       uint64
	contentType string
	body        []byte
}

func (e *cacheEntry) size() int64 { return int64(len(e.reqBody) + len(e.body)) }

// respCache is a bounded LRU over full (path, request body) keys. The
// paper's query model makes the request body a complete cache key: a
// /v1/query or /v1/batch body spells out (run, view or relevant set,
// data, kind), and the worker's answer is a pure function of those plus
// the shard's loaded data — so entries are invalidated by the owning
// shard's epoch (bumped when a health poll observes the worker's
// warehouse generation change), never by time.
//
// An entry is admitted only within its fair share of the byte bound,
// maxBytes/maxEnts. That keeps the small answers that are asked again and
// declines the large ones a cold sweep asks once, which would otherwise
// fill the byte bound with answers nobody reads twice. It also makes the
// byte bound hold by construction: at most maxEnts entries of at most
// share bytes each, so eviction only ever counts entries.
type respCache struct {
	mu      sync.Mutex
	maxEnts int
	share   int64
	ll      *list.List // front = most recently used
	entries map[uint64]*list.Element
}

func newRespCache(maxEntries int, maxBytes int64) *respCache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &respCache{
		maxEnts: maxEntries,
		share:   maxBytes / int64(maxEntries),
		ll:      list.New(),
		entries: make(map[uint64]*list.Element),
	}
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
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.path != path || !bytes.Equal(ent.reqBody, reqBody) {
		// 64-bit collision: a different request hashed here. Miss.
		return nil, false
	}
	if ent.epoch != epoch {
		c.remove(el)
		return nil, true
	}
	c.ll.MoveToFront(el)
	return ent, false
}

// store admits ent if it fits its fair share and reports whether it did.
// ent.body may be a buffer the caller reuses: an admitted entry keeps a
// copy of it and inserts (or replaces) that copy, evicting from the LRU tail
// past maxEnts. ent.reqBody is kept as given.
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
	if el, ok := c.entries[e.key]; ok {
		c.remove(el)
	}
	c.entries[e.key] = c.ll.PushFront(e)
	if c.ll.Len() > c.maxEnts {
		c.remove(c.ll.Back())
	}
	return true
}

// remove unlinks an element; callers hold c.mu.
func (c *respCache) remove(el *list.Element) {
	c.ll.Remove(el)
	delete(c.entries, el.Value.(*cacheEntry).key)
}

// Len reports the live entry count (tests and /v1/shards introspection).
func (c *respCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
