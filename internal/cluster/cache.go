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
//
// An entry that holds only its key and epoch (path, request and answer
// dropped) remembers that its request was asked once; it never hits. Once
// an entry is in the map only its links and hit change, so a caller may
// read a hit's body after the lock is released.
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

// size is what the entry holds: request plus answer bytes, 0 for a key.
func (e *cacheEntry) size() int64 { return int64(len(e.reqBody) + len(e.body)) }

// keyOnly reports an entry without path, request or answer.
func (e *cacheEntry) keyOnly() bool { return e.path == "" }

// segment is one LRU list of the cache: a circular list through a sentinel
// whose next is the most recently used entry and whose prev the least.
// bytes tallies its entries' sizes.
type segment struct {
	root   cacheEntry
	n, max int
	bytes  int64
}

func (s *segment) pushFront(e *cacheEntry) {
	e.prev, e.next, e.seg = &s.root, s.root.next, s
	e.prev.next, e.next.prev = e, e
	s.n++
	s.bytes += e.size()
}

func (s *segment) unlink(e *cacheEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	s.n--
	s.bytes -= e.size()
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
// fifth of the cache's entries and the answers asked again keep the rest.
//
// Probation's answers are also bounded in bytes, by what the answers asked
// again are worth: a full probation of answers the mean size of protected's,
// and at least one share (budget). An answer past that budget leaves only
// its key in probation, and an answer whose key is found there under the
// same epoch has been asked twice and enters protected. So where nothing is
// asked again, probation holds keys instead of answers, and where answers
// repeat, one about their size still hits on its second ask.
type respCache struct {
	mu         sync.Mutex
	share      int64
	probation  segment // new entries and keys, at most a fifth of them
	protected  segment // entries hit, or asked twice, since they were stored
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

// budget bounds the bytes of probation's answers; callers hold c.mu.
func (c *respCache) budget() int64 {
	if c.protected.n == 0 {
		return c.share
	}
	return max(c.share, int64(c.probation.max)*c.protected.bytes/int64(c.protected.n))
}

// fits reports whether probation's answers may take n more bytes; callers
// hold c.mu.
func (c *respCache) fits(n int64) bool { return c.probation.bytes+n <= c.budget() }

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
// epoch moved past it — the caller counts that as an invalidation. A key
// without its answer is a miss, neither hit nor stale.
func (c *respCache) lookup(path string, reqBody []byte, epoch uint64) (e *cacheEntry, stale bool) {
	key := cacheKey(path, reqBody)
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.entries[key]
	if !ok || ent.keyOnly() {
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
		c.demote()
	}
	return ent, false
}

// store offers an answer and reports whether it kept it. ent.body may be a
// buffer the caller reuses: an entry that keeps the answer keeps a copy of
// it, and ent.reqBody as given. An answer over its share is declined, and
// nothing is kept. One whose key waits in probation under the same epoch
// has been asked twice and enters protected; one within probation's budget
// enters probation; any other leaves only its key and epoch at probation's
// front. Probation's tail goes past its bound.
func (c *respCache) store(ent cacheEntry) bool {
	if ent.size() > c.share {
		return false
	}
	key := cacheKey(ent.path, ent.reqBody)
	c.mu.Lock()
	defer c.mu.Unlock()
	old, seen := c.entries[key]
	if seen {
		c.remove(old)
	}
	askedTwice := seen && old.keyOnly() && old.epoch == ent.epoch
	if !askedTwice && c.probation.n >= c.probation.max {
		c.remove(c.probation.root.prev)
	}
	e := &cacheEntry{key: key, epoch: ent.epoch}
	kept := askedTwice || c.fits(ent.size())
	if kept {
		e.path, e.reqBody, e.contentType, e.body = ent.path, ent.reqBody, ent.contentType, bytes.Clone(ent.body)
	}
	c.entries[key] = e
	if askedTwice {
		c.protected.pushFront(e)
		if c.protected.n > c.protected.max {
			c.demote()
		}
	} else {
		c.probation.pushFront(e)
	}
	return kept
}

// demote moves protected's tail to the front of probation: with its answer
// while probation's budget allows, and as a new key-only entry otherwise,
// so that a caller still reading the demoted answer reads it whole.
// Callers hold c.mu.
func (c *respCache) demote() {
	d := c.protected.root.prev
	c.protected.unlink(d)
	if !c.fits(d.size()) {
		d = &cacheEntry{key: d.key, epoch: d.epoch}
		c.entries[d.key] = d
	}
	c.probation.pushFront(d)
}

// remove unlinks an entry and forgets its key; callers hold c.mu.
func (c *respCache) remove(e *cacheEntry) {
	e.seg.unlink(e)
	delete(c.entries, e.key)
}

// Len reports the live entry count of both segments, keys included (tests
// and /v1/shards introspection).
func (c *respCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.probation.n + c.protected.n
}

// Bytes reports what both segments' answers hold, request bytes included.
func (c *respCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.probation.bytes + c.protected.bytes
}
