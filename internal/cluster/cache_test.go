package cluster

import (
	"bytes"
	"container/list"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/obs"
)

// lruCache is the response cache before segmentation: one LRU list, with
// the same fair-share admission, epoch check and collision check. It is the
// oracle whose hit ratio the segmented cache must keep on a skewed trace.
type lruCache struct {
	maxEnts int
	share   int64
	ll      *list.List // front = most recently used
	entries map[uint64]*list.Element
}

func newLRUCache(maxEntries int, maxBytes int64) *lruCache {
	return &lruCache{
		maxEnts: maxEntries,
		share:   maxBytes / int64(maxEntries),
		ll:      list.New(),
		entries: make(map[uint64]*list.Element),
	}
}

func (c *lruCache) lookup(path string, reqBody []byte, epoch uint64) (*cacheEntry, bool) {
	el, ok := c.entries[cacheKey(path, reqBody)]
	if !ok {
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.path != path || !bytes.Equal(ent.reqBody, reqBody) {
		return nil, false
	}
	if ent.epoch != epoch {
		c.ll.Remove(el)
		delete(c.entries, ent.key)
		return nil, true
	}
	c.ll.MoveToFront(el)
	return ent, false
}

func (c *lruCache) store(ent cacheEntry) bool {
	if ent.size() > c.share {
		return false
	}
	e := new(cacheEntry)
	*e = ent
	e.body = bytes.Clone(ent.body)
	e.key = cacheKey(e.path, e.reqBody)
	if el, ok := c.entries[e.key]; ok {
		c.ll.Remove(el)
		delete(c.entries, e.key)
	}
	c.entries[e.key] = c.ll.PushFront(e)
	if c.ll.Len() > c.maxEnts {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.entries, back.Value.(*cacheEntry).key)
	}
	return true
}

// cacheUnderTest is what the trace replays drive: the cache and its oracle.
type cacheUnderTest interface {
	lookup(path string, reqBody []byte, epoch uint64) (*cacheEntry, bool)
	store(ent cacheEntry) bool
}

// hitRatio replays keys as the router does: a lookup, and a store on a miss.
func hitRatio(c cacheUnderTest, keys []int) float64 {
	hits := 0
	for _, k := range keys {
		req := []byte(fmt.Sprintf(`{"run":"r","data":"d%d"}`, k))
		if e, _ := c.lookup("/v1/query", req, 0); e != nil {
			hits++
			continue
		}
		c.store(cacheEntry{path: "/v1/query", reqBody: req, body: []byte("answer")})
	}
	return float64(hits) / float64(len(keys))
}

// TestRespCacheZipfMatchesLRU replays hot-small's shape — Zipf(1.1) over
// 2,048 keys, 18,000 requests — through `zoom router`'s default 4,096
// entries: the segmented cache's hit ratio is within 0.005 of the plain
// LRU's. At 1,024 entries, where half the keys do not fit, it only logs
// both: there a key asked every few hundred requests leaves probation
// before it is asked again, and the segmented cache pays for its scan
// resistance (DESIGN §14).
func TestRespCacheZipfMatchesLRU(t *testing.T) {
	for _, entries := range []int{4096, 1024} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			z := rand.NewZipf(rng, 1.1, 1, 2047)
			keys := make([]int, 18000)
			for i := range keys {
				keys[i] = int(z.Uint64())
			}
			slru := hitRatio(newRespCache(entries, 0), keys)
			lru := hitRatio(newLRUCache(entries, DefaultCacheBytes), keys)
			t.Logf("%d entries, seed %d: segmented %.4f, LRU %.4f", entries, seed, slru, lru)
			if entries == 4096 && (slru < lru-0.005 || slru > lru+0.005) {
				t.Errorf("%d entries, seed %d: segmented hit ratio %.4f, LRU %.4f; want within 0.005", entries, seed, slru, lru)
			}
		}
	}
}

// TestRespCacheScanResistance scans 4x the cache's entries in distinct keys,
// each asked once, past a hot set asked twice: the scan keeps at most a
// fifth of the cache, and every hot key survives it. The plain LRU keeps
// the scan's tail and loses the hot set.
func TestRespCacheScanResistance(t *testing.T) {
	const entries = 100
	req := func(k string) []byte { return []byte(`{"run":"r","data":"` + k + `"}`) }
	c, lru := newRespCache(entries, 0), newLRUCache(entries, DefaultCacheBytes)
	hot := entries * 4 / 5
	for _, cache := range []cacheUnderTest{c, lru} {
		for i := 0; i < hot; i++ {
			k := req(fmt.Sprintf("hot%d", i))
			cache.store(cacheEntry{path: "/v1/query", reqBody: k, body: k})
			cache.lookup("/v1/query", k, 0)
		}
		for i := 0; i < 4*entries; i++ {
			k := req(fmt.Sprintf("scan%d", i))
			cache.store(cacheEntry{path: "/v1/query", reqBody: k, body: k})
		}
	}
	scanned := 0
	for _, e := range c.entries {
		if bytes.Contains(e.reqBody, []byte("scan")) {
			scanned++
		}
	}
	if scanned > entries/5 || c.Len() > entries {
		t.Fatalf("after the scan: %d of %d entries are scanned keys, want at most %d", scanned, c.Len(), entries/5)
	}
	for i := 0; i < hot; i++ {
		k := req(fmt.Sprintf("hot%d", i))
		if e, _ := c.lookup("/v1/query", k, 0); e == nil || !bytes.Equal(e.body, k) {
			t.Fatalf("hot key %d did not survive the scan", i)
		}
		if e, _ := lru.lookup("/v1/query", k, 0); e != nil {
			t.Fatalf("hot key %d survived the scan in the plain LRU; the scan is too short to test anything", i)
		}
	}
}

// refSLRU is the segmented LRU spelled out on slices (index 0 = most
// recently used), the reference the model test checks respCache against.
type refSLRU struct {
	probation, protected []refEntry
	probMax, protMax     int
	share                int
	promotions           int
}

type refEntry struct {
	key   string
	epoch uint64
	body  string
	hit   bool
}

func (r *refSLRU) find(key string) (seg *[]refEntry, i int) {
	for _, seg := range []*[]refEntry{&r.probation, &r.protected} {
		for i, e := range *seg {
			if e.key == key {
				return seg, i
			}
		}
	}
	return nil, -1
}

func take(seg *[]refEntry, i int) refEntry {
	e := (*seg)[i]
	*seg = append((*seg)[:i:i], (*seg)[i+1:]...)
	return e
}

func (r *refSLRU) lookup(key string, epoch uint64) (body string, hit, stale bool) {
	seg, i := r.find(key)
	if seg == nil {
		return "", false, false
	}
	e := take(seg, i)
	if e.epoch != epoch {
		return "", false, true
	}
	if !e.hit {
		e.hit = true
		r.promotions++
	}
	r.protected = append([]refEntry{e}, r.protected...)
	if len(r.protected) > r.protMax {
		demoted := take(&r.protected, len(r.protected)-1)
		r.probation = append([]refEntry{demoted}, r.probation...)
	}
	return e.body, true, false
}

func (r *refSLRU) store(key string, epoch uint64, body string) bool {
	if len(key)+len(body) > r.share {
		return false
	}
	if seg, i := r.find(key); seg != nil {
		take(seg, i)
	}
	r.probation = append([]refEntry{{key: key, epoch: epoch, body: body}}, r.probation...)
	if len(r.probation) > r.probMax {
		take(&r.probation, len(r.probation)-1)
	}
	return true
}

// segmentKeys lists a segment's request bodies from most to least recently
// used, checking the links both ways and the count on the way.
func segmentKeys(t *testing.T, s *segment) []string {
	t.Helper()
	var keys []string
	for e := s.root.next; e != &s.root; e = e.next {
		if e.next.prev != e || e.seg != s {
			t.Fatalf("segment links broken at %q", e.reqBody)
		}
		keys = append(keys, string(e.reqBody))
	}
	if len(keys) != s.n {
		t.Fatalf("segment counts %d entries, links hold %d", s.n, len(keys))
	}
	return keys
}

// TestRespCacheModel drives respCache and refSLRU with the same random
// stores, lookups and epoch moves, for several sizes, and checks every
// answer, both segments' order and the promotion count after each step.
func TestRespCacheModel(t *testing.T) {
	for _, entries := range []int{1, 2, 5, 7, 16} {
		rng := rand.New(rand.NewSource(int64(entries)))
		const share = 24
		c := newRespCache(entries, int64(share*entries))
		c.promotions = new(obs.Counter)
		probMax := max(1, entries/5)
		ref := &refSLRU{probMax: probMax, protMax: entries - probMax, share: share}
		epoch := uint64(0)
		for step := 0; step < 5000; step++ {
			key := fmt.Sprintf("k%d", rng.Intn(3*entries+2))
			switch op := rng.Intn(10); {
			case op < 4:
				body := fmt.Sprintf("b%d-%s", step, bytes.Repeat([]byte("x"), rng.Intn(16)))
				e := epoch
				if rng.Intn(8) == 0 {
					e-- // a store racing an epoch bump
				}
				got := c.store(cacheEntry{path: "/p", reqBody: []byte(key), epoch: e, body: []byte(body)})
				if want := ref.store(key, e, body); got != want {
					t.Fatalf("%d entries, step %d: store(%s, %d bytes) = %v, want %v", entries, step, key, len(key)+len(body), got, want)
				}
			case op < 9:
				e, stale := c.lookup("/p", []byte(key), epoch)
				body, hit, refStale := ref.lookup(key, epoch)
				if (e != nil) != hit || stale != refStale || (hit && string(e.body) != body) {
					t.Fatalf("%d entries, step %d: lookup(%s) = %v/%v, want hit %v stale %v", entries, step, key, e != nil, stale, hit, refStale)
				}
			default:
				epoch++
			}
			for _, seg := range []struct {
				got  *segment
				want []refEntry
			}{{&c.probation, ref.probation}, {&c.protected, ref.protected}} {
				keys := segmentKeys(t, seg.got)
				if len(keys) != len(seg.want) {
					t.Fatalf("%d entries, step %d: segment %v, want %v", entries, step, keys, seg.want)
				}
				for i, k := range keys {
					if k != seg.want[i].key {
						t.Fatalf("%d entries, step %d: segment %v, want %v", entries, step, keys, seg.want)
					}
				}
			}
			if c.Len() != len(c.entries) || c.Len() > entries || c.promotions.Value() != int64(ref.promotions) {
				t.Fatalf("%d entries, step %d: len %d, map %d, promotions %d (want %d)",
					entries, step, c.Len(), len(c.entries), c.promotions.Value(), ref.promotions)
			}
		}
	}
}

// TestConcurrentRespCache races stores, hits (and so promotions and
// demotions) and epoch moves from many goroutines over a small key space.
// Every hit must be its own key's answer, and the segments must be
// consistent after. The "Concurrent" name opts it into the -race CI job.
func TestConcurrentRespCache(t *testing.T) {
	const entries, goroutines, iters = 10, 16, 2000
	c := newRespCache(entries, 0)
	c.promotions = new(obs.Counter)
	var epoch sync.Mutex
	cur := uint64(0)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				key := []byte(fmt.Sprintf("k%d", rng.Intn(3*entries)))
				epoch.Lock()
				if rng.Intn(200) == 0 {
					cur++
				}
				e := cur
				epoch.Unlock()
				if ent, _ := c.lookup("/p", key, e); ent != nil {
					if !bytes.Equal(ent.body, append([]byte("answer of "), key...)) {
						t.Errorf("%s served %q", key, ent.body)
						return
					}
					continue
				}
				c.store(cacheEntry{path: "/p", reqBody: key, epoch: e, body: append([]byte("answer of "), key...)})
			}
		}(g)
	}
	wg.Wait()
	probation, protected := segmentKeys(t, &c.probation), segmentKeys(t, &c.protected)
	if n := len(probation) + len(protected); n != c.Len() || n != len(c.entries) || len(probation) > max(1, entries/5) || n > entries {
		t.Fatalf("after the race: probation %d, protected %d, map %d; bound %d", len(probation), len(protected), len(c.entries), entries)
	}
	if c.promotions.Value() == 0 {
		t.Fatal("no entry was ever promoted")
	}
}
