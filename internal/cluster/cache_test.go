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

// TestRespCacheOneTimeAnswers stores 5,000 distinct ~10 KB answers through
// `zoom router`'s default cache (4,096 entries, a 16 KiB share), none asked
// again, as view-switch asks them. With nothing asked twice there is no
// mean to go by, so probation's answers never hold more than one share; the
// rest of probation is keys. Asking one of those keys again misses and
// admits its answer, and asking it a third time hits.
func TestRespCacheOneTimeAnswers(t *testing.T) {
	c := newRespCache(4096, DefaultCacheBytes)
	answer := bytes.Repeat([]byte("a"), 10<<10)
	req := func(i int) []byte { return []byte(fmt.Sprintf(`{"run":"r","data":"d%d","view":"v"}`, i)) }
	for i := 0; i < 5000; i++ {
		c.store(cacheEntry{path: "/v1/query", reqBody: req(i), body: answer})
		if c.probation.bytes > c.share {
			t.Fatalf("after %d one-time answers probation holds %d answer bytes, more than one share (%d)", i+1, c.probation.bytes, c.share)
		}
	}
	if n := c.Len(); n != c.probation.max {
		t.Fatalf("%d entries after the sweep, want a full probation of %d", n, c.probation.max)
	}
	k := req(4990)
	if ent := c.entries[cacheKey("/v1/query", k)]; ent == nil || !ent.keyOnly() {
		t.Fatal("the sweep's tenth newest request is not waiting in probation as a key")
	}
	if e, stale := c.lookup("/v1/query", k, 0); e != nil || stale {
		t.Fatalf("second ask of a key: hit %v, stale %v; want a plain miss", e != nil, stale)
	}
	if !c.store(cacheEntry{path: "/v1/query", reqBody: k, body: answer}) || c.protected.n != 1 {
		t.Fatalf("second ask's answer: protected holds %d entries, want it admitted there", c.protected.n)
	}
	if e, _ := c.lookup("/v1/query", k, 0); e == nil || !bytes.Equal(e.body, answer) {
		t.Fatal("third ask missed")
	}
}

// refSLRU is the segmented LRU spelled out on slices (index 0 = most
// recently used), the reference the model test checks respCache against.
// Probation's answers hold at most a budget of bytes: a full probation of
// answers the mean size of protected's, at least one share. An answer past
// it leaves only its key, and a key found again under its epoch admits its
// answer to protected.
type refSLRU struct {
	probation, protected []refEntry
	probMax, protMax     int
	share                int
	promotions           int
	// How often each branch of the rule ran: answers noted as keys, keys
	// asked twice, protected tails demoted as keys.
	noted, twice, keyDemotions int
}

type refEntry struct {
	key     string
	epoch   uint64
	body    string
	hit     bool
	keyOnly bool // path, request and answer dropped
}

func (e refEntry) size() int {
	if e.keyOnly {
		return 0
	}
	return len(e.key) + len(e.body)
}

func bytesOf(seg []refEntry) int {
	n := 0
	for _, e := range seg {
		n += e.size()
	}
	return n
}

func (r *refSLRU) budget() int {
	if len(r.protected) == 0 {
		return r.share
	}
	return max(r.share, r.probMax*bytesOf(r.protected)/len(r.protected))
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
	if seg == nil || (*seg)[i].keyOnly {
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
	r.demote()
	return e.body, true, false
}

// demote moves protected's tail past its bound to probation's front, as a
// key only when its answer does not fit probation's budget.
func (r *refSLRU) demote() {
	if len(r.protected) <= r.protMax {
		return
	}
	d := take(&r.protected, len(r.protected)-1)
	if bytesOf(r.probation)+d.size() > r.budget() {
		d = refEntry{key: d.key, epoch: d.epoch, keyOnly: true}
		r.keyDemotions++
	}
	r.probation = append([]refEntry{d}, r.probation...)
}

func (r *refSLRU) store(key string, epoch uint64, body string) bool {
	e := refEntry{key: key, epoch: epoch, body: body}
	if e.size() > r.share {
		return false
	}
	askedTwice := false
	if seg, i := r.find(key); seg != nil {
		old := take(seg, i)
		askedTwice = old.keyOnly && old.epoch == epoch
	}
	if askedTwice {
		r.twice++
		r.protected = append([]refEntry{e}, r.protected...)
		r.demote()
		return true
	}
	if len(r.probation) >= r.probMax {
		take(&r.probation, len(r.probation)-1)
	}
	if bytesOf(r.probation)+e.size() > r.budget() {
		e = refEntry{key: key, epoch: epoch, keyOnly: true}
		r.noted++
	}
	r.probation = append([]refEntry{e}, r.probation...)
	return !e.keyOnly
}

// segmentKeys lists a segment's entries from most to least recently used,
// each as its request body, or as #<key>@<epoch> when it holds its key only,
// checking the links both ways, the count and the byte tally on the way.
func segmentKeys(t *testing.T, s *segment) []string {
	t.Helper()
	var keys []string
	held := int64(0)
	for e := s.root.next; e != &s.root; e = e.next {
		if e.next.prev != e || e.seg != s {
			t.Fatalf("segment links broken at %q", e.reqBody)
		}
		if e.keyOnly() {
			if e.reqBody != nil || e.body != nil {
				t.Fatalf("key-only entry %x holds %d request and %d answer bytes", e.key, len(e.reqBody), len(e.body))
			}
			keys = append(keys, fmt.Sprintf("#%x@%d", e.key, e.epoch))
		} else {
			keys = append(keys, string(e.reqBody))
		}
		held += e.size()
	}
	if len(keys) != s.n || held != s.bytes {
		t.Fatalf("segment counts %d entries and %d bytes, links hold %d and %d", s.n, s.bytes, len(keys), held)
	}
	return keys
}

// TestRespCacheModel drives respCache and refSLRU with the same random
// stores, lookups and epoch moves, for several sizes, and checks every
// store's and lookup's result, both segments' order, which of their entries
// hold only a key (and its epoch), their byte tallies and the promotion
// count after each step. From 10 entries up, where probation holds more
// than one entry and its budget can bind, every branch of the rule must
// have run.
func TestRespCacheModel(t *testing.T) {
	for _, entries := range []int{1, 2, 5, 7, 10, 16, 23} {
		rng := rand.New(rand.NewSource(int64(entries)))
		const share = 48
		c := newRespCache(entries, int64(share*entries))
		c.promotions = new(obs.Counter)
		probMax := max(1, entries/5)
		ref := &refSLRU{probMax: probMax, protMax: entries - probMax, share: share}
		epoch := uint64(0)
		store := func(step int, key string) {
			// Answers small or large, so that a mean-size budget binds.
			pad := rng.Intn(4)
			if rng.Intn(2) == 0 {
				pad += 30 + rng.Intn(10)
			}
			body := fmt.Sprintf("b%d-%s", step, bytes.Repeat([]byte("x"), pad))
			e := epoch
			if rng.Intn(8) == 0 {
				e-- // a store racing an epoch bump
			}
			got := c.store(cacheEntry{path: "/p", reqBody: []byte(key), epoch: e, body: []byte(body)})
			if want := ref.store(key, e, body); got != want {
				t.Fatalf("%d entries, step %d: store(%s, %d bytes) = %v, want %v", entries, step, key, len(key)+len(body), got, want)
			}
		}
		lookup := func(step int, key string) bool {
			e, stale := c.lookup("/p", []byte(key), epoch)
			body, hit, refStale := ref.lookup(key, epoch)
			if (e != nil) != hit || stale != refStale || (hit && string(e.body) != body) {
				t.Fatalf("%d entries, step %d: lookup(%s) = %v/%v, want hit %v stale %v", entries, step, key, e != nil, stale, hit, refStale)
			}
			return hit
		}
		for step := 0; step < 20000; step++ {
			key := fmt.Sprintf("k%d", rng.Intn(2*entries+2))
			switch op := rng.Intn(10); {
			case op < 6: // as the router asks: a lookup, and a store on a miss
				if !lookup(step, key) {
					store(step, key)
				}
			case op < 7:
				store(step, key)
			case op < 9:
				lookup(step, key)
			case rng.Intn(20) == 0: // rare enough for both segments to fill
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
					want := seg.want[i].key
					if seg.want[i].keyOnly {
						want = fmt.Sprintf("#%x@%d", cacheKey("/p", []byte(want)), seg.want[i].epoch)
					}
					if k != want {
						t.Fatalf("%d entries, step %d: segment %v, want %v", entries, step, keys, seg.want)
					}
				}
			}
			if c.Len() != len(c.entries) || c.Len() > entries || c.promotions.Value() != int64(ref.promotions) {
				t.Fatalf("%d entries, step %d: len %d, map %d, promotions %d (want %d)",
					entries, step, c.Len(), len(c.entries), c.promotions.Value(), ref.promotions)
			}
		}
		t.Logf("%d entries: %d answers noted as keys, %d keys asked twice, %d tails demoted as keys", entries, ref.noted, ref.twice, ref.keyDemotions)
		if entries >= 10 && (ref.noted == 0 || ref.twice == 0 || ref.keyDemotions == 0) {
			t.Errorf("%d entries: a branch of the rule never ran", entries)
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
