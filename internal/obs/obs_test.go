package obs

import (
	"encoding/json"
	"expvar"
	"math"
	"sync"
	"testing"
)

// TestBucketBoundaries pins the power-of-two bucketing scheme: bucket 0
// holds exactly {0} (and clamped negatives), bucket i>0 holds
// [2^(i-1), 2^i - 1], and values past the last bound collapse into the
// final bucket.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{1023, 10}, {1024, 11},
		{math.MaxInt64, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// The exact powers of two sit just past the previous bucket's bound.
	for i := 1; i < 62; i++ {
		bound := BucketBound(i)
		if bound != int64(1)<<i-1 {
			t.Fatalf("BucketBound(%d) = %d, want %d", i, bound, int64(1)<<i-1)
		}
		if bucketOf(bound) != i {
			t.Errorf("upper bound %d landed in bucket %d, want %d", bound, bucketOf(bound), i)
		}
		if bucketOf(bound+1) != i+1 {
			t.Errorf("value %d landed in bucket %d, want %d", bound+1, bucketOf(bound+1), i+1)
		}
	}
	if BucketBound(0) != 0 || BucketBound(-1) != 0 {
		t.Fatal("bucket 0 bound must be 0")
	}
	if BucketBound(histBuckets-1) != math.MaxInt64 {
		t.Fatal("last bucket must absorb everything")
	}
}

// TestHistogramSnapshot checks count/sum/max and the factor-of-2 quantiles
// on a known distribution.
func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	// 90 fast observations (value 3 → bucket 2) and 10 slow (1000 → bucket 10).
	for i := 0; i < 90; i++ {
		h.Observe(3)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000)
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Sum != 90*3+10*1000 || s.Max != 1000 {
		t.Fatalf("count=%d sum=%d max=%d", s.Count, s.Sum, s.Max)
	}
	// p50 is in the fast bucket (upper bound 3), p99 in the slow one (1023).
	if s.P50 != 3 {
		t.Fatalf("p50 = %d, want 3", s.P50)
	}
	if s.P99 != 1023 {
		t.Fatalf("p99 = %d, want 1023", s.P99)
	}
	if len(s.Buckets) != 2 {
		t.Fatalf("got %d non-empty buckets, want 2: %+v", len(s.Buckets), s.Buckets)
	}
	if s.Buckets[0].UpperBound != 3 || s.Buckets[0].Count != 90 ||
		s.Buckets[1].UpperBound != 1023 || s.Buckets[1].Count != 10 {
		t.Fatalf("buckets = %+v", s.Buckets)
	}
}

// TestNilInstruments: a nil registry hands out nil instruments whose
// methods all no-op — the detached mode instrumented code relies on.
func TestNilInstruments(t *testing.T) {
	var r *Registry
	c, g, h := r.Counter("x"), r.Gauge("y"), r.Histogram("z")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must return nil instruments")
	}
	c.Inc()
	c.Add(7)
	g.Set(3)
	g.Add(-1)
	h.Observe(42)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if s := r.Snapshot(); s.Counters != nil || s.Histograms != nil {
		t.Fatal("nil registry must snapshot empty")
	}
	if err := r.Publish("nil-reg"); err != nil {
		t.Fatalf("nil registry Publish: %v", err)
	}
	if expvar.Get("nil-reg") != nil {
		t.Fatal("nil registry must not publish anything")
	}
}

// TestRegistryStablePointers: the same name always resolves to the same
// instrument, so attach-time resolution is sound.
func TestRegistryStablePointers(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("counter pointer not stable")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("histogram pointer not stable")
	}
	r.Counter("a").Add(2)
	r.Gauge("g").Set(-7)
	r.Histogram("h").Observe(5)
	s := r.Snapshot()
	if s.Counters["a"] != 2 || s.Gauges["g"] != -7 || s.Histograms["h"].Count != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
}

// TestCounterFunc: a func counter is read at every snapshot, lands in
// Counters beside the plain counters (so exposition and merge see no
// difference), and re-registering a name replaces the func.
func TestCounterFunc(t *testing.T) {
	r := NewRegistry()
	var n int64 = 3
	r.CounterFunc("f", func() int64 { return n })
	r.Counter("c").Inc()
	if s := r.Snapshot(); s.Counters["f"] != 3 || s.Counters["c"] != 1 {
		t.Fatalf("snapshot = %+v", s.Counters)
	}
	n = 5
	if got := r.Snapshot().Counters["f"]; got != 5 {
		t.Fatalf("func counter read %d at the second snapshot, want 5", got)
	}
	r.CounterFunc("f", func() int64 { return 9 })
	if got := r.Snapshot().Counters["f"]; got != 9 {
		t.Fatalf("re-registered func counter = %d, want 9", got)
	}
	var nilReg *Registry
	nilReg.CounterFunc("f", func() int64 { return 1 }) // no-op, no panic
}

// TestConcurrentRecording hammers one registry from many goroutines — run
// under -race — and checks the totals are exact at the quiescent point.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	const goroutines = 32
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Everyone resolves by name concurrently too, exercising the
			// registry map lock alongside the lock-free recording.
			c := r.Counter("ops")
			h := r.Histogram("lat")
			gauge := r.Gauge("level")
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(int64(i % 100))
				gauge.Set(int64(g))
			}
		}(g)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["ops"] != goroutines*perG {
		t.Fatalf("ops = %d, want %d", s.Counters["ops"], goroutines*perG)
	}
	hs := s.Histograms["lat"]
	if hs.Count != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", hs.Count, goroutines*perG)
	}
	if hs.Max != 99 {
		t.Fatalf("histogram max = %d, want 99", hs.Max)
	}
	if lvl := s.Gauges["level"]; lvl < 0 || lvl >= goroutines {
		t.Fatalf("gauge = %d, want one of the writers' values", lvl)
	}
}

// TestExpvarRoundTrip publishes a registry, reads it back through the
// expvar table as JSON, and checks the values survive. Expvar names are
// process-global, so the name is unique to this test.
func TestExpvarRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("queries").Add(11)
	r.Histogram("ns").Observe(500)
	if err := r.Publish("obs-test-roundtrip"); err != nil {
		t.Fatal(err)
	}
	// Publishing the same name again must error, not panic.
	if err := NewRegistry().Publish("obs-test-roundtrip"); err == nil {
		t.Fatal("duplicate publish did not error")
	}
	v := expvar.Get("obs-test-roundtrip")
	if v == nil {
		t.Fatal("registry not in expvar table")
	}
	var got Snapshot
	if err := json.Unmarshal([]byte(v.String()), &got); err != nil {
		t.Fatalf("expvar value is not JSON: %v", err)
	}
	if got.Counters["queries"] != 11 {
		t.Fatalf("counters = %+v", got.Counters)
	}
	hs := got.Histograms["ns"]
	if hs.Count != 1 || hs.Max != 500 || hs.P50 != 511 {
		t.Fatalf("histogram = %+v", hs)
	}
	// The published Func is live: later recording shows up on re-read.
	r.Counter("queries").Inc()
	if err := json.Unmarshal([]byte(expvar.Get("obs-test-roundtrip").String()), &got); err != nil {
		t.Fatal(err)
	}
	if got.Counters["queries"] != 12 {
		t.Fatalf("expvar reading is not live: %+v", got.Counters)
	}
}
