package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/spec"
)

// FuzzRelevUserViewBuilder throws random unstructured DAGs and random
// relevant sets at RelevUserViewBuilder and checks the paper's guarantees
// on every output: Properties 1-3 (well-formedness, dataflow preservation,
// completeness) always hold, and the view is minimal (Theorem 1 — no
// pairwise composite merge preserves the properties). The view must also
// be the oracle builder's, block for block and name for name. The
// generator is the same RandomDAG the minimal-vs-minimum experiment uses,
// so the fuzz corpus is just (seed, size, percent) triples.
func FuzzRelevUserViewBuilder(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(30))
	f.Add(int64(42), uint8(12), uint8(50))
	f.Add(int64(7), uint8(3), uint8(0))
	f.Add(int64(99), uint8(11), uint8(100))
	f.Add(int64(-5), uint8(8), uint8(80))
	f.Fuzz(func(t *testing.T, seed int64, size, pct uint8) {
		g := gen.NewGenerator(seed)
		s := g.RandomDAG("fuzz", 2+int(size)%39)
		rel := g.RandomRelevant(s, int(pct)%101)

		v, err := BuildRelevant(s, rel)
		if err != nil {
			t.Fatalf("builder failed on valid spec (%d modules, rel %v): %v",
				s.NumModules(), rel, err)
		}
		want, err := oracleBuildRelevant(s, rel)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(v.Blocks(), want.Blocks()) || !reflect.DeepEqual(v.Composites(), want.Composites()) {
			t.Fatalf("builder diverges from the oracle (rel %v):\n got  %v\n want %v", rel, v, want)
		}
		if err := CheckAll(v, rel); err != nil {
			t.Fatalf("Properties 1-3 violated (rel %v, view %v): %v", rel, v.Blocks(), err)
		}
		if ok, w := Minimal(v, rel); !ok {
			t.Fatalf("view not minimal: composites %s and %s can merge (rel %v, view %v)",
				w.A, w.B, rel, v.Blocks())
		}
		// The builder must produce one composite per relevant module at
		// least (Property 1 upper-bounds relevants per composite at one).
		if v.Size() < len(rel) {
			t.Fatalf("view size %d < |R| %d", v.Size(), len(rel))
		}
	})
}

// FuzzViewChecks holds the integer property pass to the oracle's string
// checkers on hand-made views: a RandomDAG of 2-30 modules, a partition
// into at most eight blocks decoded from assign, and a relevant list
// decoded from rel that may repeat modules and need not be sorted. The
// errors of every checker (as text), the full Diagnose list and Minimal's
// verdict and witness must all agree.
func FuzzViewChecks(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(3), []byte{0, 1, 2, 1, 0}, []byte{2, 5})
	f.Add(int64(2), uint8(14), uint8(1), []byte{0}, []byte{})
	f.Add(int64(3), uint8(20), uint8(7), []byte{3, 1, 4, 1, 5, 9, 2, 6}, []byte{7, 7, 3, 1})
	f.Add(int64(4), uint8(5), uint8(4), []byte{0, 1, 2, 3, 4}, []byte{4, 3, 2, 1, 0})
	f.Add(int64(5), uint8(28), uint8(5), []byte{9, 8, 7}, []byte{0, 11, 22, 0})
	f.Fuzz(func(t *testing.T, seed int64, size, blocks uint8, assign, rel []byte) {
		s := gen.NewGenerator(seed).RandomDAG("fuzz", 2+int(size)%29)
		v, relevant := decodeView(t, s, blocks, assign, rel)
		same := func(what string, got, want error) {
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s diverges (view %v, rel %v):\n got  %v\n want %v", what, v, relevant, got, want)
			}
		}
		same("WellFormed", WellFormed(v, relevant), oracleWellFormed(v, relevant))
		same("PreservesDataflow", PreservesDataflow(v, relevant), oraclePreservesDataflow(v, relevant))
		same("CompleteWRTDataflow", CompleteWRTDataflow(v, relevant), oracleCompleteWRTDataflow(v, relevant))
		same("CheckAll", CheckAll(v, relevant), oracleCheckAll(v, relevant))
		if got, want := Diagnose(v, relevant), oracleDiagnose(v, relevant); !reflect.DeepEqual(got, want) {
			t.Fatalf("Diagnose diverges (view %v, rel %v):\n got  %v\n want %v", v, relevant, got, want)
		}
		gotOK, gotW := Minimal(v, relevant)
		wantOK, wantW := oracleMinimal(v, relevant)
		if gotOK != wantOK || !reflect.DeepEqual(gotW, wantW) {
			t.Fatalf("Minimal diverges (view %v, rel %v): got %v %v, want %v %v", v, relevant, gotOK, gotW, wantOK, wantW)
		}
	})
}

// decodeView turns fuzz bytes into a view of s with at most eight blocks
// B0..B7 (module i joins block assign[i mod len(assign)]) and a relevant
// list of at most twelve entries, each naming module rel[j] mod |N|.
func decodeView(t *testing.T, s *spec.Spec, blocks uint8, assign, rel []byte) (*UserView, []string) {
	mods := s.ModuleNames()
	k := 1 + int(blocks)%8
	part := make(map[string][]string)
	for i, m := range mods {
		b := 0
		if len(assign) > 0 {
			b = int(assign[i%len(assign)]) % k
		}
		name := fmt.Sprintf("B%d", b)
		part[name] = append(part[name], m)
	}
	v, err := NewUserView(s, part)
	if err != nil {
		t.Fatal(err)
	}
	var relevant []string
	for j, b := range rel {
		if j == 12 {
			break
		}
		relevant = append(relevant, mods[int(b)%len(mods)])
	}
	return v, relevant
}

// TestViewChecksMatchOracleOnLoops runs FuzzViewChecks' comparisons, and
// the builder's, on the cyclic specifications of the Theorem 1 tests, which
// RandomDAG never produces.
func TestViewChecksMatchOracleOnLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 300; trial++ {
		s := randomSpec(rng, 3+rng.Intn(10))
		assign, rel := make([]byte, 1+rng.Intn(12)), make([]byte, rng.Intn(8))
		rng.Read(assign)
		rng.Read(rel)
		v, relevant := decodeView(t, s, uint8(rng.Intn(8)), assign, rel)
		if fmt.Sprint(CheckAll(v, relevant)) != fmt.Sprint(oracleCheckAll(v, relevant)) ||
			!reflect.DeepEqual(Diagnose(v, relevant), oracleDiagnose(v, relevant)) {
			t.Fatalf("trial %d: checks diverge (spec %v, view %v, rel %v)", trial, s.Edges(), v, relevant)
		}
		ok, w := Minimal(v, relevant)
		if wantOK, wantW := oracleMinimal(v, relevant); ok != wantOK || !reflect.DeepEqual(w, wantW) {
			t.Fatalf("trial %d: Minimal diverges: %v %v, want %v %v", trial, ok, w, wantOK, wantW)
		}
		built, err := BuildRelevant(s, relevant)
		want, _ := oracleBuildRelevant(s, relevant)
		if err != nil || !reflect.DeepEqual(built.Blocks(), want.Blocks()) {
			t.Fatalf("trial %d: builder diverges: %v vs %v (%v)", trial, built, want, err)
		}
	}
}
