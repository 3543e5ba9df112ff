package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/spec"
	"repro/internal/warehouse"
	"repro/internal/wflog"
)

// Names of the views every corpus registers for each of its specifications.
const (
	viewUBio     = "ubio"
	viewBlackBox = "blackbox"
)

// relevantPercents are the sizes, as a share of a specification's modules,
// of the relevant lists a corpus carries: the paper's UV views.
var relevantPercents = []int{10, 30, 50, 70}

// corpusPart is the runs of one generated specification.
type corpusPart struct {
	class gen.WorkflowClass
	kind  gen.RunClass
	runs  int
}

// corpusDef describes a corpus. The seed is part of the workload, not of
// the benchmark's --seed: run sizes vary threefold between generator seeds,
// so a corpus that followed --seed would make two runs of one workload
// incomparable. --seed drives the tape drawn over the corpus.
type corpusDef struct {
	seed  int64
	parts []corpusPart
}

// corpusSpec is one specification with the relevant lists its views are
// built from.
type corpusSpec struct {
	spec     *spec.Spec
	ubio     []string
	relevant [][]string // one list per relevantPercents entry
}

// corpusRun is one run as the system receives it: the text of its log.
type corpusRun struct {
	id    string
	spec  int    // index into corpus.specs
	log   []byte // JSON-lines wflog text
	data  []string
	steps int
}

type corpus struct {
	seed     int64 // of the definition it was generated from
	specs    []corpusSpec
	runs     []corpusRun
	logBytes int64
}

// generate builds the corpus of def. It is deterministic: the same def
// gives the same bytes.
func generate(def corpusDef) (*corpus, error) {
	g := gen.NewGenerator(def.seed)
	c := &corpus{seed: def.seed}
	for pi, p := range def.parts {
		name := fmt.Sprintf("wf%d-%s", pi, p.class.Name)
		sp := g.Workflow(p.class, name)
		cs := corpusSpec{spec: sp, ubio: gen.UBioRelevant(sp)}
		if len(cs.ubio) == 0 {
			return nil, fmt.Errorf("corpus seed %d: %s has no scientific module for the ubio view", def.seed, name)
		}
		for _, pct := range relevantPercents {
			cs.relevant = append(cs.relevant, g.RandomRelevant(sp, pct))
		}
		c.specs = append(c.specs, cs)
		for i := 0; i < p.runs; i++ {
			id := fmt.Sprintf("%s-%s-r%02d", name, p.kind.Name, i)
			r, events, err := g.Run(sp, p.kind, id)
			if err != nil {
				return nil, fmt.Errorf("generate run %s: %w", id, err)
			}
			var log bytes.Buffer
			if err := wflog.Write(&log, events); err != nil {
				return nil, fmt.Errorf("write log of %s: %w", id, err)
			}
			cr := corpusRun{id: id, spec: len(c.specs) - 1, log: log.Bytes(), steps: r.NumSteps()}
			for _, d := range r.AllData() { // natural order: production order
				if !r.IsExternal(d) {
					cr.data = append(cr.data, d)
				}
			}
			if len(cr.data) == 0 {
				return nil, fmt.Errorf("generate run %s: no step-produced data", id)
			}
			c.logBytes += int64(log.Len())
			c.runs = append(c.runs, cr)
		}
	}
	return c, nil
}

// views builds the views a corpus registers by name for one specification,
// after verifying that every view a tape can name on it, these and the
// ones built from its relevant lists, satisfies the paper's Properties 1-3.
func (cs *corpusSpec) views() (map[string]*core.UserView, error) {
	name := cs.spec.Name()
	ubio, err := core.BuildRelevant(cs.spec, cs.ubio)
	if err != nil {
		return nil, fmt.Errorf("build %s view of %s: %w", viewUBio, name, err)
	}
	if err := core.CheckAll(ubio, cs.ubio); err != nil {
		return nil, fmt.Errorf("%s view of %s: %w", viewUBio, name, err)
	}
	bb, err := core.UBlackBox(cs.spec)
	if err != nil {
		return nil, fmt.Errorf("build %s view of %s: %w", viewBlackBox, name, err)
	}
	if err := core.CheckAll(bb, nil); err != nil {
		return nil, fmt.Errorf("%s view of %s: %w", viewBlackBox, name, err)
	}
	if err := core.CheckAll(core.UAdmin(cs.spec), cs.spec.ModuleNames()); err != nil {
		return nil, fmt.Errorf("UAdmin view of %s: %w", name, err)
	}
	for i, rel := range cs.relevant {
		v, err := core.BuildRelevant(cs.spec, rel)
		if err == nil {
			err = core.CheckAll(v, rel)
		}
		if err != nil {
			return nil, fmt.Errorf("relevant %d%% view of %s: %w", relevantPercents[i], name, err)
		}
	}
	return map[string]*core.UserView{viewUBio: ubio, viewBlackBox: bb}, nil
}

// ingest loads a corpus into a new warehouse the way a deployment would:
// specifications registered, each run's log text streamed through
// Warehouse.LoadLogReader, views registered by name. It returns how long
// the logs took.
func (c *corpus) ingest() (*warehouse.Warehouse, time.Duration, error) {
	w := warehouse.New(0)
	for i := range c.specs {
		if err := w.RegisterSpec(c.specs[i].spec); err != nil {
			return nil, 0, fmt.Errorf("register spec: %w", err)
		}
	}
	start := time.Now()
	for i := range c.runs {
		r := &c.runs[i]
		if _, err := w.LoadLogReader(r.id, c.specs[r.spec].spec.Name(), bytes.NewReader(r.log)); err != nil {
			return nil, 0, fmt.Errorf("ingest %s: %w", r.id, err)
		}
	}
	took := time.Since(start)
	for i := range c.specs {
		named, err := c.specs[i].views()
		if err != nil {
			return nil, 0, err
		}
		for name, v := range named {
			if err := w.RegisterView(name, v); err != nil {
				return nil, 0, fmt.Errorf("register view %s: %w", name, err)
			}
		}
	}
	return w, took, nil
}
