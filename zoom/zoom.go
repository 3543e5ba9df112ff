// Package zoom is the public API of the ZOOM*UserViews reproduction — a
// system for querying and managing workflow provenance through user views
// (Biton, Cohen-Boulakia, Davidson, Hara: "Querying and Managing Provenance
// through User Views in Scientific Workflows", ICDE 2008).
//
// The typical flow mirrors the paper's architecture (Figure 8):
//
//	sys := zoom.NewSystem()
//	sys.RegisterSpec(spec)                   // workflow definition
//	sys.LoadLog(runID, spec.Name(), events)  // extracted from the workflow log
//	view, _ := zoom.BuildUserView(spec, []string{"M2", "M3", "M7"})
//	res, _ := sys.DeepProvenance(runID, view, "d447")
//
// Everything below is a thin veneer over the internal packages; the
// exported names are stable.
package zoom

import (
	"context"
	"io"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/export"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/query"
	"repro/internal/run"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/warehouse"
	"repro/internal/wflog"
)

// Re-exported model types.
type (
	// Spec is a workflow specification (Section II).
	Spec = spec.Spec
	// Module is a uniquely named workflow task.
	Module = spec.Module
	// Kind classifies a module (scientific / formatting / interaction).
	Kind = spec.Kind
	// UserView is a partition of a specification's modules.
	UserView = core.UserView
	// Run is a workflow execution.
	Run = run.Run
	// Step is one execution of a module within a run.
	Step = run.Step
	// ExecConfig controls the built-in workflow executor.
	ExecConfig = run.Config
	// Event is a workflow-log record.
	Event = wflog.Event
	// Execution is a (possibly virtual) composite execution.
	Execution = composite.Execution
	// Result is a provenance query answer under a view.
	Result = provenance.Result
	// CacheCounters are the closure cache's hit/miss/singleflight/eviction
	// counters.
	CacheCounters = warehouse.CacheCounters
	// Metrics is the observability registry (counters, gauges, latency
	// histograms) a System can be attached to.
	Metrics = obs.Registry
	// MetricsSnapshot is a point-in-time export of a Metrics registry.
	MetricsSnapshot = obs.Snapshot
	// Trace is a request-scoped span tree; SpanNode one snapshotted span.
	Trace = obs.Trace
	// SpanNode is one span of a finished (or snapshotted) trace tree.
	SpanNode = obs.SpanNode
	// Server is the HTTP provenance service behind `zoom serve`.
	Server = server.Server
	// ServerConfig tunes a Server (slow-query threshold and log size,
	// expvar name).
	ServerConfig = server.Config
	// SlowEntry is one slow-query log record.
	SlowEntry = obs.SlowEntry
	// Generator produces synthetic workloads (Section V.A).
	Generator = gen.Generator
	// WorkflowClass is a Table I workflow profile.
	WorkflowClass = gen.WorkflowClass
	// RunClass is a Table II run profile.
	RunClass = gen.RunClass
	// Report is an experiment result table.
	Report = bench.Report
	// BenchOptions scales the experiment harness.
	BenchOptions = bench.Options
	// BenchExperiment is one selectable experiment of the harness.
	BenchExperiment = bench.Experiment
)

// Reserved node identifiers and module kinds.
const (
	Input           = spec.Input
	Output          = spec.Output
	KindScientific  = spec.KindScientific
	KindFormatting  = spec.KindFormatting
	KindInteraction = spec.KindInteraction
)

// NewSpec returns an empty specification.
func NewSpec(name string) *Spec { return spec.New(name) }

// DecodeSpec parses and validates a JSON specification.
func DecodeSpec(data []byte) (*Spec, error) { return spec.Decode(data) }

// EncodeSpec serializes a specification to JSON.
func EncodeSpec(s *Spec) ([]byte, error) { return spec.Encode(s) }

// Phylogenomics returns the paper's running example (Figure 1).
func Phylogenomics() *Spec { return spec.Phylogenomics() }

// PhylogenomicsRun returns the paper's example run (Figure 2).
func PhylogenomicsRun() *Run { return run.Figure2() }

// JoeRelevant and MaryRelevant return the Section I relevant-module sets.
func JoeRelevant() []string  { return spec.PhyloRelevantJoe() }
func MaryRelevant() []string { return spec.PhyloRelevantMary() }

// BuildUserView runs RelevUserViewBuilder: it constructs a user view that
// has one composite per relevant module, preserves and is complete w.r.t.
// dataflow (Properties 1-3), and is minimal (Theorem 1).
func BuildUserView(s *Spec, relevant []string) (*UserView, error) {
	return core.BuildRelevant(s, relevant)
}

// NewUserView builds a view from an explicit partition.
func NewUserView(s *Spec, blocks map[string][]string) (*UserView, error) {
	return core.NewUserView(s, blocks)
}

// UAdmin returns the finest view (every module visible).
func UAdmin(s *Spec) *UserView { return core.UAdmin(s) }

// UBlackBox returns the coarsest view (the whole workflow opaque).
func UBlackBox(s *Spec) (*UserView, error) { return core.UBlackBox(s) }

// CheckView verifies Properties 1-3 for a view and relevant set.
func CheckView(v *UserView, relevant []string) error { return core.CheckAll(v, relevant) }

// Violation is one diagnostic finding of DiagnoseView.
type Violation = core.Violation

// DiagnoseView returns every Property 1-3 violation of a view (empty for a
// good view) — the complete list an interactive view editor shows, where
// CheckView stops at the first.
func DiagnoseView(v *UserView, relevant []string) []Violation {
	return core.Diagnose(v, relevant)
}

// MinimalView reports whether no pairwise composite merge of v preserves
// Properties 1-3, returning a witness pair otherwise.
func MinimalView(v *UserView, relevant []string) (bool, *core.MergeWitness) {
	return core.Minimal(v, relevant)
}

// MinimumView searches exhaustively for a smallest view satisfying
// Properties 1-3 (feasible for small specifications; the general
// complexity is the paper's open problem).
func MinimumView(s *Spec, relevant []string) (*UserView, error) {
	return core.MinimumView(s, relevant)
}

// AddRelevant / RemoveRelevant rebuild a view after flagging or unflagging
// one module — the prototype's interactive UserViewBuilder loop. Both
// return the updated relevant set alongside the new view.
func AddRelevant(s *Spec, relevant []string, module string) (*UserView, []string, error) {
	return core.AddRelevant(s, relevant, module)
}

func RemoveRelevant(s *Spec, relevant []string, module string) (*UserView, []string, error) {
	return core.RemoveRelevant(s, relevant, module)
}

// SubSpec extracts one composite of a view as a standalone workflow
// specification; RefineComposite splits the composite in place by running
// the builder inside it (hierarchical views, Section VII).
func SubSpec(v *UserView, composite string) (*Spec, error) {
	return core.SubSpec(v, composite)
}

func RefineComposite(v *UserView, composite string, relevantInside []string) (*UserView, error) {
	return core.RefineComposite(v, composite, relevantInside)
}

// Refines reports whether view a is a finer partition than view b.
func Refines(a, b *UserView) bool { return core.Refines(a, b) }

// Execute simulates a run of a specification, returning the run and the
// event log a workflow system would have emitted.
func Execute(s *Spec, cfg ExecConfig) (*Run, []Event, error) { return run.Execute(s, cfg) }

// RunFromLog reconstructs a run from an event log.
func RunFromLog(runID, specName string, events []Event) (*Run, error) {
	return run.FromLog(runID, specName, events)
}

// ReadLog and WriteLog (de)serialize JSON-lines event logs.
func ReadLog(r io.Reader) ([]Event, error)       { return wflog.Read(r) }
func WriteLog(w io.Writer, events []Event) error { return wflog.Write(w, events) }
func ValidateLog(events []Event) error           { return wflog.ValidateSequence(events) }

// NewGenerator returns a seeded workload generator.
func NewGenerator(seed int64) *Generator { return gen.NewGenerator(seed) }

// WorkflowClasses returns the Table I profiles; RunClasses the Table II
// profiles.
func WorkflowClasses() []WorkflowClass { return gen.Classes() }
func RunClasses() []RunClass           { return gen.RunClasses() }

// UBioRelevant returns the scientific modules of a generated workflow —
// the stand-in for the paper's biologist-picked relevant sets.
func UBioRelevant(s *Spec) []string { return gen.UBioRelevant(s) }

// System bundles a provenance warehouse with its query engine.
type System struct {
	w *warehouse.Warehouse
	e *provenance.Engine
}

// NewSystem returns a system with an empty warehouse.
func NewSystem() *System {
	w := warehouse.New(0)
	return &System{w: w, e: provenance.NewEngine(w)}
}

// RegisterSpec stores a workflow specification.
func (s *System) RegisterSpec(sp *Spec) error { return s.w.RegisterSpec(sp) }

// RegisterView stores a named user view.
func (s *System) RegisterView(name string, v *UserView) error { return s.w.RegisterView(name, v) }

// View retrieves a registered view.
func (s *System) View(specName, viewName string) (*UserView, error) {
	return s.w.View(specName, viewName)
}

// Spec retrieves a registered specification.
func (s *System) Spec(name string) (*Spec, error) { return s.w.Spec(name) }

// SpecNames, ViewNames, RunIDs list the warehouse contents.
func (s *System) SpecNames() []string                { return s.w.SpecNames() }
func (s *System) ViewNames(specName string) []string { return s.w.ViewNames(specName) }
func (s *System) RunIDs() []string                   { return s.w.RunIDs() }

// LoadRun stores a validated, conformant run.
func (s *System) LoadRun(r *Run) error { return s.w.LoadRun(r) }

// LoadLog ingests an event log as a run.
func (s *System) LoadLog(runID, specName string, events []Event) error {
	return s.w.LoadLog(runID, specName, events)
}

// Run retrieves a loaded run.
func (s *System) Run(id string) (*Run, error) { return s.w.Run(id) }

// DeepProvenance answers "what data objects and steps were used to produce
// d?" with respect to a user view, using the compute-UAdmin-then-project
// strategy with closure caching.
func (s *System) DeepProvenance(runID string, v *UserView, d string) (*Result, error) {
	return s.e.DeepProvenance(runID, v, d)
}

// DeepProvenanceCtx is DeepProvenance with a context: cancellation is
// honored at stage boundaries, and when the context carries a trace
// (NewTrace) the engine records its stages as spans.
func (s *System) DeepProvenanceCtx(ctx context.Context, runID string, v *UserView, d string) (*Result, error) {
	return s.e.DeepProvenanceCtx(ctx, runID, v, d)
}

// NewTrace starts a request-scoped span tree; derive a context with
// (*Trace).Context and pass it through Ctx-suffixed query methods.
func NewTrace(name string) *Trace { return obs.NewTrace(name) }

// NewServer returns an HTTP provenance server wired to the registry (one
// is created when nil). It fails when cfg.ExpvarName is already published.
// The server answers /healthz immediately and 503s API requests until
// ConnectServer installs a loaded system.
func NewServer(reg *Metrics, cfg ServerConfig) (*Server, error) {
	return server.New(reg, cfg)
}

// ConnectServer installs this system's query engine into the server,
// flipping it ready — typically called after a background warehouse load.
func (s *System) ConnectServer(srv *Server) { srv.SetEngine(s.e) }

// Cluster scale-out types: a consistent-hash ring placing run ids on
// shards, and a stateless router that forwards run-addressed queries to
// the owning worker and scatter-gathers the catalog endpoints.
type (
	// Ring places run ids on N abstract shard indexes by consistent
	// hashing; the router maps indexes onto worker addresses and
	// `zoom snapshot shard` maps them onto output files, so both agree on
	// placement by construction.
	Ring = cluster.Ring
	// Router is the scatter-gather HTTP front over N workers.
	Router = cluster.Router
	// RouterConfig tunes a Router (replica groups in shard order, health
	// polling, request hedging, response caching, slow-log threshold).
	RouterConfig = cluster.Config
)

// ParseWorkers parses a `-workers` style worker list into replica groups
// in shard order: semicolons separate shards and commas separate
// replicas within a shard ("a,b;c,d"); without any semicolon, commas
// separate single-replica shards (the legacy syntax).
func ParseWorkers(s string) [][]string { return cluster.ParseWorkers(s) }

// NewRing returns a consistent-hash ring over n shards (replicas <= 0
// selects the default virtual-node count; it must match across the
// router and the snapshot splitter).
func NewRing(n, replicas int) (*Ring, error) { return cluster.NewRing(n, replicas) }

// NewRouter returns a cluster router wired to the registry (one is
// created when nil). Serve runs it with health polling; Handler mounts
// it on an existing server.
func NewRouter(reg *Metrics, cfg RouterConfig) (*Router, error) { return cluster.New(reg, cfg) }

// Subset returns an independent system holding only the runs keep
// selects, with the full spec and view catalog — the resharding
// primitive behind `zoom snapshot shard`. The subset shares the parent's
// immutable run storage; for a system opened from a v3 snapshot
// (OpenSnapshot), save or finish using the subset before closing the
// parent.
func (s *System) Subset(keep func(runID string) bool) (*System, error) {
	w, err := s.w.Subset(keep)
	if err != nil {
		return nil, err
	}
	return &System{w: w, e: provenance.NewEngine(w)}, nil
}

// DeepProvenanceBatch answers the deep provenance of many data objects of
// one run under one view, in dataIDs order, on the caller's goroutine.
// Results are identical to DeepProvenance calls for each id in turn; the
// first failure ends the batch. Concurrent batches that miss the same
// cached closure compute it once (singleflight).
func (s *System) DeepProvenanceBatch(ctx context.Context, runID string, v *UserView, dataIDs []string) ([]*Result, error) {
	return s.e.DeepProvenanceBatch(ctx, runID, v, dataIDs)
}

// ImmediateProvenance returns the composite execution that produced d
// under the view (nil for user/workflow input).
func (s *System) ImmediateProvenance(runID string, v *UserView, d string) (*Execution, error) {
	return s.e.ImmediateProvenance(runID, v, d)
}

// DeepDerivation answers the inverse canned query: everything derived
// from d, projected through the view.
func (s *System) DeepDerivation(runID string, v *UserView, d string) (*Result, error) {
	return s.e.DeepDerivation(runID, v, d)
}

// Executions lists the composite executions of a run under a view in
// topological order — the run display of the prototype.
func (s *System) Executions(runID string, v *UserView) ([]*Execution, error) {
	return s.e.Executions(runID, v)
}

// DataBetween returns the data passed between two composite executions —
// the prototype's click-on-an-edge interaction.
func (s *System) DataBetween(runID string, v *UserView, fromExec, toExec string) ([]string, error) {
	return s.e.DataBetween(runID, v, fromExec, toExec)
}

// InProvenance reports whether candidate lies in target's deep provenance.
func (s *System) InProvenance(runID, candidate, target string) (bool, error) {
	return s.e.InProvenance(runID, candidate, target)
}

// CommonProvenance returns the visible data shared by the deep provenance
// of two data objects.
func (s *System) CommonProvenance(runID string, v *UserView, d1, d2 string) ([]string, error) {
	return s.e.CommonProvenance(runID, v, d1, d2)
}

// ExecutionProvenance returns the deep provenance of a whole composite
// execution.
func (s *System) ExecutionProvenance(runID string, v *UserView, execID string) (*Result, error) {
	return s.e.ExecutionProvenance(runID, v, execID)
}

// Answer is a canned-query result.
type Answer = query.Answer

// Ask parses and evaluates one of the prototype's canned query forms —
// deep(d), immediate(d), derived(d), execution(e), between(e, e),
// common(d, d), in(d, d) — against a run and view.
func (s *System) Ask(runID string, v *UserView, q string) (*Answer, error) {
	return query.Run(s.e, runID, v, q)
}

// RenderAnswer formats a canned-query answer for terminals.
func RenderAnswer(a *Answer) string { return query.Render(a) }

// PathElement is one hop of a derivation path.
type PathElement = provenance.PathElement

// DerivationPath returns one shortest visible derivation chain from one
// data object to another under a view (nil when no influence exists or the
// target is hidden by the view).
func (s *System) DerivationPath(runID string, v *UserView, from, to string) ([]PathElement, error) {
	return s.e.DerivationPath(runID, v, from, to)
}

// FormatPath renders a derivation path as d1 -[S1]-> d2 -[M3@1]-> d3.
func FormatPath(path []PathElement) string { return provenance.FormatPath(path) }

// RunDiff is the structural comparison of two runs.
type RunDiff = run.Diff

// CompareRuns summarizes how two runs of the same specification differ —
// the per-module execution-count deltas loops produce, plus size and depth.
func CompareRuns(a, b *Run) RunDiff { return run.Compare(a, b) }

// QueryForms lists the canned query forms for help texts.
func QueryForms() []string { return query.Forms() }

// CacheCounters snapshots all closure-cache counters, including the
// singleflight shared-wait and eviction counts.
func (s *System) CacheCounters() CacheCounters { return s.w.CacheCounters() }

// Stats summarizes the warehouse contents (catalog row counts) and what its
// memos of derived state hold.
func (s *System) Stats() warehouse.Stats { return s.w.Stats() }

// NewMetrics returns an empty observability registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// AttachMetrics wires the system — warehouse, closure cache, and query
// engine — to one metrics registry; nil detaches. Detached instrumentation
// is a few nil checks per query (pinned by BenchmarkObsOverhead), so
// systems that never attach pay nothing measurable.
func (s *System) AttachMetrics(reg *Metrics) {
	s.w.AttachMetrics(reg)
	s.e.AttachMetrics(reg)
}

// Metrics returns the attached registry (nil when detached).
func (s *System) Metrics() *Metrics { return s.w.Metrics() }

// DropRun removes a run, its cached closures and its memoized view mappings.
func (s *System) DropRun(id string) error { return s.w.DropRun(id) }

// LoadLogReader streams a JSON-lines workflow log straight into run
// construction — no event slice is materialized. It returns the number of
// events ingested.
func (s *System) LoadLogReader(runID, specName string, r io.Reader) (int, error) {
	return s.w.LoadLogReader(runID, specName, r)
}

// LoadOptions tune snapshot loading (a metrics registry to attach and
// record the load in, and a progress callback).
type LoadOptions = warehouse.LoadOptions

// Save writes the warehouse as a v1 JSON snapshot (the diff-able
// interchange format); SaveV3 writes the v3 page-aligned snapshot that
// OpenSnapshot can serve straight from an mmap without a load phase.
// LoadSystem restores either format, auto-detecting.
func (s *System) Save(out io.Writer) error   { return s.w.Save(out) }
func (s *System) SaveV3(out io.Writer) error { return s.w.SaveV3(out) }

// SnapshotStats describes the snapshot a system is backed by (the Snapshot
// section of Stats): format version, whether the file is memory-mapped, and
// how many runs have been materialized from it so far.
type SnapshotStats = warehouse.SnapshotStats

// OpenSnapshot memory-maps a v3 snapshot file and returns a queryable
// system in O(catalog) time: the run payloads stay on disk and materialize
// lazily, per run, on first touch. The kernel pages data in on demand, so
// time-to-ready is independent of warehouse size. Close the system to
// unmap the file — data returned by earlier queries remains valid.
//
// On platforms without mmap support the file is read into memory instead;
// the lazy-materialization behavior is identical.
func OpenSnapshot(path string, opts LoadOptions) (*System, error) {
	w, err := warehouse.OpenV3(path, 0, opts)
	if err != nil {
		return nil, err
	}
	sys := &System{w: w, e: provenance.NewEngine(w)}
	if opts.Metrics != nil {
		sys.e.AttachMetrics(opts.Metrics)
	}
	return sys, nil
}

// Close releases the system's snapshot mapping (a no-op for systems that
// are not snapshot-backed). After Close every query returns an error;
// results obtained before Close stay valid. Callers must drain in-flight
// queries first.
func (s *System) Close() error { return s.w.Close() }

// LoadSystem restores a system from a Save or SaveV3 snapshot with
// default options.
func LoadSystem(in io.Reader) (*System, error) {
	return LoadSystemWith(in, LoadOptions{})
}

// LoadSystemWith is LoadSystem with explicit load options. When
// opts.Metrics is set, the snapshot load is recorded there and the whole
// system comes up attached.
func LoadSystemWith(in io.Reader, opts LoadOptions) (*System, error) {
	w, err := warehouse.LoadWith(in, 0, opts)
	if err != nil {
		return nil, err
	}
	sys := &System{w: w, e: provenance.NewEngine(w)}
	if opts.Metrics != nil {
		sys.e.AttachMetrics(opts.Metrics)
	}
	return sys, nil
}

// Rendering helpers (Graphviz DOT and plain text).
func SpecDOT(s *Spec) string                  { return dot.Spec(s) }
func ViewDOT(name string, v *UserView) string { return dot.View(name, v) }
func RunDOT(r *Run) string                    { return dot.Run(r) }
func ProvenanceDOT(res *Result) string        { return dot.Provenance(res) }
func ProvenanceText(res *Result) string       { return dot.ProvenanceText(res) }

// FormatDataSet renders a set of data ids compactly ({d308..d408}).
func FormatDataSet(ids []string) string { return run.FormatDataSet(ids) }

// PROVJSON exports a provenance result as a W3C PROV-JSON document —
// entities for the visible data, activities for the visible composite
// executions, used/wasGeneratedBy for the visible flows. Hidden steps and
// hidden data never appear in an export.
func PROVJSON(res *Result) ([]byte, error) { return export.PROVJSON(res) }

// SpecGraphML renders a specification as GraphML.
func SpecGraphML(s *Spec) string { return export.SpecGraphML(s) }

// Experiments: the evaluation harness regenerating the paper's tables and
// figures. DefaultBench is CI-sized; FullBench is paper-sized.
func DefaultBench() BenchOptions              { return bench.Default() }
func FullBench() BenchOptions                 { return bench.Full() }
func RunExperiments(o BenchOptions) []*Report { return bench.RunAll(o) }

// BenchExperiments returns the experiment registry so drivers can select
// by id before running anything.
func BenchExperiments() []BenchExperiment { return bench.Experiments() }
