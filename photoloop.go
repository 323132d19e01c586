// Package photoloop is an architecture-level modeling framework for
// photonic deep-neural-network accelerators, reproducing "Architecture-
// Level Modeling of Photonic Deep Neural Network Accelerators" (Andrulis,
// Chaudhry, Suriyakumar, Emer, Sze — ISPASS 2024).
//
// The framework follows the Timeloop / Accelergy / CiMLoop methodology the
// paper builds on: a workload is a 7-dimensional convolution problem, an
// architecture is a hierarchy of storage levels over a compute array, and
// a mapping schedules the workload onto the architecture. The paper's
// extension — and this package's focus — is multi-domain modeling: levels
// live in digital-electrical (DE), analog-electrical (AE), analog-optical
// (AO) or digital-optical (DO) domains, and data crossing between domains
// is charged to explicit converter components (DACs, ADCs, Mach-Zehnder
// modulators, microring programming, photodiodes). Mappings that exploit
// reuse inside a domain amortize those conversions; the analytical engine
// counts them exactly (validated against a brute-force simulator) and
// rolls them up into energy, throughput and area.
//
// Quick start:
//
//	a, _ := photoloop.Albireo(photoloop.Conservative).Build()
//	layer := photoloop.NewConv("conv3x3", 1, 96, 64, 32, 32, 3, 3, 1, 1)
//	best, _ := photoloop.Search(a, &layer, photoloop.SearchOptions{})
//	fmt.Println(best.Result) // pJ/MAC, MACs/cycle, utilization
//
// See examples/ for runnable programs and `photoloop repro` (cmd/photoloop)
// for the regeneration of every figure in the paper.
package photoloop

import (
	"io"

	"photoloop/internal/albireo"
	"photoloop/internal/arch"
	"photoloop/internal/baseline"
	"photoloop/internal/components"
	"photoloop/internal/exp"
	"photoloop/internal/explore"
	"photoloop/internal/jobs"
	"photoloop/internal/mapper"
	"photoloop/internal/mapping"
	"photoloop/internal/model"
	"photoloop/internal/presets"
	"photoloop/internal/spec"
	"photoloop/internal/store"
	"photoloop/internal/sweep"
	"photoloop/internal/workload"
)

// Workload types and constructors.
type (
	// Layer is one DNN layer as a 7-dimensional loop-nest problem.
	Layer = workload.Layer
	// Network is an ordered list of layers.
	Network = workload.Network
	// Dim identifies a problem dimension (N, K, C, P, Q, R, S).
	Dim = workload.Dim
	// Tensor identifies an operand (Weights, Inputs, Outputs).
	Tensor = workload.Tensor
	// TensorSet is a set of operands.
	TensorSet = workload.TensorSet
	// Point is a per-dimension integer vector.
	Point = workload.Point
)

// Problem dimensions.
const (
	DimN = workload.DimN
	DimK = workload.DimK
	DimC = workload.DimC
	DimP = workload.DimP
	DimQ = workload.DimQ
	DimR = workload.DimR
	DimS = workload.DimS
)

// Operand tensors.
const (
	Weights = workload.Weights
	Inputs  = workload.Inputs
	Outputs = workload.Outputs
)

// NewConv builds a square-filter convolution layer.
func NewConv(name string, n, k, c, p, q, r, s, stride, pad int) Layer {
	return workload.NewConv(name, n, k, c, p, q, r, s, stride, pad)
}

// NewFC builds a fully-connected layer.
func NewFC(name string, n, k, c int) Layer { return workload.NewFC(name, n, k, c) }

// NewMatmul builds a general matrix multiplication (the transformer
// attention/projection primitive) as an FC layer.
func NewMatmul(name string, rows, cols, inner int) Layer {
	return workload.NewMatmul(name, rows, cols, inner)
}

// NewDepthwise builds a depthwise convolution in the batch-folded dense
// projection (see workload.NewDepthwise for the accuracy contract).
func NewDepthwise(name string, n, ch, p, q, r, s, stride, pad int) Layer {
	return workload.NewDepthwise(name, n, ch, p, q, r, s, stride, pad)
}

// VGG16 builds the paper's VGG16 evaluation workload.
func VGG16(batch int) Network { return workload.VGG16(batch) }

// AlexNet builds the paper's AlexNet evaluation workload.
func AlexNet(batch int) Network { return workload.AlexNet(batch) }

// ResNet18 builds the paper's ResNet-18 evaluation workload.
func ResNet18(batch int) Network { return workload.ResNet18(batch) }

// ResNet34 builds the deeper basic-block ResNet-34 workload.
func ResNet34(batch int) Network { return workload.ResNet34(batch) }

// ResNet50 builds the bottleneck ResNet-50 workload (pointwise-1x1
// dominated).
func ResNet50(batch int) Network { return workload.ResNet50(batch) }

// MobileNetV2 builds the MobileNetV2 workload (inverted residuals with
// depthwise convolutions in the batch-folded projection).
func MobileNetV2(batch int) Network { return workload.MobileNetV2(batch) }

// BERTBase builds the BERT-base encoder stack at sequence 128 as batched
// matmul layers.
func BERTBase(batch int) Network { return workload.BERTBase(batch) }

// GPT2Small builds the GPT-2-small decoder stack at its 1024-token
// context as batched matmul layers.
func GPT2Small(batch int) Network { return workload.GPT2Small(batch) }

// ZooEntry describes one built-in workload: name, family, description and
// builder.
type ZooEntry = workload.ZooEntry

// WorkloadZoo returns the built-in workloads in curated order — the one
// registry behind NetworkByName, `photoloop networks`, GET /v1/networks
// and study workload selection.
func WorkloadZoo() []ZooEntry { return workload.ZooEntries() }

// NetworkByName returns a zoo network by name (WorkloadZoo lists them) at
// the given batch size. Each entry is built once per process; every call
// returns a copy the caller owns.
func NetworkByName(name string, batch int) (Network, error) {
	return workload.ByName(name, batch)
}

// Architecture types.
type (
	// Arch is an accelerator: a storage hierarchy over a compute array.
	Arch = arch.Arch
	// Level is one storage level.
	Level = arch.Level
	// Compute is the compute array description.
	Compute = arch.Compute
	// SpatialFactor is a rigid fan-out factor with assignable dimensions.
	SpatialFactor = arch.SpatialFactor
	// ActionRef names a component action charged per word.
	ActionRef = arch.ActionRef
	// Domain is a signaling domain (DE, AE, AO, DO).
	Domain = arch.Domain
	// Component is an energy/area estimator.
	Component = components.Component
	// ComponentLibrary holds named component instances.
	ComponentLibrary = components.Library
	// ComponentParams parameterizes registry-built components.
	ComponentParams = components.Params
)

// Signaling domains.
const (
	DE = arch.DE
	AE = arch.AE
	AO = arch.AO
	DO = arch.DO
)

// NewComponentLibrary builds an empty component library.
func NewComponentLibrary() *ComponentLibrary { return components.NewLibrary() }

// BuildComponent constructs a component from the class registry ("sram",
// "dram", "adc", "dac", "mzm", "mrr", "photodiode", "laser",
// "star_coupler", "waveguide", "digital_mac", "wire", "regfile"). A
// parameter the class does not take is refused with an error naming the
// ones it does (docs/MODELING.md, "Component parameters").
func BuildComponent(class, name string, p ComponentParams) (Component, error) {
	return components.Build(class, name, p)
}

// ComponentClasses lists the registered component classes.
func ComponentClasses() []string { return components.Classes() }

// JSON interchange documents (the CiMLoop-like spec-driven interface).
type (
	// ArchSpec is an architecture document: components, a level
	// hierarchy with domains and converter chains, and a compute array.
	ArchSpec = spec.ArchSpec
	// MappingSpec is a mapping document (levels outermost first).
	MappingSpec = spec.MappingSpec
)

// ParseArchSpec decodes an architecture document (without building it);
// call ArchSpec.Build for the architecture.
func ParseArchSpec(r io.Reader) (*ArchSpec, error) { return spec.ParseArchSpec(r) }

// ParseMappingSpec decodes a mapping document; call MappingSpec.Build
// against an architecture for the mapping.
func ParseMappingSpec(r io.Reader) (*MappingSpec, error) { return spec.ParseMappingSpec(r) }

// ArchTemplate returns a complete, buildable example architecture document
// (what `photoloop template` prints).
func ArchTemplate() string { return spec.Template }

// Mapping and evaluation types.
type (
	// Mapping is a schedule of a layer onto an architecture.
	Mapping = mapping.Mapping
	// Result is a full evaluation: counts, energy ledger, throughput.
	Result = model.Result
	// EnergyItem is one energy-ledger line.
	EnergyItem = model.EnergyItem
	// Usage is per-level per-tensor traffic.
	Usage = model.Usage
	// EvalOptions tunes an evaluation.
	EvalOptions = model.Options
	// Engine is a compiled per-architecture evaluation engine: resolved
	// per-action energy tables, cached area and keep chains. Build once
	// per architecture, share across layers and goroutines.
	Engine = model.Engine
	// Compiled is an engine specialized to one (architecture, layer)
	// pair; its EvaluateInto method evaluates one mapping, its LowerBound
	// method is the admissible bound the search prunes with, and its
	// Stage and FinishStaged methods are the mapper's inner loop: the
	// shared-prefix delta evaluator, split at the bound gate.
	Compiled = model.Compiled
	// EvalScratch is the reusable per-goroutine working memory of the
	// compiled fast path; it also carries the delta-evaluation state
	// between consecutive Stage calls.
	EvalScratch = model.Scratch
	// EvalBound is an admissible lower bound on a mapping's evaluation:
	// Compiled.LowerBound guarantees EnergyPJ <= TotalPJ and Cycles <=
	// Cycles of any successful full evaluation of the same mapping.
	EvalBound = model.Bound
)

// NewMapping returns an inert mapping for the architecture.
func NewMapping(a *Arch) *Mapping { return mapping.New(a) }

// Evaluate runs the analytical model for one layer and mapping, producing
// the full itemized result. It recompiles the architecture on every call;
// callers evaluating many mappings should use NewEngine/Compile and the
// Compiled fast path.
func Evaluate(a *Arch, l *Layer, m *Mapping, opts EvalOptions) (*Result, error) {
	return model.Evaluate(a, l, m, opts)
}

// NewEngine builds the compiled evaluation engine for an architecture.
func NewEngine(a *Arch) (*Engine, error) { return model.NewEngine(a) }

// Compile builds a compiled engine for one architecture and layer in one
// step (use Engine.Compile to share the engine across layers).
func Compile(a *Arch, l *Layer) (*Compiled, error) { return model.Compile(a, l) }

// Mapper types.
type (
	// SearchOptions configures the mapping search.
	SearchOptions = mapper.Options
	// SearchSeeds are the mappings a search tries first
	// (SearchOptions.Seeds); build them with SeedList.
	SearchSeeds = mapper.Seeds
	// SearchBest is a search outcome; its Stats field breaks down how the
	// candidate stream was spent (pruned / delta / full evaluations).
	SearchBest = mapper.Best
	// SearchStats counts how a search dispatched its candidates:
	// lower-bound pruned, delta evaluations, full evaluations,
	// duplicates and invalid draws.
	SearchStats = mapper.SearchStats
	// Objective selects what the search minimizes.
	Objective = mapper.Objective
	// MapperSession caches an architecture's search invariants (compiled
	// engine, spatial assignments) across per-layer searches.
	MapperSession = mapper.Session
)

// NewMapperSession prepares an architecture for repeated layer searches.
func NewMapperSession(a *Arch) (*MapperSession, error) { return mapper.NewSession(a) }

// SeedList wraps fixed seed mappings (e.g. AlbireoCanonicalMappings) for
// SearchOptions.Seeds; the search tries them first and never mutates them.
func SeedList(ms []*Mapping) SearchSeeds { return mapper.SeedList(ms) }

// Search objectives.
const (
	MinEnergy = mapper.MinEnergy
	MinDelay  = mapper.MinDelay
	MinEDP    = mapper.MinEDP
)

// ParseObjective converts an objective name ("energy", "delay", "edp").
func ParseObjective(name string) (Objective, error) { return mapper.ParseObjective(name) }

// SearchCache deduplicates identical (architecture, layer shape, options)
// searches across calls (see SearchOptions.Cache); results are
// bit-identical with or without one. Sweeps and services share a cache.
type SearchCache = mapper.Cache

// NewSearchCache returns an empty search-result cache.
func NewSearchCache() *SearchCache { return mapper.NewCache() }

// Search finds the best mapping for a layer.
func Search(a *Arch, l *Layer, opts SearchOptions) (*SearchBest, error) {
	return mapper.Search(a, l, opts)
}

// Albireo instantiation.
type (
	// AlbireoConfig parameterizes an Albireo instance.
	AlbireoConfig = albireo.Config
	// AlbireoScaling is a technology projection.
	AlbireoScaling = albireo.Scaling
)

// Albireo scaling projections.
const (
	Conservative = albireo.Conservative
	Moderate     = albireo.Moderate
	Aggressive   = albireo.Aggressive
)

// Albireo returns the original Albireo configuration at a scaling point.
func Albireo(s AlbireoScaling) AlbireoConfig { return albireo.Default(s) }

// AlbireoCanonicalMappings returns the architect-intended schedules for a
// layer (useful as mapper seeds).
func AlbireoCanonicalMappings(a *Arch, l *Layer) []*Mapping {
	return albireo.CanonicalMappings(a, l)
}

// ElectricalBaselineConfig parameterizes the conventional digital
// accelerator built from the same component library, for photonic-vs-
// electrical comparisons.
type ElectricalBaselineConfig = baseline.Config

// ElectricalBaseline returns a weight-stationary digital array matched to
// Albireo's peak throughput.
func ElectricalBaseline() ElectricalBaselineConfig { return baseline.Default() }

// AlbireoAcceleratorPJ sums results' energy excluding DRAM (pass a sweep
// point's Results... for the whole network).
func AlbireoAcceleratorPJ(rs ...*Result) float64 { return albireo.AcceleratorPJ(rs...) }

// AlbireoConverterPJ sums all cross-domain conversion energy in results.
func AlbireoConverterPJ(rs ...*Result) float64 { return albireo.ConverterPJ(rs...) }

// Design-space sweep types: a declarative grid of architecture variants ×
// workloads × objectives, evaluated concurrently with cross-point search
// deduplication. `photoloop sweep` and `photoloop serve` run the same
// engine from JSON and HTTP.
type (
	// SweepSpec declares a sweep: base × axes × workloads × objectives.
	SweepSpec = sweep.Spec
	// SweepBase selects the starting architecture (Albireo or raw spec).
	SweepBase = sweep.Base
	// SweepAlbireoBase parameterizes an Albireo starting point.
	SweepAlbireoBase = sweep.AlbireoBase
	// SweepAxis is one grid dimension: a parameter and its values.
	SweepAxis = sweep.Axis
	// SweepWorkload is one network evaluated per variant.
	SweepWorkload = sweep.Workload
	// SweepOptions tunes a sweep run (pool size, cache, progress).
	SweepOptions = sweep.Options
	// SweepResult is a completed sweep in deterministic point order.
	SweepResult = sweep.Result
	// SweepPoint is one evaluated (variant, workload, objective) point.
	SweepPoint = sweep.Point
	// SweepLayerOutcome is one layer's evaluation within a point.
	SweepLayerOutcome = sweep.LayerOutcome
	// SweepServer serves sweeps and evaluations over HTTP (photoloop
	// serve); it implements http.Handler.
	SweepServer = sweep.Server
	// EvalRequest is one architecture × network evaluation request (the
	// body of POST /v1/eval and the engine behind photoloop eval).
	EvalRequest = sweep.EvalRequest
	// EvalResponse is the evaluation result of an EvalRequest.
	EvalResponse = sweep.EvalResponse
)

// Sweep expands and concurrently evaluates a design-space sweep.
func Sweep(spec SweepSpec, opts SweepOptions) (*SweepResult, error) {
	return sweep.Run(spec, opts)
}

// ArchPreset is one named architecture of the preset library: a validated
// photonic organization (or the electrical baseline) referenceable by
// name from sweeps, studies, `photoloop eval -preset` and the HTTP API.
type ArchPreset = presets.Preset

// Presets returns the architecture preset library in curated order.
func Presets() []*ArchPreset { return presets.All() }

// PresetNames returns the preset names in library order.
func PresetNames() []string { return presets.Names() }

// PresetByName looks an architecture preset up by name.
func PresetByName(name string) (*ArchPreset, error) { return presets.ByName(name) }

// Comparative study types: the cross product of architecture presets ×
// zoo workloads × objectives, evaluated through the cached sweep engine
// and ranked per (workload, objective) group. `photoloop study` and
// `POST /v1/study` run the same engine.
type (
	// StudySpec declares a study (presets × workloads × objectives).
	StudySpec = sweep.StudySpec
	// StudyResult is a completed study: ranked rows in group order.
	StudyResult = sweep.StudyResult
	// StudyRow is one evaluated (preset, workload, objective) row.
	StudyRow = sweep.StudyRow
)

// Study runs a comparative preset study; every row is bit-identical to
// evaluating the same (preset, workload, objective) individually through
// EvalSpec with the same budget, seed and search workers.
func Study(spec StudySpec, opts SweepOptions) (*StudyResult, error) {
	return sweep.RunStudy(spec, opts)
}

// EvalSpec runs one spec-driven evaluation request; a non-nil cache
// deduplicates searches across requests.
func EvalSpec(req *EvalRequest, cache *SearchCache) (*EvalResponse, error) {
	return sweep.Eval(req, cache)
}

// NewSweepServer builds the HTTP front end with a fresh shared search
// cache; the explore endpoint (POST /v1/explore) comes attached.
func NewSweepServer() *SweepServer {
	s := sweep.NewServer()
	explore.Attach(s)
	return s
}

// Durable job types: sweeps and explorations run as resumable jobs over
// a persistent, content-addressed result store. Every completed layer
// search is checkpointed to disk as it finishes, so an interrupted job
// resumes to a byte-identical result and re-running a finished job
// recomputes nothing. `photoloop jobs` and POST /v1/jobs run the same
// engine (see docs/SERVICE.md).
type (
	// JobSpec is a job document: exactly one of Sweep or Explore.
	JobSpec = jobs.Spec
	// JobStatus is a job's current state, progress and per-tier search
	// traffic.
	JobStatus = jobs.Status
	// JobManager owns a store directory: the shared result store plus
	// the job records under it.
	JobManager = jobs.Manager
	// ResultStore is the content-addressed, append-only on-disk search
	// result store (the durable tier behind a SearchCache).
	ResultStore = store.Store
	// SearchTierStats breaks a SearchCache's traffic down by tier
	// (memory hits, disk hits, computed misses).
	SearchTierStats = mapper.TierStats
)

// OpenJobManager opens (creating if needed) a store directory for
// submitting and running durable jobs.
func OpenJobManager(dir string) (*JobManager, error) { return jobs.Open(dir) }

// OpenResultStore opens (creating if needed) a result store, for wiring
// persistence directly into a SearchCache via SetPersister. One open
// store holds a directory at a time: a second open fails until the first
// is closed.
func OpenResultStore(dir string) (*ResultStore, error) { return store.Open(dir) }

// AttachJobs mounts the async job API (POST /v1/jobs and friends) on a
// sweep server, backed by the manager's store directory.
func AttachJobs(s *SweepServer, m *JobManager) { jobs.Attach(s, m) }

// Design-space explorer types: a multi-objective Pareto-frontier search
// over the sweep axes plus ranges: an exhaustive grid when the space fits
// the budget, a budgeted adaptive search otherwise. `photoloop explore` and `POST
// /v1/explore` run the same engine.
type (
	// ExploreSpec declares an exploration: base × axes (values or
	// ranges) × one workload, frontier objectives and budget.
	ExploreSpec = explore.Spec
	// ExploreAxis is one search dimension: an explicit value grid or an
	// inclusive min/max/step range.
	ExploreAxis = explore.Axis
	// ExploreOptions tunes an exploration run (pool size, cache,
	// context, progress); it never changes the frontier found.
	ExploreOptions = explore.Options
	// Frontier is a completed exploration: the Pareto-optimal points
	// plus coverage and cache accounting.
	Frontier = explore.Frontier
	// FrontierPoint is one non-dominated design with its axis-value
	// provenance, objective vector and dominated count.
	FrontierPoint = explore.FrontierPoint
)

// The searches Frontier.Strategy reports.
const (
	// ExploreGrid exhausted the space, bit-identical to Sweep plus a
	// dominance filter.
	ExploreGrid = explore.StrategyGrid
	// ExploreAdaptive ran the budgeted evolutionary search.
	ExploreAdaptive = explore.StrategyAdaptive
)

// Explore searches a declared parameter space for its Pareto frontier
// over the spec's objectives. Results are deterministic for a fixed
// (Spec, Seed, SearchWorkers) triple, independent of Workers and Cache.
func Explore(spec ExploreSpec, opts ExploreOptions) (*Frontier, error) {
	return explore.Run(spec, opts)
}

// DefaultAlbireoExploreAxes returns the stock Albireo-lever search space
// `photoloop explore` uses when no axes are given.
func DefaultAlbireoExploreAxes() []ExploreAxis { return explore.DefaultAlbireoAxes() }

// Experiment harnesses (the paper's figures).
type (
	// ExperimentConfig tunes the figure harnesses.
	ExperimentConfig = exp.Config
	// Fig2Result is the energy-breakdown validation.
	Fig2Result = exp.Fig2Result
	// Fig3Result is the throughput comparison.
	Fig3Result = exp.Fig3Result
	// Fig4Result is the full-system memory exploration.
	Fig4Result = exp.Fig4Result
	// Fig5Result is the reuse-scaling architecture exploration.
	Fig5Result = exp.Fig5Result
	// AblationResult quantifies the model's mechanisms.
	AblationResult = exp.AblationResult
)

// Fig2 regenerates the paper's energy-breakdown validation.
func Fig2(cfg ExperimentConfig) (*Fig2Result, error) { return exp.Fig2(cfg) }

// Fig3 regenerates the paper's throughput comparison.
func Fig3(cfg ExperimentConfig) (*Fig3Result, error) { return exp.Fig3(cfg) }

// Fig4 regenerates the paper's full-system memory exploration.
func Fig4(cfg ExperimentConfig) (*Fig4Result, error) { return exp.Fig4(cfg) }

// Fig5 regenerates the paper's reuse-scaling architecture exploration; the
// grid runs through the sweep subsystem (see Fig5SweepSpec via
// `photoloop sweep -preset fig5`).
func Fig5(cfg ExperimentConfig) (*Fig5Result, error) { return exp.Fig5(cfg) }

// Ablations quantifies the modeling mechanisms (loop permutations,
// window-overlap sharing, streaming, mapper seeding) on the Albireo system.
func Ablations(cfg ExperimentConfig) (*AblationResult, error) { return exp.Ablations(cfg) }
