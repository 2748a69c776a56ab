// Package reorder defines the pluggable ray-reordering policy
// framework. A Policy packages one reordering technique — the paper's
// DRS, the DMK and TBC baselines, SER-style reorder-at-hit, global ray
// sorting, or no reordering at all — behind a single interface the
// harness instantiates per SMX, so the method dispatch is a registry
// lookup instead of a hard-coded switch and new techniques plug in
// without touching the harness.
//
// # Interface contract
//
// A Policy observes per-epoch ray/warp state through the engine hooks
// of the simt.SMXProgram it returns (issue gate, per-cycle tick,
// divergence and block-end interceptors) and proposes thread/warp
// permutations by remapping warp slots (Warp.SetMapping, Warp.Resume)
// or by permuting the input stream up front (StreamSorter). Every
// permutation carries a modeled hardware cost: either charged inside
// the engine (injected instructions, barrier/spawn stalls, gate
// stalls — the DRS/DMK/TBC/SER route) or reported out-of-band through
// Stats.CostCycles (the global-sort route), which the harness adds to
// the device cycle count before computing Mrays/s.
//
// # Determinism obligations
//
// Policies run inside the bit-deterministic epoch-barrier engine and
// must preserve its guarantees:
//
//   - Every choice must be a pure function of simulation state. No wall
//     clock, no global RNG, no map-iteration-order dependence (drslint
//     enforces this; sort collected keys first, or keep dense arrays).
//   - Ties must break deterministically, and the rule must be stated:
//     the convention is lowest-id first — lowest slot id, lowest warp
//     id, lowest block/target id — matching the engine's own
//     warp-scheduler tie-break. A sorted permutation must use a stable
//     order with the original index as the final key.
//   - A permutation may only reference live lanes: slots handed to
//     SetMapping/Resume must hold active contexts (or -1), and each at
//     most once. internal/gshuffle's property tests pin this for the
//     generalized automaton; policy tests should do the same.
//
// # Cost-model hooks
//
// In-engine costs: SMX.InjectInstrs (tagged instruction overhead, e.g.
// DMK's 17 SI dump/load instructions), SMX.AddBarrierStall (sync
// latency), SMX.AddSpawnConflict (contended co-processor memory), gate
// stalls (GateStall). Out-of-band costs: Stats.CostCycles for work
// modeled outside the simulated device, such as a global sorting pass
// between bounces; the harness folds it into the reported Mrays/s but
// never into device cycle counters (which stay byte-identical to an
// uncosted run).
//
// # Adding a policy
//
// Implement Policy (config receiver), return per-SMX Instances from
// NewSMX, register metrics under env.MetricsPrefix when env.Collector
// is non-nil, and add a Registration to the harness catalog. See
// DESIGN.md §11 for the worked example.
package reorder

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/progcheck"
	"repro/internal/simt"
)

// Policy is one configured ray-reordering technique. A Policy value
// owns its method-specific configuration (swap buffers, spawn banks,
// window sizes, ...); the harness asks it for per-SMX instances.
type Policy interface {
	// Name is the registry key ("drs", "dmk", "tbc", "ser", "sort",
	// "noop", "aila"). It appears in metric prefixes and result tables.
	Name() string
	// Summary is the one-line description -list-policies prints.
	Summary() string
	// Validate checks the policy's configuration before any device
	// state is built.
	Validate() error
	// Warps returns the resident warp count the policy requires per
	// SMX, or 0 to accept the harness default (Options.AilaWarps).
	Warps() int
	// Caps declares the engine capabilities the policy's kernel program
	// may use (gated blocks, TagCtrl instructions); progcheck verifies
	// the built kernel against exactly these.
	Caps() progcheck.Caps
	// NewSMX builds the policy's per-SMX kernel and hooks.
	NewSMX(env Env) (Instance, error)
}

// Env is the per-SMX build environment the harness hands to NewSMX.
type Env struct {
	// SMXID is the SMX index within the device.
	SMXID int
	// Cfg is the effective device configuration (warp count already
	// substituted by the harness).
	Cfg simt.Config
	// Data is the scene (BVH + triangles) shared by all SMXs.
	Data *kernels.SceneData
	// Pool holds this SMX's partition of the ray stream.
	Pool *kernels.Pool
	// Aila is the harness's baseline kernel configuration (speculative
	// traversal etc., SkipVerify already merged); policies that run the
	// stock while-while kernel use it verbatim.
	Aila kernels.AilaConfig
	// WhileIf is the harness's Kernel 1 configuration for gated-kernel
	// policies (SkipVerify already merged).
	WhileIf kernels.WhileIfConfig
	// SkipProgCheck disables kernel program verification (tests only).
	SkipProgCheck bool
	// Verify re-checks a built kernel against the policy's Caps; nil
	// when SkipProgCheck is set. Policies must call it on every kernel
	// they build when non-nil.
	Verify func(k simt.Kernel) error
	// Collector is the unified metrics layer (nil unless the run is
	// observed). Policies register their counters under MetricsPrefix.
	Collector *metrics.Collector
	// MetricsPrefix is "smx<ID>/<policy name>".
	MetricsPrefix string
}

// Instance is one SMX's instantiation of a policy: the kernel program
// plus hooks to run, and the per-ray results to merge.
type Instance interface {
	// Program returns the kernel, hooks and launch function the engine
	// runs for this SMX.
	Program() simt.SMXProgram
	// Hits returns the committed hit per pool ray index, valid after
	// the device run completes.
	Hits() []geom.Hit
}

// StatsReporter is an optional Instance extension: policies that track
// reordering activity report it in the generic shape so the harness
// can aggregate across SMXs and policies uniformly.
type StatsReporter interface {
	ReorderStats() Stats
}

// StreamSorter is an optional Policy extension: a policy that reorders
// the ray stream globally, before the harness partitions it across
// SMXs. SortStream returns the permutation to apply — the device
// traces rays[perm[0]], rays[perm[1]], ... and the harness maps hits
// back to input order — plus the modeled cost in device cycles of the
// sorting pass (reported through Stats.CostCycles). A nil permutation
// means identity. The permutation must be a deterministic function of
// the ray stream alone.
type StreamSorter interface {
	SortStream(rays []geom.Ray) (perm []int, costCycles int64)
}

// Stats is the generic reordering-activity summary every policy can
// report (StatsReporter). CostCycles is the out-of-band modeled cost;
// in-engine costs are already part of the device cycle count.
type Stats struct {
	// Reorders counts reordering events: DRS swaps completed, DMK
	// respawns, TBC compactions, SER window sorts, global sort passes.
	Reorders int64
	// RaysMoved counts ray/thread contexts relocated by those events.
	RaysMoved int64
	// CostCycles is modeled reordering cost charged outside the engine
	// (zero for policies whose costs are charged in-engine).
	CostCycles int64
}

// Add merges o into s (statcheck.AddCovers guards field coverage).
func (s *Stats) Add(o Stats) {
	s.Reorders += o.Reorders
	s.RaysMoved += o.RaysMoved
	s.CostCycles += o.CostCycles
}

// UnknownPolicyError is the typed error for a policy name the registry
// does not know. Every layer that resolves names (harness options,
// drsbench flags, service job specs) surfaces this one error type, so
// an unknown method name fails in exactly one place.
type UnknownPolicyError struct {
	// Name is the unresolved policy name.
	Name string
	// Known lists the registered names in registration order.
	Known []string
}

func (e *UnknownPolicyError) Error() string {
	return fmt.Sprintf("reorder: unknown policy %q; valid: %v", e.Name, e.Known)
}

// Registration is one registry row: the policy name and summary plus a
// factory for a default-configured instance.
type Registration struct {
	Name    string
	Summary string
	// New returns a freshly default-configured Policy. Callers that
	// need non-default parameters construct the policy value directly
	// (the configs are exported) and pass it via harness options.
	New func() Policy
}

// Registry maps policy names to registrations. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	byName map[string]Registration
	order  []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Registration)}
}

// Register adds a registration. Duplicate names and nil factories are
// registration-time bugs, reported as errors so a catalog test can pin
// the set.
func (r *Registry) Register(reg Registration) error {
	switch {
	case reg.Name == "":
		return fmt.Errorf("reorder: registration with empty name")
	case reg.New == nil:
		return fmt.Errorf("reorder: policy %q registered without a factory", reg.Name)
	}
	if _, dup := r.byName[reg.Name]; dup {
		return fmt.Errorf("reorder: policy %q registered twice", reg.Name)
	}
	r.byName[reg.Name] = reg
	r.order = append(r.order, reg.Name)
	return nil
}

// MustRegister is Register that panics on error (catalog construction).
func (r *Registry) MustRegister(reg Registration) {
	if err := r.Register(reg); err != nil {
		panic(err)
	}
}

// Lookup returns the registration for name.
func (r *Registry) Lookup(name string) (Registration, bool) {
	reg, ok := r.byName[name]
	return reg, ok
}

// New returns a default-configured policy for name, or a typed
// *UnknownPolicyError naming the valid set.
func (r *Registry) New(name string) (Policy, error) {
	reg, ok := r.byName[name]
	if !ok {
		return nil, &UnknownPolicyError{Name: name, Known: r.Names()}
	}
	return reg.New(), nil
}

// Names returns the registered names in registration order (the
// canonical display and iteration order; it is not sorted, so the
// catalog controls presentation).
func (r *Registry) Names() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// SortedNames returns the registered names sorted lexicographically.
func (r *Registry) SortedNames() []string {
	out := r.Names()
	sort.Strings(out)
	return out
}
