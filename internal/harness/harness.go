// Package harness wires complete simulated ray tracing runs: it
// partitions a ray stream across SMXs, instantiates the requested
// reordering policy per SMX, runs the device, and merges results (per
// the paper's methodology, traces of rays are streamed into the
// traversal kernels, and performance is reported in Mrays/s).
//
// Method dispatch goes through the reorder.Policy registry: every
// reordering technique — the paper's DRS, the DMK/TBC baselines, the
// SER-style window reorderer, global ray sorting, the explicit no-op —
// is a Policy resolved by name (Policies() lists them), and the harness
// itself contains no per-method code. A run names its policy by that
// registry string and nothing else; the four architectures Figures 10
// and 11 compare are the names aila, drs, dmk and tbc.
//
// A run reports through one stats surface: the device counters in
// Result.GPU, the generic reordering activity every policy shares in
// Result.Reorder, and — with Options.Observe — every component's own
// counters (DRS swaps, DMK respawns, TBC compactions, SER windows) in
// the Result.Metrics snapshot under smx<i>/<policy>/.
package harness

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dmk"
	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/progcheck"
	"repro/internal/raysort"
	"repro/internal/reorder"
	"repro/internal/ser"
	"repro/internal/simt"
	"repro/internal/tbc"
	"repro/internal/warpsched"
)

// policies is the process-wide registry, built once. Registration
// order is the presentation order: the four architectures of Figures
// 10 and 11, then the policies this framework added.
var policies = sync.OnceValue(func() *reorder.Registry {
	r := reorder.NewRegistry()
	r.MustRegister(reorder.Registration{
		Name:    "aila",
		Summary: reorder.NewAilaBaseline().Summary(),
		New:     func() reorder.Policy { return reorder.NewAilaBaseline() },
	})
	r.MustRegister(reorder.Registration{
		Name:    "drs",
		Summary: core.NewPolicy(core.DefaultConfig()).Summary(),
		New:     func() reorder.Policy { return core.NewPolicy(core.DefaultConfig()) },
	})
	r.MustRegister(reorder.Registration{
		Name:    "dmk",
		Summary: dmk.NewPolicy(dmk.DefaultConfig()).Summary(),
		New:     func() reorder.Policy { return dmk.NewPolicy(dmk.DefaultConfig()) },
	})
	r.MustRegister(reorder.Registration{
		Name:    "tbc",
		Summary: tbc.NewPolicy(tbc.DefaultConfig()).Summary(),
		New:     func() reorder.Policy { return tbc.NewPolicy(tbc.DefaultConfig()) },
	})
	r.MustRegister(reorder.Registration{
		Name:    "ser",
		Summary: ser.NewPolicy(ser.DefaultConfig()).Summary(),
		New:     func() reorder.Policy { return ser.NewPolicy(ser.DefaultConfig()) },
	})
	r.MustRegister(reorder.Registration{
		Name:    "sort",
		Summary: raysort.NewPolicy(raysort.DefaultConfig()).Summary(),
		New:     func() reorder.Policy { return raysort.NewPolicy(raysort.DefaultConfig()) },
	})
	r.MustRegister(reorder.Registration{
		Name:    "noop",
		Summary: reorder.NewNoop().Summary(),
		New:     func() reorder.Policy { return reorder.NewNoop() },
	})
	return r
})

// Policies returns the registry of every built-in reordering policy.
// It is the single source of the name→method mapping: CLIs list it,
// the service validates against it, and an unknown name fails here
// with a typed *reorder.UnknownPolicyError and nowhere else.
func Policies() *reorder.Registry { return policies() }

// Schedulers returns the registry of every built-in warp-scheduler
// policy (gto, lrr, wasp). Like Policies it is the single judge of
// scheduler names — drsbench flags and service job specs resolve
// through it and an unknown name fails with a typed
// *warpsched.UnknownSchedulerError and nowhere else.
func Schedulers() *warpsched.Registry { return warpsched.Builtin() }

// Options configures a run.
type Options struct {
	Simt simt.Config
	// AilaWarps is the number of warps spawned per SMX for policies
	// that accept the harness warp count (Policy.Warps() == 0; 48 in
	// the paper). Policies with their own machine sizing — DRS derives
	// warps from its row configuration — override it.
	AilaWarps int
	// Aila configures the while-while kernel for the policies that run
	// it (aila, noop, ser, sort). DMK and TBC always run the plain
	// non-speculative kernel, as they historically did.
	Aila kernels.AilaConfig
	// WhileIf configures Kernel 1 for the DRS policy.
	WhileIf kernels.WhileIfConfig
	// PolicyOverrides supplies configured policy instances for named
	// lookups: a run asking for a name found here (first match wins)
	// uses the override instead of the registry default. Use it to run
	// a policy with non-default configuration (e.g.
	// core.NewPolicy(customCfg)); one Options can carry custom
	// configurations across a multi-policy grid.
	PolicyOverrides []reorder.Policy
	// Sched names the warp-scheduler policy for the run ("gto", "lrr",
	// "wasp"; Schedulers().Names() lists them), resolved through the
	// registry and devirtualized at NewSMX. Empty leaves
	// Simt.SchedFactory in charge; when that is nil too the engine
	// runs its canonical greedy-then-oldest scan, byte-identical to an
	// explicit "gto".
	Sched string
	// SkipProgCheck disables the progcheck verification of the kernel
	// program at build time (both the constructors' self-check and the
	// harness's policy-capability check). Only for tests that run
	// deliberately malformed programs; real runs must verify.
	SkipProgCheck bool
	// CheckDeterminism is the harness's determinism assertion mode: the
	// whole simulation runs twice and the run fails if the two runs'
	// device stats (cycles, instruction counts, cache and register-file
	// counters) differ in any way. It doubles the runtime; use it when
	// validating engine changes, which must always pass it. With
	// Observe set the comparison also covers the full metrics registry,
	// naming the exact counter that diverged.
	CheckDeterminism bool
	// Observe attaches the unified metrics layer to the run: every
	// component registers its counters in a fresh registry
	// (Result.Metrics holds the end-of-run snapshot) and the
	// epoch-barrier engine samples the per-epoch time-series
	// (Result.Series) at every barrier. Adds no work to the simulated
	// hot paths; see internal/metrics.
	Observe bool
	// SeriesCap overrides the epoch time-series ring capacity
	// (0 = metrics.DefaultSeriesCap). The ring keeps the newest samples
	// and counts evictions.
	SeriesCap int
	// Parallelism is the worker-pool size the experiment cell scheduler
	// (internal/cellsched) uses to run independent RunNamed simulations
	// concurrently: 0 means GOMAXPROCS, 1 forces the sequential path.
	// It never changes any result — each cell is an isolated device and
	// the scheduler assembles outputs in canonical cell order, so tables
	// and stats are byte-identical at every setting (drsbench -par N).
	// A single RunNamed call ignores it; only grid runners consult it.
	Parallelism int
	// OnEpochSample, when set together with Observe, is invoked at every
	// epoch barrier with the device cycle and the sampled series row
	// (metrics.Series.OnSample). It runs on the engine goroutine with
	// all SMX workers parked; the row must be copied if retained. The
	// service layer feeds its live SSE progress streams from it. With
	// CheckDeterminism the hook fires for both runs.
	OnEpochSample func(cycle int64, row []int64)
}

// DefaultOptions returns the paper's configuration: Table 1 GPU,
// 48-warp Aila kernel with speculative traversal; policy configuration
// comes from each policy's own defaults (override with
// PolicyOverrides).
func DefaultOptions() Options {
	return Options{
		Simt:      simt.DefaultConfig(),
		AilaWarps: 48,
		Aila:      kernels.AilaConfig{Speculative: true},
	}
}

// ResolvePolicy maps a run name to the policy instance that will serve
// it: the first matching entry of Options.PolicyOverrides, else the
// registry default for the name. Unknown names fail with
// *reorder.UnknownPolicyError — the registry is the only place a name
// is judged.
func (o Options) ResolvePolicy(name string) (reorder.Policy, error) {
	for _, p := range o.PolicyOverrides {
		if p != nil && p.Name() == name {
			return p, nil
		}
	}
	return Policies().New(name)
}

// ResolveScheduler maps Options.Sched to the registry instance that
// will serve it, or nil for an empty Sched. Unknown names fail with
// *warpsched.UnknownSchedulerError — the registry is the only place a
// name is judged.
func (o Options) ResolveScheduler() (warpsched.Scheduler, error) {
	if o.Sched == "" {
		return nil, nil
	}
	return Schedulers().New(o.Sched)
}

// Result is a completed run.
type Result struct {
	// Policy is the name of the reordering policy that ran.
	Policy string
	// Sched is the name of the warp-scheduler policy that ran ("gto"
	// for the historical default, whether implicit or explicit).
	Sched string
	GPU   *simt.GPUResult
	// Hits holds the committed hit for every input ray, in input order
	// (stream-sorting policies map hits back through their permutation).
	Hits []geom.Hit
	// Rays is the number of rays traced.
	Rays int
	// Mrays is the simulated tracing rate in Mrays/s, including any
	// modeled reordering cost the engine did not already charge
	// (Reorder.CostCycles).
	Mrays float64
	// SIMDEff is the overall SIMD efficiency.
	SIMDEff float64
	// Reorder aggregates the per-SMX generic reordering stats every
	// policy reports, plus stream-level costs (the sort pre-pass). A
	// policy's own counters are in Metrics.
	Reorder reorder.Stats
	// Config is the effective device configuration the run used (after
	// per-policy warp-count adjustments).
	Config simt.Config
	// Metrics is the end-of-run snapshot of the unified registry
	// (Options.Observe only): device, memory and register-file counters
	// plus each policy's own counters under smx<i>/<policy>/.
	Metrics *metrics.Snapshot
	// Series is the per-epoch time-series, sampled at every epoch
	// barrier (Options.Observe only).
	Series *metrics.Series
}

// RunNamed simulates tracing the rays under the named reordering
// policy ("drs", "ser", "sort", ...; Policies().Names() lists them).
func RunNamed(name string, rays []geom.Ray, data *kernels.SceneData, opt Options) (*Result, error) {
	return RunNamedCtx(context.Background(), name, rays, data, opt)
}

// RunNamedCtx is RunNamed with cooperative cancellation: the options are
// validated up front (typed *OptionsError) and ctx is threaded into the
// engine, which observes it at every epoch barrier, so a deadline or a
// client disconnect stops a long simulation within one epoch.
// Cancellation returns only an error, never a partial result, so an
// uncancelled RunNamedCtx is byte-identical to RunNamed.
func RunNamedCtx(ctx context.Context, name string, rays []geom.Ray, data *kernels.SceneData, opt Options) (*Result, error) {
	pol, err := opt.ResolvePolicy(name)
	if err != nil {
		return nil, err
	}
	if err := opt.validateResolved(pol); err != nil {
		return nil, err
	}
	res, err := runOnce(ctx, pol, rays, data, opt)
	if err != nil || !opt.CheckDeterminism {
		return res, err
	}
	again, err := runOnce(ctx, pol, rays, data, opt)
	if err != nil {
		return nil, fmt.Errorf("harness: determinism check re-run: %w", err)
	}
	if err := compareRuns(res, again); err != nil {
		return nil, fmt.Errorf("harness: determinism check failed for %s: %w", name, err)
	}
	return res, nil
}

// compareRuns reports the first divergence between two runs of the same
// configuration.
func compareRuns(a, b *Result) error {
	switch {
	case a.GPU.Stats != b.GPU.Stats:
		return fmt.Errorf("device stats diverged: cycles %d vs %d, instrs %d vs %d",
			a.GPU.Stats.Cycles, b.GPU.Stats.Cycles, a.GPU.Stats.WarpInstrs, b.GPU.Stats.WarpInstrs)
	case a.GPU.L1TexMissRate != b.GPU.L1TexMissRate:
		return fmt.Errorf("L1Tex miss rate diverged: %v vs %v", a.GPU.L1TexMissRate, b.GPU.L1TexMissRate)
	case a.GPU.RFStats != b.GPU.RFStats:
		return fmt.Errorf("register file counters diverged: %+v vs %+v", a.GPU.RFStats, b.GPU.RFStats)
	}
	if a.Metrics != nil && b.Metrics != nil {
		if d := a.Metrics.Diff(b.Metrics); d != "" {
			return fmt.Errorf("metrics registry diverged: %s", d)
		}
	}
	for i := range a.GPU.PerSMX {
		if a.GPU.PerSMX[i] != b.GPU.PerSMX[i] {
			return fmt.Errorf("SMX %d stats diverged: cycles %d vs %d",
				i, a.GPU.PerSMX[i].Cycles, b.GPU.PerSMX[i].Cycles)
		}
	}
	for i := range a.Hits {
		if a.Hits[i].TriIndex != b.Hits[i].TriIndex {
			return fmt.Errorf("hit %d diverged: tri %d vs %d", i, a.Hits[i].TriIndex, b.Hits[i].TriIndex)
		}
	}
	return nil
}

// runOnce performs one complete simulation under the resolved policy.
func runOnce(ctx context.Context, pol reorder.Policy, rays []geom.Ray, data *kernels.SceneData, opt Options) (*Result, error) {
	if len(rays) == 0 {
		return nil, fmt.Errorf("harness: empty ray stream")
	}
	name := pol.Name()
	cfg := opt.Simt
	if w := pol.Warps(); w > 0 {
		cfg.MaxWarpsPerSMX = w
	} else if opt.AilaWarps > 0 {
		cfg.MaxWarpsPerSMX = opt.AilaWarps
	}
	// Resolve the warp scheduler. A requested policy is devirtualized
	// through its factory at NewSMX; no request leaves the engine's
	// canonical GTO scan in charge, which an explicit "gto" matches
	// byte-for-byte — registry GTO wraps the same scan.
	sched, err := opt.ResolveScheduler()
	if err != nil {
		return nil, err
	}
	schedName := "gto"
	if sched != nil {
		cfg.SchedFactory = sched.Factory()
		schedName = sched.Name()
	}

	// Stream-level reordering happens before the device exists: a
	// sorting policy permutes the whole stream, the trace runs on the
	// permuted order, and the hits map back through the permutation.
	runRays := rays
	var perm []int
	var streamCost int64
	if ss, ok := pol.(reorder.StreamSorter); ok {
		perm, streamCost = ss.SortStream(rays)
		if len(perm) != len(rays) {
			return nil, fmt.Errorf("harness: policy %s returned a %d-entry permutation for %d rays", name, len(perm), len(rays))
		}
		sorted := make([]geom.Ray, len(rays))
		for i, oi := range perm {
			sorted[i] = rays[oi]
		}
		runRays = sorted
	}

	var col *metrics.Collector
	if opt.Observe {
		col = metrics.NewCollector(opt.SeriesCap)
		col.Registry.Const("run/rays", int64(len(rays)))
		col.Registry.Const("run/num_smx", int64(cfg.NumSMX))
		col.Registry.Const("run/epoch_cycles", cfg.EpochLen())
		if perm != nil {
			col.Registry.Const("run/sort_cost_cycles", streamCost)
		}
		col.Series.OnSample = opt.OnEpochSample
		cfg.Collector = col
	}

	// Kernel configurations with the harness-wide verification override
	// folded in; each policy picks the one its kernel needs.
	acfg := opt.Aila
	acfg.SkipVerify = acfg.SkipVerify || opt.SkipProgCheck
	wcfg := opt.WhileIf
	wcfg.SkipVerify = wcfg.SkipVerify || opt.SkipProgCheck
	var verify func(k simt.Kernel) error
	if !opt.SkipProgCheck {
		caps := pol.Caps()
		verify = func(k simt.Kernel) error {
			if fs := progcheck.Verify(name, k, caps); len(fs) > 0 {
				return fmt.Errorf("harness: kernel program rejected for %s: %s (run cmd/drslint for the full report, or set Options.SkipProgCheck for deliberately-broken test programs)", name, fs[0].Msg)
			}
			return nil
		}
	}

	type smxOut struct {
		inst  reorder.Instance
		start int
	}
	outs := make([]*smxOut, cfg.NumSMX)

	factory := func(id int) (simt.SMXProgram, error) {
		start, end := simt.Partition(len(runRays), cfg.NumSMX, id)
		pool := &kernels.Pool{Rays: runRays[start:end]}
		inst, err := pol.NewSMX(reorder.Env{
			SMXID:         id,
			Cfg:           cfg,
			Data:          data,
			Pool:          pool,
			Aila:          acfg,
			WhileIf:       wcfg,
			SkipProgCheck: opt.SkipProgCheck,
			Verify:        verify,
			Collector:     col,
			MetricsPrefix: fmt.Sprintf("smx%d/%s", id, name),
		})
		if err != nil {
			return simt.SMXProgram{}, err
		}
		outs[id] = &smxOut{inst: inst, start: start}
		return inst.Program(), nil
	}

	gpu, err := simt.RunGPUCtx(ctx, cfg, factory)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Policy: name,
		Sched:  schedName,
		GPU:    gpu,
		Hits:   make([]geom.Hit, len(rays)),
		Rays:   len(rays),
		Config: cfg,
	}
	hits := res.Hits
	if perm != nil {
		hits = make([]geom.Hit, len(rays))
	}
	for _, o := range outs {
		copy(hits[o.start:], o.inst.Hits())
		if sr, ok := o.inst.(reorder.StatsReporter); ok {
			res.Reorder.Add(sr.ReorderStats())
		}
	}
	if perm != nil {
		for i, oi := range perm {
			res.Hits[oi] = hits[i]
		}
		res.Reorder.Add(reorder.Stats{Reorders: 1, RaysMoved: int64(len(rays)), CostCycles: streamCost})
	}
	// Fold modeled out-of-engine reordering cost into the throughput
	// figure. The zero-cost path must stay the exact historical float
	// expression, so only divert through the adjusted copy when a policy
	// actually charged something.
	if res.Reorder.CostCycles == 0 {
		res.Mrays = gpu.Stats.MraysPerSec(int64(len(rays)), cfg.ClockMHz)
	} else {
		charged := gpu.Stats
		charged.Cycles += res.Reorder.CostCycles
		res.Mrays = charged.MraysPerSec(int64(len(rays)), cfg.ClockMHz)
	}
	res.SIMDEff = gpu.Stats.SIMDEfficiency(cfg.WarpSize)
	if col != nil {
		res.Metrics = col.Registry.Snapshot()
		res.Series = col.Series
	}
	return res, nil
}
