package harness

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/archconfig"
	"repro/internal/core"
	"repro/internal/scene"
	"repro/internal/warpsched"
)

func mustBuiltin(t *testing.T, name string) archconfig.Config {
	t.Helper()
	ac, err := archconfig.Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	return ac
}

// Applying the gtx780 config to the default options must reproduce the
// hard-coded configuration exactly: same device, same warp budget, and
// a DRS override equal to the core defaults (i.e. a no-op).
func TestApplyArchGTX780Identity(t *testing.T) {
	base := DefaultOptions()
	got, err := ApplyArch(mustBuiltin(t, "gtx780"), base)
	if err != nil {
		t.Fatal(err)
	}
	// reflect.DeepEqual because simt.Config carries a func field.
	if !reflect.DeepEqual(got.Simt, base.Simt) {
		t.Errorf("device config changed:\n%+v\n%+v", got.Simt, base.Simt)
	}
	if got.AilaWarps != base.AilaWarps {
		t.Errorf("AilaWarps = %d, want %d", got.AilaWarps, base.AilaWarps)
	}
	if got.Sched != "gto" {
		t.Errorf("Sched = %q, want the config default gto", got.Sched)
	}
	if len(got.PolicyOverrides) != 1 {
		t.Fatalf("overrides = %d entries, want exactly the DRS budget", len(got.PolicyOverrides))
	}
	pol, err := got.ResolvePolicy("drs")
	if err != nil {
		t.Fatal(err)
	}
	if warps := pol.Warps(); warps != core.DefaultConfig().Warps() {
		t.Errorf("DRS override warp derivation = %d, want default %d", warps, core.DefaultConfig().Warps())
	}
}

// ApplyArch must keep the caller's runtime knobs (epoch length, cycle
// caps, an explicit scheduler choice, existing overrides) and only
// replace device shape.
func TestApplyArchPreservesRuntime(t *testing.T) {
	base := smallOptions()
	base.Simt.EpochCycles = 512
	base.Simt.MaxCycles = 123456
	base.Sched = "wasp"
	nOverrides := len(base.PolicyOverrides)

	got, err := ApplyArch(mustBuiltin(t, "modern-mid"), base)
	if err != nil {
		t.Fatal(err)
	}
	if got.Simt.EpochCycles != 512 || got.Simt.MaxCycles != 123456 {
		t.Errorf("runtime knobs not preserved: %+v", got.Simt)
	}
	if got.Simt.NumSMX != 48 {
		t.Errorf("NumSMX = %d, want the config's 48", got.Simt.NumSMX)
	}
	if got.Sched != "wasp" {
		t.Errorf("explicit Sched overwritten: %q", got.Sched)
	}
	if len(got.PolicyOverrides) != nOverrides+1 {
		t.Errorf("overrides = %d, want base %d plus the arch DRS budget", len(got.PolicyOverrides), nOverrides)
	}
	if len(base.PolicyOverrides) != nOverrides {
		t.Error("base override slice mutated")
	}
	// First match wins: the base's own DRS override must still be the
	// one a drs run resolves.
	pol, err := got.ResolvePolicy("drs")
	if err != nil {
		t.Fatal(err)
	}
	if pol != base.PolicyOverrides[0] {
		t.Error("arch DRS budget shadowed the caller's explicit override")
	}
	if _, err := ApplyArch(archconfig.Config{Name: "Bad Name!"}, base); err == nil {
		t.Error("invalid config accepted")
	}
}

// The differential golden at reduced scale: each builtin architecture
// expressed as a config must reproduce the hard-coded run byte for
// byte. The device is shrunk identically on both sides (SMXCount in
// the config, Simt.NumSMX in the options) so the test stays fast; the
// full-scale version of this check is the committed results_*.txt
// comparison in CI.
func TestArchEquivalenceReduced(t *testing.T) {
	data, traces, _ := testWorkload(t, scene.ConferenceRoom, 1200)
	rays := traces.Bounce(2).Rays

	for _, name := range []string{"aila", "drs", "dmk", "tbc"} {
		t.Run(name, func(t *testing.T) {
			plain := DefaultOptions()
			plain.Simt.NumSMX = 2
			want, err := RunNamed(name, rays, data, plain)
			if err != nil {
				t.Fatal(err)
			}

			ac := mustBuiltin(t, name)
			ac.SMXCount = 2
			viaCfg, err := ApplyArch(ac, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunNamed(name, rays, data, viaCfg)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(got.GPU, want.GPU) {
				t.Errorf("GPU stats diverged:\n%+v\n%+v", *got.GPU, *want.GPU)
			}
			if !reflect.DeepEqual(got.Hits, want.Hits) {
				t.Error("hits diverged")
			}
			if got.Mrays != want.Mrays || got.SIMDEff != want.SIMDEff {
				t.Errorf("rates diverged: %v/%v vs %v/%v", got.Mrays, got.SIMDEff, want.Mrays, want.SIMDEff)
			}
			if got.Reorder != want.Reorder || got.DRS != want.DRS {
				t.Error("policy stats diverged")
			}
			// The config names gto explicitly; the hard-coded side runs
			// it implicitly. Identical schedule, same label.
			if got.Sched != "gto" || want.Sched != "gto" {
				t.Errorf("Sched = %q/%q, want gto/gto", got.Sched, want.Sched)
			}
		})
	}
}

// An explicit Sched "gto" must be byte-identical to the default (the
// registry policy wraps the engine's canonical scan).
func TestRunExplicitGTOByteIdentical(t *testing.T) {
	data, traces, _ := testWorkload(t, scene.ConferenceRoom, 1200)
	rays := traces.Bounce(2).Rays

	want, err := RunNamed("aila", rays, data, smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := smallOptions()
	opt.Sched = "gto"
	got, err := RunNamed("aila", rays, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.GPU, want.GPU) {
		t.Errorf("explicit gto diverged from default:\n%+v\n%+v", *got.GPU, *want.GPU)
	}
	if !reflect.DeepEqual(got.Hits, want.Hits) {
		t.Error("hits diverged")
	}
	if want.Sched != "gto" || got.Sched != "gto" {
		t.Errorf("Sched labels = %q/%q", want.Sched, got.Sched)
	}
}

// The registry schedulers run end to end: deterministic (identical
// repeat runs), correct result label, and the same committed hits as
// GTO — scheduling changes timing, never results.
func TestRunSchedRegistryEndToEnd(t *testing.T) {
	data, traces, bv := testWorkload(t, scene.ConferenceRoom, 1200)
	rays := traces.Bounce(2).Rays

	base, err := RunNamed("aila", rays, data, smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"lrr", "wasp"} {
		t.Run(name, func(t *testing.T) {
			opt := smallOptions()
			opt.Sched = name
			a, err := RunNamed("aila", rays, data, opt)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunNamed("aila", rays, data, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.GPU, b.GPU) {
				t.Errorf("%s nondeterministic:\n%+v\n%+v", name, *a.GPU, *b.GPU)
			}
			if a.Sched != name {
				t.Errorf("Result.Sched = %q, want %q", a.Sched, name)
			}
			if !reflect.DeepEqual(a.Hits, base.Hits) {
				t.Errorf("%s changed committed hits", name)
			}
			verifyHits(t, name, rays, a.Hits, bv)
		})
	}
}

// Unknown scheduler names fail with the registry's typed error at the
// harness boundary, before any device state is built.
func TestRunUnknownScheduler(t *testing.T) {
	data, traces, _ := testWorkload(t, scene.ConferenceRoom, 600)
	rays := traces.Bounce(2).Rays

	opt := smallOptions()
	opt.Sched = "fifo"
	_, err := RunNamed("aila", rays, data, opt)
	var ue *warpsched.UnknownSchedulerError
	if !errors.As(err, &ue) || ue.Name != "fifo" {
		t.Fatalf("want *warpsched.UnknownSchedulerError, got %v", err)
	}
}
