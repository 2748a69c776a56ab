package harness

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/reorder"
)

// TestValidateRejections is the table test for the up-front Options
// validation: every malformed configuration must fail with a typed
// *OptionsError naming the offending field, never a deep panic.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		policy string
		mutate func(*Options)
		field  string
	}{
		{
			name: "zero aila warps", policy: "aila",
			mutate: func(o *Options) { o.AilaWarps = 0 },
			field:  "AilaWarps",
		},
		{
			name: "negative aila warps on dmk", policy: "dmk",
			mutate: func(o *Options) { o.AilaWarps = -7 },
			field:  "AilaWarps",
		},
		{
			name: "zero aila warps on tbc", policy: "tbc",
			mutate: func(o *Options) { o.AilaWarps = 0 },
			field:  "AilaWarps",
		},
		{
			name: "broken drs config", policy: "drs",
			mutate: func(o *Options) {
				cfg := core.DefaultConfig()
				cfg.SwapBuffers = -1
				o.PolicyOverrides = []reorder.Policy{core.NewPolicy(cfg)}
			},
			field: "Policy",
		},
		{
			name: "negative parallelism", policy: "aila",
			mutate: func(o *Options) { o.Parallelism = -1 },
			field:  "Parallelism",
		},
		{
			name: "absurd parallelism", policy: "aila",
			mutate: func(o *Options) { o.Parallelism = MaxParallelism + 1 },
			field:  "Parallelism",
		},
		{
			name: "negative series cap", policy: "aila",
			mutate: func(o *Options) { o.SeriesCap = -1 },
			field:  "SeriesCap",
		},
		{
			name: "epoch length below floor", policy: "aila",
			mutate: func(o *Options) { o.Simt.EpochCycles = -4 },
			field:  "Simt.EpochCycles",
		},
		{
			name: "broken device config", policy: "aila",
			mutate: func(o *Options) { o.Simt.NumSMX = 0 },
			field:  "Simt",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultOptions()
			tc.mutate(&opt)
			err := opt.ValidatePolicy(tc.policy)
			if err == nil {
				t.Fatalf("ValidatePolicy accepted a %s configuration", tc.name)
			}
			oe, ok := AsOptionsError(err)
			if !ok {
				t.Fatalf("want *OptionsError, got %T: %v", err, err)
			}
			if oe.Field != tc.field {
				t.Fatalf("field = %q, want %q (reason: %s)", oe.Field, tc.field, oe.Reason)
			}
		})
	}
}

// TestValidateAcceptsDefaults: the paper configuration must pass for
// every registered policy.
func TestValidateAcceptsDefaults(t *testing.T) {
	for _, name := range Policies().Names() {
		if err := DefaultOptions().ValidatePolicy(name); err != nil {
			t.Fatalf("defaults rejected for policy %s: %v", name, err)
		}
	}
}

// TestValidateUnknownPolicy: an unknown name must fail with the
// registry's typed error — the single place names are judged.
func TestValidateUnknownPolicy(t *testing.T) {
	err := DefaultOptions().ValidatePolicy("warp-drive")
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	var ue *reorder.UnknownPolicyError
	if !errors.As(err, &ue) {
		t.Fatalf("want *reorder.UnknownPolicyError, got %T: %v", err, err)
	}
	if ue.Name != "warp-drive" {
		t.Fatalf("error names %q", ue.Name)
	}
}

// TestRunRejectsBeforeBuilding: the validation fires inside RunNamed itself,
// so a malformed request never reaches device construction.
func TestRunRejectsBeforeBuilding(t *testing.T) {
	opt := DefaultOptions()
	opt.AilaWarps = 0
	rays := []geom.Ray{{}}
	_, err := RunNamed("aila", rays, nil, opt)
	if err == nil {
		t.Fatal("RunNamed accepted zero AilaWarps")
	}
	if _, ok := AsOptionsError(err); !ok {
		t.Fatalf("want *OptionsError from RunNamed, got %T: %v", err, err)
	}
}
