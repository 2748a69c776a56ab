package main

import (
	"slices"
	"strings"
	"testing"
)

func TestCheckSweepsFlags(t *testing.T) {
	tests := []struct {
		name    string
		exp     string
		archCfg string
		sched   string
		smx     int
		reject  []string // flags the error must name; nil = accepted
	}{
		{name: "sweeps alone", exp: "sweeps"},
		{name: "arch-config", exp: "sweeps", archCfg: "modern-big", reject: []string{"-arch-config"}},
		{name: "arch-config file", exp: "sweeps", archCfg: "@dev.json", reject: []string{"-arch-config"}},
		{name: "sched", exp: "sweeps", sched: "lrr", reject: []string{"-sched"}},
		{name: "smx", exp: "sweeps", smx: 4, reject: []string{"-smx"}},
		{name: "all three", exp: "sweeps", archCfg: "gtx780", sched: "gto", smx: 4,
			reject: []string{"-arch-config", "-sched", "-smx"}},
		{name: "other experiment keeps device flags", exp: "fig10", archCfg: "gtx780", sched: "wasp", smx: 4},
		{name: "all excludes sweeps", exp: "all", archCfg: "modern-mid", sched: "lrr", smx: 2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := checkSweepsFlags(tc.exp, tc.archCfg, tc.sched, tc.smx)
			if tc.reject == nil {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted; want rejection naming %v", tc.reject)
			}
			for _, f := range []string{"-arch-config", "-sched", "-smx"} {
				if named, want := strings.Contains(err.Error(), f), slices.Contains(tc.reject, f); named != want {
					t.Errorf("error %q names %s: %v, want %v", err, f, named, want)
				}
			}
		})
	}
}
