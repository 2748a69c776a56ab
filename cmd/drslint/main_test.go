package main

import (
	"io"
	"strings"
	"testing"
)

// TestUsageErrorsExit32 pins the usage contract: drslint takes no
// positional arguments (a path would otherwise be silently ignored
// while the run reports clean), -mode src is gone, and every usage
// error exits 32 before any pass runs.
func TestUsageErrorsExit32(t *testing.T) {
	for _, args := range [][]string{
		{"no/such/dir"},
		{"-mode", "graph", "no/such/dir"},
		{"-mode", "prog", "internal"},
		{"-mode", "src"},
		{"-no-such-flag"},
	} {
		var stderr strings.Builder
		if got := run(args, io.Discard, &stderr); got != exitInternal {
			t.Errorf("drslint %s: exit %d, want %d", strings.Join(args, " "), got, exitInternal)
		}
		if stderr.Len() == 0 {
			t.Errorf("drslint %s: no usage message on stderr", strings.Join(args, " "))
		}
	}
}
