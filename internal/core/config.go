// Package core implements the paper's contribution: the Dynamic Ray
// Shuffling (DRS) architecture. Live rays are organized into rows of
// warp-size slots; a renaming table maps warps to rows; a greedy swap
// engine moves rays between rows through a small set of swap buffers so
// that every row a warp executes has a uniform ray traversal state and
// the while-if kernel (Kernel 1) never diverges on its main control
// flow.
//
// The control attaches to the simt engine through two hooks: the issue
// gate on the kernel's rdctrl block (warp mapping, renaming, stalls and
// kernel exit) and the per-cycle tick (the swap engine). Ray "data
// movement" is modelled by moving slot ids between row cells while
// charging the paper's costs: 17 register transfers per moved ray,
// serialized through the configured number of swap buffers and
// contending with the register file banks.
package core

import "fmt"

// BaseWarps is the number of warps Kernel 1 can spawn per SMX when the
// extra register bank houses the backup rows (§4.1: 60 warps).
const BaseWarps = 60

// Config selects the DRS hardware parameters evaluated in §4.2–§4.3.
type Config struct {
	// BackupRows is the number of backup ray rows (1, 2, 4 or 8 in the
	// paper's sweep).
	BackupRows int
	// SwapBuffers is the total number of swap buffers, divided evenly
	// between the fetch-collecting, leaf-collecting and inner-ejecting
	// roles (6, 9, 12 or 18 in the paper's sweep).
	SwapBuffers int
	// ExtraBank places backup rows in an extra register bank. Without
	// it the original register file makes room, reducing the number of
	// spawned warps (60 -> 58 for one backup row).
	ExtraBank bool
	// Ideal makes ray shuffling complete in one cycle (the idealized
	// DRS of Figure 8).
	Ideal bool
	// WarpSize is the row width. Defaults to 32.
	WarpSize int
	// WarpsOverride, when positive, overrides the derived warp count
	// (useful for scaled-down machines in tests and sensitivity
	// studies). Zero uses the paper's formula.
	WarpsOverride int
}

// DefaultConfig returns the configuration §4.3 recommends: one backup
// row, six swap buffers, no extra register bank.
func DefaultConfig() Config {
	return Config{BackupRows: 1, SwapBuffers: 6, ExtraBank: false, WarpSize: 32}
}

// Validate reports the first invalid parameter.
func (c Config) Validate() error {
	switch {
	case c.BackupRows < 0:
		return fmt.Errorf("core: negative backup rows")
	case !c.Ideal && c.SwapBuffers < 3:
		return fmt.Errorf("core: need at least 3 swap buffers (one per role)")
	case c.WarpSize <= 0 || c.WarpSize > 32:
		return fmt.Errorf("core: warp size %d out of range", c.WarpSize)
	case c.Warps() <= 0:
		return fmt.Errorf("core: configuration leaves no warps")
	}
	return nil
}

// Warps returns the number of warps the kernel spawns under this
// configuration. With the extra register bank the full 60 warps fit;
// without it the register file gives up capacity for the backup rows
// (the paper's one-row-no-extra-bank point spawns 58 warps).
func (c Config) Warps() int {
	if c.WarpsOverride > 0 {
		return c.WarpsOverride
	}
	if c.ExtraBank {
		return BaseWarps
	}
	return BaseWarps - 2*c.BackupRows
}

// Rows returns the total ray rows: one per warp, the backup rows, and
// two rows of empty slots for reorganization (§3.2.2).
func (c Config) Rows() int { return c.Warps() + c.BackupRows + 2 }

// warpSize returns the configured row width with its default applied.
func (c Config) warpSize() int {
	if c.WarpSize <= 0 {
		return 32
	}
	return c.WarpSize
}

// buffersPerRole returns how many swap buffers each of the three
// shuffle roles owns.
func (c Config) buffersPerRole() int {
	n := c.SwapBuffers / 3
	if n < 1 {
		n = 1
	}
	return n
}
