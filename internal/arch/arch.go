// Package arch describes the parameterizable multi-NPU accelerator that
// Flexer targets: a number of identical NPU cores, each with a PE array,
// sharing a single on-chip scratchpad (the "global buffer") and one DMA
// channel to off-chip memory.
//
// The eight preset configurations arch1..arch8 correspond to Table 1 of
// the paper: 2 or 4 cores, 256 or 512 KiB of on-chip memory, and 32 or
// 64 bytes/cycle of off-chip bandwidth (the accelerator runs at 1 GHz,
// so bytes/cycle equals GB/s).
package arch

import (
	"fmt"
	"sort"
)

// Config is a hardware configuration of the multi-NPU accelerator.
type Config struct {
	// Name identifies the configuration (e.g. "arch5").
	Name string
	// Cores is the number of NPU cores sharing the global buffer.
	Cores int
	// SPMBytes is the capacity of the shared on-chip scratchpad in bytes.
	SPMBytes int64
	// BandwidthBytesPerCycle is the off-chip DMA bandwidth in bytes per
	// cycle. At the nominal 1 GHz clock this equals GB/s.
	BandwidthBytesPerCycle int
	// PERows and PECols give the dimensions of each core's PE array.
	PERows, PECols int
}

// Default PE-array geometry used by all presets, matching the
// evaluation platform of the paper (32x32 PEs).
const (
	DefaultPERows = 32
	DefaultPECols = 32
)

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("arch %q: cores must be positive, got %d", c.Name, c.Cores)
	case c.SPMBytes <= 0:
		return fmt.Errorf("arch %q: SPM size must be positive, got %d", c.Name, c.SPMBytes)
	case c.BandwidthBytesPerCycle <= 0:
		return fmt.Errorf("arch %q: bandwidth must be positive, got %d", c.Name, c.BandwidthBytesPerCycle)
	case c.PERows <= 0 || c.PECols <= 0:
		return fmt.Errorf("arch %q: PE array must be non-empty, got %dx%d", c.Name, c.PERows, c.PECols)
	}
	return nil
}

// String returns a one-line human-readable summary.
func (c Config) String() string {
	return fmt.Sprintf("%s: %d cores, %d KiB SPM, %d B/cycle DMA, %dx%d PEs",
		c.Name, c.Cores, c.SPMBytes/1024, c.BandwidthBytesPerCycle, c.PERows, c.PECols)
}

// KiB constructs a byte count from kibibytes.
func KiB(n int64) int64 { return n * 1024 }

// New returns a named configuration with the default PE geometry.
func New(name string, cores int, spmBytes int64, bwBytesPerCycle int) Config {
	return Config{
		Name:                   name,
		Cores:                  cores,
		SPMBytes:               spmBytes,
		BandwidthBytesPerCycle: bwBytesPerCycle,
		PERows:                 DefaultPERows,
		PECols:                 DefaultPECols,
	}
}

// presets holds Table 1 of the paper.
var presets = map[string]Config{
	"arch1": New("arch1", 2, KiB(256), 32),
	"arch2": New("arch2", 2, KiB(256), 64),
	"arch3": New("arch3", 2, KiB(512), 32),
	"arch4": New("arch4", 2, KiB(512), 64),
	"arch5": New("arch5", 4, KiB(256), 32),
	"arch6": New("arch6", 4, KiB(256), 64),
	"arch7": New("arch7", 4, KiB(512), 32),
	"arch8": New("arch8", 4, KiB(512), 64),
}

// Preset returns one of the eight Table 1 configurations by name.
func Preset(name string) (Config, error) {
	c, ok := presets[name]
	if !ok {
		return Config{}, fmt.Errorf("arch: unknown preset %q (want arch1..arch8)", name)
	}
	return c, nil
}

// Presets returns all Table 1 configurations ordered by name.
func Presets() []Config {
	out := make([]Config, 0, len(presets))
	for _, c := range presets {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// PresetNames returns the sorted names of all presets.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
