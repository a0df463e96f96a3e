// Package stats derives the quantities the paper's evaluation figures
// report from schedules: per-data-type traffic and reload histograms
// (Figure 10), spatial inter-NPU reuse patterns (Figure 11), and
// speedup/reduction ratios (Figures 8 and 9).
package stats

import (
	"fmt"
	"sort"
	"strings"

	"github.com/flexer-sched/flexer/internal/sched"
	"github.com/flexer-sched/flexer/internal/tile"
)

// KindMovement summarizes the off-chip traffic of one tile kind.
type KindMovement struct {
	Kind       tile.Kind
	TotalBytes int64
	Transfers  int
	// ReloadHistogram maps movement count -> number of tiles moved
	// that many times. A fixed loop order reloads every tile of a kind
	// the same number of times; out-of-order schedules show a spread.
	ReloadHistogram map[int]int
	// MaxMoves is the largest per-tile movement count.
	MaxMoves int
}

// Movements breaks a schedule's traffic down by tile kind. A tile's
// movement count is the number of the schedule's DMA records naming it
// (loads, spills, write-backs and on-chip gathers alike).
func Movements(r *sched.Result) [tile.NumKinds]KindMovement {
	var out [tile.NumKinds]KindMovement
	for k := range out {
		ks := r.PerKind[k]
		out[k] = KindMovement{
			Kind:            tile.Kind(k),
			TotalBytes:      ks.TotalBytes(),
			Transfers:       ks.LoadCount + ks.SpillCount + ks.WritebackCount,
			ReloadHistogram: make(map[int]int),
		}
	}
	moves := make(map[tile.ID]int)
	for _, rec := range r.MemRecords {
		moves[rec.Tile]++
	}
	for id, n := range moves {
		m := &out[id.Kind]
		m.ReloadHistogram[n]++
		m.MaxMoves = max(m.MaxMoves, n)
	}
	return out
}

// OnChipIdeal returns the per-kind traffic of the "on-chip" reference
// of Figure 10: an unlimited scratchpad moves every tile at most once
// (inputs and weights loaded once, outputs written once).
func OnChipIdeal(g *tile.Grid) [tile.NumKinds]int64 {
	var out [tile.NumKinds]int64
	for k := 0; k < tile.NumKinds; k++ {
		out[k] = g.TotalTileBytes(tile.Kind(k))
	}
	return out
}

// reusePattern names which tile kinds an operation set shared between
// NPUs, e.g. "IN+WT" or "none".
func reusePattern(shared [tile.NumKinds]bool) string {
	var parts []string
	for k := 0; k < tile.NumKinds; k++ {
		if shared[k] {
			parts = append(parts, tile.Kind(k).String())
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// ReusePatterns counts, over all issued sets of a schedule, how many
// sets exhibited each spatial-reuse pattern (Figure 11). Fixed-order
// schedules show a single non-trivial pattern (the stationary type);
// Flexer's schedules mix several.
func ReusePatterns(r *sched.Result) map[string]int {
	out := make(map[string]int)
	for _, s := range r.Sets {
		out[reusePattern(s.Shared)]++
	}
	return out
}

// DistinctPatterns returns the number of distinct non-"none" patterns.
func DistinctPatterns(r *sched.Result) int {
	n := 0
	for p := range ReusePatterns(r) {
		if p != "none" {
			n++
		}
	}
	return n
}

// FormatBytes renders a byte count with a binary suffix, e.g. "1.5 MiB".
func FormatBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(n)/float64(div), "KMGTPE"[exp])
}

// SortedPatterns returns the reuse patterns sorted by descending count
// (ties alphabetical), for stable reporting.
func SortedPatterns(counts map[string]int) []string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}
