package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/nets"
	"github.com/flexer-sched/flexer/internal/search"
)

// BenchSchemaVersion identifies the BENCH_*.json record layout. Bump it
// when a field changes meaning; the guard refuses to compare records of
// different versions.
const BenchSchemaVersion = 1

// BenchPreset is one named benchmark workload: a whole-network search
// with fixed scale, budget, and architecture. Presets are the unit the
// regression guard compares, so their parameters must stay stable; add
// a new preset rather than changing an existing one.
type BenchPreset struct {
	Name    string `json:"name"`
	Network string `json:"network"`
	Arch    string `json:"arch"`
	Scale   int    `json:"scale"`
	Budget  string `json:"budget"` // "quick" or "default"
	// FuseDepth enables the inter-layer fusion pass (0 = layerwise).
	// A fused preset is guarded against its layerwise twin — same
	// network, arch, scale and budget with FuseDepth 0 — which must
	// also be in the run.
	FuseDepth int `json:"fuse_depth,omitempty"`
}

// benchPresetTable is the canonical preset registry.
var benchPresetTable = []BenchPreset{
	{Name: "vgg16-quick", Network: "vgg16", Arch: "arch5", Scale: 4, Budget: "quick"},
	{Name: "vgg16-quick-fused", Network: "vgg16", Arch: "arch5", Scale: 4, Budget: "quick", FuseDepth: 1},
	{Name: "resnet50-quick", Network: "resnet50", Arch: "arch5", Scale: 4, Budget: "quick"},
	{Name: "squeezenet-quick", Network: "squeezenet", Arch: "arch5", Scale: 4, Budget: "quick"},
	{Name: "vgg16-full", Network: "vgg16", Arch: "arch5", Scale: 2, Budget: "default"},
}

// BenchPresets resolves a preset selector: "quick" (the fast presets CI
// runs), "full" (the large tracking preset), "all", or a comma-
// separated list of preset names.
func BenchPresets(selector string) ([]BenchPreset, error) {
	var out []BenchPreset
	switch selector {
	case "quick":
		for _, p := range benchPresetTable {
			if p.Budget == "quick" {
				out = append(out, p)
			}
		}
		return out, nil
	case "full":
		for _, p := range benchPresetTable {
			if p.Budget != "quick" {
				out = append(out, p)
			}
		}
		return out, nil
	case "all":
		return append(out, benchPresetTable...), nil
	}
	for _, name := range strings.Split(selector, ",") {
		found := false
		for _, p := range benchPresetTable {
			if p.Name == name {
				out = append(out, p)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown bench preset %q (have quick, full, all, or preset names)", name)
		}
	}
	return out, nil
}

// BenchResult is one preset's measurement. Cycles and traffic come from
// the deterministic simulator and are machine-independent: the guard
// compares them exactly. Wall time and allocation counts depend on the
// machine and are recorded for the trajectory, not guarded.
type BenchResult struct {
	Preset  string `json:"preset"`
	Network string `json:"network"`
	Arch    string `json:"arch"`
	Scale   int    `json:"scale"`
	Budget  string `json:"budget"`
	Layers  int    `json:"layers"`

	// FuseDepth echoes the preset's fusion setting; FusedSegments counts
	// the segments the fusion pass accepted (0 for layerwise runs).
	FuseDepth     int `json:"fuse_depth,omitempty"`
	FusedSegments int `json:"fused_segments,omitempty"`

	BestOoOCycles    int64 `json:"best_ooo_cycles"`
	BestOoOTraffic   int64 `json:"best_ooo_traffic_bytes"`
	BestStaticCycles int64 `json:"best_static_cycles"`

	CandidatesEnumerated int `json:"candidates_enumerated"`
	CandidatesPruned     int `json:"candidates_pruned"`
	SchedulesAborted     int `json:"schedules_aborted"`

	WallMS     float64 `json:"wall_ms"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Allocs     uint64  `json:"allocs"`
}

// BenchBaseline records a reference measurement of the same presets
// (e.g. the tree before an optimization landed) so a BENCH_*.json file
// documents its own before/after trajectory.
type BenchBaseline struct {
	Rev     string        `json:"rev,omitempty"`
	Note    string        `json:"note,omitempty"`
	Results []BenchResult `json:"results"`
}

// BenchRecord is the versioned document flexerbench -json emits and the
// committed BENCH_*.json files store.
type BenchRecord struct {
	SchemaVersion int            `json:"schema_version"`
	GoVersion     string         `json:"go_version"`
	GOOS          string         `json:"goos"`
	GOARCH        string         `json:"goarch"`
	Workers       int            `json:"workers"`
	Results       []BenchResult  `json:"results"`
	Baseline      *BenchBaseline `json:"baseline,omitempty"`
}

// RunBenchPreset runs one preset and measures it. The search uses a
// fresh cache so measurements do not depend on what ran before.
func RunBenchPreset(p BenchPreset, workers int) (BenchResult, error) {
	budget, err := search.BudgetByName(p.Budget)
	if err != nil {
		return BenchResult{}, fmt.Errorf("preset %s: %w", p.Name, err)
	}
	a, err := arch.Preset(p.Arch)
	if err != nil {
		return BenchResult{}, fmt.Errorf("preset %s: %w", p.Name, err)
	}
	n, err := nets.ByName(p.Network)
	if err != nil {
		return BenchResult{}, fmt.Errorf("preset %s: %w", p.Name, err)
	}
	n = n.Scale(p.Scale)
	opts := search.Options{Arch: a, Budget: budget, Workers: workers, Cache: search.NewCache(), FuseDepth: p.FuseDepth}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	nr, err := search.SearchNetwork(n, opts)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return BenchResult{}, fmt.Errorf("preset %s: %w", p.Name, err)
	}

	res := BenchResult{
		Preset: p.Name, Network: p.Network, Arch: p.Arch,
		Scale: p.Scale, Budget: p.Budget,
		Layers:        len(nr.Layers),
		FuseDepth:     p.FuseDepth,
		FusedSegments: len(nr.Segments),
		WallMS:        float64(wall) / float64(time.Millisecond),
		AllocBytes:    after.TotalAlloc - before.TotalAlloc,
		Allocs:        after.Mallocs - before.Mallocs,
	}
	oooLat, staticLat, oooTraffic, _ := nr.Totals()
	res.BestOoOCycles = oooLat
	res.BestOoOTraffic = oooTraffic
	res.BestStaticCycles = staticLat
	for _, lr := range nr.Layers {
		res.CandidatesEnumerated += lr.CandidatesEnumerated
		res.CandidatesPruned += lr.CandidatesPruned
		res.SchedulesAborted += lr.SchedulesAborted
	}
	return res, nil
}

// RunBench runs the presets in order, logging one line per preset to
// logw (nil disables logging).
func RunBench(presets []BenchPreset, workers int, logw *os.File) ([]BenchResult, error) {
	results := make([]BenchResult, 0, len(presets))
	for _, p := range presets {
		r, err := RunBenchPreset(p, workers)
		if err != nil {
			return nil, err
		}
		if logw != nil {
			fmt.Fprintf(logw, "bench %-18s cycles=%d wall=%.0fms enumerated=%d pruned=%d aborted=%d allocs=%d\n",
				r.Preset, r.BestOoOCycles, r.WallMS, r.CandidatesEnumerated, r.CandidatesPruned, r.SchedulesAborted, r.Allocs)
		}
		results = append(results, r)
	}
	return results, nil
}

// NewBenchRecord wraps results in a versioned record stamped with the
// build environment.
func NewBenchRecord(results []BenchResult, workers int) *BenchRecord {
	return &BenchRecord{
		SchemaVersion: BenchSchemaVersion,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		Workers:       workers,
		Results:       results,
	}
}

// WriteBenchRecord writes the record as indented JSON.
func WriteBenchRecord(path string, rec *BenchRecord) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBenchRecord loads a committed BENCH_*.json file.
func ReadBenchRecord(path string) (*BenchRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec BenchRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// GuardCompare checks fresh results against a committed record. Best
// cycles are simulated and deterministic, so any increase on a preset
// present in both records is a real scheduling regression and an error.
// Presets only one side ran are skipped (CI guards with the quick
// presets while the committed record also stores the full one); having
// no preset in common is an error, since the guard would be vacuous.
//
// Fresh fused presets (FuseDepth > 0) are additionally checked against
// their layerwise twin in the same fresh run: fusion must produce
// strictly fewer cycles AND strictly less off-chip traffic, so a change
// that silently stops the fusion pass from finding any profitable
// segment (equal totals) fails the guard too.
func GuardCompare(committed, fresh *BenchRecord) error {
	if committed.SchemaVersion != fresh.SchemaVersion {
		return fmt.Errorf("bench guard: schema version mismatch: committed v%d vs fresh v%d",
			committed.SchemaVersion, fresh.SchemaVersion)
	}
	byName := make(map[string]BenchResult, len(fresh.Results))
	for _, r := range fresh.Results {
		byName[r.Preset] = r
	}
	checked := 0
	var regressions []string
	for _, old := range committed.Results {
		nu, ok := byName[old.Preset]
		if !ok {
			continue
		}
		checked++
		if nu.BestOoOCycles > old.BestOoOCycles {
			regressions = append(regressions, fmt.Sprintf(
				"%s: best OoO cycles regressed %d -> %d (+%.2f%%)",
				old.Preset, old.BestOoOCycles, nu.BestOoOCycles,
				100*float64(nu.BestOoOCycles-old.BestOoOCycles)/float64(old.BestOoOCycles)))
		}
		if nu.BestStaticCycles > old.BestStaticCycles {
			regressions = append(regressions, fmt.Sprintf(
				"%s: best static cycles regressed %d -> %d",
				old.Preset, old.BestStaticCycles, nu.BestStaticCycles))
		}
	}
	if checked == 0 {
		return fmt.Errorf("bench guard: no preset in common between committed and fresh records")
	}
	for _, r := range fresh.Results {
		if r.FuseDepth <= 0 {
			continue
		}
		tw, ok := layerwiseTwin(fresh.Results, r)
		if !ok {
			regressions = append(regressions, fmt.Sprintf(
				"%s: fused preset has no layerwise twin (%s/%s scale=%d budget=%s, fuse_depth=0) in the fresh run",
				r.Preset, r.Network, r.Arch, r.Scale, r.Budget))
			continue
		}
		if r.BestOoOCycles >= tw.BestOoOCycles {
			regressions = append(regressions, fmt.Sprintf(
				"%s: fused cycles %d not strictly below layerwise %s's %d",
				r.Preset, r.BestOoOCycles, tw.Preset, tw.BestOoOCycles))
		}
		if r.BestOoOTraffic >= tw.BestOoOTraffic {
			regressions = append(regressions, fmt.Sprintf(
				"%s: fused traffic %d bytes not strictly below layerwise %s's %d",
				r.Preset, r.BestOoOTraffic, tw.Preset, tw.BestOoOTraffic))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("bench guard: %s", strings.Join(regressions, "; "))
	}
	return nil
}

// layerwiseTwin finds the FuseDepth-0 result with the same workload
// parameters as fused in the same run.
func layerwiseTwin(results []BenchResult, fused BenchResult) (BenchResult, bool) {
	for _, r := range results {
		if r.FuseDepth == 0 && r.Network == fused.Network && r.Arch == fused.Arch &&
			r.Scale == fused.Scale && r.Budget == fused.Budget {
			return r, true
		}
	}
	return BenchResult{}, false
}
