package tile

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/layer"
)

func TestCandidateValuesSmall(t *testing.T) {
	cases := []struct {
		total int
		want  []int
	}{
		{1, []int{1}},
		{2, []int{1, 2}},
		{3, []int{1, 2, 3}},
		{4, []int{1, 2, 4}},
		{6, []int{1, 2, 3, 6}},
		{0, nil},
		{-3, nil},
	}
	for _, tc := range cases {
		got := appendCandidateValues(nil, tc.total)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("appendCandidateValues(nil, %d) = %v, want %v", tc.total, got, tc.want)
		}
	}
}

// TestCandidateValuesProperties: for every total, the values are
// sorted, unique, within [1,total], include 1 and total, and realize
// every achievable block count exactly once with the smallest extent.
func TestCandidateValuesProperties(t *testing.T) {
	ceil := func(a, b int) int { return (a + b - 1) / b }
	for total := 1; total <= 600; total++ {
		vs := appendCandidateValues(nil, total)
		if len(vs) == 0 {
			t.Fatalf("appendCandidateValues(nil, %d) empty", total)
		}
		if vs[0] != 1 || vs[len(vs)-1] != total {
			t.Fatalf("appendCandidateValues(nil, %d) = %v missing 1 or total", total, vs)
		}
		if !sort.IntsAreSorted(vs) {
			t.Fatalf("appendCandidateValues(nil, %d) not sorted: %v", total, vs)
		}
		counts := make(map[int]bool)
		for i, v := range vs {
			if v < 1 || v > total {
				t.Fatalf("appendCandidateValues(nil, %d)[%d] = %d out of range", total, i, v)
			}
			if i > 0 && vs[i-1] == v {
				t.Fatalf("appendCandidateValues(nil, %d) duplicate %d", total, v)
			}
			counts[ceil(total, v)] = true
		}
		// Every achievable block count is realized by some value.
		want := make(map[int]bool)
		for v := 1; v <= total; v++ {
			want[ceil(total, v)] = true
		}
		if len(counts) != len(want) {
			t.Fatalf("appendCandidateValues(nil, %d): %d distinct block counts, want %d", total, len(counts), len(want))
		}
	}
}

func TestSubsampleKeepsEnds(t *testing.T) {
	// subsample samples in place, so each call gets its own values.
	vs := func() []int { return []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} }
	got := subsample(vs(), 4)
	if len(got) > 4 {
		t.Fatalf("subsample returned %d values, want <= 4", len(got))
	}
	if got[0] != 1 || got[len(got)-1] != 10 {
		t.Errorf("subsample dropped ends: %v", got)
	}
	if !sort.IntsAreSorted(got) {
		t.Errorf("subsample not sorted: %v", got)
	}
	if g := subsample(vs(), 20); !reflect.DeepEqual(g, vs()) {
		t.Errorf("subsample with large max changed input: %v", g)
	}
	if g := subsample(vs(), 0); !reflect.DeepEqual(g, vs()) {
		t.Errorf("subsample with max 0 changed input: %v", g)
	}
	// One value is the last, the whole dimension; two are both ends.
	if g := subsample(vs(), 1); !reflect.DeepEqual(g, []int{10}) {
		t.Errorf("subsample to 1 value = %v, want [10]", g)
	}
	if g := subsample(vs(), 2); !reflect.DeepEqual(g, []int{1, 10}) {
		t.Errorf("subsample to 2 values = %v, want [1 10]", g)
	}
}

// TestEnumerateOneValuePerDim: at one value per dimension the one tiling
// left is the whole layer.
func TestEnumerateOneValuePerDim(t *testing.T) {
	l := layer.NewConv("e", 28, 28, 64, 96, 3)
	lim := EnumLimits{SPMBytes: 64 << 20, Cores: 4, MaxValuesPerDim: 1}
	if got, want := Enumerate(l, lim), []Factors{{OH: 28, OW: 28, OC: 96, IC: 64}}; !reflect.DeepEqual(got, want) {
		t.Errorf("Enumerate at one value per dimension = %v, want %v", got, want)
	}
}

func enumLimits() EnumLimits {
	a, _ := arch.Preset("arch1")
	return EnumLimits{SPMBytes: a.SPMBytes, Cores: a.Cores, MaxOps: 512, MaxTilings: 0}
}

func TestEnumerateFeasibility(t *testing.T) {
	l := layer.NewConv("e", 28, 28, 64, 96, 3)
	lim := enumLimits()
	fs := Enumerate(l, lim)
	if len(fs) == 0 {
		t.Fatal("no tilings enumerated")
	}
	for _, f := range fs {
		g, err := NewGrid(l, f)
		if err != nil {
			t.Fatalf("tiling %v: %v", f, err)
		}
		if g.NumOps() > lim.MaxOps {
			t.Errorf("tiling %v: %d ops exceeds cap %d", f, g.NumOps(), lim.MaxOps)
		}
		if got := g.maxOperandBytes(); got > lim.SPMBytes {
			t.Errorf("tiling %v: operand footprint %d exceeds SPM %d", f, got, lim.SPMBytes)
		}
	}
}

func TestEnumerateDeterministic(t *testing.T) {
	l := layer.NewConv("e", 28, 28, 64, 96, 3)
	lim := enumLimits()
	lim.MaxTilings = 8
	a := Enumerate(l, lim)
	b := Enumerate(l, lim)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("Enumerate not deterministic:\n%v\n%v", a, b)
	}
}

func TestEnumerateRespectsMaxTilings(t *testing.T) {
	l := layer.NewConv("e", 56, 56, 128, 128, 3)
	lim := enumLimits()
	all := Enumerate(l, lim)
	lim.MaxTilings = 5
	capped := Enumerate(l, lim)
	if len(capped) > 5 {
		t.Fatalf("MaxTilings=5 returned %d tilings", len(capped))
	}
	if len(all) > 5 && len(capped) != 5 {
		t.Errorf("cap not filled: %d of 5 (from %d)", len(capped), len(all))
	}
	// Every capped tiling must come from the full set.
	seen := make(map[Factors]bool, len(all))
	for _, f := range all {
		seen[f] = true
	}
	for _, f := range capped {
		if !seen[f] {
			t.Errorf("sampled tiling %v not in full enumeration", f)
		}
	}
}

func TestEnumerateSortedCanonically(t *testing.T) {
	l := layer.NewConv("e", 28, 28, 64, 96, 3)
	fs := Enumerate(l, enumLimits())
	for i := 1; i < len(fs); i++ {
		a, b := fs[i-1], fs[i]
		if a == b {
			t.Fatalf("duplicate tiling %v", a)
		}
		less := a.OH < b.OH || (a.OH == b.OH && (a.OW < b.OW ||
			(a.OW == b.OW && (a.OC < b.OC || (a.OC == b.OC && a.IC < b.IC)))))
		if !less {
			t.Fatalf("enumeration out of order at %d: %v then %v", i, a, b)
		}
	}
}

func TestEnumerateInvalidLayer(t *testing.T) {
	bad := layer.Conv{Name: "bad"}
	if fs := Enumerate(bad, enumLimits()); fs != nil {
		t.Errorf("invalid layer enumerated %d tilings", len(fs))
	}
}

// TestEnumerateTerminates: regression for the non-advancing jump bug;
// enumeration over arbitrary small layers must finish.
func TestEnumerateTerminates(t *testing.T) {
	check := func(h8, c8, k8 uint8) bool {
		h := int(h8%60) + 3
		c := int(c8%100) + 1
		k := []int{1, 3}[int(k8)%2]
		l := layer.NewConv("q", h, h, c, c, k)
		Enumerate(l, enumLimits())
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMaxOperandBytesFastIsUpperBound(t *testing.T) {
	l := layer.NewConv("e", 23, 31, 37, 41, 3)
	for _, f := range Enumerate(l, enumLimits()) {
		g, err := NewGrid(l, f)
		if err != nil {
			t.Fatal(err)
		}
		if exact, fast := g.maxOperandBytes(), maxOperandBytesFast(l, cutsOf(l, f)); exact > fast {
			t.Errorf("tiling %v: exact %d > fast bound %d", f, exact, fast)
		}
	}
}
