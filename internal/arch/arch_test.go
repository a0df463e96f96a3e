package arch

import (
	"strings"
	"testing"
)

func TestPresetsMatchTable1(t *testing.T) {
	// Table 1 of the paper: cores / on-chip KiB / bandwidth.
	want := []struct {
		name  string
		cores int
		kib   int64
		bw    int
	}{
		{"arch1", 2, 256, 32},
		{"arch2", 2, 256, 64},
		{"arch3", 2, 512, 32},
		{"arch4", 2, 512, 64},
		{"arch5", 4, 256, 32},
		{"arch6", 4, 256, 64},
		{"arch7", 4, 512, 32},
		{"arch8", 4, 512, 64},
	}
	for _, w := range want {
		c, err := Preset(w.name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", w.name, err)
		}
		if c.Cores != w.cores {
			t.Errorf("%s: cores = %d, want %d", w.name, c.Cores, w.cores)
		}
		if c.SPMBytes != KiB(w.kib) {
			t.Errorf("%s: SPM = %d, want %d", w.name, c.SPMBytes, KiB(w.kib))
		}
		if c.BandwidthBytesPerCycle != w.bw {
			t.Errorf("%s: bandwidth = %d, want %d", w.name, c.BandwidthBytesPerCycle, w.bw)
		}
		if c.PERows != DefaultPERows || c.PECols != DefaultPECols {
			t.Errorf("%s: PE array = %dx%d, want %dx%d", w.name, c.PERows, c.PECols, DefaultPERows, DefaultPECols)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", w.name, err)
		}
	}
}

func TestPresetUnknown(t *testing.T) {
	if _, err := Preset("arch9"); err == nil {
		t.Fatal("Preset(arch9) succeeded, want error")
	}
	if _, err := Preset(""); err == nil {
		t.Fatal("Preset(\"\") succeeded, want error")
	}
}

func TestPresetsSortedAndComplete(t *testing.T) {
	ps := Presets()
	if len(ps) != 8 {
		t.Fatalf("Presets() returned %d configs, want 8", len(ps))
	}
	for i := 1; i < len(ps); i++ {
		if ps[i-1].Name >= ps[i].Name {
			t.Errorf("Presets() not sorted: %q before %q", ps[i-1].Name, ps[i].Name)
		}
	}
	names := PresetNames()
	if len(names) != 8 {
		t.Fatalf("PresetNames() returned %d names, want 8", len(names))
	}
	for i, c := range ps {
		if names[i] != c.Name {
			t.Errorf("name[%d] = %q, want %q", i, names[i], c.Name)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	good := New("x", 2, KiB(256), 32)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero cores", func(c *Config) { c.Cores = 0 }},
		{"negative cores", func(c *Config) { c.Cores = -1 }},
		{"zero SPM", func(c *Config) { c.SPMBytes = 0 }},
		{"zero bandwidth", func(c *Config) { c.BandwidthBytesPerCycle = 0 }},
		{"zero PE rows", func(c *Config) { c.PERows = 0 }},
		{"zero PE cols", func(c *Config) { c.PECols = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := good
			tc.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Errorf("Validate accepted %+v", c)
			}
		})
	}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected good config: %v", err)
	}
}

func TestStringMentionsKeyParameters(t *testing.T) {
	c := New("arch1", 2, KiB(256), 32)
	s := c.String()
	for _, frag := range []string{"arch1", "2 cores", "256 KiB", "32 B/cycle"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q, missing %q", s, frag)
		}
	}
}

func TestKiB(t *testing.T) {
	if KiB(1) != 1024 {
		t.Errorf("KiB(1) = %d", KiB(1))
	}
	if KiB(512) != 512*1024 {
		t.Errorf("KiB(512) = %d", KiB(512))
	}
}
