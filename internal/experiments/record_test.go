package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const (
	committedRecord = "../../EXPERIMENTS.json"
	experimentsMD   = "../../EXPERIMENTS.md"
)

var updateMD = flag.Bool("update-experiments-md", false, "rewrite the table blocks of EXPERIMENTS.md from EXPERIMENTS.json")

func committed(t *testing.T) *Record {
	t.Helper()
	if _, err := os.Stat(committedRecord); err != nil {
		t.Fatal(err)
	}
	rec, err := ReadRecord(committedRecord)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// seeded is a small record the guard tests change one thing of.
func seeded() *Record {
	rec := &Record{SchemaVersion: SchemaVersion}
	rec.Put(Table{Name: "fig8", Scale: 4, Budget: "quick", Rows: []floorCell{
		{cell: cell{Network: "vgg16", Arch: "arch5", Layers: 13, versus: versusOf(1000, 5000, 1100, 5100)}},
		{cell: cell{Network: "resnet50", Arch: "arch5", Layers: 53, versus: versusOf(2000, 7000, 2000, 7000)}},
	}})
	rec.Put(Table{Name: "fig11", Scale: 4, Budget: "quick", Rows: []reuseRow{{"conv4_2", "static", "WT", 5}}})
	return rec
}

// TestGuardCompareDetectsSeededRegression seeds a one-cycle change in
// either direction, and a changed ratio, and checks the guard fails on
// each with a message naming the table, the row and the column, and
// passes on an identical record.
func TestGuardCompareDetectsSeededRegression(t *testing.T) {
	if err := GuardCompare(seeded(), seeded()); err != nil {
		t.Errorf("guard failed an identical record: %v", err)
	}
	for _, tc := range []struct {
		name string
		seed func(row *cell)
		want []string
	}{
		{"one cycle more", func(r *cell) { r.OoOCycles++ }, []string{"ooo_cycles", "committed 1000", "fresh 1001"}},
		{"one cycle fewer", func(r *cell) { r.OoOCycles-- }, []string{"ooo_cycles", "committed 1000", "fresh 999"}},
		{"static baseline", func(r *cell) { r.StaticCycles = 2000 }, []string{"static_cycles", "fresh 2000"}},
		{"ratio", func(r *cell) { r.Speedup += 0.001 }, []string{"speedup", "committed 1.100", "fresh 1.101"}},
		{"effort counter", func(r *cell) { r.Aborted = 7 }, []string{"aborted", "committed 0", "fresh 7"}},
	} {
		fresh := seeded()
		tc.seed(&fresh.Tables[0].Rows.([]floorCell)[0].cell)
		err := GuardCompare(seeded(), fresh)
		if err == nil {
			t.Errorf("%s: guard passed", tc.name)
			continue
		}
		for _, want := range append(tc.want, "table fig8 scale=4 budget=quick row 0 (vgg16 arch5)") {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: guard error does not say %q: %v", tc.name, want, err)
			}
		}
		if strings.Contains(err.Error(), "resnet50") || strings.Contains(err.Error(), "fig11") {
			t.Errorf("%s: guard error names an unchanged row or table: %v", tc.name, err)
		}
	}
}

func TestGuardCompareMismatches(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed func(fresh *Record)
		want string
	}{
		{"missing row", func(r *Record) { r.Tables[0].Rows = r.Tables[0].Rows.([]floorCell)[:1] },
			"table fig8 scale=4 budget=quick: 2 rows committed, 1 fresh"},
		{"extra row", func(r *Record) { r.Tables[1].Rows = append(r.Tables[1].Rows.([]reuseRow), reuseRow{}) },
			"table fig11 scale=4 budget=quick: 1 rows committed, 2 fresh"},
		{"extra table", func(r *Record) { r.Put(Table{Name: "fig11", Scale: 2, Budget: "quick", Rows: []reuseRow{}}) },
			"table fig11 scale=2 budget=quick: not in the committed record"},
		{"schema version", func(r *Record) { r.SchemaVersion++ }, "schema version mismatch: committed v2 vs fresh v3"},
		{"no tables", func(r *Record) { r.Tables = nil }, "no tables"},
	} {
		fresh := seeded()
		tc.seed(fresh)
		if err := GuardCompare(seeded(), fresh); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: guard error %v, want it to say %q", tc.name, err, tc.want)
		}
	}
	// Tables only the committed record holds are skipped: it also stores
	// the regimes the guard does not re-run.
	narrow := seeded()
	narrow.Tables = narrow.Tables[:1]
	if err := GuardCompare(seeded(), narrow); err != nil {
		t.Errorf("guard failed a run of one of the committed tables: %v", err)
	}
}

// TestRecordRoundTrip writes and reloads a record: same bytes when
// written again, rows back in their registry types, and tables put
// under an existing ID replaced in place.
func TestRecordRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.json")
	if err := seeded().Write(path); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := GuardCompare(got, seeded()); err != nil {
		t.Errorf("reloaded record differs: %v", err)
	}
	if rows, ok := got.Tables[0].Rows.([]floorCell); !ok || rows[0].OoOCycles != 1000 || rows[0].Speedup != 1.1 {
		t.Errorf("rows did not come back typed: %#v", got.Tables[0].Rows)
	}
	got.Put(seeded().Tables[1])
	if err := got.Write(path); err != nil {
		t.Fatal(err)
	}
	if second, _ := os.ReadFile(path); !bytes.Equal(first, second) {
		t.Errorf("rewritten record differs:\n%s\nwas:\n%s", second, first)
	}
	if err := os.WriteFile(path, []byte(`{"schema_version":2,"tables":[{"name":"fig99","rows":[]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRecord(path); err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Errorf("a table of an unknown experiment loaded: %v", err)
	}
	if rec, err := ReadRecord(filepath.Join(t.TempDir(), "absent.json")); err != nil || len(rec.Tables) != 0 {
		t.Errorf("a missing file is not an empty record: %v", err)
	}
}

// effortColumns are the cells that depend on what each tiling was
// pruned against, and so on timing above one worker.
var effortColumns = map[string]bool{"pruned": true, "aborted": true, "sets": true}

// TestQuickRegimeDeterministic generates the quick regime again: at one
// worker the record is byte-identical, at two identical in every cell
// but the effort counters.
func TestQuickRegimeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two more runs of the quick regime")
	}
	first, again := quickRecord(t), runRegime(t, 1)
	dir := t.TempDir()
	var files [2][]byte
	for i, rec := range []*Record{first, again} {
		path := filepath.Join(dir, "rec.json")
		if err := rec.Write(path); err != nil {
			t.Fatal(err)
		}
		files[i], _ = os.ReadFile(path)
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Errorf("two runs at one worker differ: %v", GuardCompare(first, again))
	}
	two := runRegime(t, 2)
	for i, table := range two.Tables {
		header, _, now := grid(table.Rows)
		_, _, was := grid(first.Tables[i].Rows)
		if len(now) != len(was) {
			t.Fatalf("%s: %d rows at two workers, %d at one", table.id(), len(now), len(was))
		}
		for r := range now {
			for c := range header {
				if now[r][c] != was[r][c] && !effortColumns[header[c]] {
					t.Errorf("%s row %d: %s is %s at two workers, %s at one", table.id(), r, header[c], now[r][c], was[r][c])
				}
			}
		}
	}
}

// TestCommittedRecordMatchesHead is `make bench-guard` as a test: the
// quick regime of the committed record is what HEAD computes.
func TestCommittedRecordMatchesHead(t *testing.T) {
	if err := GuardCompare(committed(t), quickRecord(t)); err != nil {
		t.Error(err)
	}
}

// TestCommittedRecordPinnedTotals pins the totals the BENCH_0009.json
// preset record held, which the refactor that replaced it had to carry
// over to the unit, and the regimes the record must hold.
func TestCommittedRecordPinnedTotals(t *testing.T) {
	rec := committed(t)
	for _, want := range []struct {
		table, network              string
		fuseDepth                   int
		cycles, bytes, staticCycles int64
		aborted                     int // -1: not pinned
	}{
		{"fig8 scale=4 budget=quick", "vgg16", 0, 1266103, 33585056, 1252811, -1},
		{"fusion scale=4 budget=quick", "vgg16", 0, 1266103, 33585056, 1252811, -1},
		{"fusion scale=4 budget=quick", "vgg16", 1, 1261252, 33466154, 1252811, -1},
		{"fig8 scale=4 budget=quick", "resnet50", 0, 1696177, 49618976, 1698191, -1},
		{"fig8 scale=4 budget=quick", "squeezenet", 0, 115609, 2960842, 115621, -1},
		{"fig8 scale=2 budget=default", "vgg16", 0, 2013095, 50681452, 1874804, 1384},
	} {
		table, ok := rec.table(want.table)
		if !ok {
			t.Errorf("no table %s", want.table)
			continue
		}
		var cells []cell
		switch rows := table.Rows.(type) {
		case []floorCell:
			for _, r := range rows {
				cells = append(cells, r.cell)
			}
		case []fusionRow:
			cells = []cell{rows[want.fuseDepth].cell}
		}
		found := false
		for _, c := range cells {
			if c.Network != want.network || c.Arch != "arch5" {
				continue
			}
			found = true
			if c.OoOCycles != want.cycles || c.OoOBytes != want.bytes || c.StaticCycles != want.staticCycles ||
				(want.aborted >= 0 && c.Aborted != want.aborted) {
				t.Errorf("%s %s on arch5 (fuse depth %d): %d cycles / %d bytes / %d static cycles / %d aborted, want %d / %d / %d / %d",
					want.table, want.network, want.fuseDepth, c.OoOCycles, c.OoOBytes, c.StaticCycles, c.Aborted,
					want.cycles, want.bytes, want.staticCycles, want.aborted)
			}
		}
		if !found {
			t.Errorf("%s: no %s on arch5 row", want.table, want.network)
		}
	}
	for _, name := range Names() {
		for _, regime := range []string{" scale=4 budget=quick", " scale=1 budget=default"} {
			if _, ok := rec.table(name + regime); !ok {
				t.Errorf("the committed record has no table %s%s", name, regime)
			}
		}
	}
}

// block matches one generated block of EXPERIMENTS.md: a marker naming
// a table of the record, the fenced rendering, the end marker.
var block = regexp.MustCompile("(?s)<!-- table: ([^\n]*?) -->\n```text\n(.*?)```\n<!-- /table -->")

// TestExperimentsMDInSync renders the committed record — no search —
// and demands that every table block of EXPERIMENTS.md is that
// rendering. -update-experiments-md rewrites the blocks instead.
func TestExperimentsMDInSync(t *testing.T) {
	rec := committed(t)
	md, err := os.ReadFile(experimentsMD)
	if err != nil {
		t.Fatal(err)
	}
	blocks := 0
	fresh := block.ReplaceAllFunc(md, func(old []byte) []byte {
		blocks++
		id := string(block.FindSubmatch(old)[1])
		table, ok := rec.table(id)
		if !ok {
			t.Errorf("EXPERIMENTS.md has a block for %q, the committed record has no such table", id)
			return old
		}
		var b bytes.Buffer
		b.WriteString("<!-- table: " + id + " -->\n```text\n")
		Render(&b, table)
		b.WriteString("```\n<!-- /table -->")
		if !*updateMD && !bytes.Equal(old, b.Bytes()) {
			t.Errorf("EXPERIMENTS.md block %q is not the rendering of the committed record (go test ./internal/experiments -run TestExperimentsMDInSync -update-experiments-md):\n%s", id, b.Bytes())
		}
		return b.Bytes()
	})
	if blocks < 10 || blocks != bytes.Count(md, []byte("<!-- table:")) {
		t.Errorf("%d well-formed table blocks of %d markers in EXPERIMENTS.md", blocks, bytes.Count(md, []byte("<!-- table:")))
	}
	if *updateMD {
		if err := os.WriteFile(experimentsMD, fresh, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
