package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
)

// SchemaVersion identifies the record layout. Bump it when a field
// changes meaning; the guard refuses to compare records of different
// versions. (Version 1 was the BENCH_*.json preset record.)
const SchemaVersion = 2

// Ratio is a quotient rounded to the three decimals it is printed
// with, so a recorded ratio and a freshly computed one compare equal.
type Ratio float64

// ratio returns a/b rounded (0 when b is 0).
func ratio[T int64 | float64](a, b T) Ratio {
	if b == 0 {
		return 0
	}
	return Ratio(math.Round(float64(a)/float64(b)*1000) / 1000)
}

// Table is one experiment run under one regime.
type Table struct {
	Name   string `json:"name"`
	Scale  int    `json:"scale"`
	Budget string `json:"budget"`
	Title  string `json:"title"`
	// Rows is a slice of the experiment's row type.
	Rows any `json:"rows"`
}

// id names the table in messages and in EXPERIMENTS.md's block markers.
func (t Table) id() string { return fmt.Sprintf("%s scale=%d budget=%s", t.Name, t.Scale, t.Budget) }

// UnmarshalJSON decodes the rows into the row type the registry holds
// for the table's experiment.
func (t *Table) UnmarshalJSON(data []byte) error {
	type plain Table
	raw := struct {
		*plain
		Rows json.RawMessage `json:"rows"`
	}{plain: (*plain)(t)}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	e, err := lookup(t.Name)
	if err != nil {
		return err
	}
	rows := reflect.New(reflect.SliceOf(e.row))
	if err := json.Unmarshal(raw.Rows, rows.Interface()); err != nil {
		return fmt.Errorf("table %s: %w", t.id(), err)
	}
	t.Rows = rows.Elem().Interface()
	return nil
}

// Record is the document flexerbench -json writes and EXPERIMENTS.json
// commits: tables only, every field of them simulated.
type Record struct {
	SchemaVersion int     `json:"schema_version"`
	Tables        []Table `json:"tables"`
}

// table returns the table with the given ID.
func (r *Record) table(id string) (Table, bool) {
	for _, t := range r.Tables {
		if t.id() == id {
			return t, true
		}
	}
	return Table{}, false
}

// Put replaces the table with t's ID, or appends t.
func (r *Record) Put(t Table) {
	for i := range r.Tables {
		if r.Tables[i].id() == t.id() {
			r.Tables[i] = t
			return
		}
	}
	r.Tables = append(r.Tables, t)
}

// ReadRecord loads a record; a missing file is an empty record, so
// flexerbench -json can start one.
func ReadRecord(path string) (*Record, error) {
	rec := &Record{SchemaVersion: SchemaVersion}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return rec, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// Write writes the record as JSON with one row per line, so a changed
// cell is a one-line diff.
func (r *Record) Write(path string) error {
	tables := make([]string, len(r.Tables))
	for i, t := range r.Tables {
		rows := reflect.ValueOf(t.Rows)
		lines := make([]string, rows.Len())
		for j := range lines {
			row, err := json.Marshal(rows.Index(j).Interface())
			if err != nil {
				return err
			}
			lines[j] = "\n  " + string(row)
		}
		t.Rows = nil
		head, err := json.Marshal(t)
		if err != nil {
			return err
		}
		// head ends `"rows":null}`: the rows go in place of the null.
		tables[i] = "\n" + strings.TrimSuffix(string(head), "null}") + "[" + strings.Join(lines, ",") + "\n]}"
	}
	out := fmt.Sprintf("{\"schema_version\": %d, \"tables\": [%s\n]}\n", r.SchemaVersion, strings.Join(tables, ","))
	return os.WriteFile(path, []byte(out), 0o644)
}

// grid flattens typed rows into a header and text cells — the one form
// Render aligns and GuardCompare compares. Columns are the row struct's
// fields (embedded structs flattened) under their JSON names; left
// reports which of them hold text.
func grid(rows any) (header []string, left []bool, cells [][]string) {
	v := reflect.ValueOf(rows)
	var fields []reflect.StructField
	for _, f := range reflect.VisibleFields(v.Type().Elem()) {
		if !f.Anonymous {
			fields = append(fields, f)
			header = append(header, strings.Split(f.Tag.Get("json"), ",")[0])
			left = append(left, f.Type.Kind() == reflect.String)
		}
	}
	for i := 0; i < v.Len(); i++ {
		row := make([]string, len(fields))
		for j, f := range fields {
			x := v.Index(i).FieldByIndex(f.Index)
			if x.Kind() == reflect.Float64 {
				row[j] = fmt.Sprintf("%.3f", x.Float())
			} else {
				row[j] = fmt.Sprint(x.Interface())
			}
		}
		cells = append(cells, row)
	}
	return header, left, cells
}

// Render prints a table: its title and regime, then the rows in
// aligned columns.
func Render(w io.Writer, t Table) {
	header, left, cells := grid(t.Rows)
	width := make([]int, len(header))
	for _, row := range append([][]string{header}, cells...) {
		for j, c := range row {
			width[j] = max(width[j], len(c))
		}
	}
	fmt.Fprintf(w, "%s [scale %d, %s budget]\n", t.Title, t.Scale, t.Budget)
	for _, row := range append([][]string{header}, cells...) {
		var line strings.Builder
		for j, c := range row {
			if j > 0 {
				line.WriteString("  ")
			}
			if left[j] {
				fmt.Fprintf(&line, "%-*s", width[j], c)
			} else {
				fmt.Fprintf(&line, "%*s", width[j], c)
			}
		}
		fmt.Fprintln(w, strings.TrimRight(line.String(), " "))
	}
}

// GuardCompare demands that every table of fresh equals the table of
// the same ID in committed, cell for cell. Everything recorded is
// simulated and deterministic (the effort counters at one worker), so
// any difference — a regression, an improvement, a changed tie-break —
// is a change the committed record has to be regenerated for. Tables
// only committed holds are skipped (it also stores regimes the guard
// does not re-run); a fresh record with no tables is an error, since
// the guard would be vacuous.
func GuardCompare(committed, fresh *Record) error {
	if committed.SchemaVersion != fresh.SchemaVersion {
		return fmt.Errorf("guard: schema version mismatch: committed v%d vs fresh v%d",
			committed.SchemaVersion, fresh.SchemaVersion)
	}
	if len(fresh.Tables) == 0 {
		return errors.New("guard: the fresh record has no tables")
	}
	var diffs []string
	for _, nu := range fresh.Tables {
		old, ok := committed.table(nu.id())
		if !ok {
			diffs = append(diffs, fmt.Sprintf("table %s: not in the committed record", nu.id()))
			continue
		}
		header, left, was := grid(old.Rows)
		_, _, now := grid(nu.Rows)
		if len(was) != len(now) {
			diffs = append(diffs, fmt.Sprintf("table %s: %d rows committed, %d fresh", nu.id(), len(was), len(now)))
		}
		for i := 0; i < min(len(was), len(now)); i++ {
			var label []string
			for j, c := range was[i] {
				if left[j] {
					label = append(label, c)
				}
			}
			for j := range header {
				if was[i][j] != now[i][j] {
					diffs = append(diffs, fmt.Sprintf("table %s row %d (%s): %s committed %s, fresh %s",
						nu.id(), i, strings.Join(label, " "), header[j], was[i][j], now[i][j]))
				}
			}
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("guard: %d difference(s) against the committed record (if intended, run `make experiments`):\n  %s",
			len(diffs), strings.Join(diffs, "\n  "))
	}
	return nil
}
