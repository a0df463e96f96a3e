package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		samples int
		want    float64
	}{{1, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {999, 90}, {1000, 99}, {200000, 99}} {
		if got := tailPercentile(c.samples); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.samples, got, c.want)
		}
	}
	vs := make([]float64, 101) // 0..100, shuffled order must not matter
	for i := range vs {
		vs[i] = float64((i * 37) % 101)
	}
	got := summarize(vs)
	if got.P50 != 50 || got.Tail != 90 || got.TailPercentile != 90 || got.Samples != 101 {
		t.Errorf("summarize(0..100) = %+v", got)
	}
	if few := summarize([]float64{3, 1, 2}); few.Tail != few.P50 || few.P50 != 2 {
		t.Errorf("with under 40 samples the tail is the median, got %+v", few)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of an even count = %v", m)
	}
}

func TestQuietRule(t *testing.T) {
	// Ten repeats, three of them in a slow spell: the quiet fifth is the
	// two cheapest, and a metric is its median over those two.
	cost := []float64{1.9, 1.0, 1.1, 2.0, 1.05, 1.2, 1.15, 2.1, 1.3, 1.25}
	q := quiet(cost)
	if len(q) != 2 || q[0] != 1 || q[1] != 4 {
		t.Fatalf("quiet = %v, want repeats 1 and 4", q)
	}
	other := []float64{9, 10, 9, 9, 20, 9, 9, 9, 9, 9}
	if m := quietMedian(other, q); m != 15 {
		t.Errorf("quietMedian = %v, want 15", m)
	}
	// Up to five repeats the quiet set is the single cheapest one.
	for n := 1; n <= 5; n++ {
		if q := quiet(cost[:n]); len(q) != 1 || (n > 1 && q[0] != 1) {
			t.Errorf("quiet of %d repeats = %v", n, q)
		}
	}
	if q := quiet(cost[:6]); len(q) != 2 {
		t.Errorf("quiet of 6 repeats = %v", q)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; Python gives 3.5, 31.0", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v; Python gives 0.75, 2.25", q1, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "search.layer", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "dfg.Build", StartNS: 10, EndNS: 20, Parent: 0},
		{Name: "sched.ooo", StartNS: 20, EndNS: 90, Parent: 0},
		{Name: "sched.ooo", StartNS: 200, EndNS: 230, Parent: -1},
		{Name: "spm.Allocate", StartNS: 30, EndNS: 50, Parent: 2},
	}
	want := map[string]int64{"search.layer": 20, "dfg.Build": 10, "sched.ooo": 50 + 30, "spm.Allocate": 20}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}

	rec := newRecorder()
	rec.nextRequest()
	outer := rec.begin("outer")
	inner := rec.begin("inner")
	rec.end(inner)
	rec.end(outer)
	rec.nextRequest()
	rec.end(rec.begin("next"))
	if len(rec.spans) != 3 || rec.spans[inner].Parent != outer || rec.spans[outer].Parent != -1 ||
		rec.spans[inner].Req != 1 || rec.spans[2].Req != 2 || rec.spans[2].Parent != -1 {
		t.Errorf("recorder nesting: %+v", rec.spans)
	}
	var off *recorder // the untraced twin of a traced pass
	off.nextRequest()
	off.end(off.begin("nothing"))
}

func TestSeededBlocks(t *testing.T) {
	hs, err := newHotSet(fullSize)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := makeBlock(7, hs, 5000, 3), makeBlock(7, hs, 5000, 3), makeBlock(8, hs, 5000, 3)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different blocks")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("two seeds gave the same block")
	}
	// The seed moves the order alone: both blocks hold the same requests
	// (kind, key and node), so every seed sends the same work, forwards
	// the same share of it, and the simulated metrics (sums over the key
	// set) cannot depend on it.
	multiset := func(block []request) map[request]int {
		m := map[request]int{}
		for _, rq := range block {
			m[rq]++
		}
		return m
	}
	if !reflect.DeepEqual(multiset(a), multiset(c)) {
		t.Error("two seeds asked for different requests")
	}
	if len(a) != 5000 {
		t.Fatalf("block of %d requests, want 5000", len(a))
	}
	layers := map[int]int{}
	kinds := [numKinds]int{}
	nodes := [3]int{}
	for _, rq := range a {
		kinds[rq.Kind]++
		nodes[rq.Node]++
		if rq.Kind == kindLayer {
			layers[rq.Key]++
		}
	}
	if len(layers) != len(hs.Layers) {
		t.Errorf("block touches %d of %d layer keys", len(layers), len(hs.Layers))
	}
	for k, share := range [numKinds]float64{0.90, 0.05, 0.05} {
		if got := float64(kinds[k]) / float64(len(a)); math.Abs(got-share) > 0.001 {
			t.Errorf("%s share = %.4f, want %.2f", kindNames[k], got, share)
		}
	}
	for n, got := range nodes {
		if math.Abs(float64(got)/float64(len(a))-1.0/3) > 0.01 {
			t.Errorf("node %d is dealt %d of %d requests", n, got, len(a))
		}
	}
	// Zipf(1.1): the most popular key is asked for about 2^1.1 times as
	// often as the second, and no key is left out.
	counts := make([]int, 0, len(layers))
	for _, n := range layers {
		counts = append(counts, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	if ratio := float64(counts[0]) / float64(counts[1]); math.Abs(ratio-math.Pow(2, 1.1)) > 0.1 {
		t.Errorf("top two keys asked for %d and %d times", counts[0], counts[1])
	}
	if total := zipfCounts(1000, 7); len(total) != 7 || total[0] < total[6] {
		t.Errorf("zipfCounts(1000, 7) = %v", total)
	} else if sum := total[0] + total[1] + total[2] + total[3] + total[4] + total[5] + total[6]; sum != 1000 {
		t.Errorf("zipfCounts(1000, 7) adds up to %d", sum)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "layers_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, []float64{100, 101, 99, 100, 102}, []float64{101, 100, 99, 102, 100}, verdictUnchanged},
		{"slower", lower, []float64{100, 101, 99, 100, 102}, []float64{115, 116, 114, 115, 117}, verdictWorse},
		{"faster", lower, []float64{100, 101, 99, 100, 102}, []float64{85, 86, 84, 85, 87}, verdictBetter},
		{"noisy", lower, []float64{80, 100, 120, 90, 110}, []float64{82, 101, 118, 92, 108}, verdictUnresolved},
		{"noisy but every run better", lower, []float64{80, 100, 120, 90, 110}, []float64{50, 60, 70, 55, 65}, verdictBetter},
		{"throughput fell", higher, []float64{100, 101, 99, 100, 102}, []float64{85, 86, 84, 85, 87}, verdictWorse},
		{"throughput rose", higher, []float64{100, 101, 99, 100, 102}, []float64{115, 116, 114, 115, 117}, verdictBetter},
		{"identical simulated", metricSpec{Name: "ooo_cycles", Better: "lower", Bound: 0.005}, []float64{1540480, 1540480}, []float64{1540480, 1540480}, verdictUnchanged},
		{"one cycle in 200 more", metricSpec{Name: "ooo_cycles", Better: "lower", Bound: 0.005}, []float64{1540480, 1540480}, []float64{1550000, 1550000}, verdictWorse},
	} {
		if got := judge(c.spec, c.a, c.b); got.Verdict != c.want {
			t.Errorf("%s: verdict %s (worse by %.3f, spread %.3f), want %s", c.name, got.Verdict, got.Worse, got.Spread, c.want)
		}
	}

	// End to end through record files: one workload, b slower.
	dir := t.TempDir()
	write := func(name string, lat float64) string {
		path := dir + "/" + name
		for i := 0; i < 5; i++ {
			r := newResult()
			r.Workload, r.Attempted = "serve-hot", 10
			r.endToEnd(endToEnd{SetupS: 1, LayersPerS: 1000, LatencyP50MS: lat + float64(i)*0.001, LatencyTailMS: 1,
				CPUMSPerLayer: 1, AllocKBPerLayer: 1, Sim: simTotals{OoOCycles: 10, OoOTraffic: 10, StaticCycles: 10, Scores: []float64{100}}})
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, b := write("a.jsonl", 0.150), write("b.jsonl", 0.200)
	var out bytes.Buffer
	if code := runCompare(&out, a, b); code != 1 {
		t.Errorf("a slower b: exit %d, want 1\n%s", code, out.String())
	}
	if !regexp.MustCompile(`serve-hot\s+latency_p50_ms.*worse`).Match(out.Bytes()) || !strings.Contains(out.String(), "== serve-hot") {
		t.Errorf("comparison output lacks the worse row or the summary row:\n%s", out.String())
	}
	out.Reset()
	if code := runCompare(&out, a, a); code != 0 {
		t.Errorf("a file against itself: exit %d\n%s", code, out.String())
	}
}

// fmtProbe records whether the logger formatted it.
type fmtProbe struct{ formatted *bool }

func (p fmtProbe) String() string { *p.formatted = true; return "probe" }

func TestLogWriterIsNotDiscard(t *testing.T) {
	var formatted bool
	log.New(io.Discard, "", log.LstdFlags).Printf("%v", fmtProbe{&formatted})
	if formatted {
		t.Skip("this Go version formats even for io.Discard; the counting writer is then merely equivalent")
	}
	w := &countingWriter{}
	log.New(w, "", log.LstdFlags).Printf("POST %v -> %d", fmtProbe{&formatted}, 200)
	if !formatted || w.n.Load() == 0 {
		t.Errorf("counting writer: formatted=%v bytes=%d; the servers' log lines must be formatted and counted", formatted, w.n.Load())
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	var want bytes.Buffer
	if err := writeSpec(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("BENCHMARK.json differs from the tables in the code; regenerate it with: go run . -print-spec > ../BENCHMARK.json")
	}
	s := currentSpec()
	seen := map[string]bool{}
	for _, n := range s.Workloads {
		if !nameRE.MatchString(n.Name) || seen[n.Name] || len(n.Why) > 200 || strings.Contains(n.Why, "\n") {
			t.Errorf("workload %q breaks the contract", n.Name)
		}
		seen[n.Name] = true
	}
	hasSetup := false
	for _, m := range s.EndToEnd {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] || m.Bound <= 0 || m.Bound > 0.25 ||
			(m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		seen[m.Name] = true
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range s.PerLayer {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v breaks the contract", m)
		}
		seen[m.Name] = true
	}
	if !hasSetup || len(s.Workloads) < 2 || len(s.Workloads) > 8 || len(s.EndToEnd) > 16 || len(s.PerLayer) > 128 ||
		s.RunSeconds < 1 || s.RunSeconds > 60 || want.Len() > 64<<10 {
		t.Error("BENCHMARK.json is outside the contract's limits")
	}
}

// smokeRun runs one workload at toy sizes under one P, as the real
// runs do, and restores the test's GOMAXPROCS.
func smokeRun(t *testing.T, workload string, traced bool) *result {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res, err := runWorkload(context.Background(), workload, 1, 200*time.Millisecond, traced, smokeSize)
	if err != nil {
		t.Fatalf("%s traced=%v: %v", workload, traced, err)
	}
	return res
}

// TestSmoke runs all four workloads at toy sizes, untraced and traced,
// and checks that every metric of BENCHMARK.json is reported exactly
// once, finite, by the run that owns it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers and searches layers")
	}
	var spec benchmarkSpec
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var simulated [][]float64
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			res := smokeRun(t, w.Name, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d errors=%v", w.Name, traced, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			line, err := res.finalLine()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			var final struct {
				Correct   *bool                  `json:"correct"`
				Attempted *int                   `json:"attempted"`
				Failed    *int                   `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&final); err != nil || final.Correct == nil || final.Attempted == nil || final.Failed == nil {
				t.Fatalf("%s traced=%v: final line %s: %v", w.Name, traced, line, err)
			}
			if len(final.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(final.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := final.Metrics[name]
				if !ok || m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present=%v), want a finite value in %s", w.Name, traced, name, m, ok, unit)
				}
			}
			var printed bytes.Buffer
			res.print(&printed)
			for name := range want {
				if n := len(regexp.MustCompile(`(?m)^`+regexp.QuoteMeta(name)+`\s`).FindAll(printed.Bytes(), -1)); n != 1 {
					t.Errorf("%s traced=%v: metric %s printed %d times", w.Name, traced, name, n)
				}
			}
			if traced {
				if res.Metrics["verify.failures"].Value != 0 || res.Metrics["cluster.failovers"].Value != 0 {
					t.Errorf("%s: verify.failures / cluster.failovers not 0", w.Name)
				}
				if _, err := os.Stat(spansPath(w.Name)); err != nil {
					t.Errorf("%s: no spans file: %v", w.Name, err)
				}
			} else {
				for _, e2e := range spec.EndToEnd {
					if res.Metrics[e2e.Name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.Name, e2e.Name)
					}
				}
				if strings.HasSuffix(w.Name, "-hot") {
					m := res.Metrics
					simulated = append(simulated, []float64{m["ooo_cycles"].Value, m["ooo_traffic_bytes"].Value, m["ooo_score_geomean"].Value, m["speedup_vs_static"].Value})
				}
			}
		}
	}
	// One node and three nodes serve the same key set: the simulated
	// metrics must agree bit for bit.
	if len(simulated) == 2 && !reflect.DeepEqual(simulated[0], simulated[1]) {
		t.Errorf("serve-hot and cluster-hot disagree on simulated metrics: %v vs %v", simulated[0], simulated[1])
	}
}

// TestSimulatedMetricsIgnoreSeed: the seed shuffles order only.
func TestSimulatedMetricsIgnoreSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("searches layers")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var prev *result
	for _, seed := range []int64{1, 2} {
		res, err := runCold(context.Background(), coldSearchJobs(smokeSize), seed, 0, smokeSize)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			for _, name := range []string{"ooo_cycles", "ooo_traffic_bytes", "ooo_score_geomean", "speedup_vs_static"} {
				if res.Metrics[name] != prev.Metrics[name] {
					t.Errorf("%s: seed 1 gave %v, seed 2 gave %v", name, prev.Metrics[name].Value, res.Metrics[name].Value)
				}
			}
		}
		prev = res
	}
}

// TestFailuresExitNonZero makes each correctness check fail in turn:
// a pinned BENCH_0009 total, the independent verifier, and a reply
// that differs from its reference.
func TestFailuresExitNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a server and searches layers")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	tiny := smokeSize.shrink([]coldJob{{Name: "tiny", Network: "squeezenet", Machine: "arch1"}})[0]

	t.Run("cross-check", func(t *testing.T) {
		job := tiny
		job.Want = wantTotals{Cycles: 1, Traffic: 1}
		res, err := runCold(ctx, []coldJob{job}, 1, 0, smokeSize)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 || exitCode(res) == 0 || !strings.Contains(strings.Join(res.Errors, "\n"), "BENCH_0009") {
			t.Errorf("wrong pinned totals: correct=%v failed=%d exit=%d errors=%v", res.Correct, res.Failed, exitCode(res), res.Errors)
		}
		if ok, err := runCold(ctx, []coldJob{tiny}, 1, 0, smokeSize); err != nil || exitCode(ok) != 0 {
			t.Errorf("the untampered job: exit %d, %v", exitCode(ok), err)
		}
	})

	t.Run("verify", func(t *testing.T) {
		out := tiny.run(ctx)
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		var vs verifyStats
		if err := verifyNetwork(out.Result, tiny.options(), &vs); err != nil || vs.Failures != 0 {
			t.Fatalf("an honest result fails verification: %v", err)
		}
		op := &out.Result.Layers[0].BestOoO.OpRecords[0]
		op.Start, op.End = 0, op.End-op.Start // now runs before any of its tiles is loaded
		if err := verifyNetwork(out.Result, tiny.options(), &vs); err == nil || vs.Failures == 0 {
			t.Error("a tampered schedule passed verification")
		}
	})

	t.Run("reply mismatch", func(t *testing.T) {
		hs, err := newHotSet(smokeSize)
		if err != nil {
			t.Fatal(err)
		}
		f, err := startFleet(1)
		if err != nil {
			t.Fatal(err)
		}
		defer f.stop()
		if _, err := f.warm(ctx, hs); err != nil {
			t.Fatal(err)
		}
		c := newClient(f, hs)
		defer c.close()
		rq := request{Kind: kindLayer, Key: 0}
		if _, err := c.do(ctx, rq); err != nil {
			t.Fatalf("an honest reply is rejected: %v", err)
		}
		hs.Layers[0].OoO.Cycles++
		block := []request{rq, {Kind: kindStream, Key: 0}, {Kind: kindLayer, Key: 1}}
		out := runBlock(ctx, []*client{c}, block)
		if len(out.Errs) != 2 {
			t.Errorf("a reply that differs from its reference: %d of 3 requests failed, want 2: %v", len(out.Errs), out.Errs)
		}
		res := newResult()
		res.Attempted = len(block)
		for _, err := range out.Errs {
			res.fail(err)
		}
		if exitCode(res) == 0 {
			t.Error("mismatching replies exit 0")
		}
	})
}
