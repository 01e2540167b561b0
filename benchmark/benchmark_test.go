package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// inputs renders everything a workload feeds the system for one seed.
func inputs(t *testing.T, w workload, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	ps, err := w.programs(seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		buf.WriteString(p.Name + "\x00" + p.Source + "\x00" + p.Stdin + "\x00" + p.Want + "\x00")
	}
	if w.kind == kindServe {
		reqs, err := w.requests(seed)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 50; k++ {
			r := reqs(k)
			buf.Write(r.body)
			buf.WriteString(r.want)
		}
	}
	return buf.Bytes()
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := inputs(t, w, 1), inputs(t, w, 1), inputs(t, w, 2)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 generated different inputs twice", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", w.name)
		}
	}
}

func TestFreshRequestsAreUniqueAndDecodable(t *testing.T) {
	w, _ := workloadByName("serve_fresh")
	reqs, err := w.requests(1)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for k := 0; k < 200; k++ {
		var body struct{ Source, Backend string }
		if err := json.Unmarshal(reqs(k).body, &body); err != nil {
			t.Fatalf("request %d is not JSON: %v", k, err)
		}
		if seen[body.Source] {
			t.Fatalf("request %d repeats an earlier source", k)
		}
		seen[body.Source] = true
		if body.Backend != "vm" && body.Backend != "interp" {
			t.Fatalf("request %d has backend %q", k, body.Backend)
		}
	}
}

// setupBatch runs every program on both engines against its expected
// output, so a stale golden or a wrong native-Go reference fails here.
func TestEveryProgramPrintsItsExpectedOutputOnBothEngines(t *testing.T) {
	for _, w := range workloads {
		if _, err := setupBatch(w, 1, 2); err != nil {
			t.Error(err)
		}
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "kid", Start: 10, End: 40, Parent: 0},
		{Name: "kid", Start: 30, End: 60, Parent: 0}, // overlaps the first: 10..60 is covered once
		{Name: "grandkid", Start: 35, End: 45, Parent: 2},
		{Name: "long", Start: 90, End: 250, Parent: 0}, // outlives its parent: only 90..100 counts against it
		{Name: "open", Start: 5, End: -1, Parent: 0},   // never closed: ignored
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"parent":   100 - 50 - 10,
		"kid":      30 + (30 - 10),
		"grandkid": 10,
		"long":     160,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
	if _, ok := got["open"]; ok {
		t.Error("an unclosed span was given a self time")
	}

	// A child cannot make its parent's self time negative.
	got = selfTimes([]span{
		{Name: "p", Start: 0, End: 10, Parent: -1},
		{Name: "c", Start: -5, End: 50, Parent: 0},
	})
	if got["p"] != 0 {
		t.Errorf("parent fully covered by its child has self time %d, want 0", got["p"])
	}
}

func TestEstimatedChildStaysInsideItsParent(t *testing.T) {
	rec := newRecorder()
	id := rec.begin("parse", -1, 0)
	rec.end(id)
	rec.estimate("lexer", id, time.Hour, false)
	spans := rec.snapshot()
	if kid, parent := spans[1], spans[0]; kid.Start != parent.Start || kid.End > parent.End || !kid.Est {
		t.Errorf("estimated child %+v does not fit parent %+v", kid, parent)
	}
	var off *recorder
	off.end(off.begin("nothing", -1, 0)) // tracing off must be a no-op
	if off.snapshot() != nil {
		t.Error("a nil recorder recorded something")
	}
}

func TestUnderRootKeepsOnlyThatRootsLayers(t *testing.T) {
	spans := []span{
		{Name: "op.vm", Start: 0, End: 100, Parent: -1},
		{Name: "parser", Start: 0, End: 30, Parent: 0},
		{Name: "lexer", Start: 0, End: 20, Parent: 1, Est: true},
		{Name: "op.interp", Start: 100, End: 200, Parent: -1},
		{Name: "parser", Start: 100, End: 140, Parent: 3},
	}
	self, total := underRoot(spans, "op.vm")
	if total != 100 || self["parser"] != 10 || self["lexer"] != 20 || len(self) != 2 {
		t.Errorf("underRoot(op.vm) = %v, total %d", self, total)
	}
}

func TestPercentilesAndQuartiles(t *testing.T) {
	vs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	approx := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	approx("median", median(vs), 5.5)
	approx("p0", percentile(vs, 0), 1)
	approx("p100", percentile(vs, 100), 10)
	approx("p90", percentile(vs, 90), 9.1)
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(vs)
	approx("q1", q1, 2.75)
	approx("q3", q3, 8.25)
	approx("spread", spread(vs), (8.25-2.75)/5.5)
	approx("median of nothing", median(nil), 0)
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q3 = quartiles([]float64{2, 1})
	approx("q1 of two", q1, 0.75)
	approx("q3 of two", q3, 2.25)
}

func TestScalingToTheQuietHost(t *testing.T) {
	r := &result{}
	for _, m := range endToEnd {
		r.set(m.name, sample{value: 10, q1: 8, q3: 12, n: 3})
	}
	r.scaleToQuietHost(&hostRef{slices: []float64{refNominalMS, 3 * refNominalMS}}) // mean: twice as slow
	for _, m := range endToEnd {
		want := map[scaling]float64{unscaled: 10, timeLike: 5, rateLike: 20}[m.scale]
		if s := r.metrics[m.name]; s.value != want || s.raw != 10 || s.q1 != want*0.8 || s.q3 != want*1.2 {
			t.Errorf("%s on a host twice as slow: %+v, want value %g and raw 10", m.name, s, want)
		}
	}
	if k := (&hostRef{}).slowdown(); k != 1 {
		t.Errorf("slow-down without slices = %g, want 1", k)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkLine verifies the contract's result object: exactly four keys and
// exactly the declared metrics, each with a finite value and its unit.
func checkLine(t *testing.T, r *result) {
	t.Helper()
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(r.jsonLine()), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Fatalf("%s: result line has keys %v", r.workload, line)
	}
	var metrics map[string]struct {
		Value *float64
		Unit  string
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	declared := r.declared()
	if len(metrics) != len(declared) {
		t.Errorf("%s: %d metrics printed, %d declared", r.workload, len(metrics), len(declared))
	}
	for _, m := range declared {
		got, ok := metrics[m.name]
		switch {
		case !ok:
			t.Errorf("%s: %s not printed", r.workload, m.name)
		case got.Value == nil || math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
			t.Errorf("%s: %s has no finite value", r.workload, m.name)
		case got.Unit != m.unit:
			t.Errorf("%s: %s printed in %q, declared in %q", r.workload, m.name, got.Unit, m.unit)
		case !r.traced && *got.Value == 0:
			t.Errorf("%s: end-to-end metric %s is 0", r.workload, m.name)
		}
	}
}

// The batch workloads run in-process, so a short pass of each is cheap
// enough for every `go test ./...`.
func TestBatchWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		if w.kind == kindServe {
			continue
		}
		r, err := runWorkload("", w, 1, options{d: 100 * time.Millisecond, setups: 1})
		if err != nil {
			t.Fatal(err) // includes a declared metric missing or an undeclared one present
		}
		if r.failed != 0 || r.attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", w.name, r.attempted, r.failed)
		}
		checkLine(t, r)
	}
}

// The serving workloads start real tetrad and tetrarouter processes; that
// path is exercised once, end to end and traced, unless -short is given.
func TestServingWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := stopAll(); err != nil {
			t.Error(err)
		}
		if err := leftoverChildren(); err != nil {
			t.Error(err)
		}
	}()
	w, _ := workloadByName("serve_hot")
	r, err := runWorkload(root, w, 1, options{d: time.Second, setups: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Errorf("untraced: %d of %d requests failed", r.failed, r.attempted)
	}
	checkLine(t, r)

	r, err = runWorkload(root, w, 1, options{d: 2 * time.Second, traced: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Errorf("traced: %d of %d operations failed", r.failed, r.attempted)
	}
	checkLine(t, r)
	if _, err := os.Stat(filepath.Join(root, "benchmark", "out", "trace-serve_hot.json")); err != nil {
		t.Error(err)
	}
}

// BENCHMARK.json is what the driver reads; the program's own tables are
// what it prints. They must say the same thing.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []decl `json:"end_to_end"`
		PerLayer   []decl `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" || len(doc.Command) == 0 {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	compare := func(kind string, got []decl, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		seen := make(map[string]bool)
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, g, m)
			}
			if !metricName.MatchString(m.name) || seen[m.name] {
				t.Errorf("%s: bad or repeated name %q", kind, m.name)
			}
			seen[m.name] = true
			if m.better != "lower" && m.better != "higher" {
				t.Errorf("%s: %s is better %q", kind, m.name, m.better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != m.bound || m.bound <= 0 || m.bound > 0.25):
				t.Errorf("%s: %s bound %v in BENCHMARK.json, %v in the program", kind, m.name, g.Bound, m.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: %s has a bound", kind, m.name)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
}
