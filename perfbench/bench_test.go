package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"revelio/internal/webext"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (10 samples beyond it)", got)
	}
	if got := quantile(xs, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
	if !tailSupported(1000, 0.99) || tailSupported(999, 0.99) {
		t.Error("p99 must need exactly 1000 samples")
	}
	if _, err := latencyPercentile(xs[:999], 0.99); err == nil {
		t.Error("p99 of 999 samples was not refused")
	}
	withFailure := append(append([]float64(nil), xs[1:]...), math.Inf(1))
	if got := quantile(withFailure, 1); !math.IsInf(got, 1) {
		t.Errorf("a failed op must sit at +Inf, max = %v", got)
	}
}

// The chunked p99 ignores one stalled stretch and refuses a window that
// cannot support a p99 at all.
func TestChunkQuantile(t *testing.T) {
	steady := func(n int, v float64) slice {
		lats := make([]float64, n)
		for i := range lats {
			lats[i] = v
		}
		return slice{lats: lats}
	}
	w := &window{slices: []slice{steady(1000, 1), steady(1000, 50), steady(1000, 1), steady(300, 1)}}
	p99, chunks, err := w.chunkQuantile(0.99)
	if err != nil || chunks != 3 || p99 != 1 {
		t.Errorf("chunkQuantile = %v over %d chunks, %v; want 1 over 3", p99, chunks, err)
	}
	w = &window{slices: []slice{steady(400, 1), steady(400, 1)}}
	if _, _, err := w.chunkQuantile(0.99); err == nil {
		t.Error("800 ops supported a p99")
	}
}

// Slices and set-ups the host stole CPU time from are left out of the
// medians, unless they are the majority.
func TestStealFilter(t *testing.T) {
	quiet := slice{dur: time.Second, ok: 100, lats: []float64{1}}
	busy := slice{dur: time.Second, ok: 10, lats: []float64{9}, steal: time.Second}
	ops := func(sl slice) float64 { return float64(sl.ok) }
	w := &window{slices: []slice{quiet, busy, quiet}}
	if got := w.sliceMedian(ops); got != 100 || len(w.clean()) != 2 {
		t.Errorf("one disturbed slice of 3: median %v over %d slices", got, len(w.clean()))
	}
	w = &window{slices: []slice{busy, busy, quiet}}
	if len(w.clean()) != 3 {
		t.Errorf("a mostly disturbed window must keep every slice, kept %d", len(w.clean()))
	}
	setups := []setupTiming{
		{total: 50 * time.Millisecond},
		{total: 90 * time.Millisecond, steal: 10 * time.Millisecond},
		{total: 60 * time.Millisecond},
	}
	if st, used := setupMedians(setups); used != 2 || st.total != 50*time.Millisecond {
		t.Errorf("setupMedians = %v over %d rounds, want 50ms over 2", st.total, used)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	children := []span{
		{Start: 10, End: 30}, {Start: 20, End: 40}, // overlap counts once
		{Start: 90, End: 120}, // clipped to the parent
	}
	if got := selfTime(parent, children); got != 60 {
		t.Errorf("selfTime = %v, want 60", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %v, want 100", got)
	}
}

func TestSpanRefTravelsByHeaderAndQuery(t *testing.T) {
	ref := spanRef{trace: 0xabc, span: 0x12}
	if got := parseSpanRef(ref.String()); got != ref {
		t.Fatalf("round trip = %+v, want %+v", got, ref)
	}
	req := httptest.NewRequest("GET", "https://x/etc/os-release", nil)
	req.Header.Set(traceHeader, ref.String())
	if got := requestRef(req); got != ref {
		t.Errorf("header ref = %+v", got)
	}
	req = httptest.NewRequest("GET", "https://x/etc/os-release?"+traceQueryKey+"="+ref.String(), nil)
	if got := requestRef(req); got != ref {
		t.Errorf("query ref = %+v", got)
	}
	if got := requestRef(httptest.NewRequest("GET", "https://x/?"+traceQueryKey+"=junk", nil)); got != (spanRef{}) {
		t.Errorf("malformed ref = %+v, want none", got)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer()
	tr.begin(tr.root(), spanApp).end()
	tr.on.Store(true)
	tr.begin(spanRef{}, spanApp).end() // no trace: set-up traffic
	root := tr.root()
	sp := tr.begin(root, spanApp)
	tr.begin(sp.ref(), spanVerity).end()
	sp.end()
	spans := tr.take()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2: %+v", len(spans), spans)
	}
	if spans[0].Name != spanVerity || spans[0].Parent != spans[1].ID || spans[1].Parent != root.span {
		t.Errorf("parent links wrong: %+v", spans)
	}
}

func TestMetricNonFiniteIsNull(t *testing.T) {
	rep := &report{Metrics: map[string]metric{}, Attempted: 2, Failed: 1}
	rep.set("latency_p99_ms", math.Inf(1), "ms", "")
	var out bytes.Buffer
	rep.print(&out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"latency_p99_ms":{"value":null,"unit":"ms"}`) ||
		!strings.HasPrefix(last, `{"correct":false,"attempted":2,"failed":1,`) {
		t.Errorf("last line = %s", last)
	}
}

func TestArgs(t *testing.T) {
	var stderr bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "pad-edit", "--trace", "2"},
		{"--workload", "pad-edit", "--seconds", "0"},
	} {
		if code := run(context.Background(), args, &bytes.Buffer{}, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// buildSystem builds a workload's system for a test.
func buildSystem(t *testing.T, name string) *system {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	sys, err := build(context.Background(), w, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.close)
	return sys
}

// A GET of a record tampered with on the volume fails its Open check,
// and the window counts it as a failed op at +Inf.
func TestPadTamperedRecordFails(t *testing.T) {
	sys := buildSystem(t, "pad-edit")
	vol := sys.fx.f.Deployment().Nodes[0].VM.Persist()
	pt := sys.tabs[0].(*padTab)
	buf := make([]byte, slotSize)
	for s := 0; s < slotsPerTab; s++ {
		off := int64(slotBase + (pt.first+s)*slotSize)
		if err := vol.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		buf[100] ^= 0xff
		if err := vol.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pt.get(0); err == nil {
		t.Fatal("GET of a tampered record passed its check")
	}
	w := sys.measureWindow(context.Background(), 300*time.Millisecond)
	if w.failed == 0 || !math.IsInf(w.lat[len(w.lat)-1], 1) {
		t.Fatalf("tampered records: %d of %d ops failed, max latency %v", w.failed, w.attempted, w.lat[len(w.lat)-1])
	}
	t.Logf("tampered records: %d of %d ops failed: %v", w.failed, w.attempted, w.firstErr)
}

// A first visit against a golden the fleet does not run fails every
// session with a measurement mismatch.
func TestFirstVisitWrongGoldenFails(t *testing.T) {
	sys := buildSystem(t, "first-visit")
	for _, tb := range sys.tabs {
		vt := tb.(*visitTab)
		vt.golden[0] ^= 0xff
	}
	_, err := sys.tabs[0].op()
	if !errors.Is(err, webext.ErrMeasurementMismatch) {
		t.Fatalf("wrong golden: err = %v, want a measurement mismatch", err)
	}
	w := sys.measureWindow(context.Background(), 300*time.Millisecond)
	if w.attempted == 0 || w.failed != w.attempted {
		t.Fatalf("wrong golden: %d of %d ops failed", w.failed, w.attempted)
	}
}

// A new device pays the ASK/ARK chain plus one VCEK per node chip it
// meets; once it has met every node, a session costs no KDS trip.
func TestFirstVisitKDSTrips(t *testing.T) {
	sys := buildSystem(t, "first-visit")
	vt := sys.tabs[0].(*visitTab)
	nodes := len(sys.fx.f.Deployment().Nodes)
	trips := sys.fx.kdsNet.Requests
	dev := sys.fx.newDevice()

	before := trips()
	if _, err := vt.session(dev); err != nil {
		t.Fatal(err)
	}
	cold := trips() - before
	t.Logf("cold session: %d KDS trips (1 session, %d nodes)", cold, nodes)
	if cold < 2 || cold > int64(1+nodes) {
		t.Fatalf("cold session cost %d KDS trips, want 2..%d", cold, 1+nodes)
	}
	// Let the device meet every node.
	for i := 0; trips()-before < int64(1+nodes); i++ {
		if i == 50 {
			t.Fatalf("device met only %d trips' worth of chips in 50 sessions", trips()-before)
		}
		if _, err := vt.session(dev); err != nil {
			t.Fatal(err)
		}
	}
	warm := trips()
	const sessions = 6
	for i := 0; i < sessions; i++ {
		if _, err := vt.session(dev); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("warm sessions: %d KDS trips (%d sessions)", trips()-warm, sessions)
	if got := trips() - warm; got != 0 {
		t.Fatalf("warm sessions cost %d KDS trips, want 0", got)
	}
	if total := trips() - before; total > int64(1+nodes) {
		t.Fatalf("one device cost %d KDS trips in all, want at most %d", total, 1+nodes)
	}
}

// benchmarkDoc is the part of BENCHMARK.json the tests check.
type benchmarkDoc struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkDoc(t *testing.T) benchmarkDoc {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// checkNames fails unless rep reports exactly the metrics want names,
// with their units.
func checkNames(t *testing.T, rep *report, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(rep.Metrics) != len(want) {
		var got []string
		for n := range rep.Metrics {
			got = append(got, n)
		}
		sort.Strings(got)
		t.Errorf("reported %d metrics, BENCHMARK.json names %d: %v", len(rep.Metrics), len(want), got)
	}
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
}

func TestEndToEndRunReportsEveryMetric(t *testing.T) {
	doc := loadBenchmarkDoc(t)
	rep, err := runWorkload(context.Background(), options{workload: "pad-edit", seed: 3, seconds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("correct=%v failed=%d attempted=%d: %v", rep.Correct, rep.Failed, rep.Attempted, rep.firstErr)
	}
	checkNames(t, rep, doc.EndToEnd)
	for name, m := range rep.Metrics {
		if !(m.Value > 0) {
			t.Errorf("%s = %v, want > 0", name, m.Value)
		}
	}
}

// Short traced runs of every workload: every per-layer metric is
// reported, and the counters that must read an exact value do.
func TestTracedRunCounters(t *testing.T) {
	doc := loadBenchmarkDoc(t)
	exact := map[string]map[string]float64{
		"static-browse": {
			"gateway.downstream_handshakes_per_op": 0,
			"gateway.retries_per_op":               0,
			"gateway.shed_per_op":                  0,
			"kds.fleet_round_trips":                0,
			"kds.round_trips_per_op":               0,
			"dmcrypt.bytes_per_op":                 0,
		},
		"pad-edit": {
			"gateway.downstream_handshakes_per_op": 0,
			"gateway.retries_per_op":               0,
			"gateway.shed_per_op":                  0,
			"kds.fleet_round_trips":                0,
			"kds.round_trips_per_op":               0,
			"dmverity.bytes_per_op":                0,
			"dmcrypt.bytes_per_op":                 slotSize,
		},
		"first-visit": {
			"gateway.downstream_handshakes_per_op": 2,
			"gateway.retries_per_op":               0,
			"gateway.shed_per_op":                  0,
			"kds.fleet_round_trips":                0,
			"dmcrypt.bytes_per_op":                 0,
			"dmverity.bytes_per_op":                57,
		},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "spans.jsonl")
			rep, err := runWorkload(context.Background(),
				options{workload: w.name, seed: 5, seconds: 0.5, trace: true, traceOut: out})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Fatalf("%d of %d ops failed: %v", rep.Failed, rep.Attempted, rep.firstErr)
			}
			checkNames(t, rep, doc.PerLayer)
			for name, want := range exact[w.name] {
				m := rep.Metrics[name]
				t.Logf("%s = %v %s %s", name, m.Value, m.Unit, m.note)
				if m.Value != want {
					t.Errorf("%s = %v, want exactly %v", name, m.Value, want)
				}
			}
			checkSpanFile(t, out, w.name)
		})
	}
}

// checkSpanFile reads back the traced run's artifact: a metadata line,
// then spans that each name a trace, an interval and a known layer.
func checkSpanFile(t *testing.T, path, workload string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var head struct{ Meta map[string]any }
	if err := json.Unmarshal([]byte(lines[0]), &head); err != nil || head.Meta["workload"] != workload {
		t.Fatalf("metadata line %q: %v", lines[0], err)
	}
	for _, key := range []string{"go", "gomaxprocs", "nproc", "commit", "seed"} {
		if _, ok := head.Meta[key]; !ok {
			t.Errorf("metadata lacks %s", key)
		}
	}
	if len(lines) < 2 {
		t.Fatal("no spans written")
	}
	for _, l := range lines[1:] {
		var s span
		if err := json.Unmarshal([]byte(l), &s); err != nil {
			t.Fatal(err)
		}
		if s.Trace == 0 || s.ID == 0 || s.End < s.Start || s.Name == "" {
			t.Fatalf("bad span %s", l)
		}
	}
}
