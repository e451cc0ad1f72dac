// Command perfbench is the data-plane benchmark: it stands up a real
// fleet behind a started attested gateway and drives one named workload
// from two closed-loop browser tabs, checking every response. Run it
// through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload static-browse --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs an untraced window for the counters and then a traced window for
// the per-layer times, and writes the spans to .bench_build/. The last
// line of standard output is one JSON object; see README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

const (
	// setupRounds is how many times a run builds the system; setup_s is
	// the median, and the last build serves the window.
	setupRounds = 11
	// runTimeout bounds a whole run, well inside the 180 s a run may take.
	runTimeout = 170 * time.Second
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: static-browse, pad-edit or first-visit")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are drawn from")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file of the traced run (default .bench_build/trace-<workload>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := lookupWorkload(o.workload); !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return o, errors.New("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return o, errors.New("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	if o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", "trace-"+o.workload+".jsonl")
	}
	return o, nil
}

// run is main without the exit: it returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	rep, err := runWorkload(ctx, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.print(stdout)
	if !rep.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d ops failed; first failure: %v\n",
			rep.Failed, rep.Attempted, rep.firstErr)
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64
	Unit  string
	// note is printed beside the value: the base of a ratio, the sample
	// behind a percentile.
	note string
}

// MarshalJSON writes a value that is not finite (a percentile reached by
// a failed op) as null; such a run reports correct=false anyway.
func (m metric) MarshalJSON() ([]byte, error) {
	v := any(m.Value)
	if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
		v = nil
	}
	return json.Marshal(struct {
		Value any    `json:"value"`
		Unit  string `json:"unit"`
	}{v, m.Unit})
}

// report is a run's result; its exported fields are the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	meta     map[string]any
	firstErr error
	lines    []string // human-readable tables printed before the JSON
}

func (r *report) set(name string, v float64, unit, note string) {
	r.Metrics[name] = metric{Value: v, Unit: unit, note: note}
}

func (r *report) print(w io.Writer) {
	metaJSON, _ := json.Marshal(r.meta)
	fmt.Fprintf(w, "# run %s\n", metaJSON)
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-40s %14.6g %-14s %s\n", n, m.Value, m.Unit, m.note)
	}
	out, err := json.Marshal(r)
	if err != nil {
		// Unreachable: every field marshals.
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", out)
}

// runMeta records what produced a run.
func runMeta(o options) map[string]any {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				defer func() { commit += "+dirty" }()
			}
		}
	}
	return map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"commit": commit, "tabs": tabs,
	}
}

// runWorkload builds the system for o.workload and runs its windows.
func runWorkload(ctx context.Context, o options) (*report, error) {
	w, _ := lookupWorkload(o.workload)
	sys, err := build(ctx, w, o.seed)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	d := time.Duration(o.seconds * float64(time.Second))

	rep := &report{Metrics: map[string]metric{}, meta: runMeta(o)}
	plain := sys.measureWindow(ctx, d)
	rep.Attempted, rep.Failed, rep.firstErr = plain.attempted, plain.failed, plain.firstErr
	if !o.trace {
		if err := endToEnd(rep, sys, plain); err != nil {
			return nil, err
		}
	} else {
		sys.fx.tr.on.Store(true)
		traced := sys.measureWindow(ctx, d)
		sys.fx.tr.on.Store(false)
		rep.Attempted += traced.attempted
		rep.Failed += traced.failed
		if rep.firstErr == nil {
			rep.firstErr = traced.firstErr
		}
		perLayer(rep, sys, plain, traced)
		if err := writeSpans(o.traceOut, rep.meta, traced.spans); err != nil {
			return nil, err
		}
		rep.lines = append(rep.lines, fmt.Sprintf("# spans: %d written to %s", len(traced.spans), o.traceOut))
	}
	rep.meta["ops"] = rep.Attempted
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// setupMedians returns the median of each set-up timing over the
// rounds the host did not disturb, or over every round when fewer than
// half are clean. It also returns how many rounds it used.
func setupMedians(setups []setupTiming) (setupTiming, int) {
	var clean []setupTiming
	for _, s := range setups {
		if !disturbed(s.steal, s.total) {
			clean = append(clean, s)
		}
	}
	if 2*len(clean) < len(setups) {
		clean = setups
	}
	pick := func(f func(setupTiming) time.Duration) time.Duration {
		xs := make([]float64, len(clean))
		for i, s := range clean {
			xs[i] = float64(f(s))
		}
		return time.Duration(median(xs))
	}
	return setupTiming{
		total:     pick(func(s setupTiming) time.Duration { return s.total }),
		fleetNew:  pick(func(s setupTiming) time.Duration { return s.fleetNew }),
		gwStart:   pick(func(s setupTiming) time.Duration { return s.gwStart }),
		bootMax:   pick(func(s setupTiming) time.Duration { return s.bootMax }),
		verityMax: pick(func(s setupTiming) time.Duration { return s.verityMax }),
	}, len(clean)
}

// endToEnd fills the metrics a user of the system sees. Throughput and
// p50 are medians over the window's slices; p99 needs the whole window's
// sample.
func endToEnd(rep *report, sys *system, w *window) error {
	sliced := fmt.Sprintf("(median of %d of %d slices; %d ops, %d failed, %.2fs window)",
		len(w.clean()), len(w.slices), w.attempted, w.failed, w.elapsed.Seconds())
	for _, sl := range w.slices {
		if !tailSupported(len(sl.lats), 0.5) {
			return fmt.Errorf("a %.2fs slice holds %d ops; lengthen --seconds", sl.dur.Seconds(), len(sl.lats))
		}
	}
	p99, chunks, err := w.chunkQuantile(0.99)
	if err != nil {
		return fmt.Errorf("latency_p99_ms: %w; lengthen --seconds", err)
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)

	st, used := setupMedians(sys.setups)
	rep.set("setup_s", st.total.Seconds(), "s", fmt.Sprintf("(median of %d of %d set-ups)", used, len(sys.setups)))
	rep.set("ops_per_s", w.sliceMedian(func(sl slice) float64 { return float64(sl.ok) / sl.dur.Seconds() }),
		"ops/s", sliced)
	rep.set("latency_p50_ms", w.sliceMedian(func(sl slice) float64 { return quantile(sl.lats, 0.5) }),
		"ms", sliced)
	rep.set("latency_p99_ms", p99, "ms", fmt.Sprintf("(median of %d chunks of >= %.0f ops; %d ops, %d failed)",
		chunks, minTail/(1-0.99), w.attempted, w.failed))
	rep.set("max_rss_mb", float64(ru.Maxrss)/1024, "MiB", "(peak RSS of the run)")
	rep.lines = append(rep.lines, fmt.Sprintf("# error_rate %.6f (%d of %d ops)",
		perOp(float64(w.failed), w.attempted), w.failed, w.attempted))
	rep.lines = append(rep.lines, fmt.Sprintf("# host steal during the window: %.0f ms over %d CPUs",
		ms(w.after.steal-w.before.steal), runtime.NumCPU()))
	rep.lines = append(rep.lines, fmt.Sprintf(
		"# slice    secs   ops/s   p50_ms  cpu_ms/op  steal_ms  (slices with steal over %g%% of CPU time are left out)",
		100*maxSteal))
	for i, sl := range w.slices {
		mark := ""
		if disturbed(sl.steal, sl.dur) {
			mark = "  disturbed"
		}
		rep.lines = append(rep.lines, fmt.Sprintf("# %5d %7.3f %7.1f %8.4f %10.4f %9.0f%s", i, sl.dur.Seconds(),
			float64(sl.ok)/sl.dur.Seconds(), quantile(sl.lats, 0.5), perOp(ms(sl.cpu), len(sl.lats)), ms(sl.steal), mark))
	}
	return nil
}

// perLayer fills the per-layer metrics: counters from the untraced
// window plain, times from the spans of the traced window.
func perLayer(rep *report, sys *system, plain, traced *window) {
	ops := plain.attempted
	delta := func(f func(counters) int64) float64 { return float64(f(plain.after) - f(plain.before)) }
	ratio := func(name, unit string, f func(counters) int64) {
		d := delta(f)
		rep.set(name, perOp(d, ops), unit, fmt.Sprintf("(%.0f / %d ops)", d, ops))
	}
	ratio("gateway.downstream_handshakes_per_op", "handshakes/op", func(c counters) int64 { return c.handshakes })
	ratio("gateway.retries_per_op", "retries/op", func(c counters) int64 { return c.retries })
	ratio("gateway.shed_per_op", "sheds/op", func(c counters) int64 { return c.shed })
	ratio("dmverity.bytes_per_op", "B/op", func(c counters) int64 { return c.verityB })
	ratio("dmcrypt.bytes_per_op", "B/op", func(c counters) int64 { return c.cryptB })
	ratio("kds.round_trips_per_op", "trips/op", func(c counters) int64 { return c.kdsTrips })
	fleetTrips := delta(func(c counters) int64 { return c.fleetTrips })
	rep.set("kds.fleet_round_trips", fleetTrips, "trips", fmt.Sprintf("(over %d ops)", ops))
	mallocs := float64(plain.after.mallocs - plain.before.mallocs)
	gcs := float64(plain.after.gcs - plain.before.gcs)
	rep.set("process.cpu_ms_per_op", plain.sliceMedian(func(sl slice) float64 { return perOp(ms(sl.cpu), len(sl.lats)) }),
		"ms", fmt.Sprintf("(median of %d of %d slices, %d ops)", len(plain.clean()), len(plain.slices), ops))
	rep.set("process.allocs_per_op", perOp(mallocs, ops), "allocs/op", fmt.Sprintf("(%.0f / %d ops)", mallocs, ops))
	rep.set("process.gc_per_kop", perOp(1000*gcs, ops), "GCs/kop", fmt.Sprintf("(%.0f / %d ops)", gcs, ops))

	st, used := setupMedians(sys.setups)
	setupNote := fmt.Sprintf("(median of %d of %d set-ups)", used, len(sys.setups))
	rep.set("fleet.new_ms", ms(st.fleetNew), "ms", setupNote)
	rep.set("gateway.start_ms", ms(st.gwStart), "ms", setupNote)
	rep.set("vm.boot_ms_max", ms(st.bootMax), "ms", setupNote)
	rep.set("vm.verity_verify_ms_max", ms(st.verityMax), "ms", setupNote)

	lb := layerBudget(traced.spans, traced.visits)
	lb.report(rep)
	plainP50, tracedP50 := quantile(plain.lat, 0.5), quantile(traced.lat, 0.5)
	rep.set("trace.overhead_ratio", tracedP50/plainP50, "ratio",
		fmt.Sprintf("(traced p50 %.4f ms over untraced p50 %.4f ms)", tracedP50, plainP50))
	rep.lines = append(rep.lines, lb.table()...)
	rep.lines = append(rep.lines, fmt.Sprintf("# windows: untraced %d ops, traced %d ops",
		plain.attempted, traced.attempted))
}

// sampleNote describes a percentile's sample.
func sampleNote(n int, q float64) string {
	if q > 0.5 && !tailSupported(n, q) {
		return fmt.Sprintf("(n=%d: too few samples for p%g)", n, q*100)
	}
	return fmt.Sprintf("(n=%d)", n)
}
