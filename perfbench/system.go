package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// system is a built system with its tabs, ready for a window.
type system struct {
	fx     *fixture
	tabs   []tab
	hs     atomic.Int64 // downstream TLS handshakes, all tabs
	setups []setupTiming
}

func (s *system) close() {
	for _, t := range s.tabs {
		t.close()
	}
	s.fx.close()
}

// build sets the system up setupRounds times, keeping the last, then
// builds the tabs and warms them up.
func build(ctx context.Context, w workload, seed int64) (*system, error) {
	sys := &system{}
	tr := newTracer()
	for i := 0; i < setupRounds; i++ {
		fx, err := setUp(ctx, w.nodes, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		sys.setups = append(sys.setups, fx.timing)
		if i < setupRounds-1 {
			fx.close()
			continue
		}
		sys.fx = fx
	}
	for i := 0; i < tabs; i++ {
		rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
		t, err := w.newTab(ctx, sys.fx, rng, i, &sys.hs)
		if err != nil {
			sys.close()
			return nil, fmt.Errorf("tab %d: %w", i, err)
		}
		sys.tabs = append(sys.tabs, t)
	}
	if err := sys.warm(w.warmOps); err != nil {
		sys.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return sys, nil
}

// warm runs n ops on every tab at once, so both tabs' connections and
// the gateway's upstream pools exist before timing starts.
func (s *system) warm(n int) error {
	errs := make([]error, len(s.tabs))
	var wg sync.WaitGroup
	for i, t := range s.tabs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < n; k++ {
				if _, err := t.op(); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// counters is a snapshot of every machine-independent counter the
// benchmark reads around a window.
type counters struct {
	at                   time.Time
	cpu                  time.Duration
	steal                time.Duration // host steal time, all CPUs
	mallocs, gcs         uint64
	handshakes           int64
	retries, shed        int64
	verityB, cryptB      int64
	kdsTrips, fleetTrips int64
}

func (s *system) snapshot() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := s.fx.gw.Stats()
	return counters{
		at:         time.Now(),
		steal:      stealTime(),
		cpu:        cpuTime(),
		mallocs:    ms.Mallocs,
		gcs:        uint64(ms.NumGC),
		handshakes: s.hs.Load(),
		retries:    st.Retries,
		shed:       st.SheddedRequests,
		verityB:    s.fx.app.verityBytes.Load(),
		cryptB:     s.fx.app.cryptBytes.Load(),
		kdsTrips:   s.fx.kdsNet.Requests(),
		fleetTrips: s.fx.f.Deployment().KDSNet().Requests(),
	}
}

// window is one measured stretch of closed-loop traffic.
type window struct {
	elapsed   time.Duration
	lat       []float64 // ms, sorted; a failed op is +Inf
	attempted int
	failed    int
	firstErr  error
	before    counters
	after     counters
	// slices cut the window into equal stretches, so a run can report
	// the median stretch and shrug off a burst of outside load.
	slices []slice
	spans  []span
	visits []visitSample
}

// slice is one stretch of a window.
type slice struct {
	dur   time.Duration
	cpu   time.Duration
	steal time.Duration // host steal time during the slice, all CPUs
	ok    int
	lats  []float64 // ms, sorted
}

// disturbed reports whether the host kept this machine's CPUs from
// running for more than maxSteal of a stretch of length dur: other
// tenants, not the program, set such a stretch's numbers.
func disturbed(steal, dur time.Duration) bool {
	return float64(steal) > maxSteal*float64(dur)*float64(runtime.NumCPU())
}

// maxSteal is the share of CPU time the host may steal from a slice or
// set-up before the benchmark leaves it out.
const maxSteal = 0.02

// sample is one op as a tab saw it.
type sample struct {
	end time.Duration // since the window start
	lat float64       // ms; +Inf when the op failed
}

// sliceLen is the length a window's slices aim for.
const sliceLen = time.Second

// stealTime is the time the host kept this machine's CPUs from running
// (the steal column of /proc/stat), or 0 where it cannot be read. It
// tells a run slowed by other tenants from a slow program.
func stealTime() time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	// /proc/stat counts in USER_HZ, 100 per second on Linux.
	return time.Duration(ticks) * 10 * time.Millisecond
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measureWindow runs every tab in a closed loop for d.
func (s *system) measureWindow(ctx context.Context, d time.Duration) *window {
	type tabResult struct {
		samples  []sample
		failed   int
		firstErr error
	}
	results := make([]tabResult, len(s.tabs))
	runtime.GC()
	s.fx.tr.take()
	w := &window{before: s.snapshot()}
	start := w.before.at
	deadline := start.Add(d)

	// The CPU and steal clocks are read at every slice boundary.
	n := max(1, int(d/sliceLen))
	cpuMarks := []time.Duration{w.before.cpu}
	stealMarks := []time.Duration{w.before.steal}
	timeMarks := []time.Duration{0}
	stop := make(chan struct{})
	var marks sync.WaitGroup
	marks.Add(1)
	go func() {
		defer marks.Done()
		for k := 1; k < n; k++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Until(start.Add(d * time.Duration(k) / time.Duration(n)))):
			}
			cpuMarks = append(cpuMarks, cpuTime())
			stealMarks = append(stealMarks, stealTime())
			timeMarks = append(timeMarks, time.Since(start))
		}
	}()

	var wg sync.WaitGroup
	for i, t := range s.tabs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &results[i]
			r.samples = make([]sample, 0, 1<<14)
			for ctx.Err() == nil && time.Now().Before(deadline) {
				lat, err := t.op()
				if err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr = err
					}
					r.samples = append(r.samples, sample{end: time.Since(start), lat: math.Inf(1)})
					continue
				}
				r.samples = append(r.samples, sample{end: time.Since(start), lat: ms(lat)})
			}
		}()
	}
	wg.Wait()
	close(stop)
	marks.Wait()
	w.after = s.snapshot()
	w.elapsed = w.after.at.Sub(start)
	cpuMarks = append(cpuMarks, w.after.cpu)
	stealMarks = append(stealMarks, w.after.steal)
	timeMarks = append(timeMarks, w.elapsed)

	w.slices = make([]slice, len(timeMarks)-1)
	for i := range w.slices {
		w.slices[i].dur = timeMarks[i+1] - timeMarks[i]
		w.slices[i].cpu = cpuMarks[i+1] - cpuMarks[i]
		w.slices[i].steal = stealMarks[i+1] - stealMarks[i]
	}
	for _, r := range results {
		for _, sm := range r.samples {
			w.lat = append(w.lat, sm.lat)
			k := sort.Search(len(timeMarks), func(j int) bool { return timeMarks[j] >= sm.end }) - 1
			k = min(max(k, 0), len(w.slices)-1)
			sl := &w.slices[k]
			sl.lats = append(sl.lats, sm.lat)
			if !math.IsInf(sm.lat, 1) {
				sl.ok++
			}
		}
		w.failed += r.failed
		if w.firstErr == nil {
			w.firstErr = r.firstErr
		}
	}
	for i := range w.slices {
		sort.Float64s(w.slices[i].lats)
	}
	w.attempted = len(w.lat)
	sort.Float64s(w.lat)
	w.spans = s.fx.tr.take()
	for _, t := range s.tabs {
		if v, ok := t.(*visitTab); ok {
			w.visits = append(w.visits, v.samples...)
			v.samples = nil
		}
	}
	return w
}

// clean returns the slices the host did not disturb, or every slice
// when fewer than half are clean: a run the host disturbs throughout is
// reported as measured.
func (w *window) clean() []slice {
	var out []slice
	for _, sl := range w.slices {
		if !disturbed(sl.steal, sl.dur) {
			out = append(out, sl)
		}
	}
	if 2*len(out) < len(w.slices) {
		return w.slices
	}
	return out
}

// chunkQuantile cuts the window's clean slices into runs that each hold
// enough ops to support the q-quantile, and returns the median
// of the chunks' q-quantiles, so one stalled stretch does not set the
// tail. A short remainder joins the last chunk; a window too small for
// one chunk is refused.
func (w *window) chunkQuantile(q float64) (float64, int, error) {
	var chunks [][]float64
	var cur []float64
	for _, sl := range w.clean() {
		cur = append(cur, sl.lats...)
		if tailSupported(len(cur), q) {
			chunks = append(chunks, cur)
			cur = nil
		}
	}
	if len(chunks) == 0 {
		_, err := latencyPercentile(cur, q)
		return 0, 0, err
	}
	chunks[len(chunks)-1] = append(chunks[len(chunks)-1], cur...)
	xs := make([]float64, len(chunks))
	for i, c := range chunks {
		sort.Float64s(c)
		xs[i] = quantile(c, q)
	}
	return median(xs), len(chunks), nil
}

// sliceMedian is the median of f over the window's clean slices.
func (w *window) sliceMedian(f func(slice) float64) float64 {
	slices := w.clean()
	xs := make([]float64, len(slices))
	for i, sl := range slices {
		xs[i] = f(sl)
	}
	return median(xs)
}
