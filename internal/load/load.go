// Package load is the one client-load driver behind every throughput
// and invariant measurement in the repo: fleet churn traffic, the chaos
// runner's traffic and overload storm, and the Table 4 and Table 6
// experiments. It provides a request helper that decides what a
// response counts as — served, shed or failed — and two fan-outs that
// run a caller's op across concurrent workers: a bounded burst and a
// run-until-stopped drive.
//
// The package never reads the clock. Callers time their own work around
// a fan-out, or inside their op, so a replayed chaos run keeps its
// injected clock seam as the only time source.
package load

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
)

// ErrShed is a deliberate load shed: 503 with a Retry-After header.
// It is graceful degradation, counted apart from failures.
var ErrShed = errors.New("load: request shed (503 + Retry-After)")

// drainBufSize is the pooled drain chunk — driven responses are small,
// so a small buffer keeps the pool cheap.
const drainBufSize = 4096

// drainBufPool recycles the body-drain buffers, so draining a response
// to keep its connection reusable allocates nothing per request.
var drainBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, drainBufSize)
		return &b
	},
}

// discardOnly masks io.Discard's ReadFrom so io.CopyBuffer actually
// uses the pooled buffer instead of allocating its own.
type discardOnly struct{ io.Writer }

// Get issues one GET for url over client with the extra header values,
// drains the body to EOF so the connection returns to the keep-alive
// pool, and classifies the outcome. It returns nil for a 200 whose whole
// body was read and ErrShed for a 503 with Retry-After. Anything else is
// a failure: a transport error, any other status, or a body-read error —
// a 200 cut short mid-body was not served.
func Get(ctx context.Context, client *http.Client, url string, header http.Header) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	bufp := drainBufPool.Get().(*[]byte)
	_, readErr := io.CopyBuffer(discardOnly{io.Discard}, resp.Body, *bufp)
	drainBufPool.Put(bufp)
	_ = resp.Body.Close()
	switch {
	case readErr != nil:
		return fmt.Errorf("load: status %d body read: %w", resp.StatusCode, readErr)
	case resp.StatusCode == http.StatusOK:
		return nil
	case resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "":
		return ErrShed
	default:
		return fmt.Errorf("load: status %d", resp.StatusCode)
	}
}

// Op is one unit of client work. worker identifies the calling
// goroutine (0 <= worker < workers), so an op can keep per-worker state
// without locking. It returns nil when served, an error matching
// ErrShed for a deliberate shed, and any other error for a failure.
type Op func(ctx context.Context, worker int) error

// Counts settles a fan-out: every call the workers made, split by
// outcome, and the first failure (nil when none failed).
type Counts struct {
	Attempts, OK, Shed, Failed int64
	Err                        error
}

// tally accumulates outcomes across workers.
type tally struct {
	attempts, ok, shed, failed atomic.Int64

	mu  sync.Mutex
	err error // guarded by mu
}

// call counts the attempt before running op, so a failure can never
// outnumber the attempts, then classifies op's result.
func (t *tally) call(ctx context.Context, op Op, worker int) {
	t.attempts.Add(1)
	switch err := op(ctx, worker); {
	case err == nil:
		t.ok.Add(1)
	case errors.Is(err, ErrShed):
		t.shed.Add(1)
	default:
		t.mu.Lock()
		if t.err == nil {
			t.err = err
		}
		t.mu.Unlock()
		t.failed.Add(1)
	}
}

func (t *tally) counts() Counts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Counts{
		Attempts: t.attempts.Load(),
		OK:       t.ok.Load(),
		Shed:     t.shed.Load(),
		Failed:   t.failed.Load(),
		Err:      t.err,
	}
}

// Burst runs op max(1, total/workers) times on each of max(1, workers)
// goroutines and returns once every one of them has exited. The first
// failure stops every worker before its next call: throughput from a
// partially failing run would be meaningless.
func Burst(ctx context.Context, workers, total int, op Op) Counts {
	workers = max(1, workers)
	perWorker := max(1, total/workers)
	var (
		t  tally
		wg sync.WaitGroup
	)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perWorker {
				if t.failed.Load() > 0 {
					return
				}
				t.call(ctx, op, w)
			}
		}()
	}
	wg.Wait()
	return t.counts()
}

// Run is a run-until-stopped drive, started by Start.
type Run struct {
	t    tally
	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// Start runs op in a loop on each of max(1, workers) goroutines until
// Stop. Failures are counted, never fatal: the drive keeps its load on
// for the whole run so the caller's invariant sees every outcome.
func Start(ctx context.Context, workers int, op Op) *Run {
	r := &Run{stop: make(chan struct{})}
	for w := range max(1, workers) {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			for {
				select {
				case <-r.stop:
					return
				default:
				}
				r.t.call(ctx, op, w)
			}
		}()
	}
	return r
}

// Stop ends the drive, waits for every worker to exit, and returns the
// settled counts. It is idempotent: later calls return the same counts.
func (r *Run) Stop() Counts {
	r.once.Do(func() {
		close(r.stop)
		r.wg.Wait()
	})
	return r.t.counts()
}
