package load

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// getOnce drives one Get through a one-call burst and returns its counts.
func getOnce(t *testing.T, url string) Counts {
	t.Helper()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	return Burst(context.Background(), 1, 1, func(ctx context.Context, _ int) error {
		return Get(ctx, client, url, nil)
	})
}

// TestGetTruncatedBodyFails: a 200 whose body ends before its declared
// Content-Length was not served. Regression: two client loops dropped
// the body-read error and counted a truncated response as a success.
func TestGetTruncatedBodyFails(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		_, _ = buf.WriteString("HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nonly part of it")
		_ = buf.Flush()
	}))
	defer srv.Close()

	c := getOnce(t, srv.URL)
	if c.OK != 0 || c.Failed != 1 {
		t.Fatalf("counts = %+v, want the truncated 200 counted as one failure", c)
	}
	if !errors.Is(c.Err, io.ErrUnexpectedEOF) {
		t.Errorf("first error = %v, want the body read error (io.ErrUnexpectedEOF)", c.Err)
	}
}

// TestGetShedNeedsRetryAfter: only a 503 carrying Retry-After is a
// deliberate shed; a bare 503 is a failure.
func TestGetShedNeedsRetryAfter(t *testing.T) {
	var retryAfter atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if retryAfter.Load() {
			w.Header().Set("Retry-After", "1")
		}
		http.Error(w, "busy", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	if c := getOnce(t, srv.URL); c.Failed != 1 || c.Shed != 0 || c.Err == nil {
		t.Errorf("503 without Retry-After: counts = %+v, want one failure", c)
	}
	retryAfter.Store(true)
	if c := getOnce(t, srv.URL); c.Shed != 1 || c.Failed != 0 || c.Err != nil {
		t.Errorf("503 with Retry-After: counts = %+v, want one shed", c)
	}
}

// TestGetSendsHeader: the extra header values reach the server.
func TestGetSendsHeader(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Test") != "yes" {
			http.Error(w, "missing header", http.StatusBadRequest)
		}
	}))
	defer srv.Close()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	if err := Get(context.Background(), client, srv.URL, http.Header{"X-Test": {"yes"}}); err != nil {
		t.Fatal(err)
	}
}

// TestBurstShape: each worker makes max(1, total/workers) calls and
// every worker index is used.
func TestBurstShape(t *testing.T) {
	for _, tc := range []struct{ workers, total, want int }{
		{4, 10, 8},
		{4, 2, 4},
		{0, 3, 3},
	} {
		var seen [4]atomic.Int64
		c := Burst(context.Background(), tc.workers, tc.total, func(_ context.Context, w int) error {
			seen[w].Add(1)
			return nil
		})
		if c.Attempts != int64(tc.want) || c.OK != int64(tc.want) || c.Err != nil {
			t.Errorf("workers=%d total=%d: counts = %+v, want %d OK", tc.workers, tc.total, c, tc.want)
		}
		for w := 0; w < max(1, tc.workers); w++ {
			if seen[w].Load() == 0 {
				t.Errorf("workers=%d total=%d: worker %d never ran", tc.workers, tc.total, w)
			}
		}
	}
}

// TestBurstStopsOnFirstFailure: once any call fails, no worker starts
// another, and the first failure is reported.
func TestBurstStopsOnFirstFailure(t *testing.T) {
	boom := errors.New("boom")
	c := Burst(context.Background(), 4, 400, func(context.Context, int) error { return boom })
	if c.Failed == 0 || !errors.Is(c.Err, boom) {
		t.Fatalf("counts = %+v, want a failure carrying the op's error", c)
	}
	// Each worker can have started at most the one call it had begun
	// before the first failure landed.
	if c.Attempts > 4 {
		t.Errorf("attempts = %d after the first failure, want at most one per worker", c.Attempts)
	}
}

// TestStartStopSettles: Stop waits for every worker, the counts add up,
// and a second Stop returns the same settled counts.
func TestStartStopSettles(t *testing.T) {
	boom := errors.New("boom")
	var n atomic.Int64
	reached := make(chan struct{})
	r := Start(context.Background(), 3, func(context.Context, int) error {
		switch i := n.Add(1); {
		case i == 50:
			close(reached)
		case i%7 == 0:
			return boom
		case i%5 == 0:
			return ErrShed
		}
		return nil
	})
	<-reached
	c := r.Stop()
	if c.Attempts != n.Load() {
		t.Errorf("attempts = %d, op ran %d times", c.Attempts, n.Load())
	}
	if c.OK+c.Shed+c.Failed != c.Attempts {
		t.Errorf("counts = %+v do not add up", c)
	}
	if c.Failed == 0 || c.Shed == 0 || !errors.Is(c.Err, boom) {
		t.Errorf("counts = %+v, want failures and sheds counted, the first failure kept", c)
	}
	if again := r.Stop(); again != c {
		t.Errorf("second Stop = %+v, want %+v", again, c)
	}
}
