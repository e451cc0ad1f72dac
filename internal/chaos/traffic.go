package chaos

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"revelio/internal/gateway"
	"revelio/internal/load"
)

// trafficDeadline is the deadline every traffic request declares via
// the gateway's deadline header. A successful response arriving later
// than this (plus slack) violates the admitted-requests-meet-their-
// deadline invariant.
const trafficDeadline = 8 * time.Second

var trafficHeader = http.Header{
	gateway.DeadlineHeader: {strconv.FormatInt(trafficDeadline.Milliseconds(), 10)},
}

// traffic drives concurrent attested-TLS clients through the gateway
// for the whole chaos run and classifies every outcome: a deliberate
// load shed (503 + Retry-After) is graceful degradation, counted but
// never a failure; a failure while a fault window is open is
// expected-possible (the fault may legally surface to clients, e.g. an
// expiry wave); a failure outside every window is a violation of the
// zero-failed-request invariant.
type traffic struct {
	url    string
	client *http.Client
	clock  *Clock
	run    *load.Run

	// window counts currently open fault windows (they can nest).
	window   atomic.Int32
	windowed atomic.Int64
}

// startTraffic launches `clients` request loops against the gateway at
// url, trusting the fleet CA for the service domain. The loops carry
// ctx into every request and pace themselves through the run's clock.
func startTraffic(ctx context.Context, url string, roots *x509.CertPool, domain string, clients int, clock *Clock) *traffic {
	t := &traffic{
		url:   url,
		clock: clock,
		client: &http.Client{
			Transport: &http.Transport{
				TLSClientConfig: &tls.Config{
					RootCAs:            roots,
					ServerName:         domain,
					ClientSessionCache: tls.NewLRUClientSessionCache(0),
				},
				MaxIdleConnsPerHost: 64,
			},
			Timeout: 10 * time.Second,
		},
	}
	t.run = load.Start(ctx, clients, t.one)
	return t
}

// one issues a single request and classifies the outcome. The window
// state is sampled both before and after the attempt: a request is a
// violation only if no fault window was open at either point — a window
// opening or closing mid-request means the fault could have hit it. A
// windowed failure is tallied here and reported to the driver as
// served, so the driver's failures are exactly the violations.
func (t *traffic) one(ctx context.Context, _ int) error {
	// Pace the loop: the point is continuous load across every fault,
	// not a throughput benchmark.
	defer t.clock.Sleep(2 * time.Millisecond)
	openAtStart := t.window.Load() > 0
	start := t.clock.Now()
	err := load.Get(ctx, t.client, t.url, trafficHeader)
	if err == nil {
		if elapsed := t.clock.Since(start); elapsed > trafficDeadline+time.Second {
			// Admitted, answered — but past its declared deadline.
			err = fmt.Errorf("succeeded %s after its %s deadline", elapsed, trafficDeadline)
		}
	}
	if err == nil || errors.Is(err, load.ErrShed) {
		return err
	}
	if openAtStart || t.window.Load() > 0 {
		t.windowed.Add(1)
		return nil
	}
	return err
}

// openWindow marks that a fault which may legally surface to clients is
// active; closeWindow ends it. Callers must pair them.
func (t *traffic) openWindow()  { t.window.Add(1) }
func (t *traffic) closeWindow() { t.window.Add(-1) }

// halt stops the drive and returns totals. Idempotent: later calls
// return the same settled totals.
func (t *traffic) halt() (total, windowed, shedded, violations int64, firstViolation error) {
	c := t.run.Stop()
	t.client.CloseIdleConnections()
	return c.Attempts, t.windowed.Load(), c.Shed, c.Failed, c.Err
}
