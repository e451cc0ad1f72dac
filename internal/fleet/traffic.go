package fleet

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"revelio/internal/certmgr"
	"revelio/internal/load"
)

// Traffic is a fleet-wide client load driver: N concurrent clients
// issuing attested-TLS requests round-robin across whatever nodes are
// members at the instant each request starts. It exists to make churn
// invariants falsifiable — every lifecycle scenario runs with traffic
// on and asserts Stop() reports zero failures. The loop is the load
// driver's; the fleet supplies the op: the membership read lock, the
// serving-view round-robin, and the per-attempt tally.
type Traffic struct {
	f   *Fleet
	run *load.Run

	requests atomic.Int64
	failures atomic.Int64

	mu       sync.Mutex
	firstErr error
}

// StartTraffic launches `clients` concurrent request loops against the
// fleet's web tier, carrying ctx into every request. Each request is
// made under the fleet's membership read lock, so lifecycle operations
// drain in-flight requests before touching the node set — the mechanism
// behind the zero-failed-request guarantee during churn.
func (f *Fleet) StartTraffic(ctx context.Context, clients int) *Traffic {
	tr := &Traffic{f: f}
	tr.run = load.Start(ctx, clients, tr.op(f.webClient()))
	return tr
}

// op adapts one to the load driver, spreading successive requests
// round-robin over the serving view.
func (tr *Traffic) op(client *http.Client) load.Op {
	var next atomic.Int64
	return func(ctx context.Context, _ int) error {
		return tr.one(ctx, client, int(next.Add(1)-1))
	}
}

// one performs a single attested-TLS request against node (i mod size)
// and tallies it.
func (tr *Traffic) one(ctx context.Context, client *http.Client, i int) error {
	// Count the attempt before any failure path: every failure is also a
	// request, so failures can never exceed requests in the totals.
	tr.requests.Add(1)
	err := tr.f.serveOne(ctx, client, i)
	if err != nil {
		tr.failures.Add(1)
		tr.mu.Lock()
		if tr.firstErr == nil {
			tr.firstErr = err
		}
		tr.mu.Unlock()
	}
	return err
}

// serveOne requests the well-known path from node (i mod size) of the
// serving view, holding the membership read lock for the whole request.
func (f *Fleet) serveOne(ctx context.Context, client *http.Client, i int) error {
	f.memberMu.RLock()
	defer f.memberMu.RUnlock()
	nodes := f.serving
	if len(nodes) == 0 {
		return fmt.Errorf("fleet: no nodes to serve traffic")
	}
	addr := nodes[i%len(nodes)].WebAddr()
	if addr == "" {
		return fmt.Errorf("fleet: node %d has no web front end", i%len(nodes))
	}
	return load.Get(ctx, client, "https://"+addr+certmgr.WellKnownPath, nil)
}

// Stop ends the drive and reports totals: requests issued, failures
// observed, and the first failure (nil when the run was clean).
func (tr *Traffic) Stop() (requests, failures int64, firstErr error) {
	tr.run.Stop()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.requests.Load(), tr.failures.Load(), tr.firstErr
}

// ServeBurst measures steady-state serving: `clients` concurrent
// attested-TLS clients spread `requests` requests round-robin across
// the serving nodes and the wall-clock for the whole burst is returned
// with the number of requests actually served (each client issues at
// least one). The first failed request aborts the burst across all
// clients — throughput numbers from a partially failing fleet would be
// meaningless — and failed attempts are excluded from the served count.
func (f *Fleet) ServeBurst(ctx context.Context, clients, requests int) (time.Duration, int, error) {
	tr := &Traffic{f: f}
	start := time.Now() //revelio:allow timeseam throughput measurement reported to the operator; no scheduling or replay decision reads it
	load.Burst(ctx, clients, requests, tr.op(f.webClient()))
	elapsed := time.Since(start) //revelio:allow timeseam throughput measurement reported to the operator; no scheduling or replay decision reads it
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return elapsed, int(tr.requests.Load() - tr.failures.Load()), tr.firstErr
}
