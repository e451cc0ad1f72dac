package bench

import (
	"cmp"
	"context"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"revelio/internal/core"
	"revelio/internal/fleet"
	"revelio/internal/gateway"
	"revelio/internal/load"
	"revelio/internal/measure"
)

// Table6Config drives the attested-gateway throughput experiment
// ("Table 6"): aggregate req/s through the gateway data plane vs
// direct-to-leader, swept over fleet size × client concurrency, plus a
// throughput-under-churn scenario that replaces nodes behind the
// gateway and asserts zero failed requests.
//
// Each node runs a capacity-limited application handler
// (NodeConcurrency in-flight requests, ServiceTime apiece — the
// stand-in for a real server's bounded workers), so per-node capacity
// is finite and the experiment measures what the gateway exists for:
// whether fleet capacity translates into serving throughput.
type Table6Config struct {
	// NodeCounts lists the fleet sizes to sweep.
	NodeCounts []int
	// Clients lists the client-concurrency levels to sweep per size.
	Clients []int
	// Requests is the number of requests per cell.
	Requests int
	// ServiceTime is the simulated per-request application work.
	ServiceTime time.Duration
	// NodeConcurrency caps in-flight requests per node (the bounded
	// worker pool).
	NodeConcurrency int
	// ChurnNodes/ChurnReplaces/ChurnClients shape the churn scenario: a
	// ChurnNodes fleet serves ChurnClients concurrent clients through
	// the gateway while ChurnReplaces nodes are replaced one by one.
	ChurnNodes    int
	ChurnReplaces int
	ChurnClients  int
	// OverloadClients/OverloadMaxInFlight/OverloadRequests shape the
	// overload scenario: OverloadClients concurrent clients push
	// OverloadRequests total requests at a two-node fleet whose gateway
	// admits at most OverloadMaxInFlight in flight. Every response must
	// be a success or a deliberate shed (503 + Retry-After) — an outright
	// failure fails the experiment.
	OverloadClients     int
	OverloadMaxInFlight int
	OverloadRequests    int
	// CanaryNodes/CanaryWeight/CanaryRequests shape the canary-routing
	// scenario: a CanaryNodes fleet stages a firmware rollout, joins one
	// canary node on the new measurement, and the gateway steers
	// CanaryWeight percent of traffic at it. The cell measures the
	// observed steering share over CanaryRequests healthy requests, then
	// breaks the canary and measures how fast auto-rollback fires; zero
	// requests may reach the rolled-back measurement afterwards.
	CanaryNodes    int
	CanaryWeight   uint
	CanaryRequests int
	// HCClients, when positive, enables the high-concurrency cell:
	// HCClients long-lived keep-alive client goroutines drive an
	// HCNodes fleet through the gateway for HCDuration of steady state,
	// reporting req/s, p50/p99 latency, and allocs/op on the proxy path.
	// The client goroutines multiplex over a connection pool sized to
	// the process's file-descriptor budget (see fdBudget), so 10k
	// clients run under an ordinary ulimit without failed requests.
	HCClients int
	// HCDuration is the timed steady-state window (default 10s).
	HCDuration time.Duration
	// HCNodes and HCNodeConcurrency size the fleet under the cell
	// (defaults 4 nodes × 64 in-flight each): capacity comfortably above
	// demand, so the cell measures the proxy path, not the app.
	HCNodes           int
	HCNodeConcurrency int
	// HCProfileDir, when set, receives CPU and heap pprof profiles
	// captured during the steady-state window (table6_hc_cpu.pprof,
	// table6_hc_heap.pprof).
	HCProfileDir string
}

// DefaultTable6Config sweeps to the paper-scale 64-node fleet and runs
// the 10k-client high-concurrency cell.
func DefaultTable6Config() Table6Config {
	return Table6Config{
		NodeCounts: []int{1, 4, 16, 64},
		Clients:    []int{16, 128},
		Requests:   4096,
		HCClients:  10000,
	}
}

func (c Table6Config) withDefaults() Table6Config {
	if len(c.NodeCounts) == 0 {
		c.NodeCounts = []int{1, 4, 16, 64}
	}
	if len(c.Clients) == 0 {
		c.Clients = []int{16, 128}
	}
	if c.Requests <= 0 {
		c.Requests = 4096
	}
	if c.ServiceTime <= 0 {
		c.ServiceTime = 2 * time.Millisecond
	}
	if c.NodeConcurrency <= 0 {
		c.NodeConcurrency = 4
	}
	if c.ChurnNodes <= 0 {
		c.ChurnNodes = 4
	}
	if c.ChurnReplaces <= 0 {
		c.ChurnReplaces = 2
	}
	if c.ChurnClients <= 0 {
		c.ChurnClients = 8
	}
	if c.OverloadClients <= 0 {
		c.OverloadClients = 64
	}
	if c.OverloadMaxInFlight <= 0 {
		c.OverloadMaxInFlight = 16
	}
	if c.OverloadRequests <= 0 {
		c.OverloadRequests = 512
	}
	if c.CanaryNodes <= 0 {
		c.CanaryNodes = 3
	}
	if c.CanaryWeight == 0 || c.CanaryWeight > 100 {
		c.CanaryWeight = 25
	}
	if c.CanaryRequests <= 0 {
		c.CanaryRequests = 400
	}
	if c.HCClients > 0 {
		if c.HCDuration <= 0 {
			c.HCDuration = 10 * time.Second
		}
		if c.HCNodes <= 0 {
			c.HCNodes = 4
		}
		if c.HCNodeConcurrency <= 0 {
			c.HCNodeConcurrency = 64
		}
	}
	return c
}

// Table6Row is one (fleet size, client concurrency) cell.
type Table6Row struct {
	Nodes    int `json:"nodes"`
	Clients  int `json:"clients"`
	Requests int `json:"requests"`
	// Gateway is the aggregate wall-clock and rate through the attested
	// gateway, balancing over every node.
	GatewayElapsed time.Duration `json:"gateway_elapsed_ns"`
	GatewayPerSec  float64       `json:"requests_per_sec_gateway"`
	// Direct is the same burst aimed at the leader node alone — the
	// serving story before the gateway existed.
	DirectElapsed time.Duration `json:"direct_elapsed_ns"`
	DirectPerSec  float64       `json:"requests_per_sec_direct"`
	// Speedup is GatewayPerSec / DirectPerSec.
	Speedup float64 `json:"speedup"`
}

// Table6Result reports the sweep plus the churn scenario.
type Table6Result struct {
	Rows []Table6Row `json:"rows"`
	// Churn: requests pushed through the gateway while ChurnReplaces
	// nodes were replaced; Failures must be zero (it is asserted during
	// the run — a non-zero count fails the experiment).
	ChurnNodes    int           `json:"churn_nodes"`
	ChurnReplaces int           `json:"churn_replaces"`
	ChurnRequests int64         `json:"churn_requests"`
	ChurnFailures int64         `json:"churn_failures"`
	ChurnElapsed  time.Duration `json:"churn_elapsed_ns"`
	ChurnPerSec   float64       `json:"requests_per_sec_churn"`
	// Overload: OverloadClients concurrent clients against a gateway
	// admitting OverloadMaxInFlight; Served completed 200, Shed were
	// refused with 503 + Retry-After (ShedRate = Shed / total). Outright
	// failures abort the experiment, so a populated result implies zero.
	OverloadClients     int           `json:"overload_clients"`
	OverloadMaxInFlight int           `json:"overload_max_in_flight"`
	OverloadServed      int64         `json:"overload_served"`
	OverloadShed        int64         `json:"overload_shed"`
	OverloadShedRate    float64       `json:"overload_shed_rate"`
	OverloadElapsed     time.Duration `json:"overload_elapsed_ns"`
	OverloadGoodput     float64       `json:"overload_goodput_per_sec"`
	// Canary: a staged rollout steers CanaryWeight percent of traffic at
	// the canary node; ObservedPct is the share it actually received
	// over the healthy burst. After the canary breaks,
	// CanaryRollbackAttempts canary-measurement attempts (and
	// CanaryRollbackLatency of wall clock) elapse before auto-rollback
	// fires; CanaryStrayAfterRollback counts requests that reached the
	// rolled-back measurement afterwards and must be zero (asserted
	// during the run, like the churn invariant).
	CanaryNodes              int           `json:"canary_nodes"`
	CanaryWeight             uint          `json:"canary_weight_pct"`
	CanaryRequests           int64         `json:"canary_requests"`
	CanaryObservedPct        float64       `json:"canary_observed_pct"`
	CanaryRollbacks          int64         `json:"canary_rollbacks"`
	CanaryRollbackAttempts   int64         `json:"canary_rollback_attempts"`
	CanaryRollbackLatency    time.Duration `json:"canary_rollback_latency_ns"`
	CanaryStrayAfterRollback int64         `json:"canary_stray_after_rollback"`
	// High-concurrency cell (populated when HCClients > 0): HCClients
	// client goroutines multiplexed over HCConns keep-alive connections
	// (the distinction is the file-descriptor budget under HCFDLimit, not
	// a concurrency cap — every goroutine has a request in flight).
	// Failures must be zero; sheds are deliberate refusals (503 +
	// Retry-After) and are reported separately. HCProxyAllocsPerOp is the
	// whole-path allocs per proxied request (gateway handler through the
	// live RA-TLS transport), measured after the load window over warm
	// pools.
	HCClients          int           `json:"hc_clients,omitempty"`
	HCConns            int           `json:"hc_conns,omitempty"`
	HCFDLimit          uint64        `json:"hc_fd_limit,omitempty"`
	HCElapsed          time.Duration `json:"hc_elapsed_ns,omitempty"`
	HCRequests         int64         `json:"hc_requests,omitempty"`
	HCFailures         int64         `json:"hc_failures,omitempty"`
	HCShed             int64         `json:"hc_shed,omitempty"`
	HCPerSec           float64       `json:"hc_requests_per_sec,omitempty"`
	HCP50              time.Duration `json:"hc_p50_ns,omitempty"`
	HCP99              time.Duration `json:"hc_p99_ns,omitempty"`
	HCProxyAllocsPerOp float64       `json:"hc_proxy_allocs_per_op,omitempty"`
	HCCPUProfile       string        `json:"hc_cpu_profile,omitempty"`
	HCHeapProfile      string        `json:"hc_heap_profile,omitempty"`
}

// boundedApp builds the per-node capacity-limited handler.
func boundedApp(concurrency int, serviceTime time.Duration) func(*core.Node) http.Handler {
	return func(*core.Node) http.Handler {
		sem := make(chan struct{}, concurrency)
		return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			sem <- struct{}{}
			defer func() { <-sem }()
			if serviceTime > 0 {
				time.Sleep(serviceTime)
			}
			_, _ = w.Write([]byte("ok"))
		})
	}
}

// webClient builds one pooled HTTPS client for a burst.
func table6Client(roots *x509.CertPool, domain string) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			TLSClientConfig: &tls.Config{
				RootCAs:            roots,
				ServerName:         domain,
				ClientSessionCache: tls.NewLRUClientSessionCache(0),
			},
			MaxIdleConnsPerHost: 256,
		},
		Timeout: 30 * time.Second,
	}
}

// burst spreads `requests` GETs for url across `clients` workers over
// one pooled client and returns the wall clock and the count served.
func burst(ctx context.Context, client *http.Client, url string, clients, requests int) (time.Duration, int, error) {
	start := time.Now()
	c := load.Burst(ctx, clients, requests, func(ctx context.Context, _ int) error {
		return load.Get(ctx, client, url, nil)
	})
	return time.Since(start), int(c.OK), unserved(c)
}

// unserved is the error for a run whose every request must be served:
// a shed falls as short as a failure there. It returns the first
// failure, ErrShed when only sheds fell short, and nil otherwise.
func unserved(c load.Counts) error {
	if c.Failed+c.Shed == 0 {
		return nil
	}
	return cmp.Or(c.Err, load.ErrShed)
}

// RunGatewayThroughput produces Table 6. Every cell stands up a live
// fleet (real boots, real provisioning, real RA-TLS upstreams) behind a
// real gateway listener and pushes the same burst through the gateway
// and directly at the leader.
func RunGatewayThroughput(cfg Table6Config) (*Table6Result, error) {
	cfg = cfg.withDefaults()
	res := &Table6Result{}
	ctx := context.Background()
	for _, n := range cfg.NodeCounts {
		if n <= 0 {
			return nil, fmt.Errorf("bench: table6: invalid node count %d", n)
		}
		if err := table6Cells(ctx, cfg, n, res); err != nil {
			return nil, fmt.Errorf("bench: table6 n=%d: %w", n, err)
		}
	}
	if err := table6Churn(ctx, cfg, res); err != nil {
		return nil, fmt.Errorf("bench: table6 churn: %w", err)
	}
	if err := table6Overload(ctx, cfg, res); err != nil {
		return nil, fmt.Errorf("bench: table6 overload: %w", err)
	}
	if err := table6Canary(ctx, cfg, res); err != nil {
		return nil, fmt.Errorf("bench: table6 canary: %w", err)
	}
	if err := table6HighConcurrency(ctx, cfg, res); err != nil {
		return nil, fmt.Errorf("bench: table6 high-concurrency: %w", err)
	}
	return res, nil
}

// table6Fleet stands up an n-node fleet with the bounded app and a
// started gateway over it.
func table6Fleet(ctx context.Context, cfg Table6Config, n int) (*fleet.Fleet, *gateway.Gateway, error) {
	f, err := fleet.New(ctx, fleet.Config{
		Nodes:  n,
		Domain: "table6.example.org",
		App:    boundedApp(cfg.NodeConcurrency, cfg.ServiceTime),
	})
	if err != nil {
		return nil, nil, err
	}
	gw, err := gateway.New(gateway.Config{
		Source:         f,
		Verifier:       f.Mux(),
		GetCertificate: f.ServingCertificate,
	})
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := gw.Start(); err != nil {
		gw.Close()
		f.Close()
		return nil, nil, err
	}
	return f, gw, nil
}

func table6Cells(ctx context.Context, cfg Table6Config, n int, res *Table6Result) error {
	f, gw, err := table6Fleet(ctx, cfg, n)
	if err != nil {
		return err
	}
	defer f.Close()
	defer gw.Close()

	var leaderAddr string
	for _, ep := range f.Endpoints().Serving() {
		if ep.Leader {
			leaderAddr = ep.WebAddr
		}
	}
	if leaderAddr == "" {
		return fmt.Errorf("no leader in the serving view")
	}
	roots := f.Deployment().CARootPool()

	// measured runs one steady-state burst: a warm-up pass first (TLS
	// handshakes client-to-gateway and gateway-to-node are connection
	// costs, not per-request costs), then the timed burst over the warm
	// pools.
	measured := func(url string, clients int) (time.Duration, int, error) {
		client := table6Client(roots, "table6.example.org")
		defer client.CloseIdleConnections()
		if _, _, err := burst(ctx, client, url, clients, clients*2); err != nil {
			return 0, 0, err
		}
		return burst(ctx, client, url, clients, cfg.Requests)
	}

	for _, clients := range cfg.Clients {
		row := Table6Row{Nodes: n, Clients: clients, Requests: cfg.Requests}

		elapsed, done, err := measured("https://"+gw.Addr()+"/", clients)
		if err != nil {
			return fmt.Errorf("gateway burst: %w", err)
		}
		row.GatewayElapsed = elapsed
		if elapsed > 0 {
			row.GatewayPerSec = float64(done) / elapsed.Seconds()
		}

		elapsed, done, err = measured("https://"+leaderAddr+"/", clients)
		if err != nil {
			return fmt.Errorf("direct burst: %w", err)
		}
		row.DirectElapsed = elapsed
		if elapsed > 0 {
			row.DirectPerSec = float64(done) / elapsed.Seconds()
		}
		if row.DirectPerSec > 0 {
			row.Speedup = row.GatewayPerSec / row.DirectPerSec
		}
		res.Rows = append(res.Rows, row)
	}
	return nil
}

// table6Churn measures serving through the gateway while nodes are
// replaced: ChurnClients request loops run for the whole duration of
// ChurnReplaces sequential ReplaceNode operations, and every failure is
// counted — the zero-failed-requests invariant, end to end through the
// proxy.
func table6Churn(ctx context.Context, cfg Table6Config, res *Table6Result) error {
	f, gw, err := table6Fleet(ctx, cfg, cfg.ChurnNodes)
	if err != nil {
		return err
	}
	defer f.Close()
	defer gw.Close()

	client := table6Client(f.Deployment().CARootPool(), "table6.example.org")
	defer client.CloseIdleConnections()

	url := "https://" + gw.Addr() + "/"
	start := time.Now()
	run := load.Start(ctx, cfg.ChurnClients, func(ctx context.Context, _ int) error {
		return load.Get(ctx, client, url, nil)
	})
	for i := 0; i < cfg.ChurnReplaces; i++ {
		if _, err := f.ReplaceNode(ctx, 0); err != nil {
			run.Stop()
			return fmt.Errorf("replace node %d: %w", i, err)
		}
	}
	c := run.Stop()
	elapsed := time.Since(start)

	res.ChurnNodes = cfg.ChurnNodes
	res.ChurnReplaces = cfg.ChurnReplaces
	res.ChurnRequests = c.Attempts
	res.ChurnFailures = c.Failed + c.Shed
	res.ChurnElapsed = elapsed
	if elapsed > 0 {
		res.ChurnPerSec = float64(c.Attempts) / elapsed.Seconds()
	}
	if err := unserved(c); err != nil {
		return fmt.Errorf("%d of %d requests failed through the gateway during churn; first: %w",
			res.ChurnFailures, res.ChurnRequests, err)
	}
	return nil
}

// overloadServiceTime is the per-request application work in the
// overload scenario — long enough that admitted work holds its slot and
// excess arrivals must be shed rather than absorbed.
const overloadServiceTime = 20 * time.Millisecond

// table6Overload measures graceful degradation under deliberate
// overload: far more concurrent clients than the gateway's admission
// bound. The invariant is the shape of the refusals — every response is
// either a served 200 or a deliberate shed (503 + Retry-After), never
// an outright failure — and goodput stays positive throughout.
func table6Overload(ctx context.Context, cfg Table6Config, res *Table6Result) error {
	f, err := fleet.New(ctx, fleet.Config{
		Nodes:  2,
		Domain: "table6.example.org",
		App:    boundedApp(cfg.OverloadMaxInFlight, overloadServiceTime),
	})
	if err != nil {
		return err
	}
	defer f.Close()
	gw, err := gateway.New(gateway.Config{
		Source:         f,
		Verifier:       f.Mux(),
		GetCertificate: f.ServingCertificate,
		Resilience:     gateway.Resilience{MaxInFlight: cfg.OverloadMaxInFlight},
	})
	if err != nil {
		return err
	}
	defer gw.Close()
	if err := gw.Start(); err != nil {
		return err
	}

	client := table6Client(f.Deployment().CARootPool(), "table6.example.org")
	defer client.CloseIdleConnections()
	url := "https://" + gw.Addr() + "/"

	get := func(ctx context.Context, _ int) error { return load.Get(ctx, client, url, nil) }
	// One untimed warm-up round per client (TLS handshakes are
	// connection costs; sheds during warm-up are fine), then the timed
	// classified burst.
	if c := load.Burst(ctx, cfg.OverloadClients, cfg.OverloadClients, get); c.Err != nil {
		return fmt.Errorf("overload warm-up failed: %w", c.Err)
	}
	start := time.Now()
	c := load.Burst(ctx, cfg.OverloadClients, cfg.OverloadRequests, get)
	elapsed := time.Since(start)

	if c.Err != nil {
		return fmt.Errorf("request failed outright under overload (want 200 or shed): %w", c.Err)
	}
	if c.OK == 0 {
		return fmt.Errorf("zero goodput under overload: shedding must degrade service, not black it out")
	}
	res.OverloadClients = cfg.OverloadClients
	res.OverloadMaxInFlight = cfg.OverloadMaxInFlight
	res.OverloadServed = c.OK
	res.OverloadShed = c.Shed
	if c.Attempts > 0 {
		res.OverloadShedRate = float64(c.Shed) / float64(c.Attempts)
	}
	res.OverloadElapsed = elapsed
	if elapsed > 0 {
		res.OverloadGoodput = float64(c.OK) / elapsed.Seconds()
	}
	return nil
}

// table6Canary measures the gateway's measurement-based canary routing
// end to end: a staged firmware rollout with one canary node, the
// observed steering share over a healthy burst, and — after the canary
// image breaks — the number of canary attempts and the wall clock until
// auto-rollback fires. The machine-independent invariants are asserted
// in-line: rollback fires exactly once, and not one request reaches the
// rolled-back measurement afterwards.
func table6Canary(ctx context.Context, cfg Table6Config, res *Table6Result) error {
	var (
		failMeas   atomic.Value // measure.Measurement served with 500s
		canaryMeas atomic.Value // the staged rollout's measurement
		canaryHits atomic.Int64
	)
	f, err := fleet.New(ctx, fleet.Config{
		Nodes:  cfg.CanaryNodes,
		Domain: "table6.example.org",
		App: func(n *core.Node) http.Handler {
			meas := n.VM.Measurement()
			return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				if cm, ok := canaryMeas.Load().(measure.Measurement); ok && cm == meas {
					canaryHits.Add(1)
				}
				if fm, ok := failMeas.Load().(measure.Measurement); ok && fm == meas {
					http.Error(w, "canary failing", http.StatusInternalServerError)
					return
				}
				_, _ = w.Write([]byte("ok"))
			})
		},
	})
	if err != nil {
		return err
	}
	defer f.Close()
	gw, err := gateway.New(gateway.Config{
		Source:         f,
		Verifier:       f.Mux(),
		GetCertificate: f.ServingCertificate,
		Routing: gateway.Routing{
			Canary: gateway.CanaryConfig{Weight: cfg.CanaryWeight, MaxFailureRate: 0.5, MinSamples: 20},
		},
	})
	if err != nil {
		return err
	}
	defer gw.Close()
	if err := gw.Start(); err != nil {
		return err
	}

	newGolden, err := f.StageFirmware(ctx, "table6-canary")
	if err != nil {
		return fmt.Errorf("stage firmware: %w", err)
	}
	canaryMeas.Store(newGolden)
	if _, err := f.AddNode(ctx); err != nil {
		return fmt.Errorf("join canary node: %w", err)
	}

	client := table6Client(f.Deployment().CARootPool(), "table6.example.org")
	defer client.CloseIdleConnections()
	url := "https://" + gw.Addr() + "/"
	one := func() (int, error) {
		resp, err := client.Get(url)
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		return resp.StatusCode, err
	}

	// Healthy phase: the steering share observed over the burst.
	for i := 0; i < cfg.CanaryRequests; i++ {
		status, err := one()
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("healthy canary request %d: status %d err %v", i, status, err)
		}
	}
	res.CanaryNodes = cfg.CanaryNodes
	res.CanaryWeight = cfg.CanaryWeight
	res.CanaryRequests = int64(cfg.CanaryRequests)
	res.CanaryObservedPct = float64(canaryHits.Load()) / float64(cfg.CanaryRequests) * 100

	// Broken phase: 500s from the canary are client-visible (the gateway
	// does not retry served responses) until the failure-rate accounting
	// trips the rollback. The rate is judged over the whole rollout, so
	// the healthy attempts above are part of the denominator.
	attemptsBefore := gw.Stats().CanaryRequests
	failMeas.Store(newGolden)
	start := time.Now()
	maxAttempts := cfg.CanaryRequests * 10
	for i := 0; ; i++ {
		if s := gw.Stats(); s.CanaryRolledBack {
			res.CanaryRollbacks = s.CanaryRollbacks
			res.CanaryRollbackAttempts = s.CanaryRequests - attemptsBefore
			res.CanaryRollbackLatency = time.Since(start)
			break
		}
		if i >= maxAttempts {
			return fmt.Errorf("auto-rollback never fired within %d requests", maxAttempts)
		}
		if _, err := one(); err != nil {
			return fmt.Errorf("broken-phase request %d: %w", i, err)
		}
	}
	if res.CanaryRollbacks != 1 {
		return fmt.Errorf("rollback fired %d times, want exactly once", res.CanaryRollbacks)
	}

	// Rolled back: every request serves from the base nodes and the
	// canary measurement receives nothing.
	strayBefore := canaryHits.Load()
	for i := 0; i < 100; i++ {
		status, err := one()
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("post-rollback request %d: status %d err %v", i, status, err)
		}
	}
	res.CanaryStrayAfterRollback = canaryHits.Load() - strayBefore
	if res.CanaryStrayAfterRollback != 0 {
		return fmt.Errorf("%d requests reached the rolled-back canary measurement", res.CanaryStrayAfterRollback)
	}
	return nil
}

// Render prints the table in the paper's layout.
func (r *Table6Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Nodes),
			fmt.Sprintf("%d", row.Clients),
			fmt.Sprintf("%.1f", row.GatewayPerSec),
			fmt.Sprintf("%.1f", row.DirectPerSec),
			fmt.Sprintf("%.2fx", row.Speedup),
		})
	}
	out := "Table 6: Attested gateway throughput (fleet-wide balancing vs direct-to-leader)\n" +
		table([]string{"Nodes", "Clients", "Gateway(req/s)", "Direct(req/s)", "Speedup"}, rows)
	out += fmt.Sprintf(
		"Churn: %d nodes, %d replacements under load: %d requests at %.1f req/s, %d failed\n",
		r.ChurnNodes, r.ChurnReplaces, r.ChurnRequests, r.ChurnPerSec, r.ChurnFailures)
	out += fmt.Sprintf(
		"Overload: %d clients vs admission bound %d: %d served, %d shed (%.0f%% shed rate), 0 failed, goodput %.1f req/s\n",
		r.OverloadClients, r.OverloadMaxInFlight, r.OverloadServed, r.OverloadShed,
		r.OverloadShedRate*100, r.OverloadGoodput)
	out += fmt.Sprintf(
		"Canary: weight %d%% observed %.1f%% over %d requests; broken canary rolled back after %d attempts in %s, %d stray requests after rollback\n",
		r.CanaryWeight, r.CanaryObservedPct, r.CanaryRequests,
		r.CanaryRollbackAttempts, r.CanaryRollbackLatency.Round(time.Millisecond), r.CanaryStrayAfterRollback)
	if r.HCClients > 0 {
		out += fmt.Sprintf(
			"High concurrency: %d clients over %d conns (fd limit %d): %d requests at %.1f req/s, p50 %s p99 %s, %d failed, %d shed, %.1f allocs/op on the proxy path\n",
			r.HCClients, r.HCConns, r.HCFDLimit, r.HCRequests, r.HCPerSec,
			r.HCP50.Round(time.Microsecond), r.HCP99.Round(time.Microsecond),
			r.HCFailures, r.HCShed, r.HCProxyAllocsPerOp)
		if r.HCCPUProfile != "" {
			out += fmt.Sprintf("High-concurrency profiles: cpu %s, heap %s\n", r.HCCPUProfile, r.HCHeapProfile)
		}
	}
	return out
}
