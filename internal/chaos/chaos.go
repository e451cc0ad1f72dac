// Package chaos is a seeded, reproducible randomized fault scheduler
// for the attested data plane. A run stands up a live fleet serving
// attested-TLS traffic through the gateway, derives a deterministic
// fault schedule from a seed, executes it — membership churn,
// certificate rotation, KDS outages and partitions, latency flaps,
// deterministic loss, policy-revision storms, crashes mid-join and
// mid-rollout, cert-expiry waves via the injected verification clock —
// and asserts the system's invariants as properties throughout:
//
//  1. Zero failed requests through every drain: traffic failures
//     outside an explicitly opened fault window are violations.
//  2. Fail-closed verification: joins during KDS unavailability must
//     fail; an expiry wave must take verification (and, after a pool
//     flush, serving) down rather than serving stale trust.
//  3. Gateway coherence: the routing table tracks the serving view,
//     ejections never reference departed endpoints, and a policy bump
//     always reaches the pools.
//  4. Clean teardown: no goroutine leaks after the run.
//
// Gray profiles (Config.Gray) add the graceful-degradation faults —
// stalled-node gray failures, overload storms, slow-drip KDS bodies —
// and three more invariants: a breaker-open node receives probes only
// (no client traffic), retry amplification never exceeds the configured
// budget, and every admitted request is answered within its propagated
// deadline (overload is shed with 503 + Retry-After, never admitted and
// then timed out).
//
// Routed profiles (Config.Routed) stand the fleet up across two
// localities with a context-aware routing policy installed — a rule
// pinning the /zone-a path class to zone-a nodes, plus canary routing —
// and add the routing faults and invariants: a broken-canary rollout
// must trip the gateway's auto-rollback exactly once and freeze all
// client traffic to the rolled-back measurement, and a zone-pinned
// request is either served in zone or refused as out of policy, never
// served out of zone (the per-node counters prove it after every
// event).
//
// A failing run's error carries the seed and the full schedule;
// re-running with the same Config reproduces the schedule byte for
// byte (`revelio-bench -chaos -chaos.seed=N`, or `go test
// ./internal/chaos -chaos.seed=N`).
package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"revelio/internal/core"
	"revelio/internal/fleet"
	"revelio/internal/gateway"
	"revelio/internal/load"
)

// chaosDomain is the service domain chaos fleets serve under.
const chaosDomain = "chaos.example.org"

// goroutineSlack tolerates lazily started process-wide singletons
// (resolver, timer, pool reapers) that outlive a single run.
const goroutineSlack = 10

// Gray-profile resilience knobs. The retry budget matches the gateway
// default so the amplification invariant (Retries <= Requests*(budget-1))
// holds for gray and plain profiles alike; the breaker and probe timings
// are tightened so trips and re-admissions happen within a run.
const (
	chaosRetryBudget = 3
	chaosMaxInFlight = 16
)

// Routed-profile topology and policy knobs: two zones round-robined
// across launches, a rule pinning the /zone-a path class to zone-a
// nodes, and canary routing tuned so a broken canary rolls back within
// an event (a third of traffic steered, judged after five attempts).
const (
	chaosZoneA            = "zone-a"
	chaosZoneB            = "zone-b"
	chaosZonePath         = "/zone-a"
	chaosCanaryWeight     = 30
	chaosCanaryMinSamples = 5
)

// errInjected marks faults the scheduler itself injected.
var errInjected = errors.New("chaos: injected fault")

// Config parameterizes one chaos run.
type Config struct {
	// Seed derives the fault schedule; the same Config replays the same
	// schedule byte for byte.
	Seed int64
	// Nodes is the initial fleet size (default 2, minimum 2).
	Nodes int
	// Events is the number of scheduled faults (default 8).
	Events int
	// Clients is the number of concurrent traffic loops driven through
	// the gateway for the whole run (default 4).
	Clients int
	// Heavy includes the rollout-class faults (full and crashed rolling
	// upgrades) — the nightly profile.
	Heavy bool
	// Gray includes the graceful-degradation faults (stalled-node gray
	// failures, overload storms, slow-drip bodies) and tightens the
	// gateway's resilience knobs so breakers trip and recover within the
	// run. Off by default so pre-existing seeds replay unchanged.
	Gray bool
	// Routed spreads the fleet across two localities, installs a
	// context-aware routing policy on the gateway (a zone-pinned path
	// class plus canary routing), and includes the routing faults
	// (broken-canary rollouts, zone bursts). Off by default so
	// pre-existing seeds replay unchanged.
	Routed bool
	// Clock injects the runner's wall-clock reads and sleeps; nil means
	// the real clock. The schedule itself never depends on it (Generate
	// is a pure function of the seed) — the clock governs the *executed*
	// run: event pacing, latency measurement, recovery waits.
	Clock *Clock
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Nodes < 2 {
		c.Nodes = 2
	}
	if c.Events <= 0 {
		c.Events = 8
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Clock == nil {
		c.Clock = realClock()
	}
	if c.Log == nil {
		c.Log = func(string, ...any) {}
	}
	return c
}

// Result reports one run's totals. It is populated even when Run
// returns an error, so callers can render what happened up to the
// failure.
type Result struct {
	Seed     int64  `json:"seed"`
	Events   int    `json:"events"`
	Schedule string `json:"schedule"`
	// Requests is the total traffic attempts through the gateway.
	Requests int64 `json:"requests"`
	// WindowedFailures failed while a fault window was open —
	// expected-possible, not violations.
	WindowedFailures int64 `json:"windowed_failures"`
	// Violations failed with no fault window open; any nonzero count
	// fails the run.
	Violations int64 `json:"violations"`
	// Shedded requests were deliberately refused with 503 + Retry-After
	// under overload — graceful degradation, not failures.
	Shedded            int64 `json:"shedded"`
	PolicyFlushes      int64 `json:"policy_flushes"`
	TruncatedResponses int64 `json:"truncated_responses"`
	// BreakerOpens counts circuit-breaker trips across the run;
	// ProbeSuccesses and ProbeFailures count the active health probes
	// that re-admit (or keep out) tripped upstreams.
	BreakerOpens   int64 `json:"breaker_opens"`
	ProbeSuccesses int64 `json:"probe_successes"`
	ProbeFailures  int64 `json:"probe_failures"`
	// CanaryRollbacks counts gateway auto-rollbacks fired by routed
	// profiles' broken-canary rollouts.
	CanaryRollbacks int64 `json:"canary_rollbacks,omitempty"`
	// PolicyRejected counts requests refused because the routing policy
	// excluded every serving endpoint (routed profiles).
	PolicyRejected int64 `json:"policy_rejected,omitempty"`
	// GoroutineDelta is the post-teardown goroutine count minus the
	// pre-run baseline.
	GoroutineDelta int `json:"goroutine_delta"`
}

// nodeApp is the per-node application the chaos fleet serves: a plain
// "ok" responder with fault seams the ops flip — a stall switch
// (connection completes, response never comes), a per-request delay for
// overload storms, and a failing switch that serves 500s for the
// broken-canary rollout (health excluded, so the failure mode is the
// application's, not the transport's — breakers stay closed and the
// gateway's canary accounting, not its breaker, must catch it). The
// stall seam is the node's catch-all, so a stalled app stalls its
// health probes too: re-admission genuinely requires the application to
// answer again.
type nodeApp struct {
	locality  string
	sleep     func(time.Duration) // the run's clock seam, for delay
	stalled   atomic.Bool
	failing   atomic.Bool
	delay     atomic.Int64 // per-request service time, nanoseconds
	hits      atomic.Int64 // non-probe requests reaching the app
	zoneAHits atomic.Int64 // non-probe requests under the zone-pinned path
}

func (a *nodeApp) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != fleet.HealthPath {
		a.hits.Add(1)
		if strings.HasPrefix(r.URL.Path, chaosZonePath) {
			a.zoneAHits.Add(1)
		}
	}
	if a.stalled.Load() {
		<-r.Context().Done()
		return
	}
	if a.failing.Load() && r.URL.Path != fleet.HealthPath {
		http.Error(w, "chaos: injected canary failure", http.StatusInternalServerError)
		return
	}
	if d := a.delay.Load(); d > 0 {
		a.sleep(time.Duration(d))
	}
	_, _ = w.Write([]byte("ok"))
}

// run is the live harness: fleet + gateway + traffic.
type run struct {
	cfg     Config
	clock   *Clock
	f       *fleet.Fleet
	gw      *gateway.Gateway
	tr      *traffic
	rollVer int

	appMu sync.Mutex
	apps  map[string]*nodeApp // keyed by node ControlURL
}

// app returns the application serving the node at ctl, nil if unknown.
func (r *run) app(ctl string) *nodeApp {
	r.appMu.Lock()
	defer r.appMu.Unlock()
	return r.apps[ctl]
}

// appList snapshots every registered application (including ones whose
// node has since departed — flipping their seams is harmless).
func (r *run) appList() []*nodeApp {
	r.appMu.Lock()
	defer r.appMu.Unlock()
	out := make([]*nodeApp, 0, len(r.apps))
	for _, a := range r.apps {
		out = append(out, a)
	}
	return out
}

func newRun(ctx context.Context, cfg Config) (*run, error) {
	r := &run{cfg: cfg, clock: cfg.Clock, apps: make(map[string]*nodeApp)}
	var localities []string
	if cfg.Routed {
		localities = []string{chaosZoneA, chaosZoneB}
	}
	f, err := fleet.New(ctx, fleet.Config{
		Nodes:      cfg.Nodes,
		Domain:     chaosDomain,
		Localities: localities,
		App: func(n *core.Node) http.Handler {
			a := &nodeApp{locality: n.Locality(), sleep: r.clock.Sleep}
			r.appMu.Lock()
			r.apps[n.ControlURL()] = a
			r.appMu.Unlock()
			return a
		},
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	var res gateway.Resilience
	if cfg.Gray {
		res = gateway.Resilience{
			RetryBudget:     chaosRetryBudget,
			PerTryTimeout:   500 * time.Millisecond,
			BackoffBase:     2 * time.Millisecond,
			BackoffMax:      20 * time.Millisecond,
			BreakerFailures: 3,
			BreakerOpenFor:  200 * time.Millisecond,
			ProbeInterval:   50 * time.Millisecond,
			MaxInFlight:     chaosMaxInFlight,
		}
	}
	var routing gateway.Routing
	if cfg.Routed {
		routing = gateway.Routing{
			Rules: []gateway.RouteRule{{
				Name:       "zone-pinned",
				PathPrefix: chaosZonePath,
				Localities: []string{chaosZoneA},
			}},
			Canary: gateway.CanaryConfig{
				Weight:         chaosCanaryWeight,
				MaxFailureRate: 0.5,
				MinSamples:     chaosCanaryMinSamples,
			},
		}
	}
	gw, err := gateway.New(gateway.Config{
		Source:         f,
		Verifier:       f.Mux(),
		GetCertificate: f.ServingCertificate,
		Resilience:     res,
		Routing:        routing,
	})
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("gateway: %w", err)
	}
	if err := gw.Start(); err != nil {
		gw.Close()
		f.Close()
		return nil, fmt.Errorf("gateway start: %w", err)
	}
	r.f, r.gw = f, gw
	r.tr = startTraffic(ctx, "https://"+gw.Addr()+"/", f.Deployment().CARootPool(), chaosDomain, cfg.Clients, r.clock)
	return r, nil
}

func (r *run) teardown() {
	_, _, _, _, _ = r.tr.halt()
	r.gw.Close()
	r.f.Close()
}

// Run executes the schedule derived from cfg against a live data plane
// and checks every invariant. The returned Result is always populated;
// a non-nil error carries the seed and schedule for exact replay.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	sched := Generate(cfg)
	res := &Result{Seed: cfg.Seed, Events: len(sched.Events), Schedule: sched.String()}
	fail := func(step int, op Op, err error) error {
		return fmt.Errorf("chaos: seed %d: %s at event %d: %v\nreplay with -chaos.seed=%d\n%s",
			cfg.Seed, op, step, err, cfg.Seed, strings.TrimRight(res.Schedule, "\n"))
	}

	baseline := runtime.NumGoroutine()
	r, err := newRun(ctx, cfg)
	if err != nil {
		return res, fmt.Errorf("chaos: seed %d: setup: %w", cfg.Seed, err)
	}

	for _, ev := range sched.Events {
		if err := ctx.Err(); err != nil {
			r.teardown()
			return res, fail(ev.Step, ev.Op, err)
		}
		if ev.Pause > 0 {
			cfg.Clock.Sleep(ev.Pause)
		}
		cfg.Log("chaos seed %d: [%02d] %s arg=%d", cfg.Seed, ev.Step, ev.Op, ev.Arg)
		if err := r.execute(ctx, ev); err != nil {
			r.teardown()
			return res, fail(ev.Step, ev.Op, err)
		}
		if err := r.coherent(); err != nil {
			r.teardown()
			return res, fail(ev.Step, ev.Op, err)
		}
	}

	// Final reconcile and probes: the fleet verifies end to end, one
	// more policy bump clears any residual ejections, and the gateway
	// serves steadily with a clean estate.
	finalStep := len(sched.Events)
	if err := r.f.VerifyFleet(ctx); err != nil {
		r.teardown()
		return res, fail(finalStep, "final-verify", err)
	}
	r.f.Deployment().Verifier.InvalidatePolicy()
	if err := r.probeServes(ctx, 3, 10*time.Second); err != nil {
		r.teardown()
		return res, fail(finalStep, "final-serve", err)
	}
	if s := r.gw.Stats(); len(s.Ejected) != 0 {
		r.teardown()
		return res, fail(finalStep, "final-eject", fmt.Errorf("ejections survived reconciliation: %v", s.Ejected))
	}
	// With every fault healed, open breakers must drain: the active
	// probes re-admit each node, leaving no upstream out of rotation.
	if err := r.waitGateway(10*time.Second, func(s gateway.Stats) bool {
		return len(s.BreakerOpen) == 0
	}, "breakers never re-closed after the last fault healed"); err != nil {
		r.teardown()
		return res, fail(finalStep, "final-breaker", err)
	}

	gwStats := r.gw.Stats()
	res.PolicyFlushes = gwStats.PolicyFlushes
	res.TruncatedResponses = gwStats.TruncatedResponses
	res.BreakerOpens = gwStats.BreakerOpens
	res.ProbeSuccesses = gwStats.ProbeSuccesses
	res.ProbeFailures = gwStats.ProbeFailures
	res.CanaryRollbacks = gwStats.CanaryRollbacks
	res.PolicyRejected = gwStats.PolicyRejected
	total, windowed, shedded, violations, firstViolation := r.tr.halt()
	res.Requests, res.WindowedFailures, res.Violations = total, windowed, violations
	res.Shedded = shedded

	// Retry amplification is bounded by the budget, not fleet size: the
	// gateway may add at most budget-1 extra attempts per admitted
	// request, whatever the schedule did to the fleet.
	if maxRetries := gwStats.Requests * int64(chaosRetryBudget-1); gwStats.Retries > maxRetries {
		r.teardown()
		return res, fail(finalStep, "amplification",
			fmt.Errorf("%d retries for %d admitted requests exceeds the budget-%d bound of %d",
				gwStats.Retries, gwStats.Requests, chaosRetryBudget, maxRetries))
	}
	r.teardown()

	if violations > 0 {
		return res, fail(finalStep, "traffic",
			fmt.Errorf("%d of %d requests failed outside any fault window; first: %v", violations, total, firstViolation))
	}

	// Leak probe: teardown must return the process to its baseline.
	deadline := cfg.Clock.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		res.GoroutineDelta = n - baseline
		if n <= baseline+goroutineSlack {
			break
		}
		if cfg.Clock.Now().After(deadline) {
			return res, fail(finalStep, "teardown",
				fmt.Errorf("goroutine leak: %d before, %d after teardown", baseline, n))
		}
		cfg.Clock.Sleep(50 * time.Millisecond)
	}
	return res, nil
}

// execute injects one scheduled fault and asserts its local invariants.
func (r *run) execute(ctx context.Context, ev Event) error {
	switch ev.Op {
	case OpAddNode:
		_, err := r.f.AddNode(ctx)
		return err
	case OpRemoveNode:
		return r.f.RemoveNode(ctx, ev.Arg%r.f.Size())
	case OpRotateCerts:
		_, err := r.f.RotateCertificates(ctx)
		return err
	case OpKDSFlap:
		return r.failClosedOutage(ctx,
			func() { r.f.FailKDS(errInjected) },
			func() { r.f.RestoreKDS() })
	case OpKDSPartition:
		net := r.f.Deployment().KDSNet()
		host := strings.TrimPrefix(r.f.Deployment().KDSURL(), "http://")
		return r.failClosedOutage(ctx,
			func() { net.Partition(errInjected, host) },
			func() { net.HealPartition() })
	case OpLatencyFlap:
		net := r.f.Deployment().KDSNet()
		net.SetRTT(time.Duration(ev.Arg) * time.Millisecond)
		err := r.f.VerifyFleet(ctx)
		net.ClearRTT()
		return err
	case OpLossBurst:
		net := r.f.Deployment().KDSNet()
		net.SetLoss(ev.Arg)
		// Cached verification must ride out KDS-path loss untouched.
		err := r.f.VerifyFleet(ctx)
		net.SetLoss(0)
		return err
	case OpPolicyStorm:
		return r.policyStorm(ctx, ev.Arg)
	case OpCrashJoin:
		return r.crashJoin(ctx, ev.Arg)
	case OpExpiryWave:
		return r.expiryWave(ctx)
	case OpCrashRollout:
		return r.crashRollout(ctx)
	case OpRollout:
		r.rollVer++
		_, err := r.f.RollOut(ctx, fmt.Sprintf("chaos-%d-%d", r.cfg.Seed, r.rollVer))
		return err
	case OpGrayFailure:
		return r.grayFailure(ctx, ev.Arg)
	case OpOverloadStorm:
		return r.overloadStorm(ctx, ev.Arg)
	case OpSlowDrip:
		net := r.f.Deployment().KDSNet()
		net.SetDrip(time.Duration(ev.Arg) * time.Millisecond)
		// Cached verification must ride out crawling KDS bodies just as
		// it rides out loss: slow-but-alive is not an outage.
		err := r.f.VerifyFleet(ctx)
		net.ClearDrip()
		return err
	case OpCanaryRollout:
		return r.canaryRollout(ctx)
	case OpZoneBurst:
		return r.zoneBurst(ctx, ev.Arg)
	default:
		return fmt.Errorf("unknown op %q", ev.Op)
	}
}

// waitGateway polls the gateway's stats until cond holds or the wait
// expires.
func (r *run) waitGateway(within time.Duration, cond func(gateway.Stats) bool, msg string) error {
	deadline := r.clock.Now().Add(within)
	for {
		if cond(r.gw.Stats()) {
			return nil
		}
		if r.clock.Now().After(deadline) {
			return errors.New(msg)
		}
		r.clock.Sleep(5 * time.Millisecond)
	}
}

func containsAddr(addrs []string, addr string) bool {
	for _, a := range addrs {
		if a == addr {
			return true
		}
	}
	return false
}

// grayFailure stalls one serving node's application — connections
// complete, responses never come — and asserts the graceful-degradation
// invariants end to end: the node's breaker trips on per-attempt
// timeouts while client traffic fails over with no fault window open;
// while the breaker is open the node sees probes only; and once the
// application answers again, a successful probe (not client traffic)
// re-admits it.
func (r *run) grayFailure(ctx context.Context, which int) error {
	serving := r.f.Endpoints().Serving()
	if len(serving) < 2 {
		return nil // need a healthy peer to absorb the failover
	}
	ep := serving[which%len(serving)]
	app := r.app(ep.ControlURL)
	if app == nil {
		return fmt.Errorf("no chaos app registered for node %s", ep.ControlURL)
	}
	app.stalled.Store(true)
	unstalled := false
	defer func() {
		if !unstalled {
			app.stalled.Store(false)
		}
	}()

	// Concurrent traffic keeps flowing: every attempt at the stalled
	// node burns one per-try budget and fails over, so the breaker must
	// trip without a single client-visible failure.
	if err := r.waitGateway(10*time.Second, func(s gateway.Stats) bool {
		return containsAddr(s.BreakerOpen, ep.UpstreamAddr)
	}, "breaker never opened for stalled node "+ep.UpstreamAddr); err != nil {
		return err
	}

	// Breaker-open means probes only. Let attempts dispatched before the
	// trip land, then require the app's client-request counter to hold
	// still (health probes are excluded from the counter).
	r.clock.Sleep(100 * time.Millisecond)
	before := app.hits.Load()
	r.clock.Sleep(300 * time.Millisecond)
	if after := app.hits.Load(); after != before {
		return fmt.Errorf("breaker-open node received %d client requests (want probes only)", after-before)
	}

	// Recovery is the probes' decision: unstall, and the node must leave
	// the open set via a successful probe, then carry traffic again.
	app.stalled.Store(false)
	unstalled = true
	if err := r.waitGateway(10*time.Second, func(s gateway.Stats) bool {
		return !containsAddr(s.BreakerOpen, ep.UpstreamAddr) && s.ProbeSuccesses > 0
	}, "probe never re-admitted recovered node "+ep.UpstreamAddr); err != nil {
		return err
	}
	return r.probeServes(ctx, 3, 10*time.Second)
}

// overloadStorm slows every node and fires a burst of concurrent
// deadline-tagged requests far past the gateway's admission bound. The
// invariant is the shape of degradation: every response is either a
// success inside its deadline or a deliberate shed (503 + Retry-After)
// — never an outright failure, and never an admitted request that the
// gateway then lets blow its deadline.
func (r *run) overloadStorm(ctx context.Context, extra int) error {
	const (
		serviceTime = 75 * time.Millisecond
		stormMillis = "5000"
		stormSlack  = time.Second
	)
	apps := r.appList()
	for _, a := range apps {
		a.delay.Store(int64(serviceTime))
	}
	defer func() {
		for _, a := range apps {
			a.delay.Store(0)
		}
	}()

	n := 48 + extra
	hdr := http.Header{gateway.DeadlineHeader: {stormMillis}}
	var late atomic.Int64
	c := load.Burst(ctx, n, n, func(ctx context.Context, _ int) error {
		start := r.clock.Now()
		err := load.Get(ctx, r.tr.client, r.tr.url, hdr)
		if err == nil && r.clock.Since(start) > 5*time.Second+stormSlack {
			late.Add(1)
		}
		return err
	})
	r.cfg.Log("chaos seed %d: overload storm: %d ok, %d shed, %d failed of %d",
		r.cfg.Seed, c.OK, c.Shed, c.Failed, n)
	if c.Failed > 0 {
		return fmt.Errorf("overload storm: %d of %d requests failed outright (want success or shed); first: %v",
			c.Failed, n, c.Err)
	}
	if c.OK == 0 {
		return errors.New("overload storm: zero goodput — shedding must degrade service, not black it out")
	}
	if l := late.Load(); l > 0 {
		return fmt.Errorf("overload storm: %d admitted requests blew their %sms deadline", l, stormMillis)
	}
	// The storm must leave no residue: restore full speed and require
	// steady serving.
	for _, a := range apps {
		a.delay.Store(0)
	}
	return r.probeServes(ctx, 3, 10*time.Second)
}

// failClosedOutage asserts the fail-closed join invariant under a KDS
// fault: a join must fail and roll back, while already-proven evidence
// keeps verifying from the caches. heal always runs.
func (r *run) failClosedOutage(ctx context.Context, induce, heal func()) error {
	size := r.f.Size()
	induce()
	defer heal()
	if _, err := r.f.AddNode(ctx); err == nil {
		return errors.New("join succeeded during KDS unavailability (fail-open)")
	}
	if got := r.f.Size(); got != size {
		return fmt.Errorf("failed join changed fleet size: %d -> %d", size, got)
	}
	if err := r.f.VerifyFleet(ctx); err != nil {
		return fmt.Errorf("cached verification failed during KDS fault: %w", err)
	}
	return nil
}

// policyStorm bumps the policy revision `bumps` times and asserts the
// gateway observes the epoch move — pools flush — and keeps serving.
func (r *run) policyStorm(ctx context.Context, bumps int) error {
	if bumps < 1 {
		bumps = 1
	}
	before := r.gw.Stats().PolicyFlushes
	for i := 0; i < bumps; i++ {
		r.f.Deployment().Verifier.InvalidatePolicy()
	}
	if err := r.probeServes(ctx, 1, 5*time.Second); err != nil {
		return err
	}
	if after := r.gw.Stats().PolicyFlushes; after <= before {
		return fmt.Errorf("policy storm did not flush pools: flushes %d -> %d", before, after)
	}
	return nil
}

// crashJoin crashes a join at one of its crash points and asserts the
// rollback leaves the fleet at its old size and fully serviceable.
func (r *run) crashJoin(ctx context.Context, which int) error {
	points := []fleet.CrashPoint{fleet.CrashJoinAfterLaunch, fleet.CrashJoinAfterProvision}
	point := points[which%len(points)]
	size := r.f.Size()
	r.f.SetCrashHook(func(p fleet.CrashPoint) error {
		if p == point {
			return errInjected
		}
		return nil
	})
	_, err := r.f.AddNode(ctx)
	r.f.SetCrashHook(nil)
	if !errors.Is(err, errInjected) {
		return fmt.Errorf("crashed join at %s returned %v, want injected fault", point, err)
	}
	if got := r.f.Size(); got != size {
		return fmt.Errorf("crash at %s changed fleet size: %d -> %d", point, size, got)
	}
	return r.f.VerifyFleet(ctx)
}

// expiryWave skews the verification clock past every credential's
// validity: fleet verification must fail expired, a pool flush must
// take gateway serving down (fail closed end to end), and restoring the
// clock plus one policy bump must bring serving back.
func (r *run) expiryWave(ctx context.Context) error {
	const skew = 25 * 365 * 24 * time.Hour
	r.tr.openWindow()
	defer r.tr.closeWindow()
	r.f.SetClockSkew(skew)
	restored := false
	defer func() {
		if !restored {
			r.f.SetClockSkew(0)
		}
	}()

	err := r.f.VerifyFleet(ctx)
	if err == nil {
		return errors.New("fleet verified with every credential expired (fail-open)")
	}
	if !errors.Is(err, attestationExpired) {
		return fmt.Errorf("expiry wave failed with the wrong error: %v", err)
	}
	// Flush the warm pools: re-proving under the skewed clock must fail.
	// Connections that were busy at flush time can drain a few more
	// requests, but every fresh handshake fails and ejects its node, so
	// the gateway must stop serving within the window — observing even
	// one refused request proves fail-closed reached the data plane.
	r.f.Deployment().Verifier.InvalidatePolicy()
	refuseBy := r.clock.Now().Add(10 * time.Second)
	for {
		status, err := r.get(ctx)
		if err != nil || status != http.StatusOK {
			break
		}
		if r.clock.Now().After(refuseBy) {
			return errors.New("gateway kept serving with every upstream credential expired (fail-open)")
		}
		r.clock.Sleep(5 * time.Millisecond)
	}

	// Recovery: clock restored, one more bump reinstates the estate.
	r.f.SetClockSkew(0)
	restored = true
	r.f.Deployment().Verifier.InvalidatePolicy()
	return r.probeServes(ctx, 3, 10*time.Second)
}

// crashRollout crashes a rolling upgrade between replacements, asserts
// the mixed-measurement fleet still verifies, and resumes the roll to
// completion.
func (r *run) crashRollout(ctx context.Context) error {
	r.rollVer++
	version := fmt.Sprintf("chaos-%d-%d", r.cfg.Seed, r.rollVer)
	var fired atomic.Bool
	r.f.SetCrashHook(func(p fleet.CrashPoint) error {
		if p == fleet.CrashRolloutMidReplace && fired.CompareAndSwap(false, true) {
			return errInjected
		}
		return nil
	})
	_, err := r.f.RollOut(ctx, version)
	r.f.SetCrashHook(nil)
	if !errors.Is(err, errInjected) {
		return fmt.Errorf("crashed rollout returned %v, want injected fault", err)
	}
	if err := r.f.VerifyFleet(ctx); err != nil {
		return fmt.Errorf("mixed fleet after rollout crash failed verification: %w", err)
	}
	return r.finishRollout(ctx)
}

// canaryRollout drives a broken canary through the gateway's routing
// policy, end to end: stage a firmware image (the fleet publishes the
// rollout context), join a canary node on the new measurement, break
// its application while concurrent traffic is steered at it, and
// require the gateway to (1) fire its measurement-based auto-rollback
// exactly once, (2) stop routing any client traffic to the rolled-back
// measurement — the canary app's hit counter must hold still — and then
// (3) recover through the emergency runbook in order: retire the canary
// node, abort the rollout (revoking the canary measurement), and verify
// the surviving fleet. The canary's 500s are client-visible by design
// (the gateway does not retry served responses), so they happen inside
// an open fault window.
func (r *run) canaryRollout(ctx context.Context) error {
	r.rollVer++
	version := fmt.Sprintf("chaos-canary-%d-%d", r.cfg.Seed, r.rollVer)
	newGolden, err := r.f.StageFirmware(ctx, version)
	if err != nil {
		return fmt.Errorf("stage canary firmware: %w", err)
	}
	idx, err := r.f.AddNode(ctx)
	if err != nil {
		return fmt.Errorf("join canary node: %w", err)
	}
	ctl := r.f.Deployment().Nodes[idx].ControlURL()
	app := r.app(ctl)
	if app == nil {
		return fmt.Errorf("no chaos app registered for canary node %s", ctl)
	}
	rollbacksBefore := r.gw.Stats().CanaryRollbacks

	// Break the canary under the concurrent traffic that the canary
	// config steers at it. Its 500s surface to clients until the
	// rollback fires, so the window stays open until the app is healed.
	r.tr.openWindow()
	app.failing.Store(true)
	err = r.waitGateway(20*time.Second, func(s gateway.Stats) bool {
		return s.CanaryRollbacks > rollbacksBefore
	}, "canary auto-rollback never fired for measurement "+newGolden.String())
	app.failing.Store(false)
	r.tr.closeWindow()
	if err != nil {
		return err
	}

	// Rolled back: the canary measurement is excluded as hard as a rule.
	// Let attempts dispatched before the rollback land, then require the
	// canary app's client-request counter to hold still under continuing
	// traffic (probes are excluded from the counter).
	r.clock.Sleep(100 * time.Millisecond)
	before := app.hits.Load()
	if err := r.probeServes(ctx, 5, 10*time.Second); err != nil {
		return err
	}
	r.clock.Sleep(200 * time.Millisecond)
	if after := app.hits.Load(); after != before {
		return fmt.Errorf("rolled-back canary node received %d client requests (want none)", after-before)
	}
	if got := r.gw.Stats().CanaryRollbacks; got != rollbacksBefore+1 {
		return fmt.Errorf("canary rollback fired %d times this rollout, want exactly once", got-rollbacksBefore)
	}

	// Emergency runbook, in order: canary nodes out first, then abort
	// (which revokes the canary measurement), then verify end to end.
	for {
		idx := -1
		for i, n := range r.f.Deployment().Nodes {
			if n.VM.Measurement() == newGolden {
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		if err := r.f.RemoveNode(ctx, idx); err != nil {
			return fmt.Errorf("retire canary node: %w", err)
		}
	}
	if err := r.f.AbortRollOut(ctx); err != nil {
		return fmt.Errorf("abort canary rollout: %w", err)
	}
	if err := r.f.VerifyFleet(ctx); err != nil {
		return fmt.Errorf("fleet failed verification after canary abort: %w", err)
	}
	return r.probeServes(ctx, 3, 10*time.Second)
}

// zoneBurst fires a burst of requests at the zone-pinned path class.
// Each is either served (by an in-zone node — the coherence check's
// per-node counters prove that) or refused as out of policy when no
// zone-a node is serving; any other outcome is a violation. The burst
// runs outside any fault window: zone pinning must hold under whatever
// the schedule last did to the fleet.
func (r *run) zoneBurst(ctx context.Context, extra int) error {
	n := 20 + extra
	var served, denied int
	for i := 0; i < n; i++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			r.tr.url+strings.TrimPrefix(chaosZonePath, "/"), nil)
		if err != nil {
			return fmt.Errorf("zone burst request %d: %w", i, err)
		}
		resp, err := r.tr.client.Do(req)
		if err != nil {
			return fmt.Errorf("zone burst request %d: %w", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			served++
		case resp.StatusCode == http.StatusServiceUnavailable &&
			strings.Contains(string(body), gateway.ErrNoPolicyUpstreams.Error()):
			denied++
		default:
			return fmt.Errorf("zone burst request %d: status %d body %q (want 200 in zone or policy 503)",
				i, resp.StatusCode, body)
		}
	}
	r.cfg.Log("chaos seed %d: zone burst: %d served in zone, %d refused out of policy of %d",
		r.cfg.Seed, served, denied, n)
	if served+denied != n {
		return fmt.Errorf("zone burst accounted for %d of %d requests", served+denied, n)
	}
	return nil
}

// finishRollout replaces every node still on an old measurement and
// commits the staged rollout.
func (r *run) finishRollout(ctx context.Context) error {
	d := r.f.Deployment()
	for {
		idx := -1
		golden := r.f.Golden()
		for i, n := range d.Nodes {
			if n.VM.Measurement() != golden {
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		if _, err := r.f.ReplaceNode(ctx, idx); err != nil {
			return fmt.Errorf("resume rollout: %w", err)
		}
	}
	if err := r.f.CommitRollOut(); err != nil {
		return fmt.Errorf("commit resumed rollout: %w", err)
	}
	return r.f.VerifyFleet(ctx)
}
