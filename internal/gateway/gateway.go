// Package gateway is Revelio's attested data plane: a TLS-terminating
// reverse proxy that turns N attested nodes into one scalable service.
//
// Downstream, the gateway serves the fleet's shared CA-issued
// certificate (resolved per handshake, so rotations propagate), which
// keeps the end-to-end client story intact: a browser running the
// Revelio extension still pins the attested TLS key and still gets its
// attestation bundle — proxied from a real node — bound to that same
// key.
//
// Upstream, every connection is RA-TLS: the transport dials the nodes'
// upstream listeners and verifies, per handshake, the attestation
// evidence embedded in their certificates through an attestation
// verifier — usually an attestation.Mux, so a mixed-provider fleet
// proxies through one gateway. Verification is fail-closed: a node
// whose evidence stops verifying (revoked measurement, expired
// evidence, unknown provider) is ejected from rotation, and a bump of
// any provider's policy revision flushes the connection pools so
// already-established upstreams re-prove themselves.
//
// Routing is context-aware and runs in four tiers per attempt: the
// policy filter (Config.Routing — hard rule constraints over the
// snapshot's TCB, provider and locality context, plus canary routing
// during a staged rollout), then attestation ejection, then the circuit
// breaker, then least-pending-requests with round-robin tie-breaking
// over the survivors. The serving view is published by a Source (the
// fleet engine, or any snapshot publisher). Each proxied request holds
// the source's admission (Source.Acquire) for its lifetime, which is
// the same mechanism behind the fleet's zero-failed-request drain: a
// lifecycle operation waits for admitted requests before closing a
// node, so churn never surfaces as a failed request through the proxy.
//
// Degradation is governed by the resilience layer (see Resilience):
// each upstream carries a circuit breaker fed by passive
// failure/latency observation and re-closed only by an active RA-TLS
// health probe, so transport-failed and gray-failed (slow-but-alive)
// nodes leave rotation globally — distinct from, and composing with,
// the fail-closed attestation ejection. Retries are paced by
// exponential backoff with jitter under a fixed attempt budget, every
// attempt gets its own response-header deadline carved from the request
// deadline, and bounded in-flight admission sheds overload with 503 +
// Retry-After instead of queueing behind the serving-view lock.
package gateway

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"revelio/attestation"
	"revelio/internal/fleet"
	"revelio/internal/ratls"
	"revelio/internal/resilience"
)

var (
	// ErrNoUpstreams reports a request that found no healthy serving
	// endpoint to route to.
	ErrNoUpstreams = errors.New("gateway: no healthy upstream endpoints")
	// ErrClosed reports use of a closed gateway.
	ErrClosed = errors.New("gateway: closed")
)

// DeadlineHeader carries a request's remaining deadline budget in
// integer milliseconds. Inbound, a client (or an upstream gateway) sets
// it to bound the whole proxied request; outbound, the gateway rewrites
// it per attempt to that attempt's carved budget, so nodes — and nested
// gateways — can shed work the caller has already given up on.
const DeadlineHeader = "Revelio-Deadline-Ms"

// Source publishes the serving view the gateway routes over. The fleet
// engine implements it; View adapts any other membership owner.
type Source interface {
	// Acquire admits one request: it returns the current snapshot and a
	// release func the caller invokes when the request completes.
	// Membership mutations must wait for admitted requests (the drain).
	Acquire() (fleet.Snapshot, func())
	// Subscribe returns a channel of view changes (latest-wins
	// coalescing) and a cancel func.
	Subscribe() (<-chan fleet.Snapshot, func())
}

// Resilience configures the gateway's graceful-degradation layer. The
// zero value means "all defaults"; every knob has one.
type Resilience struct {
	// RetryBudget caps upstream attempts per request, first attempt
	// included (default 3). This — not the fleet size — bounds the
	// worst-case attempt amplification of one client request.
	RetryBudget int
	// PerTryTimeout bounds one attempt's dial + request + response
	// headers (default 2s). It is also installed as the transport's
	// ResponseHeaderTimeout, so a node that accepts the connection and
	// never answers fails the attempt instead of stalling the client.
	PerTryTimeout time.Duration
	// RequestTimeout bounds a whole proxied request when the client sent
	// no DeadlineHeader (default 15s).
	RequestTimeout time.Duration
	// BackoffBase and BackoffMax shape the exponential equal-jitter
	// backoff between attempts (defaults 5ms and 100ms).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerFailures is how many consecutive failed (or slow) attempts
	// open an upstream's circuit breaker (default 3).
	BreakerFailures int
	// BreakerSlow, when positive, additionally counts successful
	// attempts slower than this toward the trip — the gray-failure
	// detector. Zero (the default) disables latency tripping.
	BreakerSlow time.Duration
	// BreakerOpenFor is the open-state dwell before an active health
	// probe may run (default 500ms).
	BreakerOpenFor time.Duration
	// ProbeInterval paces the background probe loop that re-admits
	// breaker-open upstreams (default 250ms).
	ProbeInterval time.Duration
	// ProbePath is the upstream health endpoint probed over RA-TLS
	// (default fleet.HealthPath). Probes ride the same attested
	// transport as traffic, so a node whose evidence stopped verifying
	// cannot probe its way back into rotation.
	ProbePath string
	// MaxInFlight bounds concurrently admitted requests per gateway
	// (default 1024); beyond it requests shed with 503 + Retry-After.
	MaxInFlight int
	// MaxPerUpstream bounds in-flight attempts per upstream (default
	// 256); a node at its bound is skipped like an unhealthy one.
	MaxPerUpstream int
	// MinDeadline is the smallest remaining deadline worth an upstream
	// attempt (default 5ms); below it the request sheds instead.
	MinDeadline time.Duration
	// Rand is the backoff jitter source returning values in [0, 1), and
	// Now the breaker dwell clock — both injectable so chaos schedules
	// and tests replay deterministically (defaults math/rand.Float64 and
	// time.Now).
	Rand func() float64
	Now  func() time.Time
}

func (r Resilience) withDefaults() Resilience {
	if r.RetryBudget <= 0 {
		r.RetryBudget = 3
	}
	if r.PerTryTimeout <= 0 {
		r.PerTryTimeout = 2 * time.Second
	}
	if r.RequestTimeout <= 0 {
		r.RequestTimeout = 15 * time.Second
	}
	if r.BackoffBase <= 0 {
		r.BackoffBase = 5 * time.Millisecond
	}
	if r.BackoffMax <= 0 {
		r.BackoffMax = 100 * time.Millisecond
	}
	if r.BreakerFailures <= 0 {
		r.BreakerFailures = 3
	}
	if r.BreakerOpenFor <= 0 {
		r.BreakerOpenFor = 500 * time.Millisecond
	}
	if r.ProbeInterval <= 0 {
		r.ProbeInterval = 250 * time.Millisecond
	}
	if r.ProbePath == "" {
		r.ProbePath = fleet.HealthPath
	}
	if r.MaxInFlight <= 0 {
		r.MaxInFlight = 1024
	}
	if r.MaxPerUpstream <= 0 {
		r.MaxPerUpstream = 256
	}
	if r.MinDeadline <= 0 {
		r.MinDeadline = 5 * time.Millisecond
	}
	if r.Now == nil {
		r.Now = time.Now //revelio:allow timeseam the gateway clock seam's single real-time default
	}
	return r
}

// Config describes a gateway.
type Config struct {
	// Source publishes the serving view (required).
	Source Source
	// Verifier judges upstream RA-TLS evidence — typically the fleet's
	// attestation.Mux, so every registered provider's nodes are
	// dialable (required).
	Verifier attestation.Verifier
	// GetCertificate resolves the downstream serving certificate per
	// handshake (required for Start; ServeHTTP alone works without).
	// Fleet.ServingCertificate is the usual implementation.
	GetCertificate func() (*tls.Certificate, error)
	// MaxIdleConnsPerHost bounds the warm connection pool per node
	// (default 64).
	MaxIdleConnsPerHost int
	// DialTimeout bounds one upstream dial+handshake (default 10s).
	DialTimeout time.Duration
	// WriteTimeout bounds writing one response to a downstream client
	// (default 30s). A proxied request holds the serving-view admission
	// for its lifetime — that is the zero-failed-request drain — so
	// this timeout is also the longest a stalled client can delay a
	// fleet lifecycle operation.
	WriteTimeout time.Duration
	// Resilience tunes circuit breaking, retry budgets, deadlines, and
	// load shedding; the zero value takes every default.
	Resilience Resilience
	// Routing configures the context-aware policy layer: hard rules
	// (TCB floors, provider and locality constraints by path class),
	// per-provider traffic splits, and measurement-based canary routing
	// with auto-rollback. The zero value disables the layer.
	Routing Routing
}

// upstream is the gateway's routing state for one endpoint.
type upstream struct {
	ep      fleet.Endpoint
	pending atomic.Int64
	ejected atomic.Bool
	breaker *resilience.Breaker
}

// Stats is a point-in-time picture of the data plane.
type Stats struct {
	// Requests counts proxied requests admitted so far (shed requests
	// are refused before admission and do not count here).
	Requests int64
	// Retries counts upstream attempts beyond each request's first.
	Retries int64
	// SheddedRequests counts requests refused with 503 + Retry-After by
	// admission control or deadline-aware shedding.
	SheddedRequests int64
	// BreakerOpens counts closed→open circuit-breaker trips.
	BreakerOpens int64
	// ProbeSuccesses and ProbeFailures count active health probes sent
	// to breaker-open upstreams and their outcomes.
	ProbeSuccesses int64
	ProbeFailures  int64
	// Ejected lists upstream addresses currently out of rotation
	// because their attestation stopped verifying, sorted.
	Ejected []string
	// BreakerOpen lists upstream addresses whose circuit breaker is not
	// closed (open or half-open), sorted. These receive probes only.
	BreakerOpen []string
	// PolicyFlushes counts connection-pool flushes triggered by policy
	// revision changes.
	PolicyFlushes int64
	// TruncatedResponses counts proxied responses aborted mid-body
	// because the upstream copy failed after headers were sent.
	TruncatedResponses int64
	// PolicyEpoch is the gateway's monotone policy epoch: the sum of
	// every per-source policy-revision increment observed so far.
	PolicyEpoch uint64
	// ViewVersion is the serving-view version the routing table last
	// reconciled against.
	ViewVersion uint64
	// PolicyRejected counts requests refused with 503 because the
	// routing policy excluded every serving endpoint (no Retry-After:
	// unlike a shed, backing off does not help until the policy or the
	// fleet changes).
	PolicyRejected int64
	// CanaryRequests and CanaryFailures count upstream attempts that
	// landed on the staged canary measurement during the current (or
	// just-ended) rollout, and how many of them failed (transport error
	// or 5xx).
	CanaryRequests int64
	CanaryFailures int64
	// CanaryRollbacks counts canary auto-rollbacks fired over the
	// gateway's lifetime.
	CanaryRollbacks int64
	// CanaryRolledBack reports that the currently staged rollout's
	// canary measurement has been rolled back: the gateway routes no
	// traffic to it until the rollout is committed or aborted.
	CanaryRolledBack bool
	// CanaryMeasurement is the hex launch measurement of the current
	// (or last rolled-back) canary group, "" before any rollout.
	CanaryMeasurement string
}

// Gateway is the attested reverse proxy.
type Gateway struct {
	cfg       Config
	res       Resilience
	retry     resilience.RetryPolicy
	admission *resilience.Admission
	transport *http.Transport
	// rt is the round-tripper the data plane calls — g.transport in
	// production, a stub in the allocation-guard tests, so the guard
	// measures the gateway's own path rather than net/http internals.
	rt http.RoundTripper
	// sessions caches upstream TLS sessions, fenced by the policy epoch:
	// a resumed session must not outlive the policy it was verified
	// under (see session.go).
	sessions *epochSessionCache
	router   *router

	mu      sync.Mutex
	ups     map[string]*upstream // by UpstreamAddr
	version uint64
	domain  string
	closed  bool
	// revs caches the policy-revision sources reachable through the
	// verifier; rebuilt on every view change (sync) rather than walked
	// through the mux per request.
	revs []attestation.Revisioned
	// epoch accumulates per-source policy-revision *increments* into one
	// monotone number (guarded by mu, with lastRevs tracking each
	// source's high-water revision). Summing raw revisions is not enough:
	// when a source deregisters the sum shrinks, and a later bump can
	// land the sum back on its old value — silently skipping the
	// fail-closed pool flush that bump demands.
	epoch    uint64
	lastRevs map[attestation.Revisioned]uint64

	rr           atomic.Uint64
	requests     atomic.Int64
	retries      atomic.Int64
	shed         atomic.Int64
	breakerOpens atomic.Int64
	probeOK      atomic.Int64
	probeFail    atomic.Int64
	flushes      atomic.Int64
	truncated    atomic.Int64

	// flushedEpoch is the policy epoch the pools were last flushed at.
	flushedEpoch atomic.Uint64

	server *http.Server
	// serverTLS is the downstream listener's TLS config (nil before
	// Start); its session-ticket key rotates on every policy-epoch bump
	// so outstanding tickets stop resuming (guarded by mu).
	serverTLS *tls.Config
	listener  net.Listener
	unsub     func()
	probeStop chan struct{}
	watchWG   sync.WaitGroup
}

// New builds a gateway over cfg. Call Start to open the listener, or
// use the Gateway directly as an http.Handler behind your own server.
func New(cfg Config) (*Gateway, error) {
	if cfg.Source == nil {
		return nil, errors.New("gateway: nil source")
	}
	if cfg.Verifier == nil {
		return nil, errors.New("gateway: nil verifier")
	}
	if cfg.MaxIdleConnsPerHost <= 0 {
		cfg.MaxIdleConnsPerHost = 64
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	res := cfg.Resilience.withDefaults()
	tlsCfg := ratls.ProviderClientConfig(cfg.Verifier)
	g := &Gateway{
		cfg: cfg,
		res: res,
		retry: resilience.RetryPolicy{
			Budget:      res.RetryBudget,
			BackoffBase: res.BackoffBase,
			BackoffMax:  res.BackoffMax,
			Rand:        res.Rand,
		}.WithDefaults(),
		admission: resilience.NewAdmission(res.MaxInFlight),
		router:    newRouter(cfg.Routing),
		ups:       make(map[string]*upstream),
		lastRevs:  make(map[attestation.Revisioned]uint64),
		probeStop: make(chan struct{}),
		transport: &http.Transport{
			TLSClientConfig:     tlsCfg,
			TLSHandshakeTimeout: cfg.DialTimeout,
			DialContext: (&net.Dialer{
				Timeout: cfg.DialTimeout,
			}).DialContext,
			MaxIdleConnsPerHost: cfg.MaxIdleConnsPerHost,
			// The per-attempt header deadline: a node that accepts the
			// connection but never sends headers fails this attempt
			// instead of pinning the client until WriteTimeout.
			ResponseHeaderTimeout: res.PerTryTimeout,
		},
	}
	g.rt = g.transport
	// Upstream session resumption, fenced by the policy epoch: a cached
	// session never resumes across an epoch bump (so a revocation bites
	// through resumed sessions), and the resumptions that are allowed
	// still re-judge the peer's saved evidence against current policy via
	// VerifyConnection — resumed handshakes skip VerifyPeerCertificate.
	g.sessions = newEpochSessionCache(g.flushedEpoch.Load, defaultSessionCacheSize)
	tlsCfg.ClientSessionCache = g.sessions
	verifyPeer := tlsCfg.VerifyPeerCertificate
	tlsCfg.VerifyConnection = func(cs tls.ConnectionState) error {
		if !cs.DidResume {
			return nil // full handshake: VerifyPeerCertificate already ran
		}
		if len(cs.PeerCertificates) == 0 {
			return ratls.ErrNoPeerCertificate
		}
		return verifyPeer([][]byte{cs.PeerCertificates[0].Raw}, nil)
	}
	g.revs = revisionSources(cfg.Verifier)
	g.mu.Lock()
	g.flushedEpoch.Store(g.advanceEpochLocked())
	g.mu.Unlock()
	snap, release := cfg.Source.Acquire()
	g.sync(snap)
	release()

	// Watch the view: on churn, retire departed endpoints promptly and
	// drop their warm connections instead of waiting for the next
	// request to notice.
	ch, unsub := cfg.Source.Subscribe()
	g.unsub = unsub
	g.watchWG.Add(1)
	go func() {
		defer g.watchWG.Done()
		for snap := range ch {
			if g.sync(snap) {
				g.transport.CloseIdleConnections()
			}
		}
	}()
	// Probe loop: breaker-open upstreams re-enter rotation only through
	// a successful attested health probe.
	g.watchWG.Add(1)
	go g.probeLoop()
	return g, nil
}

// breakerConfig derives each upstream's breaker parameters from the
// gateway's resilience knobs.
func (g *Gateway) breakerConfig() resilience.BreakerConfig {
	return resilience.BreakerConfig{
		FailureThreshold: g.res.BreakerFailures,
		SlowThreshold:    g.res.BreakerSlow,
		OpenFor:          g.res.BreakerOpenFor,
		Now:              g.res.Now,
	}
}

// revisionSources collects every policy-revision source reachable
// through v: v itself, and — when v is a Mux — each registered
// provider. The result is cached on the gateway and refreshed per view
// change, so the per-request epoch check is a handful of atomic loads
// instead of a mux walk.
func revisionSources(v attestation.Verifier) []attestation.Revisioned {
	var revs []attestation.Revisioned
	if rev, ok := v.(attestation.Revisioned); ok {
		revs = append(revs, rev)
	}
	if mux, ok := v.(*attestation.Mux); ok {
		for _, name := range mux.Providers() {
			if pv, ok := mux.Verifier(name); ok {
				if rev, ok := pv.(attestation.Revisioned); ok {
					revs = append(revs, rev)
				}
			}
		}
	}
	return revs
}

// advanceEpochLocked folds each source's current policy revision into
// the monotone epoch: only per-source increases count, so the epoch
// never goes backwards even as sources register and deregister. A
// source seen for the first time contributes its full revision — a
// spurious flush on discovery is harmless; a missed one is not.
// Callers hold g.mu.
func (g *Gateway) advanceEpochLocked() uint64 {
	for _, rev := range g.revs {
		cur := rev.PolicyRevision()
		last, seen := g.lastRevs[rev]
		switch {
		case !seen:
			g.epoch += cur
			g.lastRevs[rev] = cur
		case cur > last:
			g.epoch += cur - last
			g.lastRevs[rev] = cur
		}
	}
	return g.epoch
}

// checkPolicyEpoch flushes the upstream pools when any provider's
// policy revision moved since the last request: pooled connections were
// verified under the old policy, and fail-closed means they must
// re-prove themselves under the new one. Ejections are cleared too —
// the policy change may equally have reinstated a provider. Circuit
// breakers are left alone: they track transport health, not policy, and
// re-close only through a successful probe.
func (g *Gateway) checkPolicyEpoch() {
	g.mu.Lock()
	epoch := g.advanceEpochLocked()
	g.mu.Unlock()
	old := g.flushedEpoch.Load()
	if epoch == old || !g.flushedEpoch.CompareAndSwap(old, epoch) {
		return
	}
	g.flushes.Add(1)
	g.transport.CloseIdleConnections()
	// Resumption state is policy state on both planes: drop the cached
	// upstream sessions (the epoch fence already refuses them; flushing
	// frees them promptly) and rotate the downstream ticket key so
	// outstanding client tickets stop resuming past the old policy.
	g.sessions.flush()
	g.mu.Lock()
	for _, up := range g.ups {
		up.ejected.Store(false)
	}
	serverTLS := g.serverTLS
	g.mu.Unlock()
	if serverTLS != nil {
		rotateTicketKey(serverTLS)
	}
}

// sync reconciles the routing table with a snapshot, preserving pending
// counts, ejection state, and breaker state for surviving endpoints. It
// reports whether any endpoint departed (so callers must drop its
// pooled connections); whichever path observes a version first — the
// per-request fast path or the subscription watcher — consumes it, so
// both act on the result.
func (g *Gateway) sync(snap fleet.Snapshot) (removed bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if snap.Version <= g.version && g.version != 0 {
		return false
	}
	g.version = snap.Version
	g.domain = snap.Domain
	// Track the rollout context for canary routing: a newly staged
	// rollout resets the canary accounting, the rollout ending clears it.
	g.router.observe(snap)
	// Refresh the revision sources alongside the view: providers are
	// attached before their nodes join, so a membership change is the
	// natural moment to notice them. Prune the high-water map to the
	// live sources; the epoch itself keeps whatever they contributed.
	g.revs = revisionSources(g.cfg.Verifier)
	live := make(map[attestation.Revisioned]bool, len(g.revs))
	for _, rev := range g.revs {
		live[rev] = true
	}
	for rev := range g.lastRevs {
		if !live[rev] {
			delete(g.lastRevs, rev)
		}
	}
	keep := make(map[string]*upstream, len(snap.Endpoints))
	for _, ep := range snap.Endpoints {
		if ep.UpstreamAddr == "" {
			continue
		}
		if up, ok := g.ups[ep.UpstreamAddr]; ok {
			up.ep = ep
			keep[ep.UpstreamAddr] = up
			continue
		}
		keep[ep.UpstreamAddr] = &upstream{
			ep:      ep,
			breaker: resilience.NewBreaker(g.breakerConfig()),
		}
	}
	for addr := range g.ups {
		if _, ok := keep[addr]; !ok {
			// Departure by address, not by count: a same-size swap
			// (replace) retires an endpoint too.
			removed = true
			break
		}
	}
	g.ups = keep
	return removed
}

// pick selects the upstream for one attempt through the four routing
// tiers, in documented precedence order:
//
//	tier 1 — policy filter   (hard: rule constraints, rolled-back canary)
//	tier 2 — attestation ejection (fail-closed, + per-request exclusion)
//	tier 3 — circuit breaker (transport health)
//	tier 4 — least-pending balancing under the per-upstream bound
//
// Soft preferences (canary fraction, provider splits) narrow the
// surviving candidate set between tiers 3 and 4 but fall back to the
// full in-policy set when no preferred node is healthy — a preference
// never fails a servable request. saturated reports that healthy
// in-policy candidates existed but every one was at its in-flight bound
// — worth a paced re-pick, unlike a genuinely empty rotation. denied
// reports that serving endpoints existed but tier 1 excluded all of
// them: the request must be refused as out of policy, not retried.
func (g *Gateway) pick(d decision, sc *proxyScratch) (up *upstream, saturated, denied bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	candidates := sc.picks[:0]
	serving, inPolicy := 0, 0
	for _, u := range g.ups {
		if u.ep.State != fleet.StateServing {
			continue
		}
		serving++
		if d.rule != nil && !d.rule.allows(u.ep) {
			continue
		}
		if d.avoid != nil && u.ep.Measurement == *d.avoid {
			continue
		}
		inPolicy++
		if u.ejected.Load() || excludedHas(sc.excluded, u.ep.UpstreamAddr) {
			continue
		}
		if !u.breaker.Allow() {
			continue
		}
		if u.pending.Load() >= int64(g.res.MaxPerUpstream) {
			saturated = true
			continue
		}
		candidates = append(candidates, u)
	}
	// Park the grown workspace before preferCandidates narrows the view:
	// the pooled slice must keep its full capacity for the next request.
	sc.picks = candidates
	if len(candidates) == 0 {
		return nil, saturated, serving > 0 && inPolicy == 0
	}
	candidates = preferCandidates(candidates, d)
	start := int(g.rr.Add(1) % uint64(len(candidates)))
	best := candidates[start]
	bestPending := best.pending.Load()
	for i := 1; i < len(candidates); i++ {
		u := candidates[(start+i)%len(candidates)]
		if p := u.pending.Load(); p < bestPending {
			best, bestPending = u, p
		}
	}
	return best, false, false
}

// preferCandidates applies the decision's soft preferences — the canary
// fraction first, then the provider split within the surviving set.
// Each narrows only when a preferred candidate exists; otherwise the
// set passes through unchanged.
func preferCandidates(candidates []*upstream, d decision) []*upstream {
	if d.canaryMeas != nil {
		sub := make([]*upstream, 0, len(candidates))
		for _, u := range candidates {
			if (u.ep.Measurement == *d.canaryMeas) == d.preferCanary {
				sub = append(sub, u)
			}
		}
		if len(sub) > 0 {
			candidates = sub
		}
	}
	if d.provider != "" {
		sub := make([]*upstream, 0, len(candidates))
		for _, u := range candidates {
			if u.ep.Provider == d.provider {
				sub = append(sub, u)
			}
		}
		if len(sub) > 0 {
			candidates = sub
		}
	}
	return candidates
}

// isAttestationReject reports an upstream failure that means the node's
// attestation no longer verifies — the fail-closed ejection triggers —
// as against a transient transport error worth retrying elsewhere
// without ejecting.
func isAttestationReject(err error) bool {
	return errors.Is(err, attestation.ErrPolicyRejected) ||
		errors.Is(err, attestation.ErrEvidenceInvalid) ||
		errors.Is(err, attestation.ErrEvidenceExpired) ||
		errors.Is(err, attestation.ErrUnknownProvider) ||
		errors.Is(err, ratls.ErrNoEvidence) ||
		errors.Is(err, ratls.ErrKeyMismatch) ||
		errors.Is(err, ratls.ErrNoPeerCertificate)
}

// isHopByHop reports the connection-scoped headers a proxy must not
// forward, by canonical name. A switch on the canonical key replaces
// the old slice walk of Del calls, so the hot path neither re-canonicalizes
// nor allocates.
func isHopByHop(k string) bool {
	switch k {
	case "Connection", "Proxy-Connection", "Keep-Alive", "Proxy-Authenticate",
		"Proxy-Authorization", "Te", "Trailer", "Transfer-Encoding", "Upgrade":
		return true
	}
	return false
}

// connectionNames calls fn for each header name listed in h's Connection
// header (already canonicalized), walking the comma-separated list
// without strings.Split's slice allocation. Connection-named headers are
// rare, so the canonicalization inside stays off the common path.
func connectionNames(h http.Header, fn func(name string)) {
	for _, v := range h["Connection"] {
		for v != "" {
			f := v
			if i := strings.IndexByte(v, ','); i >= 0 {
				f, v = v[:i], v[i+1:]
			} else {
				v = ""
			}
			if f = strings.TrimSpace(f); f != "" {
				fn(http.CanonicalHeaderKey(f))
			}
		}
	}
}

// stripHopByHop removes the hop-by-hop headers from h in place — used on
// response headers, which the gateway mutates before copying out.
func stripHopByHop(h http.Header) {
	connectionNames(h, func(name string) { delete(h, name) })
	for k := range h {
		if isHopByHop(k) {
			delete(h, k)
		}
	}
}

// copyOutboundHeaders fills dst (a pooled, cleared workspace) with the
// forwardable subset of the inbound headers. Value slices are shared,
// not copied — the transport only reads them — so the copy allocates
// nothing beyond first-use map growth, which the pool amortizes. The
// gateway-owned headers (DeadlineHeader, X-Forwarded-For) are skipped
// here and written by forward from pooled scratch.
func copyOutboundHeaders(dst, src http.Header) {
	for k, vv := range src {
		if isHopByHop(k) || k == DeadlineHeader || k == "X-Forwarded-For" {
			continue
		}
		dst[k] = vv
	}
	// Headers named by Connection are hop-by-hop too; drop any that the
	// static set above let through.
	connectionNames(src, func(name string) { delete(dst, name) })
}

// retryable reports whether a request can be re-sent to another node
// after a failed attempt: its body must be absent or replayable.
func retryable(r *http.Request) bool {
	return r.Body == nil || r.Body == http.NoBody || r.GetBody != nil
}

// shedResponse refuses one request with 503 + Retry-After: the
// machine-readable "back off briefly" that distinguishes deliberate
// load shedding from upstream failure (502).
func shedResponse(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	http.Error(w, "gateway: overloaded, retry later", http.StatusServiceUnavailable)
}

// sleepCtx pauses for d, reporting false if ctx fires first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	//revelio:allow timeseam backoff must block in real time against a real ctx; an injected Now cannot fire a channel
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// ServeHTTP proxies one request to the healthiest attested node. The
// request holds the source admission for its lifetime, so fleet churn
// drains through the gateway exactly as it does for direct clients.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Admission runs before the serving view is touched: overload must
	// shed promptly, not queue behind the drain lock.
	if !g.admission.TryAcquire() {
		g.shed.Add(1)
		shedResponse(w)
		return
	}
	defer g.admission.Release()

	timeout := g.res.RequestTimeout
	if h := r.Header.Get(DeadlineHeader); h != "" {
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 {
			timeout = time.Duration(ms) * time.Millisecond
		}
	}
	if timeout < g.res.MinDeadline {
		// Deadline-aware shed: the caller's remaining budget cannot fit
		// even one attempt, so refuse cheaply rather than burn a node.
		g.shed.Add(1)
		shedResponse(w)
		return
	}
	// The request deadline is a time.Time compared against the resilience
	// clock, not a context.WithTimeout: the per-attempt context in forward
	// is the only context machinery on the path, which saves the
	// timerCtx/stop-closure/request-clone allocations on every request.
	// An inbound context deadline (from a fronting server or test) still
	// wins when it is sooner.
	ctx := r.Context()
	deadline := g.res.Now().Add(timeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}

	sc := scratchPool.Get().(*proxyScratch)
	defer scratchPool.Put(sc)
	// LIFO with the Put above: reset runs first, settling the in-flight
	// attempt (also on the ErrAbortHandler panic path) and abandoning a
	// tainted wire before the scratch re-enters the pool.
	defer sc.reset()

	snap, release := g.cfg.Source.Acquire()
	defer release()
	g.checkPolicyEpoch()
	if g.sync(snap) {
		// A node left the view since the last observed version: its
		// warm connections must not linger in the pool.
		g.transport.CloseIdleConnections()
	}
	g.requests.Add(1)

	// The routing decision is computed once per request and applied to
	// every attempt, so retries stay inside the same policy verdict
	// (rule, split side, canary side).
	var d decision
	if g.router.enabled() {
		d = g.router.decide(r.URL.Path)
	}

	var lastErr error
	forwards := 0
	sawSaturation := false
	policyDenied := false
	for attempt := 0; attempt < g.res.RetryBudget; attempt++ {
		if attempt > 0 {
			// Pace the retry, clamped to the remaining deadline; give up
			// if the client hangs up mid-backoff.
			pause := g.retry.Backoff(attempt)
			if rem := deadline.Sub(g.res.Now()); pause > rem {
				pause = rem
			}
			if pause <= 0 || !sleepCtx(ctx, pause) {
				break
			}
		}
		if deadline.Sub(g.res.Now()) < g.res.MinDeadline {
			break
		}
		up, saturated, denied := g.pick(d, sc)
		if up == nil {
			if denied {
				// Tier 1 excluded every serving endpoint: retrying
				// cannot help until the policy or the fleet changes.
				policyDenied = true
				break
			}
			if !saturated {
				break
			}
			// Every healthy node is at its in-flight bound; the next
			// backoff may free capacity.
			sawSaturation = true
			continue
		}
		if forwards > 0 {
			// Retries counts real extra upstream attempts, so
			// Retries <= Requests*(RetryBudget-1) is the amplification
			// invariant the chaos harness asserts.
			g.retries.Add(1)
		}
		forwards++
		resp, err := g.forward(ctx, sc, up, snap.Domain, r, deadline, g.res.RetryBudget-attempt)
		if err != nil {
			lastErr = err
			expired := ctx.Err() != nil || !g.res.Now().Before(deadline)
			if !expired {
				// Canary accounting mirrors the breaker's rule: outcomes
				// the client's own deadline caused are nobody's failure.
				g.router.recordCanary(up.ep.Measurement, true)
			}
			if isAttestationReject(err) {
				// Fail closed: the node no longer proves its measured
				// state; out of rotation until the policy moves again.
				up.ejected.Store(true)
			}
			sc.excluded = append(sc.excluded, up.ep.UpstreamAddr)
			if expired || !retryable(r) {
				break
			}
			continue
		}
		// A 5xx is returned to the client as-is (the gateway does not
		// retry served responses), but it counts against the canary:
		// a failing canary image typically fails with clean 500s.
		g.router.recordCanary(up.ep.Measurement, resp.StatusCode >= 500)
		g.writeResponse(w, sc, resp)
		return
	}
	switch {
	case lastErr != nil:
		http.Error(w, fmt.Sprintf("gateway: upstream failed: %v", lastErr), http.StatusBadGateway)
	case policyDenied:
		// Serving endpoints exist but the routing policy excludes all of
		// them. 503 without Retry-After: unlike a shed, backing off does
		// not help until the policy or the fleet changes.
		g.router.policyDeny.Add(1)
		http.Error(w, ErrNoPolicyUpstreams.Error(), http.StatusServiceUnavailable)
	case sawSaturation:
		// Healthy nodes existed but stayed at capacity through every
		// paced re-pick: that is overload, not failure.
		g.shed.Add(1)
		shedResponse(w)
	default:
		http.Error(w, ErrNoUpstreams.Error(), http.StatusBadGateway)
	}
}

// forward sends one attempt to a node over RA-TLS. attemptsLeft (this
// attempt included) shares the remaining request deadline between the
// attempts still in budget. The outbound request is assembled in sc's
// pooled wire scratch instead of r.Clone, and the per-attempt timer and
// cancel are parked in sc (settled by writeResponse on success or the
// caller's deferred reset otherwise) instead of returned as a closure.
func (g *Gateway) forward(parent context.Context, sc *proxyScratch, up *upstream, domain string, r *http.Request, deadline time.Time, attemptsLeft int) (*http.Response, error) {
	perTry := resilience.CarveTry(g.res.PerTryTimeout, deadline.Sub(g.res.Now()), attemptsLeft)
	// The per-try clock covers dial + request + response headers; once
	// headers arrive the attempt has succeeded and the same timer is
	// re-armed to the request deadline, so a slow client draining a long
	// body is bounded by the deadline and WriteTimeout, not mistaken for
	// a stalled node.
	tryCtx, cancel := context.WithCancel(parent)
	//revelio:allow timeseam the per-try cancel must fire in real time to abort a real RoundTrip; the measured latency is on the seam
	timer := time.AfterFunc(perTry, cancel)
	sc.tryTimer, sc.tryCancel = timer, cancel

	wire := sc.wire
	if wire == nil {
		wire = &wireScratch{hdr: make(http.Header, 16)}
		sc.wire = wire
	}
	copyOutboundHeaders(wire.hdr, r.Header)
	// Rewrite — never forward — the client's deadline header: the node
	// sees this attempt's carved budget, not whatever the client sent.
	wire.dlVal[0] = wire.msText(int64(perTry / time.Millisecond))
	wire.hdr[DeadlineHeader] = wire.dlVal[:1]
	// The gateway terminates TLS for outside clients, so it is the trust
	// boundary: any X-Forwarded-For the client sent is attacker-
	// controlled and must not reach the nodes, where it would read as an
	// upstream proxy's word on the client address. Replace, never append
	// (copyOutboundHeaders already dropped the inbound value).
	if clientIP, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		wire.xffVal[0] = clientIP
		wire.hdr["X-Forwarded-For"] = wire.xffVal[:1]
	}

	wire.url = url.URL{
		Scheme:     "https",
		Opaque:     r.URL.Opaque,
		User:       r.URL.User,
		Host:       up.ep.UpstreamAddr,
		Path:       r.URL.Path,
		RawPath:    r.URL.RawPath,
		ForceQuery: r.URL.ForceQuery,
		RawQuery:   r.URL.RawQuery,
	}
	body := r.Body
	if body == http.NoBody {
		body = nil
	}
	if r.GetBody != nil {
		b, err := r.GetBody()
		if err != nil {
			sc.finishAttempt()
			return nil, err
		}
		body = b
	}
	host := r.Host
	if domain != "" {
		host = domain
	}
	wire.req = http.Request{
		Method:           r.Method,
		URL:              &wire.url,
		Proto:            "HTTP/1.1",
		ProtoMajor:       1,
		ProtoMinor:       1,
		Header:           wire.hdr,
		Body:             body,
		GetBody:          r.GetBody,
		ContentLength:    r.ContentLength,
		TransferEncoding: r.TransferEncoding,
		Host:             host,
	}
	// WithContext's shallow copy is the one unavoidable allocation here:
	// the transport mutates and retains the *Request it is handed, so a
	// fresh shell per attempt it gets — but its URL, header map, and
	// header value slices all point into the pooled wire scratch, which
	// is why the wire carries the inFlight taint below.
	outreq := wire.req.WithContext(tryCtx)

	// The latency fed to the breaker must come off the same clock as the
	// breaker's dwell (Resilience.Now): measuring it with the naked wall
	// clock made SlowThreshold accounting invisible to injected clocks —
	// chaos replays and tests saw breakers that never tripped on slowness.
	up.pending.Add(1)
	start := g.res.Now()
	wire.inFlight = true
	resp, err := g.rt.RoundTrip(outreq)
	latency := g.res.Now().Sub(start)
	up.pending.Add(-1)
	if parent.Err() == nil && g.res.Now().Before(deadline) {
		// Only outcomes the request deadline did not cause feed the
		// breaker: a client hanging up is not the node's fault. An
		// attestation reject is a success to the breaker — breakers
		// track transport health, not policy; the reject feeds ejection,
		// which the next policy epoch clears when the node proves itself.
		if up.breaker.Observe(latency, err != nil && !isAttestationReject(err)) {
			g.breakerOpens.Add(1)
		}
	}
	if err != nil {
		// The transport's write loop may still reference the request
		// memory after an error, so the wire stays tainted (inFlight) and
		// reset will abandon it rather than re-pool it.
		sc.finishAttempt()
		return nil, err
	}
	// Headers arrived: the attempt has succeeded. Re-arm the per-try
	// timer to the remaining request deadline to bound body streaming;
	// writeResponse (or the deferred reset on abort) settles it.
	if rem := deadline.Sub(g.res.Now()); rem > 0 {
		timer.Reset(rem)
	}
	return resp, nil
}

// writeResponse streams one upstream response to the client through the
// pooled copy buffer, then settles the attempt and — for bodyless
// requests — marks the wire scratch clean for reuse.
func (g *Gateway) writeResponse(w http.ResponseWriter, sc *proxyScratch, resp *http.Response) {
	stripHopByHop(resp.Header)
	wh := w.Header()
	for k, vv := range resp.Header {
		wh[k] = vv
	}
	w.WriteHeader(resp.StatusCode)
	bufp := copyBufPool.Get().(*[]byte)
	// writerOnly masks the ResponseWriter's ReaderFrom so the copy
	// actually uses the pooled buffer; it lives in the scratch because a
	// fresh interface wrapper per request is itself an allocation.
	sc.wo.Writer = w
	_, err := io.CopyBuffer(&sc.wo, resp.Body, *bufp)
	sc.wo.Writer = nil
	copyBufPool.Put(bufp)
	if err != nil {
		_ = resp.Body.Close()
		// Headers and part of the body are already on the wire, so the
		// truncation cannot be turned into an error response. Abort the
		// downstream connection instead of letting the server close out
		// the encoding as if the body were complete — a silently
		// truncated 200 is worse than a torn connection. The deferred
		// reset releases the try context.
		g.truncated.Add(1)
		panic(http.ErrAbortHandler)
	}
	_ = resp.Body.Close()
	sc.finishAttempt()
	sc.wireClean()
}

// probeLoop drives active health probing: every ProbeInterval it asks
// each breaker whether its open dwell has elapsed (ProbeDue claims the
// half-open slot, so exactly one probe flies per dwell) and probes the
// claimed upstreams concurrently.
func (g *Gateway) probeLoop() {
	defer g.watchWG.Done()
	//revelio:allow timeseam probe pacing needs a real channel to select against probeStop; breaker dwell judgments stay on the seam
	ticker := time.NewTicker(g.res.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-g.probeStop:
			return
		case <-ticker.C:
		}
		g.mu.Lock()
		domain := g.domain
		var due []*upstream
		for _, up := range g.ups {
			if up.breaker.ProbeDue() {
				due = append(due, up)
			}
		}
		g.mu.Unlock()
		for _, up := range due {
			g.watchWG.Add(1)
			go func(up *upstream) {
				defer g.watchWG.Done()
				g.probe(up, domain)
			}(up)
		}
	}
}

// probe sends one attested health check to a half-open upstream and
// reports the outcome to its breaker. Probes ride the gateway's RA-TLS
// transport, so a node whose attestation stopped verifying cannot pass.
func (g *Gateway) probe(up *upstream, domain string) {
	//revelio:allow ctxfirst probes are the gateway's own background process (stopped via probeStop); no caller context exists to thread
	ctx, cancel := context.WithTimeout(context.Background(), g.res.PerTryTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"https://"+up.ep.UpstreamAddr+g.res.ProbePath, nil)
	if err != nil {
		g.probeFail.Add(1)
		up.breaker.ProbeResult(false)
		return
	}
	if domain != "" {
		req.Host = domain
	}
	resp, err := g.rt.RoundTrip(req)
	ok := err == nil && resp.StatusCode == http.StatusOK
	if err == nil {
		// Drain through the pooled copy buffer (writerOnly masks
		// io.Discard's ReadFrom, which would otherwise bypass it).
		bufp := copyBufPool.Get().(*[]byte)
		_, _ = io.CopyBuffer(writerOnly{io.Discard}, io.LimitReader(resp.Body, 4096), *bufp)
		copyBufPool.Put(bufp)
		_ = resp.Body.Close()
	}
	if ok {
		g.probeOK.Add(1)
	} else {
		g.probeFail.Add(1)
	}
	up.breaker.ProbeResult(ok)
}

// Start opens the gateway's TLS listener on a loopback port. The
// serving certificate is resolved per handshake through
// Config.GetCertificate, so rotations reach live listeners.
func (g *Gateway) Start() error {
	if g.cfg.GetCertificate == nil {
		return errors.New("gateway: Start needs Config.GetCertificate")
	}
	// Bind the port before taking g.mu: every request holds the serving
	// view under that lock's neighbors, and a slow bind (exhausted
	// ephemeral ports, LSM hooks) must not stall them.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("gateway: listen: %w", err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		_ = ln.Close()
		return ErrClosed
	}
	if g.listener != nil {
		_ = ln.Close()
		return errors.New("gateway: already started")
	}
	serverTLS := &tls.Config{
		GetCertificate: func(*tls.ClientHelloInfo) (*tls.Certificate, error) {
			return g.cfg.GetCertificate()
		},
	}
	// Take ownership of the session-ticket key now (disabling crypto/tls's
	// automatic rotation): the key is policy state, rotated on every
	// epoch bump by checkPolicyEpoch so old tickets stop resuming.
	rotateTicketKey(serverTLS)
	tlsLn := tls.NewListener(ln, serverTLS)
	g.serverTLS = serverTLS
	g.listener = ln
	g.server = &http.Server{
		Handler:           g,
		ReadHeaderTimeout: 10 * time.Second,
		// WriteTimeout caps how long a slow or stalled client can hold
		// the serving-view admission (see Config.WriteTimeout).
		WriteTimeout: g.cfg.WriteTimeout,
		IdleTimeout:  2 * time.Minute,
	}
	srv := g.server
	go func() { _ = srv.Serve(tlsLn) }()
	return nil
}

// Addr returns the gateway's listen address (host:port), or "" before
// Start.
func (g *Gateway) Addr() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.listener == nil {
		return ""
	}
	return g.listener.Addr().String()
}

// Stats reports the data plane's counters and current ejections.
func (g *Gateway) Stats() Stats {
	s := Stats{
		Requests:           g.requests.Load(),
		Retries:            g.retries.Load(),
		SheddedRequests:    g.shed.Load(),
		BreakerOpens:       g.breakerOpens.Load(),
		ProbeSuccesses:     g.probeOK.Load(),
		ProbeFailures:      g.probeFail.Load(),
		PolicyFlushes:      g.flushes.Load(),
		TruncatedResponses: g.truncated.Load(),
	}
	g.router.snapshotStats(&s)
	g.mu.Lock()
	s.PolicyEpoch = g.epoch
	s.ViewVersion = g.version
	for addr, up := range g.ups {
		if up.ejected.Load() {
			s.Ejected = append(s.Ejected, addr)
		}
		if up.breaker.State() != resilience.BreakerClosed {
			s.BreakerOpen = append(s.BreakerOpen, addr)
		}
	}
	g.mu.Unlock()
	sort.Strings(s.Ejected)
	sort.Strings(s.BreakerOpen)
	return s
}

// Close stops the listener, the view watcher, the probe loop, and the
// upstream pools. Idempotent and safe for concurrent use.
func (g *Gateway) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	close(g.probeStop)
	server, unsub := g.server, g.unsub
	g.server, g.listener = nil, nil
	g.mu.Unlock()

	if unsub != nil {
		unsub()
	}
	g.watchWG.Wait()
	if server != nil {
		//revelio:allow ctxfirst Close is the end of the gateway's lifecycle — there is no caller context left to inherit, and the grace is bounded
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = server.Shutdown(ctx)
		cancel()
		_ = server.Close()
	}
	g.transport.CloseIdleConnections()
}
