package bench

import (
	"context"
	"crypto/tls"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"revelio/internal/fleet"
	"revelio/internal/gateway"
	"revelio/internal/load"
)

// The high-concurrency cell: HCClients long-lived client goroutines,
// each keeping one request in flight against the gateway for HCDuration
// of steady state. Connections are keep-alive and the client count can
// exceed the process's file-descriptor budget — the goroutines then
// multiplex over a smaller connection pool (blocking on checkout, never
// failing), and the result reports Clients and Conns separately so the
// distinction is visible. The invariant matches the rest of Table 6:
// zero failed requests; deliberate sheds (503 + Retry-After) are
// reported but expected to be zero at this fleet capacity.

// hcFDReserve is the descriptor headroom kept back from the
// high-concurrency budget: fleet control servers, gateway listener,
// profile files, and slack for transient dials.
const hcFDReserve = 512

// hcWarmupConcurrency paces the warm-up handshakes: the gateway's
// listener hard-codes a 10s ReadHeaderTimeout that also covers the TLS
// handshake, and thousands of simultaneous ClientHellos against one
// accept loop would time the tail out before it is served. Un-dialed
// workers wait client-side instead.
const hcWarmupConcurrency = 256

// hcNullRW discards a proxied response — the sink for the allocs/op
// probe, which measures the gateway path, not response rendering.
type hcNullRW struct{ h http.Header }

func (w *hcNullRW) Header() http.Header         { return w.h }
func (w *hcNullRW) Write(p []byte) (int, error) { return len(p), nil }
func (w *hcNullRW) WriteHeader(int)             {}

// hcProxyAllocs measures whole-path allocations per proxied request —
// the gateway handler through the live RA-TLS transport to a real node
// — by running sequential requests between two ReadMemStats readings.
// Runs after the load window, so every pool is warm. Background
// goroutines (probe loop, fleet timers) can contribute stray
// allocations; the sample is large enough to amortize them.
func hcProxyAllocs(gw *gateway.Gateway) float64 {
	req := &http.Request{
		Method:     http.MethodGet,
		URL:        &url.URL{Scheme: "http", Host: "hc.bench", Path: "/"},
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     http.Header{},
		Host:       "hc.bench",
		RemoteAddr: "127.0.0.1:9999",
	}
	w := &hcNullRW{h: make(http.Header)}
	for i := 0; i < 32; i++ {
		gw.ServeHTTP(w, req)
	}
	const n = 512
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		gw.ServeHTTP(w, req)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / n
}

// table6HighConcurrency runs the high-concurrency cell when enabled
// (HCClients > 0).
func table6HighConcurrency(ctx context.Context, cfg Table6Config, res *Table6Result) error {
	if cfg.HCClients <= 0 {
		return nil
	}
	f, err := fleet.New(ctx, fleet.Config{
		Nodes:  cfg.HCNodes,
		Domain: "table6.example.org",
		App:    boundedApp(cfg.HCNodeConcurrency, cfg.ServiceTime),
	})
	if err != nil {
		return err
	}
	defer f.Close()

	// Every client goroutine keeps one request in flight, and the
	// gateway forwards synchronously, so a loopback request in flight
	// costs ~4 descriptors (client conn + upstream conn, both ends
	// in-process). The connection pool is sized to that budget; client
	// goroutines beyond it block on checkout instead of failing.
	avail, fdLimit := fdBudget(hcFDReserve)
	conns := cfg.HCClients
	if byFD := avail / 4; byFD < conns {
		conns = byFD
	}
	if conns < 16 {
		conns = 16
	}

	gw, err := gateway.New(gateway.Config{
		Source:         f,
		Verifier:       f.Mux(),
		GetCertificate: f.ServingCertificate,
		// Idle upstream conns must cover the steady in-flight level per
		// node, or every completed request would close and re-dial — a
		// handshake per request instead of per connection.
		MaxIdleConnsPerHost: conns/cfg.HCNodes + 64,
		Resilience: gateway.Resilience{
			// Admission and the per-upstream bound are sized so neither
			// binds: this cell measures the hot path at full concurrency,
			// not shedding (the overload cell covers that).
			MaxInFlight:    cfg.HCClients + 64,
			MaxPerUpstream: cfg.HCClients,
			// Queueing delay at this concurrency is real but bounded
			// (in-flight / service rate); per-try and request deadlines
			// leave generous room so timeouts never masquerade as node
			// failures.
			PerTryTimeout:  30 * time.Second,
			RequestTimeout: 120 * time.Second,
		},
	})
	if err != nil {
		return err
	}
	defer gw.Close()
	if err := gw.Start(); err != nil {
		return err
	}

	client := &http.Client{
		Transport: &http.Transport{
			TLSClientConfig: &tls.Config{
				RootCAs:            f.Deployment().CARootPool(),
				ServerName:         "table6.example.org",
				ClientSessionCache: tls.NewLRUClientSessionCache(0),
			},
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			IdleConnTimeout:     5 * time.Minute,
		},
		Timeout: 60 * time.Second,
	}
	defer client.CloseIdleConnections()
	target := "https://" + gw.Addr() + "/"

	get := func(ctx context.Context, _ int) error { return load.Get(ctx, client, target, nil) }

	// Warm-up establishes the whole connection pool — both the
	// client-to-gateway and the gateway-to-node halves — before the clock
	// starts, in rounds of doubling concurrency so the TLS handshakes
	// ramp instead of storming one accept loop all at once. The pool only
	// grows to the in-flight level, so a single paced pass is not enough:
	// without the final full-concurrency round, the dial storm would land
	// inside the measured window and the cell would time handshakes, not
	// the proxy path. Warm-up outcomes count toward the zero-failure
	// invariant but not the timed window; a shed there is a failure too.
	for level := hcWarmupConcurrency; ; level *= 2 {
		level = min(level, conns)
		if err := unserved(load.Burst(ctx, level, 2*level, get)); err != nil {
			return fmt.Errorf("high-concurrency warm-up failed: %w", err)
		}
		if level == conns {
			break
		}
	}

	// Each worker records its own latencies; Stop orders every write
	// before the read below.
	samples := make([][]time.Duration, cfg.HCClients)
	timed := func(ctx context.Context, w int) error {
		t0 := time.Now()
		err := load.Get(ctx, client, target, nil)
		if err == nil {
			samples[w] = append(samples[w], time.Since(t0))
		}
		return err
	}

	// Profiles cover exactly the steady-state window, so a hot frame in
	// the CPU profile is attributable to the loaded proxy path.
	var cpuFile *os.File
	if cfg.HCProfileDir != "" {
		if err := os.MkdirAll(cfg.HCProfileDir, 0o755); err != nil {
			return fmt.Errorf("profile dir: %w", err)
		}
		cpuPath := filepath.Join(cfg.HCProfileDir, "table6_hc_cpu.pprof")
		cpuFile, err = os.Create(cpuPath)
		if err == nil {
			err = pprof.StartCPUProfile(cpuFile)
		}
		if err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		res.HCCPUProfile = cpuPath
	}

	start := time.Now()
	run := load.Start(ctx, cfg.HCClients, timed)
	time.Sleep(cfg.HCDuration)
	c := run.Stop()
	elapsed := time.Since(start)

	if cpuFile != nil {
		pprof.StopCPUProfile()
		_ = cpuFile.Close()
		heapPath := filepath.Join(cfg.HCProfileDir, "table6_hc_heap.pprof")
		hf, err := os.Create(heapPath)
		if err != nil {
			return fmt.Errorf("heap profile: %w", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(hf); err != nil {
			_ = hf.Close()
			return fmt.Errorf("heap profile: %w", err)
		}
		_ = hf.Close()
		res.HCHeapProfile = heapPath
	}

	// The allocs/op probe runs over the still-standing fleet, after the
	// window: pools warm, no competing load.
	res.HCProxyAllocsPerOp = hcProxyAllocs(gw)

	var all []time.Duration
	for _, s := range samples {
		all = append(all, s...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })

	res.HCClients = cfg.HCClients
	res.HCConns = conns
	res.HCFDLimit = fdLimit
	res.HCElapsed = elapsed
	res.HCRequests = c.Attempts
	res.HCFailures = c.Failed
	res.HCShed = c.Shed
	if elapsed > 0 {
		res.HCPerSec = float64(c.Attempts) / elapsed.Seconds()
	}
	if n := len(all); n > 0 {
		res.HCP50 = all[n/2]
		res.HCP99 = all[n*99/100]
	}
	if c.Err != nil {
		return fmt.Errorf("%d of %d requests failed at %d clients (first: %w)",
			res.HCFailures, res.HCRequests, cfg.HCClients, c.Err)
	}
	return nil
}
