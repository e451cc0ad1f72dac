package main

import (
	"context"
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"io"
	"net/http"
	"time"

	"revelio/internal/fleet"
	"revelio/internal/gateway"
	"revelio/internal/netlab"
)

const (
	// tabs is the number of closed-loop clients every workload runs.
	tabs = 2
	// kdsRTT is the browser-to-KDS round trip first-visit injects.
	kdsRTT = 20 * time.Millisecond
)

// fixture is one running system under test: a fleet with the bench app
// and a started gateway in front of it.
type fixture struct {
	f      *fleet.Fleet
	gw     *gateway.Gateway
	app    *app
	tr     *tracer
	roots  *x509.CertPool
	domain string
	// digests holds the SHA-256 of every rootfs file, taken at set-up
	// straight from a node's verified filesystem.
	digests map[string][sha256.Size]byte
	paths   []string
	// kdsNet is the browser side's path to the KDS: one bench-owned
	// transport every first-visit device shares, so its Requests()
	// count is the browser-side KDS round trips.
	kdsNet *netlab.Transport
	kdsTCP *http.Transport

	timing setupTiming
}

// setupTiming is what one set-up cost.
type setupTiming struct {
	total     time.Duration // fleet.New through the gateway's first answer
	fleetNew  time.Duration
	gwStart   time.Duration // gateway New + Start
	bootMax   time.Duration // max over nodes of vm Timings().Total
	verityMax time.Duration // max over nodes of Timings().DmVerityVerify
	steal     time.Duration // host steal time during the set-up
}

// baseURL is the gateway's HTTPS origin.
func (fx *fixture) baseURL() string { return "https://" + fx.gw.Addr() }

// tlsClient returns a client trusting the fleet's CA for fx.domain with
// one keep-alive connection to the gateway.
func (fx *fixture) tlsClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			TLSClientConfig: &tls.Config{RootCAs: fx.roots, ServerName: fx.domain},
			MaxConnsPerHost: 1,
		},
		Timeout: 30 * time.Second,
	}
}

// setUp builds a fleet of nodes nodes and a started gateway, and times
// everything until the gateway answers its first request.
func setUp(ctx context.Context, nodes int, tr *tracer) (*fixture, error) {
	a := &app{tr: tr}
	fx := &fixture{app: a, tr: tr, domain: "fleet.example.org"}

	t0, steal0 := time.Now(), stealTime()
	f, err := fleet.New(ctx, fleet.Config{
		Nodes:  nodes,
		Domain: fx.domain,
		App:    a.handler,
		// Room for every tab's pad slots. Only pad-edit uses them; every
		// workload gets the same volume so set-up costs compare.
		PersistSize: persistSize(tabs),
	})
	if err != nil {
		return nil, fmt.Errorf("fleet.New: %w", err)
	}
	fx.f = f
	t1 := time.Now()
	gw, err := gateway.New(gateway.Config{
		Source:         f,
		Verifier:       f.Mux(),
		GetCertificate: f.ServingCertificate,
	})
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("gateway.New: %w", err)
	}
	fx.gw = gw
	if err := gw.Start(); err != nil {
		fx.close()
		return nil, fmt.Errorf("gateway.Start: %w", err)
	}
	t2 := time.Now()
	fx.roots = f.Deployment().CARootPool()
	if err := fx.firstAnswer(ctx); err != nil {
		fx.close()
		return nil, err
	}
	t3 := time.Now()
	fx.timing = setupTiming{total: t3.Sub(t0), fleetNew: t1.Sub(t0), gwStart: t2.Sub(t1),
		steal: stealTime() - steal0}
	for _, n := range f.Deployment().Nodes {
		tm := n.VM.Timings()
		fx.timing.bootMax = max(fx.timing.bootMax, tm.Total)
		fx.timing.verityMax = max(fx.timing.verityMax, tm.DmVerityVerify)
	}

	fsys := f.Deployment().Nodes[0].VM.FS()
	fx.paths = fsys.List()
	fx.digests = make(map[string][sha256.Size]byte, len(fx.paths))
	for _, p := range fx.paths {
		data, err := fsys.ReadFile(p)
		if err != nil {
			fx.close()
			return nil, fmt.Errorf("digest %s: %w", p, err)
		}
		fx.digests[p] = sha256.Sum256(data)
	}
	fx.kdsTCP = &http.Transport{}
	fx.kdsNet = &netlab.Transport{RTT: kdsRTT, Inner: fx.kdsTCP}
	return fx, nil
}

// firstAnswer waits for the gateway to answer a health request.
func (fx *fixture) firstAnswer(ctx context.Context) error {
	c := fx.tlsClient()
	defer c.CloseIdleConnections()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fx.baseURL()+fleet.HealthPath, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return fmt.Errorf("first request: %w", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("first request body: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("first request: status %d", resp.StatusCode)
	}
	return nil
}

// close stops the gateway, then the fleet, and reaps the KDS transport.
func (fx *fixture) close() {
	if fx.gw != nil {
		fx.gw.Close()
	}
	if fx.f != nil {
		fx.f.Close()
	}
	if fx.kdsTCP != nil {
		fx.kdsTCP.CloseIdleConnections()
	}
}
