package bench

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"revelio/internal/attest"
	"revelio/internal/browser"
	"revelio/internal/core"
	"revelio/internal/imagebuild"
	"revelio/internal/kds"
	"revelio/internal/webext"
)

// Table3Result reproduces Table 3: browser-based remote attestation and
// validation latency from a client connecting to a Revelio-protected
// Boundary Node.
type Table3Result struct {
	NetworkLatency     time.Duration
	PlainGET           time.Duration
	GETWithAttestation time.Duration
	GETWithConnCheck   time.Duration
	// WarmAttestation is the fresh-attestation cost on a device whose
	// caches are warm from its first attestation (no KDS trip) — the
	// paper's caching argument.
	WarmAttestation time.Duration
}

// Table3Config scales the injected latencies.
type Table3Config struct {
	// BrowserRTT is the base client network latency (paper: 5.2 ms).
	BrowserRTT time.Duration
	// KDSRTT is the client-to-AMD-KDS latency (paper: VCEK fetch
	// dominates at 427.3 ms).
	KDSRTT time.Duration
}

// DefaultTable3Config approximates the paper's mobile-client scenario.
func DefaultTable3Config() Table3Config {
	return Table3Config{
		BrowserRTT: 5200 * time.Microsecond,
		// The attested GET pays one KDS round trip, the ASK/ARK chain
		// fetch of a browser with an empty cache: the node bundles its
		// chip's VCEK with the report, so the VCEK is never fetched.
		KDSRTT: 140 * time.Millisecond,
	}
}

// RunTable3 deploys a BN-profile node, connects a browser with and
// without the extension, and measures the four client-side scenarios.
func RunTable3(cfg Table3Config) (*Table3Result, error) {
	reg := imagebuild.NewRegistry()
	base := imagebuild.PublishUbuntuBase(reg)
	spec := imagebuild.BoundaryNodeSpec(base)

	d, err := core.New(core.Config{
		Spec:     spec,
		Registry: reg,
		Nodes:    1,
		Domain:   "bn.example.org",
		KDSRTT:   cfg.KDSRTT,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: table3: %w", err)
	}
	defer d.Close()
	if _, err := d.ProvisionCertificates(context.Background()); err != nil {
		return nil, err
	}
	if err := d.StartWeb(func(*core.Node) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte("<html>minimal page</html>"))
		})
	}); err != nil {
		return nil, err
	}

	b := browser.New(d.CARootPool(), cfg.BrowserRTT)
	b.Resolve("bn.example.org", d.Nodes[0].WebAddr())
	ctx := context.Background()
	res := &Table3Result{NetworkLatency: cfg.BrowserRTT}

	// Warm up the TLS path once so one-time costs (session setup, page
	// faults) don't land on the first measured scenario.
	if _, err := b.Get(ctx, "bn.example.org", "/"); err != nil {
		return nil, err
	}

	// Plain access: browser without the extension.
	start := time.Now()
	if _, err := b.Get(ctx, "bn.example.org", "/"); err != nil {
		return nil, err
	}
	res.PlainGET = time.Since(start)

	// Fresh session with the extension on a new browser device: its own
	// verifier over an empty caching KDS client (one KDS trip, the
	// chain). The SP node's verifier would not do: it holds chain proofs
	// from provisioning that no browser has.
	kc := kds.NewClient(d.KDSURL(), &http.Client{Transport: d.KDSNet()})
	kc.SetCaching(true)
	ext := webext.New(b, attest.NewVerifier(kc, attest.NewStaticGolden(d.Golden)))
	ext.RegisterSite("bn.example.org", d.Golden)
	start = time.Now()
	if _, _, err := ext.Navigate(ctx, "bn.example.org", "/"); err != nil {
		return nil, err
	}
	res.GETWithAttestation = time.Since(start)

	// Subsequent access in the same session: connection validation only.
	start = time.Now()
	if _, _, err := ext.Navigate(ctx, "bn.example.org", "/"); err != nil {
		return nil, err
	}
	res.GETWithConnCheck = time.Since(start)

	// Fresh session on the same device: its caches are warm from the
	// first attestation.
	ext.ResetSession()
	start = time.Now()
	if _, _, err := ext.Navigate(ctx, "bn.example.org", "/"); err != nil {
		return nil, err
	}
	res.WarmAttestation = time.Since(start)

	return res, nil
}

// Render prints the table in the paper's layout.
func (r *Table3Result) Render() string {
	rows := [][]string{
		{"Network latency", fmtMS(r.NetworkLatency)},
		{"Plain HTTP GET", fmtMS(r.PlainGET)},
		{"HTTP GET and remote attestation", fmtMS(r.GETWithAttestation)},
		{"HTTP GET and conn. validation", fmtMS(r.GETWithConnCheck)},
		{"(fresh session, warm VCEK cache)", fmtMS(r.WarmAttestation)},
	}
	return "Table 3: Browser-based remote attestation and validation\n" +
		table([]string{"Scenario", "Latency(ms)"}, rows)
}
