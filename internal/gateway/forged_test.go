package gateway

import (
	"crypto/tls"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"revelio/attestation"
	"revelio/attestation/snp"
)

// forgingSigner flips one bit of every report signature it hands out.
type forgingSigner struct{ inner snp.ReportSigner }

func (s forgingSigner) Report(data snp.ReportData) (*snp.Report, error) {
	r, err := s.inner.Report(data)
	if err != nil {
		return nil, err
	}
	r.Signature[len(r.Signature)-1] ^= 1
	return r, nil
}

// TestGatewayEjectsForgedReportSparesBreaker: an upstream whose RA-TLS
// evidence carries a report with a forged signature is an attestation
// reject — ejected, fail closed — not a transport failure, so it never
// feeds the upstream's breaker.
func TestGatewayEjectsForgedReportSparesBreaker(t *testing.T) {
	sim, err := snp.NewSimulator([]byte("gateway-forged-report"))
	if err != nil {
		t.Fatal(err)
	}
	kdsServer := httptest.NewServer(sim.Handler())
	t.Cleanup(kdsServer.Close)
	signer, golden, err := sim.LaunchGuest([]byte("chip"), 7, []byte("image"))
	if err != nil {
		t.Fatal(err)
	}
	verifier := snp.NewVerifier(snp.NewKDSClient(kdsServer.URL, nil), snp.NewStaticGolden(golden))
	addr := startUpstream(t, snp.NewNodeProvider(forgingSigner{signer}, verifier), idHandler("forged"))
	mux := attestation.NewMux()
	mux.RegisterProvider(snp.NewProvider(verifier))

	cert := selfSigned(t)
	g, err := New(Config{
		Source:         NewView(testDomain, serving(addr)),
		Verifier:       mux,
		GetCertificate: func() (*tls.Certificate, error) { return &cert, nil },
		// One transport failure would open the breaker.
		Resilience: Resilience{BreakerFailures: 1, BreakerOpenFor: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	client := &http.Client{
		Transport: &http.Transport{
			TLSClientConfig: &tls.Config{InsecureSkipVerify: true}, //nolint:gosec // test client
		},
		Timeout: 10 * time.Second,
	}
	t.Cleanup(client.CloseIdleConnections)

	if body, status := get(t, client, "https://"+g.Addr()+"/"); status == http.StatusOK {
		t.Fatalf("forged upstream served %q", body)
	}
	s := g.Stats()
	if !slices.Contains(s.Ejected, addr) {
		t.Errorf("forged upstream not ejected: Ejected=%v", s.Ejected)
	}
	if len(s.BreakerOpen) != 0 || s.BreakerOpens != 0 {
		t.Errorf("forged report fed the breaker: BreakerOpen=%v opens=%d", s.BreakerOpen, s.BreakerOpens)
	}
}
