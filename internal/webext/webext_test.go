package webext

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"revelio/internal/acme"
	"revelio/internal/browser"
	"revelio/internal/core"
	"revelio/internal/imagebuild"
	"revelio/internal/measure"

	"revelio/attestation"
)

const domain = "pad.example.org"

func newDeployment(t *testing.T, nodes int) *core.Deployment {
	t.Helper()
	reg := imagebuild.NewRegistry()
	base := imagebuild.PublishUbuntuBase(reg)
	spec := imagebuild.CryptpadSpec(base)
	spec.PersistSize = 256 * 1024
	d, err := core.New(core.Config{
		Spec:     spec,
		Registry: reg,
		Nodes:    nodes,
		Domain:   domain,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if _, err := d.ProvisionCertificates(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := d.StartWeb(func(*core.Node) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte("cryptpad"))
		})
	}); err != nil {
		t.Fatal(err)
	}
	return d
}

func newClientSide(t *testing.T, d *core.Deployment, nodeIdx int) (*browser.Browser, *Extension) {
	t.Helper()
	b := browser.New(d.CARootPool(), 0)
	b.Resolve(domain, d.Nodes[nodeIdx].WebAddr())
	ext := New(b, d.Verifier)
	return b, ext
}

func TestNavigateWithAttestation(t *testing.T) {
	d := newDeployment(t, 1)
	_, ext := newClientSide(t, d, 0)
	ext.RegisterSite(domain, d.Golden)

	resp, metrics, err := ext.Navigate(context.Background(), domain, "/")
	if err != nil {
		t.Fatalf("Navigate: %v", err)
	}
	if string(resp.Body) != "cryptpad" {
		t.Errorf("body = %q", resp.Body)
	}
	if !metrics.Attested || metrics.AttestationTime <= 0 {
		t.Errorf("first navigation did not attest: %+v", metrics)
	}

	// Warm session: no re-attestation, but connection still validated.
	_, metrics2, err := ext.Navigate(context.Background(), domain, "/doc")
	if err != nil {
		t.Fatal(err)
	}
	if metrics2.Attested {
		t.Error("second navigation re-attested")
	}
	if metrics2.ConnValidation < 0 {
		t.Error("missing connection validation")
	}
}

func TestNavigateUnregisteredSite(t *testing.T) {
	d := newDeployment(t, 1)
	_, ext := newClientSide(t, d, 0)
	if _, _, err := ext.Navigate(context.Background(), domain, "/"); !errors.Is(err, ErrSiteNotRegistered) {
		t.Errorf("err = %v, want ErrSiteNotRegistered", err)
	}
}

func TestNavigateWrongGolden(t *testing.T) {
	d := newDeployment(t, 1)
	_, ext := newClientSide(t, d, 0)
	var wrong measure.Measurement
	wrong[0] = 0xAA
	ext.RegisterSite(domain, wrong)
	_, _, err := ext.Navigate(context.Background(), domain, "/")
	if !errors.Is(err, ErrMeasurementMismatch) && !errors.Is(err, ErrAttestationFailed) {
		t.Errorf("err = %v, want measurement/attestation failure", err)
	}
}

func TestDiscoverFindsRevelioSite(t *testing.T) {
	d := newDeployment(t, 1)
	_, ext := newClientSide(t, d, 0)
	m, err := ext.Discover(context.Background(), domain)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if m != d.Golden {
		t.Error("discovered measurement differs from golden")
	}
}

func TestDiscoverNonRevelioSite(t *testing.T) {
	d := newDeployment(t, 1)
	b, ext := newClientSide(t, d, 0)

	// A plain HTTPS site with a valid cert but no attestation endpoint.
	plainAddr := startTLSSite(t, d, "plain.example.org", http.NotFoundHandler())
	b.Resolve("plain.example.org", plainAddr)
	if _, err := ext.Discover(context.Background(), "plain.example.org"); !errors.Is(err, ErrNoAttestation) {
		t.Errorf("err = %v, want ErrNoAttestation", err)
	}
}

// startTLSSite brings up a non-Revelio HTTPS site for name under the
// deployment's CA — a plain site, or an attacker who controls DNS and so
// passes DNS-01 for the victim's domain.
func startTLSSite(t *testing.T, d *core.Deployment, name string, handler http.Handler) string {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := x509.CreateCertificateRequest(rand.Reader, &x509.CertificateRequest{
		Subject:  pkix.Name{CommonName: name},
		DNSNames: []string{name},
	}, key)
	if err != nil {
		t.Fatal(err)
	}
	certDER, err := acme.NewClient(d.CA, d.Zone).ObtainCertificate(context.Background(), name, csr)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tlsLn := tls.NewListener(ln, &tls.Config{
		Certificates: []tls.Certificate{{Certificate: [][]byte{certDER}, PrivateKey: key}},
	})
	server := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = server.Serve(tlsLn) }()
	t.Cleanup(func() { _ = server.Close() })
	return ln.Addr().String()
}

// TestRedirectAttackDetected is the §5.3.2 attack: after attestation, a
// malicious service provider (who controls DNS and can obtain fresh
// CA-valid certificates) redirects the domain to a non-Revelio server.
// The browser alone accepts it — the certificate is valid — but the
// extension's per-request connection validation catches the key change.
func TestRedirectAttackDetected(t *testing.T) {
	d := newDeployment(t, 1)
	b, ext := newClientSide(t, d, 0)
	ext.RegisterSite(domain, d.Golden)

	if _, _, err := ext.Navigate(context.Background(), domain, "/"); err != nil {
		t.Fatalf("initial navigation: %v", err)
	}

	// The attacker stands up their own server with a *valid* certificate
	// for the same domain (they control DNS, so they pass DNS-01).
	attackerKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := x509.CreateCertificateRequest(rand.Reader, &x509.CertificateRequest{
		Subject:  pkix.Name{CommonName: domain},
		DNSNames: []string{domain},
	}, attackerKey)
	if err != nil {
		t.Fatal(err)
	}
	certDER, err := acme.NewClient(d.CA, d.Zone).ObtainCertificate(context.Background(), domain, csr)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tlsLn := tls.NewListener(ln, &tls.Config{
		Certificates: []tls.Certificate{{Certificate: [][]byte{certDER}, PrivateKey: attackerKey}},
	})
	attacker := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte("phish"))
		}),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { _ = attacker.Serve(tlsLn) }()
	t.Cleanup(func() { _ = attacker.Close() })

	// DNS redirect.
	b.Resolve(domain, ln.Addr().String())

	// A plain browser would happily load the phishing page; the
	// extension must refuse.
	if _, _, err := ext.Navigate(context.Background(), domain, "/login"); !errors.Is(err, ErrConnectionHijacked) {
		t.Errorf("err = %v, want ErrConnectionHijacked", err)
	}
}

func TestResetSessionReattests(t *testing.T) {
	d := newDeployment(t, 1)
	_, ext := newClientSide(t, d, 0)
	ext.RegisterSite(domain, d.Golden)

	if _, m, err := ext.Navigate(context.Background(), domain, "/"); err != nil || !m.Attested {
		t.Fatalf("first: %v %+v", err, m)
	}
	ext.ResetSession()
	if _, m, err := ext.Navigate(context.Background(), domain, "/"); err != nil || !m.Attested {
		t.Errorf("after reset: err=%v attested=%v", err, m.Attested)
	}
}

func TestMultiNodeAllAttestable(t *testing.T) {
	d := newDeployment(t, 3)
	for i := range d.Nodes {
		b := browser.New(d.CARootPool(), 0)
		b.Resolve(domain, d.Nodes[i].WebAddr())
		ext := New(b, d.Verifier)
		ext.RegisterSite(domain, d.Golden)
		if _, m, err := ext.Navigate(context.Background(), domain, "/"); err != nil || !m.Attested {
			t.Errorf("node %d: err=%v metrics=%+v", i, err, m)
		}
	}
}

// §5.3.2: after a flagged failure, the user may explicitly decide to
// proceed — the override is honored for the session and cleared on reset.
func TestUserOverrideProceeds(t *testing.T) {
	d := newDeployment(t, 1)
	_, ext := newClientSide(t, d, 0)
	var wrong measure.Measurement
	wrong[0] = 0xCC
	ext.RegisterSite(domain, wrong)

	if _, _, err := ext.Navigate(context.Background(), domain, "/"); err == nil {
		t.Fatal("mismatched site loaded without override")
	}
	if err := ext.Override(domain); err != nil {
		t.Fatal(err)
	}
	resp, m, err := ext.Navigate(context.Background(), domain, "/")
	if err != nil {
		t.Fatalf("overridden navigation: %v", err)
	}
	if !m.Overridden || m.Attested {
		t.Errorf("metrics = %+v, want overridden and not attested", m)
	}
	if string(resp.Body) != "cryptpad" {
		t.Errorf("body = %q", resp.Body)
	}
	// The decision is per session.
	ext.ResetSession()
	if _, _, err := ext.Navigate(context.Background(), domain, "/"); err == nil {
		t.Error("override survived session reset")
	}
	if err := ext.Override("unregistered.org"); !errors.Is(err, ErrSiteNotRegistered) {
		t.Errorf("override unregistered: err = %v", err)
	}
}

func TestSiteExportImport(t *testing.T) {
	d := newDeployment(t, 1)
	_, ext := newClientSide(t, d, 0)
	ext.RegisterSite(domain, d.Golden)
	ext.RegisterSite("other.example.org", d.Golden)

	data, err := ext.ExportSites()
	if err != nil {
		t.Fatal(err)
	}

	// A fresh extension (new browser profile) imports the config and can
	// attest immediately.
	b2, ext2 := newClientSide(t, d, 0)
	_ = b2
	if err := ext2.ImportSites(data); err != nil {
		t.Fatal(err)
	}
	if _, m, err := ext2.Navigate(context.Background(), domain, "/"); err != nil || !m.Attested {
		t.Errorf("imported site: err=%v metrics=%+v", err, m)
	}

	// Export is deterministic (sorted).
	data2, err := ext2.ExportSites()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("export not deterministic across instances")
	}

	if err := ext2.ImportSites([]byte("junk")); err == nil {
		t.Error("junk import accepted")
	}
	if err := ext2.ImportSites([]byte(`[{"domain":"x","golden":"zz"}]`)); err == nil {
		t.Error("bad golden hex accepted")
	}
}

// TestReplayedBundleRejected: an attacker who recorded a legitimate
// attestation bundle (e.g. from an earlier boot) and serves it verbatim
// fails the extension's freshness challenge — the recorded REPORT_DATA
// cannot bind the extension's fresh nonce.
func TestReplayedBundleRejected(t *testing.T) {
	d := newDeployment(t, 1)
	b, ext := newClientSide(t, d, 0)
	ext.RegisterSite(domain, d.Golden)

	// Record the nonce-less bundle an honest node serves.
	recorded, err := b.Get(context.Background(), domain, WellKnownPath)
	if err != nil || recorded.Status != 200 {
		t.Fatalf("record bundle: %v (%d)", err, recorded.Status)
	}

	// The attacker's server replays the recorded bundle for every
	// request, nonce or not — behind a CA-valid certificate obtained for
	// the same domain (attacker controls DNS).
	attackerKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := x509.CreateCertificateRequest(rand.Reader, &x509.CertificateRequest{
		Subject:  pkix.Name{CommonName: domain},
		DNSNames: []string{domain},
	}, attackerKey)
	if err != nil {
		t.Fatal(err)
	}
	certDER, err := acme.NewClient(d.CA, d.Zone).ObtainCertificate(context.Background(), domain, csr)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tlsLn := tls.NewListener(ln, &tls.Config{
		Certificates: []tls.Certificate{{Certificate: [][]byte{certDER}, PrivateKey: attackerKey}},
	})
	replayer := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write(recorded.Body)
		}),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { _ = replayer.Serve(tlsLn) }()
	t.Cleanup(func() { _ = replayer.Close() })

	b.Resolve(domain, ln.Addr().String())
	_, _, err = ext.Navigate(context.Background(), domain, "/")
	if !errors.Is(err, ErrAttestationFailed) {
		t.Errorf("err = %v, want ErrAttestationFailed (replay must not bind fresh nonce)", err)
	}
}

// TestErrorsMapOntoAttestationTaxonomy: the extension's user-facing
// failure modes are errors.Is-able against the SDK's attestation
// sentinels, so one branch handles verdicts from any layer.
func TestErrorsMapOntoAttestationTaxonomy(t *testing.T) {
	if !errors.Is(ErrMeasurementMismatch, attestation.ErrUntrustedMeasurement) {
		t.Error("ErrMeasurementMismatch is not an attestation.ErrUntrustedMeasurement")
	}
	if !errors.Is(ErrMeasurementMismatch, attestation.ErrPolicyRejected) {
		t.Error("ErrMeasurementMismatch is not an attestation.ErrPolicyRejected")
	}
	if !errors.Is(ErrConnectionHijacked, attestation.ErrBindingMismatch) {
		t.Error("ErrConnectionHijacked is not an attestation.ErrBindingMismatch")
	}
	if !errors.Is(ErrConnectionHijacked, attestation.ErrEvidenceInvalid) {
		t.Error("ErrConnectionHijacked is not an attestation.ErrEvidenceInvalid")
	}
}

// relay forwards TCP connections to a target address, counting the
// connections it accepts and those still open.
type relay struct {
	addr     string
	accepted atomic.Int64
	open     atomic.Int64
}

func startRelay(t *testing.T, target string) *relay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	r := &relay{addr: ln.Addr().String()}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			r.accepted.Add(1)
			r.open.Add(1)
			go func() {
				defer r.open.Add(-1)
				defer func() { _ = c.Close() }()
				up, err := net.Dial("tcp", target)
				if err != nil {
					return
				}
				defer func() { _ = up.Close() }()
				go func() { _, _ = io.Copy(c, up) }()
				// The client closing its end ends the relayed connection.
				_, _ = io.Copy(up, c)
			}()
		}
	}()
	return r
}

// TestFirstVisitOneHandshake: a first-visit navigation attests and loads
// the page over one TLS connection, and closes it before returning.
func TestFirstVisitOneHandshake(t *testing.T) {
	d := newDeployment(t, 1)
	r := startRelay(t, d.Nodes[0].WebAddr())
	b := browser.New(d.CARootPool(), 0)
	b.Resolve(domain, r.addr)
	ext := New(b, d.Verifier)
	ext.RegisterSite(domain, d.Golden)

	var handshakes atomic.Int64
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		TLSHandshakeDone: func(_ tls.ConnectionState, err error) {
			if err == nil {
				handshakes.Add(1)
			}
		},
	})
	resp, m, err := ext.Navigate(ctx, domain, "/")
	if err != nil {
		t.Fatalf("Navigate: %v", err)
	}
	if !m.Attested || string(resp.Body) != "cryptpad" {
		t.Fatalf("attested=%v body=%q", m.Attested, resp.Body)
	}
	if n := handshakes.Load(); n != 1 {
		t.Errorf("first visit made %d TLS handshakes, want 1", n)
	}
	if n := r.accepted.Load(); n != 1 {
		t.Errorf("first visit opened %d connections to the site, want 1", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.open.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still open after Navigate returned", r.open.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentNavigationsJudgeTheirOwnConnection: tabs of one browser
// navigate concurrently while DNS flips between the attested site and an
// attacker holding a CA-valid certificate for the domain. Every page the
// attacker serves fails the connection check, whatever the concurrent
// tabs do to the browser's per-domain connection context.
func TestConcurrentNavigationsJudgeTheirOwnConnection(t *testing.T) {
	d := newDeployment(t, 1)
	b, ext := newClientSide(t, d, 0)
	ext.RegisterSite(domain, d.Golden)
	if _, _, err := ext.Navigate(context.Background(), domain, "/"); err != nil {
		t.Fatalf("initial navigation: %v", err)
	}

	var served atomic.Int64
	attackerAddr := startTLSSite(t, d, domain, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		served.Add(1)
		_, _ = w.Write([]byte("phish"))
	}))
	addrs := []string{d.Nodes[0].WebAddr(), attackerAddr}

	const tabs, navigations = 16, 32
	var loaded, hijacked atomic.Int64
	var wg sync.WaitGroup
	for tab := 0; tab < tabs; tab++ {
		wg.Add(1)
		go func(tab int) {
			defer wg.Done()
			for i := 0; i < navigations; i++ {
				b.Resolve(domain, addrs[(tab+i)%2])
				resp, _, err := ext.Navigate(context.Background(), domain, "/")
				switch {
				case err == nil && string(resp.Body) == "cryptpad":
					loaded.Add(1)
				case err == nil:
					t.Errorf("attacker page loaded: %q", resp.Body)
				case errors.Is(err, ErrConnectionHijacked):
					hijacked.Add(1)
				default:
					t.Errorf("navigation: %v", err)
				}
			}
		}(tab)
	}
	wg.Wait()
	if hijacked.Load() != served.Load() {
		t.Errorf("attacker served %d pages, %d flagged as hijacked", served.Load(), hijacked.Load())
	}
	if loaded.Load() == 0 || served.Load() == 0 {
		t.Errorf("no mix of servers: %d legitimate loads, %d attacker pages", loaded.Load(), served.Load())
	}
}
