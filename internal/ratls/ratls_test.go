package ratls

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
	"math/big"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"revelio/attestation"
	"revelio/attestation/snp"
	"revelio/internal/amdsp"
	"revelio/internal/attest"
	"revelio/internal/firmware"
	"revelio/internal/hypervisor"
	"revelio/internal/imagebuild"
	"revelio/internal/kds"
	"revelio/internal/measure"
	"revelio/internal/registry"
	"revelio/internal/vm"
)

type rig struct {
	vm *vm.VM
	// provider issues evidence from inside the node and verifies it as
	// a relying party, over verifier (static golden policy).
	provider *snp.Provider
	verifier *attest.Verifier
	golden   measure.Measurement
	client   *kds.Client
	hits     atomic.Int64 // KDS round trips observed
}

func newRig(t *testing.T) *rig {
	t.Helper()
	mfr, err := amdsp.NewManufacturer([]byte("ratls-test"))
	if err != nil {
		t.Fatal(err)
	}
	chip, err := mfr.MintProcessor([]byte("chip"), 5)
	if err != nil {
		t.Fatal(err)
	}
	reg := imagebuild.NewRegistry()
	base := imagebuild.PublishUbuntuBase(reg)
	spec := imagebuild.CryptpadSpec(base)
	spec.PersistSize = 256 * 1024
	img, err := imagebuild.NewBuilder(reg).Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	fw := firmware.NewOVMF("2023.05")
	guest, err := hypervisor.New(chip).Launch(hypervisor.Config{
		Firmware: fw,
		Blobs:    hypervisor.BootBlobs{Kernel: img.Kernel, Initrd: img.Initrd, Cmdline: img.Cmdline},
	})
	if err != nil {
		t.Fatal(err)
	}
	guestVM, err := vm.Boot(guest, vm.BootConfig{Disk: img.Disk, Table: img.Table, Domain: "node.internal"})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{vm: guestVM}
	kdsHandler := kds.NewServer(mfr)
	kdsServer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r.hits.Add(1)
		kdsHandler.ServeHTTP(w, req)
	}))
	t.Cleanup(kdsServer.Close)
	golden, err := hypervisor.ExpectedMeasurement(fw, hypervisor.BootBlobs{
		Kernel: img.Kernel, Initrd: img.Initrd, Cmdline: img.Cmdline,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.client = kds.NewClient(kdsServer.URL, nil)
	r.golden = golden
	r.verifier = attest.NewVerifier(r.client, attest.NewStaticGolden(golden))
	r.provider = snp.NewNodeProvider(r.vm, r.verifier)
	return r
}

// cert mints an RA-TLS certificate whose evidence the node's VM signs.
func (r *rig) cert(t *testing.T) tls.Certificate {
	t.Helper()
	cert, err := CreateProviderCertificate(context.Background(), r.provider, "node.internal")
	if err != nil {
		t.Fatalf("CreateProviderCertificate: %v", err)
	}
	return cert
}

// votedProvider is a relying party over a one-voter registry that trusts
// the rig's golden measurement, so a test can revoke it.
func (r *rig) votedProvider(t *testing.T) (*snp.Provider, *registry.Registry) {
	t.Helper()
	reg := registry.New(1)
	reg.AddVoter("dao")
	if err := reg.Propose(r.golden, "v1"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Vote("dao", r.golden); err != nil {
		t.Fatal(err)
	}
	return snp.NewProvider(attest.NewVerifier(r.client, reg)), reg
}

// selfSigned returns the DER of a fresh self-signed certificate carrying
// exts, the way a host without a TEE (or an attacker) would mint one.
func selfSigned(tb testing.TB, exts ...pkix.Extension) []byte {
	tb.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		tb.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:    big.NewInt(1),
		Subject:         pkix.Name{CommonName: "node.internal"},
		NotBefore:       time.Now().Add(-time.Hour),
		NotAfter:        time.Now().Add(24 * time.Hour),
		ExtraExtensions: exts,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		tb.Fatal(err)
	}
	return der
}

// graft copies the evidence extension of a genuine certificate onto a
// fresh key pair: stolen evidence on a key the TEE never saw.
func graft(tb testing.TB, genuine []byte) []byte {
	tb.Helper()
	parsed, err := x509.ParseCertificate(genuine)
	if err != nil {
		tb.Fatal(err)
	}
	for _, ext := range parsed.Extensions {
		if ext.Id.Equal(OIDAttestationEvidence) {
			return selfSigned(tb, ext)
		}
	}
	tb.Fatal("genuine certificate carries no evidence extension")
	return nil
}

func mustParse(t *testing.T, der []byte) *x509.Certificate {
	t.Helper()
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	return cert
}

func TestCertificateCarriesValidEvidence(t *testing.T) {
	r := newRig(t)
	cert := r.cert(t)
	res, err := VerifyProviderCertificate(context.Background(), r.provider, mustParse(t, cert.Certificate[0]))
	if err != nil {
		t.Fatalf("VerifyProviderCertificate: %v", err)
	}
	if res.Measurement != r.golden || res.Provider != snp.ProviderName {
		t.Errorf("result = %s %x, want %s %x", res.Provider, res.Measurement, snp.ProviderName, r.golden)
	}
}

func TestCertificateWithoutEvidenceRejected(t *testing.T) {
	r := newRig(t)
	// A plain self-signed cert (e.g. from a non-TEE server).
	plain := mustParse(t, selfSigned(t))
	_, err := VerifyProviderCertificate(context.Background(), r.provider, plain)
	if !errors.Is(err, ErrNoEvidence) || !errors.Is(err, attestation.ErrEvidenceInvalid) {
		t.Errorf("err = %v, want ErrNoEvidence under ErrEvidenceInvalid", err)
	}
}

// TestEvidenceTransplantRejected: stealing valid evidence and grafting it
// onto a different key pair fails the key binding.
func TestEvidenceTransplantRejected(t *testing.T) {
	r := newRig(t)
	victim := r.cert(t)
	fake := mustParse(t, graft(t, victim.Certificate[0]))
	_, err := VerifyProviderCertificate(context.Background(), r.provider, fake)
	if !errors.Is(err, ErrKeyMismatch) || !errors.Is(err, attestation.ErrBindingMismatch) {
		t.Errorf("err = %v, want ErrKeyMismatch under ErrBindingMismatch", err)
	}
}

// TestPeerVerifierErrorsInTaxonomy: every way a peer certificate can be
// unusable — none sent, bytes that do not parse as a certificate, no
// evidence — is an ErrEvidenceInvalid, so the gateway ejects the node
// instead of counting a transport failure against its breaker.
func TestPeerVerifierErrorsInTaxonomy(t *testing.T) {
	r := newRig(t)
	verify := ProviderPeerVerifier(r.provider)
	for name, rawCerts := range map[string][][]byte{
		"none":    nil,
		"garbage": {[]byte("not a certificate")},
		"plain":   {selfSigned(t)},
	} {
		if err := verify(rawCerts, nil); !errors.Is(err, attestation.ErrEvidenceInvalid) {
			t.Errorf("%s: err = %v, want ErrEvidenceInvalid", name, err)
		}
	}
}

// TestFullRATLSHandshake runs a real TLS connection where the client only
// completes the handshake against attested servers.
func TestFullRATLSHandshake(t *testing.T) {
	r := newRig(t)
	serverCert := r.cert(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tlsLn := tls.NewListener(ln, &tls.Config{Certificates: []tls.Certificate{serverCert}})
	server := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("attested hello"))
	})}
	go func() { _ = server.Serve(tlsLn) }()
	t.Cleanup(func() { _ = server.Close() })

	client := &http.Client{Transport: &http.Transport{TLSClientConfig: ProviderClientConfig(r.provider)}}
	resp, err := client.Get("https://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatalf("RA-TLS GET: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "attested hello" {
		t.Errorf("body = %q", body)
	}

	// Against a non-attested server the handshake itself fails.
	plain := httptest.NewTLSServer(http.NotFoundHandler())
	t.Cleanup(plain.Close)
	if _, err := client.Get(plain.URL); !errors.Is(err, ErrNoEvidence) {
		t.Errorf("handshake with unattested server: %v, want ErrNoEvidence", err)
	}
}

// TestPeerVerifierMemoizesHandshakes: after one full verification,
// repeated handshakes against the same certificate cost zero KDS round
// trips; a tampered certificate misses the memo and fails closed.
func TestPeerVerifierMemoizesHandshakes(t *testing.T) {
	r := newRig(t)
	raw := r.cert(t).Certificate[0]
	verify := ProviderPeerVerifier(r.provider)

	if err := verify([][]byte{raw}, nil); err != nil {
		t.Fatalf("first handshake: %v", err)
	}
	cold := r.hits.Load()
	for i := 0; i < 10; i++ {
		if err := verify([][]byte{raw}, nil); err != nil {
			t.Fatalf("memoized handshake %d: %v", i, err)
		}
	}
	if n := r.hits.Load(); n != cold {
		t.Errorf("memoized handshakes cost %d KDS round trips, want 0", n-cold)
	}

	// A single flipped bit in the certificate falls through the memo and
	// fails full verification — on every attempt (failures not memoized).
	tampered := append([]byte(nil), raw...)
	tampered[len(tampered)/2] ^= 1
	for i := 0; i < 2; i++ {
		if err := verify([][]byte{tampered}, nil); err == nil {
			t.Fatalf("attempt %d: tampered certificate accepted", i)
		}
	}
	// The genuine certificate still verifies from the memo.
	if err := verify([][]byte{raw}, nil); err != nil {
		t.Errorf("genuine certificate after tamper attempts: %v", err)
	}
}

// TestPeerVerifierPolicyRevocation: a registry revocation fails the very
// next handshake even though the certificate's crypto proof is memoized.
func TestPeerVerifierPolicyRevocation(t *testing.T) {
	r := newRig(t)
	provider, reg := r.votedProvider(t)
	raw := r.cert(t).Certificate[0]
	verify := ProviderPeerVerifier(provider)

	if err := verify([][]byte{raw}, nil); err != nil {
		t.Fatalf("voted measurement rejected: %v", err)
	}
	cold := r.hits.Load()
	if err := reg.Revoke(r.golden); err != nil {
		t.Fatal(err)
	}
	if err := verify([][]byte{raw}, nil); !errors.Is(err, attest.ErrRevoked) {
		t.Errorf("revoked measurement passed the memoized handshake: %v", err)
	}
	if n := r.hits.Load(); n != cold {
		t.Errorf("revocation check cost %d KDS round trips, want a memo hit (0)", n-cold)
	}
}

// TestPeerVerifierInvalidateCascades: InvalidatePolicy bumps the
// revision the ratls memo is keyed on, forcing full re-verification.
func TestPeerVerifierInvalidateCascades(t *testing.T) {
	r := newRig(t)
	raw := r.cert(t).Certificate[0]
	verify := ProviderPeerVerifier(r.provider)
	if err := verify([][]byte{raw}, nil); err != nil {
		t.Fatal(err)
	}
	cold := r.hits.Load()
	r.provider.InvalidatePolicy()
	if err := verify([][]byte{raw}, nil); err != nil {
		t.Fatal(err)
	}
	if r.hits.Load() == cold {
		t.Error("handshake after InvalidatePolicy skipped re-verification")
	}
}

// TestSessionResumptionFencedByPolicyRevision: ProviderClientConfig is
// safe with any session cache, here a plain LRU. Reconnects resume, yet
// every resumed connection re-runs the peer verifier on the saved leaf:
// after InvalidatePolicy the resumed leaf is fully re-verified, and a
// registry revocation rejects the very next connection, resumed or not.
func TestSessionResumptionFencedByPolicyRevision(t *testing.T) {
	r := newRig(t)
	provider, reg := r.votedProvider(t)

	ln, err := tls.Listen("tcp", "127.0.0.1:0", &tls.Config{
		Certificates: []tls.Certificate{r.cert(t)},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer func() { _ = conn.Close() }()
				// One byte of app data flushes the session ticket to
				// the client before we hang up.
				_, _ = conn.Write([]byte("x"))
			}(conn)
		}
	}()

	cfg := ProviderClientConfig(provider)
	cfg.ClientSessionCache = tls.NewLRUClientSessionCache(0)
	dial := func() (resumed bool, err error) {
		conn, err := tls.Dial("tcp", ln.Addr().String(), cfg)
		if err != nil {
			return false, err
		}
		defer func() { _ = conn.Close() }()
		one := make([]byte, 1)
		if _, err := io.ReadFull(conn, one); err != nil {
			return false, err
		}
		return conn.ConnectionState().DidResume, nil
	}

	if resumed, err := dial(); err != nil || resumed {
		t.Fatalf("first dial: resumed=%v err=%v", resumed, err)
	}
	resumed, err := dial()
	if err != nil {
		t.Fatalf("second dial: %v", err)
	}
	if !resumed {
		t.Skip("TLS stack did not resume; the resumed-session check is not exercisable here")
	}

	// InvalidatePolicy: the session still resumes, but its saved leaf
	// misses the memo and goes through full verification again.
	cold := r.hits.Load()
	provider.InvalidatePolicy()
	if resumed, err := dial(); err != nil || !resumed {
		t.Fatalf("dial after InvalidatePolicy: resumed=%v err=%v", resumed, err)
	}
	if r.hits.Load() == cold {
		t.Error("resumed connection after InvalidatePolicy skipped re-verification")
	}

	// Revocation alone must already reject the next connection, though
	// the session cache would happily resume it.
	if err := reg.Revoke(r.golden); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := dial(); !errors.Is(err, attest.ErrRevoked) {
			t.Errorf("dial %d after revocation: %v, want ErrRevoked", i, err)
		}
	}
}

// TestPeerVerifierConcurrent hammers one callback from many goroutines
// (run under -race) with valid and tampered certificates interleaved.
func TestPeerVerifierConcurrent(t *testing.T) {
	r := newRig(t)
	raw := r.cert(t).Certificate[0]
	tampered := append([]byte(nil), raw...)
	tampered[10] ^= 1
	verify := ProviderPeerVerifier(r.provider)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := verify([][]byte{raw}, nil); err != nil {
					t.Errorf("valid cert: %v", err)
				}
				if err := verify([][]byte{tampered}, nil); err == nil {
					t.Error("tampered cert accepted")
				}
			}
		}()
	}
	wg.Wait()
}
