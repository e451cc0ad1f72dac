package attest

import (
	"context"
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/sha512"
	"crypto/x509"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"revelio/attestation"
	"revelio/internal/amdsp"
	"revelio/internal/kds"
	"revelio/internal/netlab"
	"revelio/internal/sev"
	"revelio/internal/vm"
)

// bundleRig is a KDS that counts requests per endpoint, for verifiers
// of bundles that carry their chip's VCEK.
type bundleRig struct {
	mfr         *amdsp.Manufacturer
	kds         *kds.Server
	url         string
	chain, vcek atomic.Int64 // KDS requests per endpoint
}

func newBundleRig(t *testing.T) *bundleRig {
	t.Helper()
	mfr, err := amdsp.NewManufacturer([]byte("bundled-vcek-test"))
	if err != nil {
		t.Fatal(err)
	}
	r := &bundleRig{mfr: mfr, kds: kds.NewServer(mfr)}
	server := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.HasPrefix(req.URL.Path, kds.VCEKPathPrefix) {
			r.vcek.Add(1)
		} else {
			r.chain.Add(1)
		}
		r.kds.ServeHTTP(w, req)
	}))
	t.Cleanup(server.Close)
	r.url = server.URL
	return r
}

// device is a browser-side verifier with an empty caching KDS client.
func (r *bundleRig) device(opts ...Option) *Verifier {
	kc := kds.NewClient(r.url, nil)
	kc.SetCaching(true)
	return NewVerifier(kc, nil, opts...)
}

// countingSource counts the certificate lookups a verifier makes.
func countingSource(src CertSource, vcek, chain *atomic.Int64) hookSource {
	return hookSource{
		vcek: func(ctx context.Context, chip sev.ChipID, tcb uint64) (*x509.Certificate, error) {
			vcek.Add(1)
			return src.VCEK(ctx, chip, tcb)
		},
		chain: func(ctx context.Context) (*x509.Certificate, *x509.Certificate, error) {
			chain.Add(1)
			return src.CertChain(ctx)
		},
	}
}

// chipGuest is a guest on a freshly minted chip with the chip's VCEK,
// as the KDS serves it, in its host certificate table.
type chipGuest struct {
	sp    *amdsp.SecureProcessor
	guest *amdsp.GuestChannel
}

func (r *bundleRig) chip(t *testing.T, seed string) chipGuest {
	t.Helper()
	sp, guest := launchGuest(t, r.mfr, seed)
	der, err := r.kds.VCEKDER(sp.ChipID(), sp.TCB())
	if err != nil {
		t.Fatal(err)
	}
	sp.SetExtConfig(der)
	return chipGuest{sp: sp, guest: guest}
}

// bundle is a fresh report over payload, bundled with the host's VCEK.
func (c chipGuest) bundle(t *testing.T, payload string) *Bundle {
	t.Helper()
	rep, der, err := c.guest.ExtendedReport(vm.HashOf([]byte(payload)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBundle(rep, []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	b.VCEK = der
	return b
}

func verifyBundle(v *Verifier, b *Bundle) error {
	_, err := v.VerifyBundle(context.Background(), b, vm.HashOf)
	return err
}

// TestBundledVCEKColdDeviceTwoChipsOneChainRequest: a device with empty
// caches verifying bundled reports from two chips fetches the ASK/ARK
// chain once and no VCEK at all.
func TestBundledVCEKColdDeviceTwoChipsOneChainRequest(t *testing.T) {
	r := newBundleRig(t)
	a, b := r.chip(t, "chip-a"), r.chip(t, "chip-b")
	dev := r.device()
	for _, c := range []chipGuest{a, b, a, b} {
		if err := verifyBundle(dev, c.bundle(t, "tls-key")); err != nil {
			t.Fatal(err)
		}
	}
	if n, m := r.chain.Load(), r.vcek.Load(); n != 1 || m != 0 {
		t.Errorf("cold device, two chips: %d chain + %d VCEK requests, want 1 + 0", n, m)
	}
}

// TestBundledVCEKWarmDeviceNoSourceCalls: once the (chip, TCB) pair is
// proven, a fresh report bundled with the same DER costs no certificate
// lookup at all, cached or not.
func TestBundledVCEKWarmDeviceNoSourceCalls(t *testing.T) {
	r := newBundleRig(t)
	c := r.chip(t, "chip")
	kc := kds.NewClient(r.url, nil)
	kc.SetCaching(true)
	var vcekCalls, chainCalls atomic.Int64
	dev := NewVerifier(countingSource(kc, &vcekCalls, &chainCalls), nil)
	if err := verifyBundle(dev, c.bundle(t, "first")); err != nil {
		t.Fatal(err)
	}
	vcekCalls.Store(0)
	chainCalls.Store(0)
	for i := 0; i < 3; i++ {
		if err := verifyBundle(dev, c.bundle(t, "fresh")); err != nil {
			t.Fatal(err)
		}
	}
	if n, m := vcekCalls.Load(), chainCalls.Load(); n+m != 0 {
		t.Errorf("warm device made %d VCEK + %d chain lookups, want none", n, m)
	}
}

// TestBundledVCEKOtherDERRewalksChain: a second genuine certificate for
// a proven (chip, TCB) — another issue, so other bytes — is not covered
// by the proof and re-walks the chain, exactly once.
func TestBundledVCEKOtherDERRewalksChain(t *testing.T) {
	r := newBundleRig(t)
	c := r.chip(t, "chip")
	kc := kds.NewClient(r.url, nil)
	kc.SetCaching(true)
	var vcekCalls, chainCalls atomic.Int64
	dev := NewVerifier(countingSource(kc, &vcekCalls, &chainCalls), nil)
	if err := verifyBundle(dev, c.bundle(t, "first")); err != nil {
		t.Fatal(err)
	}
	reissued, err := r.mfr.VCEKCertDER(c.sp.ChipID(), c.sp.TCB())
	if err != nil {
		t.Fatal(err)
	}
	chainCalls.Store(0)
	for i := 0; i < 2; i++ {
		b := c.bundle(t, "reissued")
		b.VCEK = reissued
		if err := verifyBundle(dev, b); err != nil {
			t.Fatalf("reissued VCEK: %v", err)
		}
	}
	if n := chainCalls.Load(); n != 1 {
		t.Errorf("reissued VCEK walked the chain %d times, want 1", n)
	}
	if n := vcekCalls.Load(); n != 0 {
		t.Errorf("bundled path fetched %d VCEKs, want 0", n)
	}
}

// forgeBundle re-signs a genuine bundle's report with key and bundles
// cert in place of the host's VCEK: were cert accepted, the signature
// would verify.
func forgeBundle(t *testing.T, genuine *Bundle, cert *x509.Certificate, key *ecdsa.PrivateKey) *Bundle {
	t.Helper()
	var rep sev.Report
	if err := rep.UnmarshalBinary(genuine.ReportRaw); err != nil {
		t.Fatal(err)
	}
	digest := sha512.Sum384(rep.SignedBytes())
	sig, err := ecdsa.SignASN1(rand.Reader, key, digest[:])
	if err != nil {
		t.Fatal(err)
	}
	rep.Signature = sig
	b, err := NewBundle(&rep, genuine.Payload)
	if err != nil {
		t.Fatal(err)
	}
	b.VCEK = cert.Raw
	return b
}

// TestBundledVCEKFailsClosed: a bundled VCEK that does not parse, chain
// to the ARK, or match the report fails the evidence with its taxonomy
// sentinel, on cold and warm devices alike, and is never retried through
// the KDS's VCEK endpoint.
func TestBundledVCEKFailsClosed(t *testing.T) {
	r := newBundleRig(t)
	c, other := r.chip(t, "chip"), r.chip(t, "other-chip")
	rogueCert, rogueKey := rogueVCEK(t, c.sp.ChipID(), c.sp.TCB())
	cases := []struct {
		name  string
		build func(t *testing.T) *Bundle
		want  error
	}{
		{"wrong chip", func(t *testing.T) *Bundle {
			b := c.bundle(t, "k")
			b.VCEK = other.bundle(t, "k").VCEK
			return b
		}, ErrIdentityMismatch},
		{"rogue ASK", func(t *testing.T) *Bundle {
			return forgeBundle(t, c.bundle(t, "k"), rogueCert, rogueKey)
		}, ErrChainInvalid},
		{"garbage DER", func(t *testing.T) *Bundle {
			b := c.bundle(t, "k")
			b.VCEK = []byte("not a certificate")
			return b
		}, ErrChainInvalid},
		{"truncated DER", func(t *testing.T) *Bundle {
			b := c.bundle(t, "k")
			b.VCEK = b.VCEK[:len(b.VCEK)-1]
			return b
		}, ErrChainInvalid},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cold := r.device()
			warm := r.device()
			if err := verifyBundle(warm, c.bundle(t, "genuine")); err != nil {
				t.Fatal(err)
			}
			before := r.vcek.Load()
			for name, dev := range map[string]*Verifier{"cold": cold, "warm": warm} {
				// Twice: the first failure must not be cached either way.
				for i := 0; i < 2; i++ {
					err := verifyBundle(dev, tc.build(t))
					if !errors.Is(err, tc.want) {
						t.Errorf("%s device, attempt %d: err = %v, want %v", name, i, err, tc.want)
					}
					if !errors.Is(err, attestation.ErrEvidenceInvalid) {
						t.Errorf("%s device: err = %v is not ErrEvidenceInvalid", name, err)
					}
				}
			}
			if n := r.vcek.Load() - before; n != 0 {
				t.Errorf("a rejected bundled VCEK fell back to %d KDS VCEK fetches", n)
			}
			// The genuine evidence still verifies on both devices.
			for name, dev := range map[string]*Verifier{"cold": cold, "warm": warm} {
				if err := verifyBundle(dev, c.bundle(t, "genuine")); err != nil {
					t.Errorf("%s device after the failures: %v", name, err)
				}
			}
		})
	}
}

// TestBundledVCEKExpired: a VCEK out of its validity window is
// ErrEvidenceExpired, judged before the chain is fetched.
func TestBundledVCEKExpired(t *testing.T) {
	r := newBundleRig(t)
	c := r.chip(t, "chip")
	future := time.Now().Add(40 * 365 * 24 * time.Hour)
	dev := r.device(WithClock(func() time.Time { return future }))
	err := verifyBundle(dev, c.bundle(t, "k"))
	if !errors.Is(err, ErrEvidenceExpired) {
		t.Errorf("err = %v, want ErrEvidenceExpired", err)
	}
	if errors.Is(err, ErrChainInvalid) {
		t.Errorf("err = %v, also ErrChainInvalid", err)
	}
	if n := r.chain.Load() + r.vcek.Load(); n != 0 {
		t.Errorf("expired evidence cost %d KDS requests, want 0", n)
	}
}

// TestBundledVCEKChainOutage: with the KDS unreachable, a cold device
// cannot fetch its trust anchor and fails with ErrKDSUnavailable; the
// failure is not cached, so the same evidence verifies once the KDS is
// back, at the cost of the one chain fetch.
func TestBundledVCEKChainOutage(t *testing.T) {
	r := newBundleRig(t)
	c := r.chip(t, "chip")
	tr := &netlab.Transport{Inner: &http.Transport{}}
	t.Cleanup(tr.CloseIdleConnections)
	kc := kds.NewClient(r.url, &http.Client{Transport: tr})
	kc.SetCaching(true)
	dev := NewVerifier(kc, nil)
	b := c.bundle(t, "k")

	tr.SetOutage(errors.New("kds unreachable"))
	for i := 0; i < 2; i++ {
		err := verifyBundle(dev, b)
		if !errors.Is(err, attestation.ErrKDSUnavailable) {
			t.Fatalf("attempt %d: err = %v, want ErrKDSUnavailable", i, err)
		}
		if errors.Is(err, attestation.ErrEvidenceInvalid) || errors.Is(err, attestation.ErrPolicyRejected) {
			t.Errorf("an outage judged the evidence: %v", err)
		}
	}
	tr.SetOutage(nil)
	if err := verifyBundle(dev, b); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	if n, m := r.chain.Load(), r.vcek.Load(); n != 1 || m != 0 {
		t.Errorf("recovery cost %d chain + %d VCEK requests, want 1 + 0", n, m)
	}
}

// TestBundledVCEKReportProofNeedsSameDER: a report already proven under
// one VCEK, replayed with other bytes in the vcek field, does not ride
// the report proof: the bytes it carries are checked.
func TestBundledVCEKReportProofNeedsSameDER(t *testing.T) {
	r := newBundleRig(t)
	c := r.chip(t, "chip")
	dev := r.device()
	b := c.bundle(t, "k")
	if err := verifyBundle(dev, b); err != nil {
		t.Fatal(err)
	}
	junk := *b
	junk.VCEK = []byte{0x30, 0x00}
	if err := verifyBundle(dev, &junk); !errors.Is(err, ErrChainInvalid) {
		t.Errorf("proven report with junk VCEK: err = %v, want ErrChainInvalid", err)
	}
	bare := *b
	bare.VCEK = nil
	if err := verifyBundle(dev, &bare); err != nil {
		t.Errorf("proven report without a VCEK: %v", err)
	}
}
