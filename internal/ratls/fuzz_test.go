package ratls

import (
	"bytes"
	"context"
	"crypto/x509"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"revelio/attestation"
	"revelio/attestation/snp"
)

// handlerTransport serves HTTP requests from a handler in process: a
// KDS without sockets, for the fuzzer's many executions.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// inTaxonomy reports whether err is classified by the SDK's error
// taxonomy, so callers can branch on it without parsing messages.
func inTaxonomy(err error) bool {
	return errors.Is(err, attestation.ErrEvidenceInvalid) ||
		errors.Is(err, attestation.ErrEvidenceExpired) ||
		errors.Is(err, attestation.ErrPolicyRejected) ||
		errors.Is(err, attestation.ErrKDSUnavailable) ||
		errors.Is(err, attestation.ErrUnknownProvider)
}

// FuzzProviderPeerVerifier feeds arbitrary leaf DER to the RA-TLS
// handshake callback, as a gateway does with whatever an upstream
// presents. The simulated estate derives every key from fixed seeds, so
// certificates minted in one run verify in every later run. It checks
// that nothing panics, that every failure is classified by the error
// taxonomy, that a second call on the same callback (a memo hit when
// the first accepted) agrees, and that an accepted certificate's
// evidence binds the certificate's own public key.
func FuzzProviderPeerVerifier(f *testing.F) {
	sim, err := snp.NewSimulator([]byte("fuzz-provider-peer-verifier"))
	if err != nil {
		f.Fatal(err)
	}
	signer, golden, err := sim.LaunchGuest([]byte("fuzz-chip"), 7, []byte("fuzz guest"))
	if err != nil {
		f.Fatal(err)
	}
	kc := snp.NewKDSClient("http://kds.invalid", &http.Client{Transport: handlerTransport{sim.Handler()}})
	kc.SetCaching(true)
	policy := snp.NewStaticGolden(golden)
	ctx := context.Background()

	issuer := snp.NewNodeProvider(signer, snp.NewVerifier(kc, policy))
	genuine, err := CreateProviderCertificate(ctx, issuer, "node.internal")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(genuine.Certificate[0])
	f.Add(graft(f, genuine.Certificate[0]))
	f.Add(selfSigned(f))
	f.Add([]byte("junk"))

	f.Fuzz(func(t *testing.T, leaf []byte) {
		provider := snp.NewProvider(snp.NewVerifier(kc, policy))
		verify := ProviderPeerVerifier(provider)
		err := verify([][]byte{leaf}, nil)
		errAgain := verify([][]byte{leaf}, nil)
		if (err == nil) != (errAgain == nil) {
			t.Fatalf("verdict changed on the second call: %v, then %v", err, errAgain)
		}
		if err != nil {
			if !inTaxonomy(err) || !inTaxonomy(errAgain) {
				t.Fatalf("error outside the taxonomy: %v / %v", err, errAgain)
			}
			return
		}
		cert, err := x509.ParseCertificate(leaf)
		if err != nil {
			t.Fatalf("accepted a leaf that does not parse: %v", err)
		}
		pubDER, err := x509.MarshalPKIXPublicKey(cert.PublicKey)
		if err != nil {
			t.Fatalf("accepted a leaf whose key does not marshal: %v", err)
		}
		res, err := VerifyProviderCertificate(ctx, provider, cert)
		if err != nil {
			t.Fatalf("callback accepted what VerifyProviderCertificate rejects: %v", err)
		}
		report, ok := res.Details.(*snp.Report)
		if !ok {
			t.Fatalf("accepted evidence carries no SEV-SNP report: %T", res.Details)
		}
		if !bytes.Equal(res.Payload, pubDER) || report.ReportData != snp.HashOf(pubDER) {
			t.Fatal("accepted evidence does not bind the certificate's public key")
		}
	})
}
