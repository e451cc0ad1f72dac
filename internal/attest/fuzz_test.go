package attest

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"revelio/attestation"
	"revelio/internal/amdsp"
	"revelio/internal/kds"
	"revelio/internal/measure"
	"revelio/internal/sev"
	"revelio/internal/vm"
)

// handlerTransport serves HTTP requests from a handler in process: a
// KDS without sockets, for the fuzzer's many executions.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// fuzzPayload is the payload the seed bundles bind.
const fuzzPayload = "fuzz-tls-public-key"

// fuzzSeed is a genuine bundle for the fuzzer to mutate, from a chip
// whose keys, like the whole manufacturer hierarchy, derive from fixed
// seeds: bundles encoded in one run verify in every later run.
type fuzzSeed struct {
	kds    *kds.Server
	golden measure.Measurement
	signed []byte // the seed report's SignedBytes
	report *sev.Report
	vcek   []byte
}

func newFuzzSeed(tb testing.TB) *fuzzSeed {
	tb.Helper()
	mfr, err := amdsp.NewManufacturer([]byte("fuzz-verify-bundle"))
	if err != nil {
		tb.Fatal(err)
	}
	sp, err := mfr.MintProcessor([]byte("fuzz-chip"), 7)
	if err != nil {
		tb.Fatal(err)
	}
	h := sp.LaunchStart(0, 0)
	if err := sp.LaunchUpdate(h, measure.PageNormal, 0, []byte("fw"), "ovmf"); err != nil {
		tb.Fatal(err)
	}
	golden, err := sp.LaunchFinish(h)
	if err != nil {
		tb.Fatal(err)
	}
	guest, err := sp.GuestChannel(h)
	if err != nil {
		tb.Fatal(err)
	}
	s := &fuzzSeed{kds: kds.NewServer(mfr), golden: golden}
	if s.vcek, err = s.kds.VCEKDER(sp.ChipID(), sp.TCB()); err != nil {
		tb.Fatal(err)
	}
	if s.report, err = guest.Report(vm.HashOf([]byte(fuzzPayload))); err != nil {
		tb.Fatal(err)
	}
	s.signed = s.report.SignedBytes()
	return s
}

// encode renders the seed bundle as JSON, carrying vcek when non-nil.
func (s *fuzzSeed) encode(tb testing.TB, vcek []byte) []byte {
	tb.Helper()
	b, err := NewBundle(s.report, []byte(fuzzPayload))
	if err != nil {
		tb.Fatal(err)
	}
	b.VCEK = vcek
	out, err := b.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// inTaxonomy reports whether err is classified by the SDK's error
// taxonomy, so callers can branch on it without parsing messages.
func inTaxonomy(err error) bool {
	return errors.Is(err, attestation.ErrEvidenceInvalid) ||
		errors.Is(err, attestation.ErrEvidenceExpired) ||
		errors.Is(err, attestation.ErrPolicyRejected) ||
		errors.Is(err, attestation.ErrKDSUnavailable)
}

// FuzzVerifyBundle decodes and verifies arbitrary bundle JSON, as a
// browser does with what a site serves at the well-known path. It checks
// that nothing panics, that every failure is classified by the error
// taxonomy, that a second verification on the now possibly warm
// verifier reaches the same verdict, and that whatever verifies is the
// seed's report and payload: no mutation forges evidence.
func FuzzVerifyBundle(f *testing.F) {
	seed := newFuzzSeed(f)
	f.Add(seed.encode(f, nil))
	f.Add(seed.encode(f, seed.vcek))
	kc := kds.NewClient("http://kds.invalid", &http.Client{Transport: handlerTransport{seed.kds}})
	kc.SetCaching(true)
	policy := NewStaticGolden(seed.golden)
	ctx := context.Background()

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBundle(data)
		if err != nil {
			if !inTaxonomy(err) {
				t.Fatalf("decode error outside the taxonomy: %v", err)
			}
			return
		}
		v := NewVerifier(kc, policy, WithReportCache(proofShardCount))
		res, err := v.VerifyBundle(ctx, b, vm.HashOf)
		again, errAgain := v.VerifyBundle(ctx, b, vm.HashOf)
		if (err == nil) != (errAgain == nil) {
			t.Fatalf("verdict changed on the second verification: %v, then %v", err, errAgain)
		}
		if err != nil {
			if !inTaxonomy(err) || !inTaxonomy(errAgain) {
				t.Fatalf("verify error outside the taxonomy: %v / %v", err, errAgain)
			}
			return
		}
		for _, r := range []*Result{res, again} {
			if !bytes.Equal(r.Report.SignedBytes(), seed.signed) {
				t.Fatalf("verified a report other than the seed's: %+v", r.Report)
			}
		}
		if string(b.Payload) != fuzzPayload {
			t.Fatalf("verified a payload other than the seed's: %q", b.Payload)
		}
	})
}
