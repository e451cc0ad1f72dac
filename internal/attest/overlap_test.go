package attest

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha512"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"sync/atomic"
	"testing"
	"time"

	"revelio/attestation"
	"revelio/internal/amdsp"
	"revelio/internal/sev"
)

// hookSource is a CertSource whose two fetches are test closures.
type hookSource struct {
	vcek  func(ctx context.Context, chip sev.ChipID, tcb uint64) (*x509.Certificate, error)
	chain func(ctx context.Context) (ask, ark *x509.Certificate, err error)
}

func (s hookSource) VCEK(ctx context.Context, chip sev.ChipID, tcb uint64) (*x509.Certificate, error) {
	return s.vcek(ctx, chip, tcb)
}

func (s hookSource) CertChain(ctx context.Context) (ask, ark *x509.Certificate, err error) {
	return s.chain(ctx)
}

// gateTimeout bounds every rendezvous below, so a verifier that runs the
// fetches one after the other fails the test instead of hanging it.
const gateTimeout = 5 * time.Second

var errGateTimeout = errors.New("gate not opened: the fetches did not overlap")

// await blocks until gate closes, ctx ends, or gateTimeout passes.
func await(ctx context.Context, gate <-chan struct{}) error {
	timer := time.NewTimer(gateTimeout)
	defer timer.Stop()
	select {
	case <-gate:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return errGateTimeout
	}
}

var errChainDown = errors.New("injected cert chain failure")

// TestColdVerifyOverlapsVCEKAndChainFetch: with no chain proof, the VCEK
// fetch can only complete once the chain fetch has been entered — a
// verifier that fetches the chain after the VCEK fails here.
func TestColdVerifyOverlapsVCEKAndChainFetch(t *testing.T) {
	r := newRig(t)
	chainEntered := make(chan struct{})
	src := hookSource{
		vcek: func(ctx context.Context, chip sev.ChipID, tcb uint64) (*x509.Certificate, error) {
			if err := await(ctx, chainEntered); err != nil {
				return nil, err
			}
			return r.client.VCEK(ctx, chip, tcb)
		},
		chain: func(ctx context.Context) (*x509.Certificate, *x509.Certificate, error) {
			close(chainEntered)
			return r.client.CertChain(ctx)
		},
	}
	v := NewVerifier(src, nil)
	if _, err := v.VerifyReport(context.Background(), r.report(t, sev.ReportData{1})); err != nil {
		t.Fatalf("cold verify: %v", err)
	}
}

// TestOverlapVCEKErrorWinsOverChainError: when both fetches fail, the
// VCEK error is the one reported — the precedence of the serial
// pipeline — and it keeps its ErrKDSUnavailable classification.
func TestOverlapVCEKErrorWinsOverChainError(t *testing.T) {
	r := newRig(t)
	chainFailed := make(chan struct{})
	src := hookSource{
		vcek: func(ctx context.Context, _ sev.ChipID, _ uint64) (*x509.Certificate, error) {
			if err := await(ctx, chainFailed); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("%w: injected VCEK outage", attestation.ErrKDSUnavailable)
		},
		chain: func(context.Context) (*x509.Certificate, *x509.Certificate, error) {
			defer close(chainFailed)
			return nil, nil, errChainDown
		},
	}
	v := NewVerifier(src, nil)
	_, err := v.VerifyReport(context.Background(), r.report(t, sev.ReportData{2}))
	if !errors.Is(err, attestation.ErrKDSUnavailable) {
		t.Errorf("err = %v, want ErrKDSUnavailable", err)
	}
	if errors.Is(err, errChainDown) || errors.Is(err, errGateTimeout) {
		t.Errorf("err = %v, want the VCEK error alone", err)
	}
}

// TestOverlapChainErrorWithGoodVCEK: a VCEK that arrives intact does not
// mask a failed chain fetch.
func TestOverlapChainErrorWithGoodVCEK(t *testing.T) {
	r := newRig(t)
	chainFailed := make(chan struct{})
	src := hookSource{
		vcek: func(ctx context.Context, chip sev.ChipID, tcb uint64) (*x509.Certificate, error) {
			if err := await(ctx, chainFailed); err != nil {
				return nil, err
			}
			return r.client.VCEK(ctx, chip, tcb)
		},
		chain: func(context.Context) (*x509.Certificate, *x509.Certificate, error) {
			defer close(chainFailed)
			return nil, nil, errChainDown
		},
	}
	v := NewVerifier(src, nil)
	if _, err := v.VerifyReport(context.Background(), r.report(t, sev.ReportData{3})); !errors.Is(err, errChainDown) {
		t.Errorf("err = %v, want the chain fetch error", err)
	}
}

// TestOverlapCancelled: cancelling while both fetches are in flight
// returns a wrapped context.Canceled, and neither fetch is still running
// once VerifyReport has returned.
func TestOverlapCancelled(t *testing.T) {
	r := newRig(t)
	var (
		running      atomic.Int64
		vcekEntered  = make(chan struct{})
		chainEntered = make(chan struct{})
	)
	// block marks a fetch in flight until its context ends.
	block := func(ctx context.Context, entered chan struct{}) error {
		running.Add(1)
		defer running.Add(-1)
		close(entered)
		return await(ctx, nil)
	}
	src := hookSource{
		vcek: func(ctx context.Context, _ sev.ChipID, _ uint64) (*x509.Certificate, error) {
			return nil, block(ctx, vcekEntered)
		},
		chain: func(ctx context.Context) (*x509.Certificate, *x509.Certificate, error) {
			return nil, nil, block(ctx, chainEntered)
		},
	}
	v := NewVerifier(src, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep := r.report(t, sev.ReportData{4})
	done := make(chan error, 1)
	go func() {
		_, err := v.VerifyReport(ctx, rep)
		done <- err
	}()
	for _, entered := range []chan struct{}{vcekEntered, chainEntered} {
		if err := await(context.Background(), entered); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	var err error
	select {
	case err = <-done:
	case <-time.After(gateTimeout):
		t.Fatal("VerifyReport did not return after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want wrapped context.Canceled", err)
	}
	if n := running.Load(); n != 0 {
		t.Errorf("%d fetches still running after VerifyReport returned", n)
	}
}

// rogueVCEK issues a certificate claiming chip's identity at tcb from a
// rogue ASK that copies the genuine ASK's name, returning it with the
// rogue VCEK's signing key.
func rogueVCEK(t *testing.T, chip sev.ChipID, tcb uint64) (*x509.Certificate, *ecdsa.PrivateKey) {
	t.Helper()
	askKey, err := ecdsa.GenerateKey(elliptic.P384(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	vcekKey, err := ecdsa.GenerateKey(elliptic.P384(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	notBefore := time.Now().Add(-time.Hour)
	askTmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "ASK-SIM", Organization: []string{"AMD-SIM"}},
		NotBefore:             notBefore,
		NotAfter:              notBefore.Add(48 * time.Hour),
		IsCA:                  true,
		BasicConstraintsValid: true,
		KeyUsage:              x509.KeyUsageCertSign,
	}
	askDER, err := x509.CreateCertificate(rand.Reader, askTmpl, askTmpl, &askKey.PublicKey, askKey)
	if err != nil {
		t.Fatal(err)
	}
	ask, err := x509.ParseCertificate(askDER)
	if err != nil {
		t.Fatal(err)
	}
	var tcbBytes [8]byte
	binary.BigEndian.PutUint64(tcbBytes[:], tcb)
	vcekTmpl := &x509.Certificate{
		SerialNumber: big.NewInt(2),
		Subject:      pkix.Name{CommonName: "VCEK-SIM", Organization: []string{"AMD-SIM"}},
		NotBefore:    notBefore,
		NotAfter:     notBefore.Add(48 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtraExtensions: []pkix.Extension{
			{Id: amdsp.OIDChipID, Value: chip[:]},
			{Id: amdsp.OIDTCB, Value: tcbBytes[:]},
		},
	}
	der, err := x509.CreateCertificate(rand.Reader, vcekTmpl, ask, &vcekKey.PublicKey, askKey)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	return cert, vcekKey
}

// TestSubstitutedVCEKRewalksChain: chain proofs are keyed by (chip, TCB),
// so after that pair is proven a different VCEK for it — here one issued
// by a rogue ASK, signing a report that verifies under it — must miss
// the proof, re-walk the chain and fail with ErrChainInvalid. Were the
// proof served, identity and signature would both pass.
func TestSubstitutedVCEKRewalksChain(t *testing.T) {
	r := newRig(t)
	var (
		rogue      atomic.Pointer[x509.Certificate]
		chainCalls atomic.Int64
	)
	src := hookSource{
		vcek: func(ctx context.Context, chip sev.ChipID, tcb uint64) (*x509.Certificate, error) {
			if c := rogue.Load(); c != nil {
				return c, nil
			}
			return r.client.VCEK(ctx, chip, tcb)
		},
		chain: func(ctx context.Context) (*x509.Certificate, *x509.Certificate, error) {
			chainCalls.Add(1)
			return r.client.CertChain(ctx)
		},
	}
	v := NewVerifier(src, nil)
	ctx := context.Background()
	if _, err := v.VerifyReport(ctx, r.report(t, sev.ReportData{5})); err != nil {
		t.Fatal(err)
	}

	cert, key := rogueVCEK(t, r.sp.ChipID(), r.sp.TCB())
	forged := *r.report(t, sev.ReportData{6})
	digest := sha512.Sum384(forged.SignedBytes())
	sig, err := ecdsa.SignASN1(rand.Reader, key, digest[:])
	if err != nil {
		t.Fatal(err)
	}
	forged.Signature = sig
	rogue.Store(cert)
	before := chainCalls.Load()
	if _, err := v.VerifyReport(ctx, &forged); !errors.Is(err, ErrChainInvalid) {
		t.Errorf("substituted VCEK: err = %v, want ErrChainInvalid", err)
	}
	if n := chainCalls.Load() - before; n != 1 {
		t.Errorf("substituted VCEK fetched the chain %d times, want 1 (a re-walk)", n)
	}

	// The genuine VCEK's proof survives the failed attempt.
	rogue.Store(nil)
	before = chainCalls.Load()
	if _, err := v.VerifyReport(ctx, r.report(t, sev.ReportData{7})); err != nil {
		t.Fatalf("genuine VCEK after substitution: %v", err)
	}
	if n := chainCalls.Load() - before; n != 0 {
		t.Errorf("genuine VCEK under a proven chain fetched the chain %d times, want 0", n)
	}
}

// TestColdDeviceTwoChipsCostsThreeKDSRequests: a device with an empty
// certificate cache verifying fresh reports from two chips pays one
// chain fetch plus one VCEK per chip — the overlap adds no request.
func TestColdDeviceTwoChipsCostsThreeKDSRequests(t *testing.T) {
	r := newRig(t)
	r.client.SetCaching(true)
	_, other := launchGuest(t, r.mfr, "chip-2")
	v := NewVerifier(r.client, nil)
	ctx := context.Background()

	if _, err := v.VerifyReport(ctx, r.report(t, sev.ReportData{8})); err != nil {
		t.Fatal(err)
	}
	rep, err := other.Report(sev.ReportData{9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.VerifyReport(ctx, rep); err != nil {
		t.Fatal(err)
	}
	if n := r.hits.Load(); n != 3 {
		t.Errorf("cold device verifying two chips cost %d KDS requests, want 3 (1 chain + 2 VCEKs)", n)
	}
}
