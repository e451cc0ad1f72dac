// Package attest is Revelio's verifier library: everything a relying
// party (the SP node, the web extension, an auditor) does with an
// attestation report (§5.3, §5.3.2).
//
// Verification is the five-step pipeline the paper describes: fetch the
// ARK/ASK chain and the VCEK from the KDS, validate the certificate
// chain, check the VCEK's embedded chip identity against the report,
// verify the report's signature, and finally judge the measurement
// against a trust policy (hard-coded golden values or a trusted
// registry). Bundles add the REPORT_DATA binding between a report and a
// payload (public key or CSR), and may carry the chip's VCEK, which then
// replaces the VCEK fetch; the ARK/ASK chain still comes from the KDS.
package attest

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"revelio/attestation"
	"revelio/internal/amdsp"
	"revelio/internal/measure"
	"revelio/internal/sev"
)

// The package's failure modes are the SDK's shared error taxonomy
// (revelio/attestation): the same sentinel an errors.Is caller matches
// here is what the public facade, ratls, certmgr and fleet surface, so
// a failure classified at this layer stays classified all the way up.
var (
	// ErrUntrustedMeasurement reports a valid report whose measurement no
	// trust policy accepts.
	ErrUntrustedMeasurement = attestation.ErrUntrustedMeasurement
	// ErrRevoked reports a measurement the trust policy explicitly
	// revoked (as against one it never trusted).
	ErrRevoked = attestation.ErrRevoked
	// ErrChipNotAllowed reports a report from a chip outside the
	// allow-list (the SP node's impersonation defence, §5.3.1).
	ErrChipNotAllowed = attestation.ErrChipNotAllowed
	// ErrChainInvalid reports a VCEK that does not chain to the ARK.
	ErrChainInvalid = attestation.ErrChainInvalid
	// ErrIdentityMismatch reports a VCEK certificate whose embedded chip
	// identity disagrees with the report.
	ErrIdentityMismatch = attestation.ErrIdentityMismatch
	// ErrReportDataMismatch reports a bundle whose payload hash is not
	// the report's REPORT_DATA.
	ErrReportDataMismatch = attestation.ErrBindingMismatch
	// ErrTCBTooOld reports a platform running SNP firmware below the
	// verifier's floor — the firmware-level rollback defence.
	ErrTCBTooOld = attestation.ErrTCBTooOld
	// ErrEvidenceExpired reports evidence whose proving chain is out of
	// its validity window at verification time.
	ErrEvidenceExpired = attestation.ErrEvidenceExpired
)

// TrustPolicy decides whether a measurement is a golden value.
// *registry.Registry implements it; StaticGolden is the hard-coded
// alternative (§5.3: "hard-coded values planted on the VMs at build
// time"). It is the SDK-wide attestation.TrustPolicy contract.
type TrustPolicy = attestation.TrustPolicy

// CertSource supplies the VCEK and ASK/ARK certificates that
// authenticate a report — the seam that used to be a hard *kds.Client
// dependency. *kds.Client satisfies it; so do offline bundles and test
// doubles.
type CertSource = attestation.CertSource

// StaticGolden is a fixed set of golden measurements.
type StaticGolden map[measure.Measurement]struct{}

var _ TrustPolicy = StaticGolden(nil)

// NewStaticGolden builds a policy from measurements.
func NewStaticGolden(ms ...measure.Measurement) StaticGolden {
	g := make(StaticGolden, len(ms))
	for _, m := range ms {
		g[m] = struct{}{}
	}
	return g
}

// IsTrusted implements TrustPolicy.
func (g StaticGolden) IsTrusted(m measure.Measurement) bool {
	_, ok := g[m]
	return ok
}

// Verifier validates attestation reports end to end.
//
// Positive verifications are memoized in two sharded proof caches — one
// keyed by report digest (skips the whole chain walk + ECDSA signature
// check for already-proven reports) and one keyed by the VCEK's (chip
// ID, TCB) and hit only by that exact VCEK DER (skips just the chain
// walk when a fresh report arrives under a known VCEK, the warm-session
// case). Policy judgments (TCB floor, chip allow-list, measurement
// trust) are re-run on every hit, so a registry revocation fails a
// cached report immediately. Failures are never cached.
type Verifier struct {
	source CertSource
	policy TrustPolicy
	chips  map[sev.ChipID]struct{} // nil = any chip
	minTCB uint64
	now    func() time.Time

	reports   *proofCache // report digest -> proof; nil = disabled
	chains    *proofCache // (chip ID, TCB) -> proof of one VCEK DER; nil = disabled
	cacheSize int
	policyRev atomic.Uint64
}

// Option configures a Verifier.
type Option func(*Verifier)

// WithChipAllowList restricts acceptable chips.
func WithChipAllowList(ids ...sev.ChipID) Option {
	return func(v *Verifier) {
		v.chips = make(map[sev.ChipID]struct{}, len(ids))
		for _, id := range ids {
			v.chips[id] = struct{}{}
		}
	}
}

// WithClock injects a test clock for certificate validity checks.
func WithClock(now func() time.Time) Option { return func(v *Verifier) { v.now = now } }

// WithMinTCB sets a floor on the platform's SNP firmware version: reports
// from chips whose TCB is older are rejected even if everything else
// checks out. A verifier raises the floor after AMD ships a firmware fix,
// closing the platform-level rollback window that golden-measurement
// revocation alone cannot (the VM image can be current while the
// firmware underneath it is not).
func WithMinTCB(tcb uint64) Option { return func(v *Verifier) { v.minTCB = tcb } }

// WithReportCache bounds the verified-report and VCEK-chain proof caches
// (default DefaultReportCacheSize entries each). A non-positive n also
// selects the default — use WithoutReportCache to disable caching.
func WithReportCache(n int) Option { return func(v *Verifier) { v.cacheSize = n } }

// WithoutReportCache disables proof caching entirely: every VerifyReport
// re-runs the full cryptographic pipeline. This is the pre-fast-path
// behaviour, kept for benchmarking the cold path.
func WithoutReportCache() Option { return func(v *Verifier) { v.cacheSize = -1 } }

// NewVerifier creates a verifier fetching certificates from source
// (typically a *kds.Client, but any CertSource works) and judging
// measurements with policy. Proof caching is on by default; see
// WithoutReportCache.
func NewVerifier(source CertSource, policy TrustPolicy, opts ...Option) *Verifier {
	v := &Verifier{source: source, policy: policy, now: time.Now}
	for _, o := range opts {
		o(v)
	}
	if v.cacheSize >= 0 {
		v.reports = newProofCache(v.cacheSize)
		v.chains = newProofCache(v.cacheSize)
	}
	return v
}

// InvalidatePolicy drops every cached proof by bumping the verifier's
// policy revision; the next verification of any evidence re-runs full
// cryptography. Call it when something the cached proofs depend on
// changes out from under the verifier (e.g. the injected clock moves past
// certificate validity). Ordinary policy mutations — registry votes and
// revocations, allow-list membership — do NOT need invalidation: policy
// is re-judged on every cache hit.
func (v *Verifier) InvalidatePolicy() { v.policyRev.Add(1) }

// PolicyRevision returns the current policy revision. Fast-path layers
// stacked above the verifier (ratls.ProviderPeerVerifier's certificate
// memo, through snp.Provider) key their own entries on it so
// InvalidatePolicy cascades through them.
func (v *Verifier) PolicyRevision() uint64 { return v.policyRev.Load() }

// Now returns the verifier's notion of the current time (the injected
// WithClock, or the wall clock). Fast-path layers bound their memos with
// it so cached and uncached verification agree about certificate expiry.
func (v *Verifier) Now() time.Time { return v.now() }

// CheckPolicy re-judges an already-authenticated report against the
// verifier's current policy: TCB floor, chip allow-list, and measurement
// trust. It performs no cryptography, so cached fast paths run it on
// every hit — policy changes take effect immediately even for proven
// evidence.
func (v *Verifier) CheckPolicy(report *sev.Report) error {
	if report.TCBVersion < v.minTCB {
		return fmt.Errorf("%w: have %d, need %d", ErrTCBTooOld, report.TCBVersion, v.minTCB)
	}
	if v.chips != nil {
		if _, ok := v.chips[report.ChipID]; !ok {
			return ErrChipNotAllowed
		}
	}
	// JudgeMeasurement distinguishes revocation from plain distrust when
	// the policy can (the trusted registry's RevocationChecker).
	return attestation.JudgeMeasurement(v.policy, report.Measurement)
}

// Result is a successfully verified report plus the evidence used.
type Result struct {
	Report *sev.Report
	VCEK   *x509.Certificate
}

// VerifyReport runs the full verification pipeline on a parsed report.
//
// Fast path: if this exact report (every signed byte plus the signature)
// was already proven at the current policy revision, the chain walk and
// ECDSA checks are skipped and only the policy judgment re-runs. A
// tampered report hashes to a different key, misses the cache, and fails
// in the full pipeline — the caches are provably fail-closed.
func (v *Verifier) VerifyReport(ctx context.Context, report *sev.Report) (*Result, error) {
	return v.verify(ctx, report, nil)
}

// verify is VerifyReport with an optional VCEK the evidence bundles
// (vcekDER, empty when none). A bundled VCEK replaces the source's VCEK
// fetch and nothing else: its bytes come from the untrusted site, so
// they pass every check a fetched VCEK passes, in the same order, and
// only the ASK/ARK chain — the trust anchor — comes from the source.
func (v *Verifier) verify(ctx context.Context, report *sev.Report, vcekDER []byte) (*Result, error) {
	rev := v.policyRev.Load()
	now := v.now()
	bundled := len(vcekDER) > 0
	var rkey proofKey
	if v.reports != nil {
		rkey = reportProofKey(report)
		// A bundled VCEK must be the one that proved the report, so a
		// cached proof never vouches for bytes it never checked.
		if p, ok := v.reports.get(rkey, rev, now); ok && (!bundled || bytes.Equal(p.vcek.Raw, vcekDER)) {
			if err := v.CheckPolicy(report); err != nil {
				return nil, err
			}
			return &Result{Report: report, VCEK: p.vcek}, nil
		}
	}

	// Chain walk, skipped when a VCEK for this (chip, TCB) was already
	// proven at this policy revision and the VCEK at hand is that very
	// certificate (a fresh nonce-bound report from a known node pays only
	// the signature check — the warm-session case). Proofs expire at the
	// earliest NotAfter of the whole proving chain, so a cached proof
	// never outlives any validity check the walk performed.
	var (
		ckey        proofKey
		chainProof  *proof
		chainProven bool
	)
	if v.chains != nil {
		ckey = chainProofKey(report.ChipID, report.TCBVersion)
		chainProof, chainProven = v.chains.get(ckey, rev, now)
	}
	var (
		vcekCert     *x509.Certificate
		ask, ark     *x509.Certificate
		chainErr     error
		chainFetched bool
	)
	if bundled {
		// The bundled VCEK: a proven DER is taken as proven, without
		// parsing and without any source call; anything else is parsed
		// here and walked below. There is no fallback to the source: a
		// bundled VCEK that fails a check fails the evidence.
		if chainProven && bytes.Equal(chainProof.vcek.Raw, vcekDER) {
			vcekCert = chainProof.vcek
		} else {
			cert, err := x509.ParseCertificate(vcekDER)
			if err != nil {
				return nil, fmt.Errorf("%w: bundled VCEK: %v", ErrChainInvalid, err)
			}
			vcekCert = cert
		}
	} else {
		// Without a proof the walk is certain, so the ASK/ARK chain is
		// fetched alongside the VCEK: a cold verification waits on one
		// KDS round trip, not two.
		var chainDone chan struct{}
		if !chainProven {
			chainFetched = true
			chainDone = make(chan struct{})
			go func() {
				defer close(chainDone)
				ask, ark, chainErr = v.source.CertChain(ctx)
			}()
		}
		cert, err := v.source.VCEK(ctx, report.ChipID, report.TCBVersion)
		if chainDone != nil {
			<-chainDone // no fetch outlives the call
		}
		if err != nil {
			return nil, fmt.Errorf("attest: fetch vcek: %w", err)
		}
		vcekCert = cert
	}
	// Classify expiry before the chain walk so out-of-validity evidence
	// maps to ErrEvidenceExpired rather than a generic chain failure.
	if now.After(vcekCert.NotAfter) {
		return nil, fmt.Errorf("%w: VCEK expired %s", ErrEvidenceExpired, vcekCert.NotAfter.Format(time.RFC3339))
	}
	if chainProven && !bytes.Equal(chainProof.vcek.Raw, vcekCert.Raw) {
		// A different certificate for a proven (chip, TCB): the proof
		// covers none of its bytes, so walk its chain from scratch.
		chainProven = false
	}
	notAfter := vcekCert.NotAfter
	if chainProven {
		notAfter = chainProof.notAfter
	} else {
		if !chainFetched {
			ask, ark, chainErr = v.source.CertChain(ctx)
		}
		if chainErr != nil {
			return nil, fmt.Errorf("attest: fetch cert chain: %w", chainErr)
		}
		roots := x509.NewCertPool()
		roots.AddCert(ark)
		inters := x509.NewCertPool()
		inters.AddCert(ask)
		if _, err := vcekCert.Verify(x509.VerifyOptions{
			Roots:         roots,
			Intermediates: inters,
			CurrentTime:   now,
			KeyUsages:     []x509.ExtKeyUsage{x509.ExtKeyUsageAny},
		}); err != nil {
			var invalid x509.CertificateInvalidError
			if errors.As(err, &invalid) && invalid.Reason == x509.Expired {
				return nil, fmt.Errorf("%w: %v", ErrEvidenceExpired, err)
			}
			return nil, fmt.Errorf("%w: %v", ErrChainInvalid, err)
		}
		if ask.NotAfter.Before(notAfter) {
			notAfter = ask.NotAfter
		}
		if ark.NotAfter.Before(notAfter) {
			notAfter = ark.NotAfter
		}
	}

	chipID, tcb, err := amdsp.VCEKIdentity(vcekCert)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrIdentityMismatch, err)
	}
	if chipID != report.ChipID || tcb != report.TCBVersion {
		return nil, ErrIdentityMismatch
	}
	if !chainProven && v.chains != nil {
		v.chains.put(&proof{key: ckey, vcek: vcekCert, rev: rev, notAfter: notAfter})
	}

	pub, ok := vcekCert.PublicKey.(*ecdsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("%w: VCEK key type %T", ErrChainInvalid, vcekCert.PublicKey)
	}
	if err := report.Verify(pub); err != nil {
		return nil, fmt.Errorf("%w: %w", attestation.ErrEvidenceInvalid, err)
	}

	if err := v.CheckPolicy(report); err != nil {
		return nil, err
	}
	if v.reports != nil {
		v.reports.put(&proof{key: rkey, vcek: vcekCert, rev: rev, notAfter: notAfter})
	}
	return &Result{Report: report, VCEK: vcekCert}, nil
}

// VerifyRaw parses and verifies a serialized report.
func (v *Verifier) VerifyRaw(ctx context.Context, raw []byte) (*Result, error) {
	var report sev.Report
	if err := report.UnmarshalBinary(raw); err != nil {
		return nil, fmt.Errorf("%w: %w", attestation.ErrEvidenceInvalid, err)
	}
	return v.VerifyReport(ctx, &report)
}

// Bundle is the report-plus-payload unit Revelio's protocols ship over
// HTTP: the payload (a public key, a CSR, an encrypted TLS key) is bound
// to the report via REPORT_DATA = SHA-512(payload).
type Bundle struct {
	ReportRaw []byte `json:"report"`
	Payload   []byte `json:"payload"`
	// VCEK optionally carries the signing chip's VCEK certificate (DER)
	// from the host's certificate table, as SEV-SNP's extended report
	// does. VerifyBundle then checks it in place of fetching one.
	VCEK []byte `json:"vcek,omitempty"`
}

// NewBundle serializes a report around its payload.
func NewBundle(report *sev.Report, payload []byte) (*Bundle, error) {
	raw, err := report.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return &Bundle{ReportRaw: raw, Payload: payload}, nil
}

// Encode renders the bundle as JSON for transport.
func (b *Bundle) Encode() ([]byte, error) {
	out, err := json.Marshal(b)
	if err != nil {
		return nil, fmt.Errorf("attest: encode bundle: %w", err)
	}
	return out, nil
}

// DecodeBundle parses a JSON bundle.
func DecodeBundle(data []byte) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%w: attest: decode bundle: %w", attestation.ErrEvidenceInvalid, err)
	}
	return &b, nil
}

// VerifyBundle verifies the bundle's report and the REPORT_DATA binding
// to its payload, returning the verification result. A bundle carrying
// a VCEK is verified against it, with only the ASK/ARK chain taken from
// the certificate source.
func (v *Verifier) VerifyBundle(ctx context.Context, b *Bundle, hashOf func([]byte) sev.ReportData) (*Result, error) {
	var report sev.Report
	if err := report.UnmarshalBinary(b.ReportRaw); err != nil {
		return nil, fmt.Errorf("%w: %w", attestation.ErrEvidenceInvalid, err)
	}
	if report.ReportData != hashOf(b.Payload) {
		return nil, ErrReportDataMismatch
	}
	return v.verify(ctx, &report, b.VCEK)
}
