package ratls

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"fmt"
	"math/big"
	"sync"
	"time"

	"revelio/attestation"
)

// OIDAttestationEvidence is the X.509 extension carrying a
// provider-neutral attestation.Evidence envelope. A certificate minted
// through CreateProviderCertificate can terminate a handshake verified by
// any provider a Mux knows about.
var OIDAttestationEvidence = asn1.ObjectIdentifier{1, 3, 6, 1, 4, 1, 56789, 2, 2}

// CreateProviderCertificate builds a fresh key pair and a self-signed
// certificate for commonName whose evidence — issued by any
// attestation.Issuer, hardware or software — binds the certificate's
// public key.
func CreateProviderCertificate(ctx context.Context, issuer attestation.Issuer, commonName string) (tls.Certificate, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("ratls: generate key: %w", err)
	}
	pubDER, err := x509.MarshalPKIXPublicKey(&key.PublicKey)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("ratls: marshal key: %w", err)
	}
	evidence, err := issuer.Issue(ctx, pubDER)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("ratls: issue evidence: %w", err)
	}
	evidenceJSON, err := evidence.Encode()
	if err != nil {
		return tls.Certificate{}, err
	}

	serial, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 128))
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("ratls: serial: %w", err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: serial,
		Subject:      pkix.Name{CommonName: commonName},
		DNSNames:     []string{commonName},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(90 * 24 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth, x509.ExtKeyUsageClientAuth},
		ExtraExtensions: []pkix.Extension{
			{Id: OIDAttestationEvidence, Value: evidenceJSON},
		},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("ratls: create certificate: %w", err)
	}
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}, nil
}

// ExtractEvidence parses the provider-neutral evidence envelope from a
// certificate.
func ExtractEvidence(cert *x509.Certificate) (*attestation.Evidence, error) {
	for _, ext := range cert.Extensions {
		if ext.Id.Equal(OIDAttestationEvidence) {
			return attestation.DecodeEvidence(ext.Value)
		}
	}
	return nil, ErrNoEvidence
}

// VerifyProviderCertificate validates a provider-neutral RA-TLS
// certificate: the embedded evidence must verify under v (a single
// provider or a Mux) and bind this certificate's public key.
func VerifyProviderCertificate(ctx context.Context, v attestation.Verifier, cert *x509.Certificate) (*attestation.Result, error) {
	evidence, err := ExtractEvidence(cert)
	if err != nil {
		return nil, err
	}
	res, err := v.VerifyEvidence(ctx, evidence)
	if err != nil {
		return nil, err
	}
	pubDER, err := x509.MarshalPKIXPublicKey(cert.PublicKey)
	if err != nil {
		return nil, fmt.Errorf("%w: ratls: marshal peer key: %w", attestation.ErrEvidenceInvalid, err)
	}
	if !bytes.Equal(pubDER, res.Payload) {
		return nil, ErrKeyMismatch
	}
	return res, nil
}

// resultProof is one memoized provider-neutral verification; the result
// is retained so hits re-judge policy through ResultPolicy.
type resultProof struct {
	res      *attestation.Result
	rev      uint64
	notAfter time.Time
}

// ProviderPeerVerifier returns a tls.Config.VerifyPeerCertificate
// callback enforcing provider-neutral RA-TLS: the handshake completes
// only if the peer's embedded evidence verifies under v — a single
// provider's verifier or an attestation.Mux fronting several — and
// binds the peer's TLS key. Use with InsecureSkipVerify: the CA path is
// intentionally bypassed, the hardware root of trust replaces it.
//
// When v implements attestation.Revisioned, successful verifications
// are memoized by certificate hash and fenced by the policy revision;
// when it also implements attestation.ResultPolicy, every hit re-judges
// policy, so revocations bite on the very next handshake. A verifier
// with neither capability simply runs the full verification each time —
// correct, just cold.
func ProviderPeerVerifier(v attestation.Verifier) func(rawCerts [][]byte, _ [][]*x509.Certificate) error {
	revisioned, hasRev := v.(attestation.Revisioned)
	policy, hasPolicy := v.(attestation.ResultPolicy)
	var cache *muxProofCache
	if hasRev {
		cache = newMuxProofCache(DefaultPeerCacheSize)
	}
	return func(rawCerts [][]byte, _ [][]*x509.Certificate) error {
		if len(rawCerts) == 0 {
			return ErrNoPeerCertificate
		}
		var key [sha256.Size]byte
		var rev uint64
		if hasRev {
			key = sha256.Sum256(rawCerts[0])
			rev = revisioned.PolicyRevision()
			if p, ok := cache.get(key, rev, revisioned.Now()); ok {
				if hasPolicy {
					return policy.CheckResult(p.res)
				}
				return nil
			}
		}
		cert, err := x509.ParseCertificate(rawCerts[0])
		if err != nil {
			return fmt.Errorf("%w: ratls: parse peer certificate: %w", attestation.ErrEvidenceInvalid, err)
		}
		//revelio:allow ctxfirst crypto/tls VerifyPeerCertificate callbacks carry no context; the handshake deadline bounds this
		res, err := VerifyProviderCertificate(context.Background(), v, cert)
		if err != nil {
			return err
		}
		if hasRev {
			cache.put(key, &resultProof{res: res, rev: rev, notAfter: proofNotAfter(res, cert)})
		}
		return nil
	}
}

// proofNotAfter bounds a memoized proof: the certificate's own expiry,
// tightened by the evidence's when the provider reports one.
func proofNotAfter(res *attestation.Result, cert *x509.Certificate) time.Time {
	notAfter := cert.NotAfter
	if !res.Expiry.IsZero() && res.Expiry.Before(notAfter) {
		notAfter = res.Expiry
	}
	return notAfter
}

// muxProofCache is a bounded map of verified peer certificates keyed by
// DER hash. A tampered or substituted certificate hashes to a different
// key and goes through full verification. Eviction is wholesale rather
// than LRU: a little cold latency after overflow for zero list
// bookkeeping.
type muxProofCache struct {
	mu    sync.Mutex
	cap   int
	proof map[[sha256.Size]byte]*resultProof
}

func newMuxProofCache(capacity int) *muxProofCache {
	if capacity <= 0 {
		capacity = DefaultPeerCacheSize
	}
	return &muxProofCache{cap: capacity, proof: make(map[[sha256.Size]byte]*resultProof, capacity)}
}

func (c *muxProofCache) get(key [sha256.Size]byte, rev uint64, now time.Time) (*resultProof, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.proof[key]
	if !ok {
		return nil, false
	}
	if p.rev != rev || now.After(p.notAfter) {
		delete(c.proof, key)
		return nil, false
	}
	return p, true
}

func (c *muxProofCache) put(key [sha256.Size]byte, p *resultProof) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.proof) >= c.cap {
		clear(c.proof)
	}
	c.proof[key] = p
}

// ProviderClientConfig builds a tls.Config for dialing a
// provider-neutral RA-TLS server: the CA path is replaced by evidence
// verification through v.
//
// A resumed handshake skips VerifyPeerCertificate, so VerifyConnection
// re-runs the same peer verifier on the leaf the session saved: a
// resumed connection is still judged against current policy (on a memo
// hit, without redoing the proven cryptography). Any ClientSessionCache
// the caller sets is therefore safe.
func ProviderClientConfig(v attestation.Verifier) *tls.Config {
	verifyPeer := ProviderPeerVerifier(v)
	return &tls.Config{
		InsecureSkipVerify:    true, //nolint:gosec // see ProviderPeerVerifier doc
		VerifyPeerCertificate: verifyPeer,
		VerifyConnection: func(cs tls.ConnectionState) error {
			if !cs.DidResume {
				return nil // full handshake: VerifyPeerCertificate already ran
			}
			if len(cs.PeerCertificates) == 0 {
				return ErrNoPeerCertificate
			}
			return verifyPeer([][]byte{cs.PeerCertificates[0].Raw}, nil)
		},
	}
}
