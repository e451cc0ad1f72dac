// Package ratls integrates remote attestation with TLS in the style of
// Knauth et al. and RATLS, which the paper names as complementary
// approaches (§7): instead of binding a CA-issued certificate to the TEE
// via REPORT_DATA, the attestation evidence travels *inside* the
// certificate itself, as an X.509 extension of a self-signed certificate
// whose key pair lives in the TEE.
//
// The result is an attested channel with no CA in the loop: the verifier
// ignores the (meaningless) issuer signature and instead validates the
// embedded provider-neutral evidence — authenticity, measurement policy,
// and the binding to the certificate's public key. It is the transport of
// the gateway-to-node upstream hop, where the gateway knows the golden
// values and no browser is involved.
package ratls

import (
	"fmt"

	"revelio/attestation"
)

var (
	// ErrNoEvidence reports a peer certificate without the attestation
	// extension.
	ErrNoEvidence = fmt.Errorf("%w: ratls: certificate carries no attestation evidence", attestation.ErrEvidenceInvalid)
	// ErrKeyMismatch reports evidence that does not bind the
	// certificate's own public key.
	ErrKeyMismatch = fmt.Errorf("%w: ratls: evidence does not bind certificate key", attestation.ErrBindingMismatch)
	// ErrNoPeerCertificate reports a TLS connection without a peer
	// certificate.
	ErrNoPeerCertificate = fmt.Errorf("%w: ratls: no peer certificate", attestation.ErrEvidenceInvalid)
)

// DefaultPeerCacheSize bounds ProviderPeerVerifier's per-callback memo
// of verified peer certificates. One entry per distinct attested node a
// config dials; 256 covers a sizeable fleet.
const DefaultPeerCacheSize = 256
