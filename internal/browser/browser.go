// Package browser is the minimal browser harness the web extension runs
// in: it performs real TLS connections (against the simulated CA roots),
// resolves domain names through a mutable resolver — which a malicious
// service provider controls, enabling the redirect attacks of §5.3.2 —
// and exposes the connection-context API ("the public key of the current
// TLS connection") that the paper notes only Firefox currently provides.
package browser

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"
)

var (
	// ErrUnresolvable reports a domain the resolver has no entry for.
	ErrUnresolvable = errors.New("browser: domain does not resolve")
	// ErrNoConnection reports a connection-context query for a host the
	// browser has not connected to.
	ErrNoConnection = errors.New("browser: no connection context for host")
)

// Response is what a page load returns.
type Response struct {
	Status int
	Body   []byte
	// TLSPublicKeyDER is the server certificate's public key from the
	// connection that served this response.
	TLSPublicKeyDER []byte
}

// Browser holds trust anchors, the resolver, and per-host connection
// contexts.
type Browser struct {
	roots *x509.CertPool
	rtt   time.Duration

	mu       sync.Mutex
	resolver map[string]string // domain -> host:port
	conns    map[string][]byte // domain -> current TLS public key DER
}

// New creates a browser trusting the given CA roots, with rtt injected
// per request (the paper's 5.2 ms base network latency).
func New(roots *x509.CertPool, rtt time.Duration) *Browser {
	return &Browser{
		roots:    roots,
		rtt:      rtt,
		resolver: make(map[string]string),
		conns:    make(map[string][]byte),
	}
}

// Resolve points a domain at an address. A malicious service provider can
// repoint it at any time — the extension's per-request connection
// validation is the defence.
func (b *Browser) Resolve(domain, addr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.resolver[domain] = addr
}

// lookUp resolves a domain.
func (b *Browser) lookUp(domain string) (string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	addr, ok := b.resolver[domain]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnresolvable, domain)
	}
	return addr, nil
}

// Get fetches https://domain/path on a connection of its own: Open,
// Conn.Get, Close. Cancelling ctx aborts the navigation at any stage —
// before the simulated network latency, mid-dial, or mid-response —
// with a wrapped context error.
func (b *Browser) Get(ctx context.Context, domain, path string) (*Response, error) {
	c, err := b.Open(domain)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Get(ctx, path)
}

// Conn is one keep-alive TLS connection to a domain, shared by every
// request of a navigation: the first Get dials and handshakes, later
// Gets reuse the connection. The domain is resolved once, at Open.
type Conn struct {
	b      *Browser
	domain string
	client http.Client
}

// Open resolves domain and returns a connection to it. The server
// certificate is verified against the browser roots for the *domain*
// (not the resolved address), exactly like a real browser. The TLS
// connection itself is made by the first Get; Close releases it.
func (b *Browser) Open(domain string) (*Conn, error) {
	addr, err := b.lookUp(domain)
	if err != nil {
		return nil, err
	}
	transport := &http.Transport{
		MaxConnsPerHost: 1,
		DialTLSContext: func(ctx context.Context, network, _ string) (net.Conn, error) {
			dialer := &net.Dialer{Timeout: 10 * time.Second}
			raw, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			conn := tls.Client(raw, &tls.Config{
				RootCAs:    b.roots,
				ServerName: domain,
			})
			if err := conn.HandshakeContext(ctx); err != nil {
				_ = raw.Close()
				return nil, err
			}
			return conn, nil
		},
	}
	return &Conn{b: b, domain: domain, client: http.Client{Transport: transport}}, nil
}

// Get fetches https://domain/path over the connection and updates the
// browser's connection context for the domain. Cancelling ctx aborts
// the request at any stage with a wrapped context error.
func (c *Conn) Get(ctx context.Context, path string) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("browser: get %q: %w", c.domain, err)
	}
	if c.b.rtt > 0 {
		// The injected latency honours cancellation: a user closing the
		// tab does not wait out the network simulation.
		timer := time.NewTimer(c.b.rtt)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, fmt.Errorf("browser: get %q: %w", c.domain, ctx.Err())
		case <-timer.C:
		}
	}

	u := url.URL{Scheme: "https", Host: c.domain, Path: path}
	// Split an embedded query string ("/p?k=v") like a real address bar.
	if parsed, err := url.Parse(path); err == nil {
		u.Path = parsed.Path
		u.RawQuery = parsed.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("browser: get %s: %w", u.String(), err)
	}
	defer func() { _ = resp.Body.Close() }()

	var pubDER []byte
	if resp.TLS != nil && len(resp.TLS.PeerCertificates) > 0 {
		pubDER, err = x509.MarshalPKIXPublicKey(resp.TLS.PeerCertificates[0].PublicKey)
		if err != nil {
			return nil, fmt.Errorf("browser: marshal peer key: %w", err)
		}
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}

	c.b.mu.Lock()
	c.b.conns[c.domain] = pubDER
	c.b.mu.Unlock()

	return &Response{Status: resp.StatusCode, Body: body, TLSPublicKeyDER: pubDER}, nil
}

// Close closes the connection. A body read to its end has already
// returned the connection to the idle pool, so this closes it.
func (c *Conn) Close() {
	c.client.CloseIdleConnections()
}

// ConnectionPublicKey is the extension-facing API: the public key of the
// current TLS connection to domain.
func (b *Browser) ConnectionPublicKey(domain string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	key, ok := b.conns[domain]
	if !ok || key == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoConnection, domain)
	}
	return append([]byte(nil), key...), nil
}
