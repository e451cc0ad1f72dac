package browser

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"revelio/internal/acme"
)

// startTLSServer issues a CA-signed certificate for domain and serves
// handler over TLS on a loopback listener, returning the address.
func startTLSServer(t *testing.T, ca *acme.CA, zone *acme.Zone, domain string, handler http.Handler) (addr string, pubDER []byte) {
	t.Helper()
	return startWatchedTLSServer(t, ca, zone, domain, handler, nil)
}

// startWatchedTLSServer is startTLSServer reporting every connection
// state change to connState (which may be nil).
func startWatchedTLSServer(t *testing.T, ca *acme.CA, zone *acme.Zone, domain string, handler http.Handler,
	connState func(net.Conn, http.ConnState)) (addr string, pubDER []byte) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := x509.CreateCertificateRequest(rand.Reader, &x509.CertificateRequest{
		Subject:  pkix.Name{CommonName: domain},
		DNSNames: []string{domain},
	}, key)
	if err != nil {
		t.Fatal(err)
	}
	certDER, err := acme.NewClient(ca, zone).ObtainCertificate(context.Background(), domain, csr)
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
	server := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second, ConnState: connState}
	go func() { _ = server.Serve(tlsLn) }()
	t.Cleanup(func() { _ = server.Close() })

	pubDER, err = x509.MarshalPKIXPublicKey(&key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	return ln.Addr().String(), pubDER
}

func newTestCA(t *testing.T) (*acme.CA, *acme.Zone, *x509.CertPool) {
	t.Helper()
	zone := acme.NewZone()
	ca, err := acme.NewCA(zone)
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(ca.RootCert())
	return ca, zone, pool
}

func TestGetCapturesTLSPublicKey(t *testing.T) {
	ca, zone, pool := newTestCA(t)
	addr, wantPub := startTLSServer(t, ca, zone, "svc.test",
		http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte("hello"))
		}))

	b := New(pool, 0)
	b.Resolve("svc.test", addr)
	resp, err := b.Get(context.Background(), "svc.test", "/")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if resp.Status != 200 || string(resp.Body) != "hello" {
		t.Errorf("resp = %d %q", resp.Status, resp.Body)
	}
	if string(resp.TLSPublicKeyDER) != string(wantPub) {
		t.Error("captured TLS key differs from server key")
	}
	connKey, err := b.ConnectionPublicKey("svc.test")
	if err != nil {
		t.Fatal(err)
	}
	if string(connKey) != string(wantPub) {
		t.Error("connection context key differs")
	}
}

func TestUnresolvableDomain(t *testing.T) {
	_, _, pool := newTestCA(t)
	b := New(pool, 0)
	if _, err := b.Get(context.Background(), "nowhere.test", "/"); !errors.Is(err, ErrUnresolvable) {
		t.Errorf("err = %v, want ErrUnresolvable", err)
	}
}

func TestConnectionContextBeforeConnect(t *testing.T) {
	_, _, pool := newTestCA(t)
	b := New(pool, 0)
	if _, err := b.ConnectionPublicKey("svc.test"); !errors.Is(err, ErrNoConnection) {
		t.Errorf("err = %v, want ErrNoConnection", err)
	}
}

func TestCertificateDomainMismatchRejected(t *testing.T) {
	ca, zone, pool := newTestCA(t)
	// Certificate for one domain, browser asks for another: the TLS
	// handshake must fail, as in a real browser.
	addr, _ := startTLSServer(t, ca, zone, "real.test", http.NotFoundHandler())
	b := New(pool, 0)
	b.Resolve("victim.test", addr)
	if _, err := b.Get(context.Background(), "victim.test", "/"); err == nil {
		t.Error("Get succeeded with mismatched certificate")
	}
}

func TestUntrustedCARejected(t *testing.T) {
	ca, zone, _ := newTestCA(t)
	addr, _ := startTLSServer(t, ca, zone, "svc.test", http.NotFoundHandler())
	// Browser with an empty trust store.
	b := New(x509.NewCertPool(), 0)
	b.Resolve("svc.test", addr)
	if _, err := b.Get(context.Background(), "svc.test", "/"); err == nil {
		t.Error("Get succeeded with untrusted CA")
	}
}

func TestRedirectUpdatesConnectionContext(t *testing.T) {
	ca, zone, pool := newTestCA(t)
	addrA, pubA := startTLSServer(t, ca, zone, "svc.test", http.NotFoundHandler())
	addrB, pubB := startTLSServer(t, ca, zone, "svc.test", http.NotFoundHandler())
	if string(pubA) == string(pubB) {
		t.Fatal("servers share a key")
	}
	b := New(pool, 0)
	b.Resolve("svc.test", addrA)
	if _, err := b.Get(context.Background(), "svc.test", "/"); err != nil {
		t.Fatal(err)
	}
	// Malicious DNS repoints the domain; the connection context follows.
	b.Resolve("svc.test", addrB)
	if _, err := b.Get(context.Background(), "svc.test", "/"); err != nil {
		t.Fatal(err)
	}
	got, err := b.ConnectionPublicKey("svc.test")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(pubB) {
		t.Error("connection context not updated after redirect")
	}
}

// TestGetHonoursCancellation: a dead or dying context aborts the
// navigation — including during the simulated network latency — with a
// wrapped context error, and no connection context is recorded.
func TestGetHonoursCancellation(t *testing.T) {
	ca, zone, pool := newTestCA(t)
	addr, _ := startTLSServer(t, ca, zone, "slow.example.org",
		http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte("late"))
		}))
	b := New(pool, 5*time.Second) // latency far beyond the test budget
	b.Resolve("slow.example.org", addr)

	// Already-dead context: refused before anything happens.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Get(dead, "slow.example.org", "/"); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead ctx: %v, want context.Canceled", err)
	}

	// Cancellation mid-latency: returns promptly, not after the RTT.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := b.Get(ctx, "slow.example.org", "/")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-latency cancel: %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation waited out the simulated latency (%v)", elapsed)
	}
	if _, err := b.ConnectionPublicKey("slow.example.org"); !errors.Is(err, ErrNoConnection) {
		t.Fatalf("aborted navigation recorded a connection context: %v", err)
	}
}

// connWatch counts the connections a test server opens and closes.
type connWatch struct{ opened, closed atomic.Int64 }

func (w *connWatch) hook(_ net.Conn, s http.ConnState) {
	switch s {
	case http.StateNew:
		w.opened.Add(1)
	case http.StateClosed:
		w.closed.Add(1)
	}
}

// waitClosed waits until the server has seen n connections close.
func (w *connWatch) waitClosed(t *testing.T, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for w.closed.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("server saw %d of %d connections close", w.closed.Load(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func okHandler(body string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(body))
	})
}

// TestConnReusesOneHandshake: every Get of a Conn rides one TLS
// connection, and Close closes it.
func TestConnReusesOneHandshake(t *testing.T) {
	ca, zone, pool := newTestCA(t)
	watch := &connWatch{}
	addr, wantPub := startWatchedTLSServer(t, ca, zone, "svc.test", okHandler("hello"), watch.hook)
	b := New(pool, 0)
	b.Resolve("svc.test", addr)

	c, err := b.Open("svc.test")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		resp, err := c.Get(context.Background(), "/")
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if resp.Status != 200 || string(resp.Body) != "hello" || string(resp.TLSPublicKeyDER) != string(wantPub) {
			t.Fatalf("Get %d: %d %q", i, resp.Status, resp.Body)
		}
	}
	if n := watch.opened.Load(); n != 1 {
		t.Errorf("3 Gets on one Conn made %d connections, want 1", n)
	}
	c.Close()
	watch.waitClosed(t, 1)
}

// TestGetClosesItsConnection: a plain Browser.Get leaves no connection
// open behind it.
func TestGetClosesItsConnection(t *testing.T) {
	ca, zone, pool := newTestCA(t)
	watch := &connWatch{}
	addr, _ := startWatchedTLSServer(t, ca, zone, "svc.test", okHandler("hello"), watch.hook)
	b := New(pool, 0)
	b.Resolve("svc.test", addr)
	if _, err := b.Get(context.Background(), "svc.test", "/"); err != nil {
		t.Fatal(err)
	}
	watch.waitClosed(t, 1)
}

// TestOpenResolvesOnce: a Conn keeps the address it resolved at Open; a
// Resolve takes effect on the next Open.
func TestOpenResolvesOnce(t *testing.T) {
	ca, zone, pool := newTestCA(t)
	addrA, pubA := startTLSServer(t, ca, zone, "svc.test", okHandler("a"))
	addrB, pubB := startTLSServer(t, ca, zone, "svc.test", okHandler("b"))
	b := New(pool, 0)
	b.Resolve("svc.test", addrA)
	first, err := b.Open("svc.test")
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()

	b.Resolve("svc.test", addrB)
	second, err := b.Open("svc.test")
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()

	for _, tc := range []struct {
		c       *Conn
		body    string
		wantPub []byte
	}{{first, "a", pubA}, {second, "b", pubB}} {
		resp, err := tc.c.Get(context.Background(), "/")
		if err != nil {
			t.Fatal(err)
		}
		if string(resp.Body) != tc.body || string(resp.TLSPublicKeyDER) != string(tc.wantPub) {
			t.Errorf("Get served %q, want %q", resp.Body, tc.body)
		}
	}
}

// TestConnGetHonoursCancellation: a context dead before Conn.Get, or
// cancelled while the server is answering, aborts with a wrapped
// context error.
func TestConnGetHonoursCancellation(t *testing.T) {
	ca, zone, pool := newTestCA(t)
	entered := make(chan struct{}, 1)
	addr, _ := startTLSServer(t, ca, zone, "svc.test",
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			entered <- struct{}{}
			<-r.Context().Done()
		}))
	b := New(pool, 0)
	b.Resolve("svc.test", addr)
	c, err := b.Open("svc.test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(dead, "/"); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead ctx: %v, want context.Canceled", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-entered
		cancel()
	}()
	if _, err := c.Get(ctx, "/"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel mid-response: %v, want context.Canceled", err)
	}
}

// TestResponseKeyIsPerConnection is the regression for a fail-open race:
// the browser's connection context is one slot per domain, so a later
// navigation overwrites it. The key a response carries is the key of the
// connection that served it, whatever the slot says.
func TestResponseKeyIsPerConnection(t *testing.T) {
	ca, zone, pool := newTestCA(t)
	legitAddr, legitPub := startTLSServer(t, ca, zone, "svc.test", okHandler("site"))
	attackerAddr, attackerPub := startTLSServer(t, ca, zone, "svc.test", okHandler("phish"))
	b := New(pool, 0)

	b.Resolve("svc.test", attackerAddr)
	connA, err := b.Open("svc.test")
	if err != nil {
		t.Fatal(err)
	}
	defer connA.Close()
	b.Resolve("svc.test", legitAddr)
	connB, err := b.Open("svc.test")
	if err != nil {
		t.Fatal(err)
	}
	defer connB.Close()

	respA, err := connA.Get(context.Background(), "/")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := connB.Get(context.Background(), "/"); err != nil {
		t.Fatal(err)
	}
	if string(respA.TLSPublicKeyDER) != string(attackerPub) {
		t.Error("attacker-served response does not carry the attacker's key")
	}
	slot, err := b.ConnectionPublicKey("svc.test")
	if err != nil {
		t.Fatal(err)
	}
	if string(slot) != string(legitPub) {
		t.Error("connection context does not hold the last connection's key")
	}
}
