package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync/atomic"
	"time"

	"revelio/attestation"
	"revelio/internal/attest"
	"revelio/internal/browser"
	"revelio/internal/cryptpad"
	"revelio/internal/kds"
	"revelio/internal/measure"
	"revelio/internal/sev"
	"revelio/internal/webext"
)

const (
	// visitPath is the page first-visit loads: the 57 B os-release.
	visitPath = "etc/os-release"
	// coldEvery is how often (in sessions) a first-visit tab moves to a
	// new device with an empty KDS cache.
	coldEvery = 8
	// padPlain is the plaintext that seals to exactly one slot: AES-GCM
	// adds a 12-byte nonce and a 16-byte tag.
	padPlain = slotSize - 12 - 16
)

// tab is one closed-loop client: a browser tab that waits for each reply
// before it sends the next request.
type tab interface {
	// op runs one op and returns its latency. Any failure, a failed
	// output check included, is an error.
	op() (time.Duration, error)
	close()
}

// workload is one named traffic mix.
type workload struct {
	name string
	// nodes is the fleet size.
	nodes int
	// warmOps is how many ops each tab runs before the window, so
	// connection pools are full and caches warm when timing starts.
	warmOps int
	// newTab builds tab i, seeded from the run's seed.
	newTab func(ctx context.Context, fx *fixture, rng *rand.Rand, i int, hs *atomic.Int64) (tab, error)
}

var workloads = []workload{
	{name: "static-browse", nodes: 2, warmOps: 100, newTab: newBrowseTab},
	{name: "pad-edit", nodes: 1, warmOps: 100, newTab: newPadTab},
	{name: "first-visit", nodes: 2, warmOps: coldEvery, newTab: newVisitTab},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// phases counts downstream TLS handshakes and stamps the phases of the
// tab's current request, in tracer time. The hooks fire on transport
// goroutines, hence the atomics.
type phases struct {
	handshakes *atomic.Int64
	wrote      atomic.Int64
	firstByte  atomic.Int64
}

// context returns ctx carrying the httptrace hooks.
func (p *phases) context(ctx context.Context, tr *tracer) context.Context {
	return httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		TLSHandshakeDone: func(_ tls.ConnectionState, err error) {
			if err == nil {
				p.handshakes.Add(1)
			}
		},
		// WroteHeaders, not WroteRequest: the write loop may report a
		// written body only after the response has begun to arrive.
		WroteHeaders:         func() { p.wrote.Store(tr.now()) },
		GotFirstResponseByte: func() { p.firstByte.Store(tr.now()) },
	})
}

// conn is a tab's keep-alive connection to the gateway.
type conn struct {
	hc   *http.Client
	ctx  context.Context
	ph   *phases
	tr   *tracer
	base string
	body bytes.Buffer
}

func newConn(ctx context.Context, fx *fixture, hs *atomic.Int64) *conn {
	ph := &phases{handshakes: hs}
	return &conn{hc: fx.tlsClient(), ctx: ph.context(ctx, fx.tr), ph: ph, tr: fx.tr, base: fx.baseURL()}
}

// do sends one request and reads the whole body into c.body. The
// latency runs from the send to body EOF.
func (c *conn) do(method, path string, body []byte) (time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(c.ctx, method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	var root spanRef
	if c.tr.enabled() {
		root = c.tr.root()
		req.Header.Set(traceHeader, root.String())
	}
	c.body.Reset()
	t0, start := time.Now(), c.tr.now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	_, err = c.body.ReadFrom(resp.Body)
	lat, end := time.Since(t0), c.tr.now()
	_ = resp.Body.Close()
	if err != nil {
		return 0, fmt.Errorf("%s %s: body: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
	}
	if root.trace != 0 {
		fb := c.ph.firstByte.Load()
		c.tr.record(spanRef{trace: root.trace}, root.span, spanRequest, start, end)
		c.tr.record(root, 0, spanWait, c.ph.wrote.Load(), fb)
		c.tr.record(root, 0, spanBody, fb, end)
	}
	return lat, nil
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// browseTab is a returning visitor fetching rootfs files.
type browseTab struct {
	*conn
	fx  *fixture
	rng *rand.Rand
}

func newBrowseTab(ctx context.Context, fx *fixture, rng *rand.Rand, _ int, hs *atomic.Int64) (tab, error) {
	return &browseTab{conn: newConn(ctx, fx, hs), fx: fx, rng: rng}, nil
}

func (t *browseTab) op() (time.Duration, error) {
	path := t.fx.paths[t.rng.Intn(len(t.fx.paths))]
	lat, err := t.do(http.MethodGet, "/"+path, nil)
	if err != nil {
		return 0, err
	}
	if sha256.Sum256(t.body.Bytes()) != t.fx.digests[path] {
		return 0, fmt.Errorf("GET /%s: body digest differs from the set-up digest", path)
	}
	return lat, nil
}

// padTab edits its own slotsPerTab pad records, sealing each write
// client-side and checking each read against its last write.
type padTab struct {
	*conn
	rng      *rand.Rand
	pad      *cryptpad.Pad
	first    int // global index of the tab's first slot
	versions [slotsPerTab]uint64
	plain    [slotsPerTab][]byte
	next     []byte // plaintext of the write in flight
}

func newPadTab(ctx context.Context, fx *fixture, rng *rand.Rand, i int, hs *atomic.Int64) (tab, error) {
	pad, err := cryptpad.NewPad()
	if err != nil {
		return nil, err
	}
	t := &padTab{conn: newConn(ctx, fx, hs), rng: rng, pad: pad, first: i * slotsPerTab,
		next: make([]byte, padPlain)}
	for s := range t.plain {
		t.plain[s] = make([]byte, padPlain)
	}
	// Write every slot once, so no GET decrypts a never-written sector.
	for s := 0; s < slotsPerTab; s++ {
		if _, err := t.put(s); err != nil {
			t.close()
			return nil, fmt.Errorf("fill slot %d: %w", t.first+s, err)
		}
	}
	return t, nil
}

func (t *padTab) path(s int) string { return padPrefix + strconv.Itoa(t.first+s) }

func (t *padTab) op() (time.Duration, error) {
	s := t.rng.Intn(slotsPerTab)
	if t.rng.Intn(2) == 0 {
		return t.put(s)
	}
	return t.get(s)
}

func (t *padTab) put(s int) (time.Duration, error) {
	v := t.versions[s] + 1
	t.rng.Read(t.next)
	sealed, err := t.pad.Seal(t.next, v)
	if err != nil {
		return 0, err
	}
	if len(sealed) != slotSize {
		return 0, fmt.Errorf("sealed record is %d bytes, want %d", len(sealed), slotSize)
	}
	lat, err := t.do(http.MethodPut, t.path(s), sealed)
	if err != nil {
		return 0, err
	}
	t.versions[s] = v
	t.plain[s], t.next = t.next, t.plain[s]
	return lat, nil
}

func (t *padTab) get(s int) (time.Duration, error) {
	lat, err := t.do(http.MethodGet, t.path(s), nil)
	if err != nil {
		return 0, err
	}
	pt, err := t.pad.Open(t.body.Bytes(), t.versions[s])
	if err != nil {
		return 0, fmt.Errorf("GET %s: open version %d: %w", t.path(s), t.versions[s], err)
	}
	if !bytes.Equal(pt, t.plain[s]) {
		return 0, fmt.Errorf("GET %s: content differs from the last write", t.path(s))
	}
	return lat, nil
}

// visitSample is what one traced first-visit session reported.
type visitSample struct {
	trace uint64
	m     webext.Metrics
}

// visitTab opens a new browser session per op: a fresh browser and
// extension navigating through the gateway, attesting the site first.
type visitTab struct {
	fx     *fixture
	golden measure.Measurement
	ctx    context.Context
	ph     *phases
	phase  int // offset of the tab's device changes, from the seed
	n      int // sessions so far
	dev    *attest.Verifier
	// samples collects traced sessions; only the tab's goroutine appends.
	samples []visitSample
}

func newVisitTab(ctx context.Context, fx *fixture, rng *rand.Rand, _ int, hs *atomic.Int64) (tab, error) {
	ph := &phases{handshakes: hs}
	return &visitTab{fx: fx, golden: fx.f.Golden(), ctx: ph.context(ctx, fx.tr), ph: ph,
		phase: rng.Intn(coldEvery)}, nil
}

func (t *visitTab) op() (time.Duration, error) {
	if t.dev == nil || (t.n+t.phase)%coldEvery == 0 {
		t.dev = t.fx.newDevice()
	}
	t.n++
	return t.session(t.dev)
}

// session is one new browser session on device dev.
func (t *visitTab) session(dev *attest.Verifier) (time.Duration, error) {
	b := browser.New(t.fx.roots, 0)
	b.Resolve(t.fx.domain, t.fx.gw.Addr())
	ext := webext.New(b, dev)
	ext.RegisterSite(t.fx.domain, t.golden)

	path, ctx := "/"+visitPath, t.ctx
	var root spanRef
	tr := t.fx.tr
	if tr.enabled() {
		root = tr.root()
		path += "?" + traceQueryKey + "=" + root.String()
		ctx = withRef(ctx, root)
	}
	t0, start := time.Now(), tr.now()
	resp, m, err := ext.Navigate(ctx, t.fx.domain, path)
	lat, end := time.Since(t0), tr.now()
	if err != nil {
		return 0, fmt.Errorf("navigate: %w", err)
	}
	if resp.Status != http.StatusOK {
		return 0, fmt.Errorf("navigate: page status %d", resp.Status)
	}
	if sha256.Sum256(resp.Body) != t.fx.digests[visitPath] {
		return 0, errors.New("navigate: page body differs from the set-up digest")
	}
	if !m.Attested {
		return 0, errors.New("navigate: the new session was not attested")
	}
	if root.trace != 0 {
		tr.record(spanRef{trace: root.trace}, root.span, spanNavigate, start, end)
		// The stamps hold the session's last request: the page fetch.
		tr.record(root, 0, spanWait, t.ph.wrote.Load(), t.ph.firstByte.Load())
		t.samples = append(t.samples, visitSample{trace: root.trace, m: *m})
	}
	return lat, nil
}

func (t *visitTab) close() {}

// newDevice is a browser device with an empty KDS cache: its own
// caching kds.Client over the shared 20 ms KDS path, under a
// browser-side verifier that trusts the fleet golden.
func (fx *fixture) newDevice() *attest.Verifier {
	kc := kds.NewClient(fx.f.Deployment().KDSURL(), &http.Client{Transport: fx.kdsNet})
	kc.SetCaching(true)
	return attest.NewVerifier(&timedSource{src: kc, tr: fx.tr}, attest.NewStaticGolden(fx.f.Golden()))
}

// timedSource spans every certificate lookup the browser-side verifier
// makes, cache hits included.
type timedSource struct {
	src attestation.CertSource
	tr  *tracer
}

func (s *timedSource) VCEK(ctx context.Context, chip sev.ChipID, tcb uint64) (*x509.Certificate, error) {
	sp := s.tr.begin(refFrom(ctx), spanKDSVCEK)
	defer sp.end()
	return s.src.VCEK(ctx, chip, tcb)
}

func (s *timedSource) CertChain(ctx context.Context) (ask, ark *x509.Certificate, err error) {
	sp := s.tr.begin(refFrom(ctx), spanKDSChain)
	defer sp.end()
	return s.src.CertChain(ctx)
}
