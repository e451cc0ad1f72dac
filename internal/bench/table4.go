package bench

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"revelio/internal/amdsp"
	"revelio/internal/attest"
	"revelio/internal/kds"
	"revelio/internal/load"
	"revelio/internal/measure"
	"revelio/internal/netlab"
	"revelio/internal/sev"
)

// Table4Config drives the attestation-throughput experiment ("Table 4"):
// how many report verifications per second the verification plane
// sustains cold, with a warm VCEK cache, and on the full fast path
// (parsed-certificate cache + chain/report proof caches + singleflight).
type Table4Config struct {
	// KDSRTT is the injected client-to-KDS latency (the paper's VCEK
	// fetch dominates the cold path at 427.3 ms).
	KDSRTT time.Duration
	// Concurrency lists the client (goroutine) counts to sweep.
	Concurrency []int
	// ColdOps is the number of verifications per cold cell — kept small
	// because every one pays full KDS round trips.
	ColdOps int
	// Ops is the number of verifications per warm / fast-path cell.
	Ops int
}

// DefaultTable4Config approximates the paper's WAN KDS conditions.
func DefaultTable4Config() Table4Config {
	return Table4Config{
		KDSRTT:      140 * time.Millisecond,
		Concurrency: []int{1, 4, 16},
		ColdOps:     8,
		Ops:         512,
	}
}

func (c Table4Config) withDefaults() Table4Config {
	if len(c.Concurrency) == 0 {
		c.Concurrency = []int{1, 4, 16}
	}
	if c.ColdOps <= 0 {
		c.ColdOps = 8
	}
	if c.Ops <= 0 {
		c.Ops = 512
	}
	return c
}

// Table4Row is one (mode, concurrency) cell.
type Table4Row struct {
	Mode        string        `json:"mode"`
	Clients     int           `json:"clients"`
	Ops         int           `json:"ops"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	PerSec      float64       `json:"verifications_per_sec"`
	KDSRequests int64         `json:"kds_requests"`
}

// Table4Result reports the sweep plus the headline comparisons.
type Table4Result struct {
	Rows []Table4Row `json:"rows"`

	// Speedup is full-fast-path vs cold verifications/sec at the highest
	// swept concurrency — the factor the fast path buys.
	Speedup float64 `json:"speedup_fast_vs_cold"`

	// ColdBurstClients concurrent verifiers racing on empty caches
	// produced ColdBurstKDSHits KDS requests: singleflight collapses the
	// thundering herd to one chain fetch plus one VCEK fetch.
	ColdBurstClients int   `json:"cold_burst_clients"`
	ColdBurstKDSHits int64 `json:"cold_burst_kds_hits"`
}

// table4Rig is the shared measurement substrate: one attested chip, one
// signed report, one KDS with a request counter and injected RTT.
type table4Rig struct {
	report *sev.Report
	golden measure.Measurement
	url    string
	httpc  *http.Client
	hits   atomic.Int64
}

func newTable4Rig(rtt time.Duration) (*table4Rig, func(), error) {
	mfr, err := amdsp.NewManufacturer([]byte("table4-seed"))
	if err != nil {
		return nil, nil, err
	}
	sp, err := mfr.MintProcessor([]byte("table4-chip"), 7)
	if err != nil {
		return nil, nil, err
	}
	h := sp.LaunchStart(0, 0)
	if err := sp.LaunchUpdate(h, measure.PageNormal, 0, []byte("fw"), "ovmf"); err != nil {
		return nil, nil, err
	}
	if _, err := sp.LaunchFinish(h); err != nil {
		return nil, nil, err
	}
	guest, err := sp.GuestChannel(h)
	if err != nil {
		return nil, nil, err
	}
	report, err := guest.Report(sev.ReportData{0x44})
	if err != nil {
		return nil, nil, err
	}

	rig := &table4Rig{report: report, golden: guest.Measurement()}
	kdsHandler := kds.NewServer(mfr)
	server := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rig.hits.Add(1)
		kdsHandler.ServeHTTP(w, r)
	}))
	rig.url = server.URL
	rig.httpc = netlab.Client(rtt, nil)
	return rig, server.Close, nil
}

// run measures ops verifications spread over clients workers, where
// each op calls verify. It returns the elapsed wall time and the actual
// number of operations performed (each client runs at least one).
func (rig *table4Rig) run(ctx context.Context, clients, ops int, verify func(context.Context) error) (time.Duration, int, error) {
	start := time.Now()
	c := load.Burst(ctx, clients, ops, func(ctx context.Context, _ int) error { return verify(ctx) })
	return time.Since(start), int(c.Attempts), c.Err
}

// RunAttestationThroughput produces Table 4. All three modes perform the
// policy-equivalent verification — the fast path only skips work already
// proven, never a security judgment.
func RunAttestationThroughput(cfg Table4Config) (*Table4Result, error) {
	cfg = cfg.withDefaults()
	rig, closeRig, err := newTable4Rig(cfg.KDSRTT)
	if err != nil {
		return nil, fmt.Errorf("bench: table4: %w", err)
	}
	defer closeRig()
	ctx := context.Background()
	policy := attest.NewStaticGolden(rig.golden)
	res := &Table4Result{}

	for _, clients := range cfg.Concurrency {
		// Cold: every verification builds an uncached client and
		// verifier — full KDS fetches, parses, chain walk, signature.
		before := rig.hits.Load()
		elapsed, done, err := rig.run(ctx, clients, cfg.ColdOps, func(ctx context.Context) error {
			v := attest.NewVerifier(kds.NewClient(rig.url, rig.httpc), policy,
				attest.WithoutReportCache())
			_, err := v.VerifyReport(ctx, rig.report)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench: table4 cold: %w", err)
		}
		res.Rows = append(res.Rows, table4Row("cold", clients, done, elapsed,
			rig.hits.Load()-before))

		// Warm VCEK: shared caching client (certificates fetched and
		// parsed once), but no proof caches — chain walk + ECDSA per op.
		// This is the paper's Table 3 warm-cache scenario, sustained.
		warmClient := kds.NewClient(rig.url, rig.httpc)
		warmClient.SetCaching(true)
		warmVerifier := attest.NewVerifier(warmClient, policy, attest.WithoutReportCache())
		if _, err := warmVerifier.VerifyReport(ctx, rig.report); err != nil {
			return nil, fmt.Errorf("bench: table4 warm prime: %w", err)
		}
		before = rig.hits.Load()
		elapsed, done, err = rig.run(ctx, clients, cfg.Ops, func(ctx context.Context) error {
			_, err := warmVerifier.VerifyReport(ctx, rig.report)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench: table4 warm: %w", err)
		}
		res.Rows = append(res.Rows, table4Row("warm-vcek", clients, done, elapsed,
			rig.hits.Load()-before))

		// Full fast path: caching client + chain/report proof caches +
		// singleflight. Steady state re-judges policy per op and skips
		// the proven crypto.
		fastClient := kds.NewClient(rig.url, rig.httpc)
		fastClient.SetCaching(true)
		fastVerifier := attest.NewVerifier(fastClient, policy)
		if _, err := fastVerifier.VerifyReport(ctx, rig.report); err != nil {
			return nil, fmt.Errorf("bench: table4 fast prime: %w", err)
		}
		before = rig.hits.Load()
		elapsed, done, err = rig.run(ctx, clients, cfg.Ops, func(ctx context.Context) error {
			_, err := fastVerifier.VerifyReport(ctx, rig.report)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench: table4 fast: %w", err)
		}
		res.Rows = append(res.Rows, table4Row("fast-path", clients, done, elapsed,
			rig.hits.Load()-before))
	}

	// Headline speedup at the highest swept concurrency.
	last := cfg.Concurrency[len(cfg.Concurrency)-1]
	var cold, fast float64
	for _, row := range res.Rows {
		if row.Clients == last {
			switch row.Mode {
			case "cold":
				cold = row.PerSec
			case "fast-path":
				fast = row.PerSec
			}
		}
	}
	if cold > 0 {
		res.Speedup = fast / cold
	}

	// Cold-burst singleflight proof: a thundering herd on empty caches
	// costs exactly one chain fetch and one VCEK fetch.
	burstClients := last
	burstClient := kds.NewClient(rig.url, rig.httpc)
	burstClient.SetCaching(true)
	burstVerifier := attest.NewVerifier(burstClient, policy)
	before := rig.hits.Load()
	if _, _, err := rig.run(ctx, burstClients, burstClients, func(ctx context.Context) error {
		_, err := burstVerifier.VerifyReport(ctx, rig.report)
		return err
	}); err != nil {
		return nil, fmt.Errorf("bench: table4 burst: %w", err)
	}
	res.ColdBurstClients = burstClients
	res.ColdBurstKDSHits = rig.hits.Load() - before

	return res, nil
}

func table4Row(mode string, clients, ops int, elapsed time.Duration, kdsReqs int64) Table4Row {
	perSec := 0.0
	if elapsed > 0 {
		perSec = float64(ops) / elapsed.Seconds()
	}
	return Table4Row{
		Mode:        mode,
		Clients:     clients,
		Ops:         ops,
		Elapsed:     elapsed,
		PerSec:      perSec,
		KDSRequests: kdsReqs,
	}
}

// Render prints the table in the paper's layout.
func (r *Table4Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Mode,
			fmt.Sprintf("%d", row.Clients),
			fmt.Sprintf("%d", row.Ops),
			fmt.Sprintf("%.1f", row.PerSec),
			fmt.Sprintf("%d", row.KDSRequests),
		})
	}
	out := "Table 4: Attestation verification throughput\n" +
		table([]string{"Mode", "Clients", "Ops", "Verifs/sec", "KDS reqs"}, rows)
	out += fmt.Sprintf("fast path vs cold: %.1fx; cold burst of %d clients -> %d KDS requests (singleflight)\n",
		r.Speedup, r.ColdBurstClients, r.ColdBurstKDSHits)
	return out
}
