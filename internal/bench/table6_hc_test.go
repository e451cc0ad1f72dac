package bench

import (
	"context"
	"testing"
	"time"
)

// TestTable6HighConcurrency runs a small high-concurrency cell: the
// steady-state window serves with zero failures, records latencies, and
// the allocs/op probe measures the proxy path.
func TestTable6HighConcurrency(t *testing.T) {
	cfg := Table6Config{
		ServiceTime: time.Millisecond,
		HCClients:   32,
		HCNodes:     2,
		HCDuration:  300 * time.Millisecond,
	}.withDefaults()
	res := &Table6Result{}
	if err := table6HighConcurrency(context.Background(), cfg, res); err != nil {
		t.Fatal(err)
	}
	if res.HCFailures != 0 {
		t.Errorf("%d of %d requests failed", res.HCFailures, res.HCRequests)
	}
	if res.HCRequests <= 0 {
		t.Errorf("HCRequests = %d, want > 0", res.HCRequests)
	}
	if res.HCP50 <= 0 || res.HCP50 > res.HCP99 {
		t.Errorf("latencies p50 %s p99 %s, want 0 < p50 <= p99", res.HCP50, res.HCP99)
	}
	if res.HCProxyAllocsPerOp <= 0 {
		t.Errorf("HCProxyAllocsPerOp = %.1f, want > 0", res.HCProxyAllocsPerOp)
	}
}
