package main

import (
	"fmt"
	"time"

	"revelio/internal/webext"
)

// budget is the traced window split by layer: one sample per op (or per
// storage call) in milliseconds.
type budget struct {
	hop         []float64 // client wait minus core.app
	body        []float64 // first byte to body EOF
	appSelf     []float64 // core.app minus its storage children
	storage     []float64 // core.app's storage children, per op
	verity      []float64
	cryptR      []float64
	cryptW      []float64
	unexplained []float64 // client time no layer accounts for

	attest     []float64 // webext Metrics.AttestationTime
	attestSelf []float64 // AttestationTime minus the session's KDS wait
	page       []float64 // Metrics.Total minus AttestationTime
	connUS     []float64 // Metrics.ConnValidation, microseconds
	kds        []float64 // per session: time inside the KDS wrapper
}

// layerBudget splits each traced op along its spans. visits carries the
// webext Metrics of each traced first-visit session.
func layerBudget(spans []span, visits []visitSample) *budget {
	metrics := make(map[uint64]webext.Metrics, len(visits))
	for _, v := range visits {
		metrics[v.trace] = v.m
	}
	b := &budget{}
	for trace, ss := range byTrace(spans) {
		var client, wait, body, app *span
		var kds time.Duration
		for i := range ss {
			s := &ss[i]
			switch s.Name {
			case spanRequest, spanNavigate:
				client = s
			case spanWait:
				wait = s
			case spanBody:
				body = s
			case spanApp:
				app = s
			case spanVerity:
				b.verity = append(b.verity, ms(s.dur()))
			case spanCryptR:
				b.cryptR = append(b.cryptR, ms(s.dur()))
			case spanCryptW:
				b.cryptW = append(b.cryptW, ms(s.dur()))
			case spanKDSVCEK, spanKDSChain:
				kds += s.dur()
			}
		}
		if app != nil {
			var children []span
			for _, s := range ss {
				if s.Parent == app.ID {
					children = append(children, s)
				}
			}
			self := selfTime(*app, children)
			b.appSelf = append(b.appSelf, ms(self))
			b.storage = append(b.storage, ms(app.dur()-self))
			if wait != nil {
				b.hop = append(b.hop, ms(wait.dur()-app.dur()))
			}
		}
		if body != nil {
			b.body = append(b.body, ms(body.dur()))
		}
		if client == nil {
			continue
		}
		if m, ok := metrics[trace]; ok {
			b.kds = append(b.kds, ms(kds))
			b.attest = append(b.attest, ms(m.AttestationTime))
			b.attestSelf = append(b.attestSelf, ms(m.AttestationTime-kds))
			b.page = append(b.page, ms(m.Total-m.AttestationTime))
			b.connUS = append(b.connUS, float64(m.ConnValidation)/float64(time.Microsecond))
			b.unexplained = append(b.unexplained, ms(client.dur()-m.Total))
		} else if wait != nil && body != nil {
			b.unexplained = append(b.unexplained, ms(client.dur()-wait.dur()-body.dur()))
		}
	}
	return b
}

// report sets the span-derived per-layer metrics. A layer the workload
// never enters has no samples and reads 0.
func (b *budget) report(rep *report) {
	pct := func(name, unit string, xs []float64, q float64) {
		rep.set(name, quantile(sortedCopy(xs), q), unit, sampleNote(len(xs), q))
	}
	pct("gateway.hop_ms_p50", "ms", b.hop, 0.5)
	pct("gateway.body_ms_p99", "ms", b.body, 0.99)
	pct("core.app_self_ms_p50", "ms", b.appSelf, 0.5)
	pct("dmverity.read_ms_p50", "ms", b.verity, 0.5)
	pct("dmverity.read_ms_p99", "ms", b.verity, 0.99)
	pct("dmcrypt.write_ms_p50", "ms", b.cryptW, 0.5)
	pct("dmcrypt.read_ms_p50", "ms", b.cryptR, 0.5)
	pct("webext.attest_ms_p50", "ms", b.attest, 0.5)
	pct("webext.attest_ms_p99", "ms", b.attest, 0.99)
	pct("webext.attest_self_ms_p50", "ms", b.attestSelf, 0.5)
	pct("webext.page_ms_p50", "ms", b.page, 0.5)
	pct("webext.conn_check_us_p50", "us", b.connUS, 0.5)
	pct("trace.unexplained_ms_p50", "ms", b.unexplained, 0.5)
	var kdsTotal float64
	for _, k := range b.kds {
		kdsTotal += k
	}
	rep.set("kds.wait_ms_per_op", perOp(kdsTotal, len(b.kds)), "ms",
		fmt.Sprintf("(%.3f ms / %d sessions)", kdsTotal, len(b.kds)))
}

// table renders the layer budget of the traced window. The per-op parts
// add up to the client latency, so their means do too; the unexplained
// row is client time no layer accounts for. Medians are shown beside
// the means but do not add.
func (b *budget) table() []string {
	type row struct {
		name string
		xs   []float64
	}
	var rows []row
	if len(b.kds) > 0 {
		rows = []row{
			{"webext.attest (self)", b.attestSelf},
			{"kds wait", b.kds},
			{"webext.page", b.page},
		}
	} else {
		rows = []row{
			{"gateway.hop", b.hop},
			{"core.app (self)", b.appSelf},
			{"dmverity/dmcrypt", b.storage},
			{"gateway.body", b.body},
		}
	}
	rows = append(rows, row{"unexplained", b.unexplained})
	lines := []string{fmt.Sprintf("# layer budget of the traced window   %10s %10s", "mean ms", "p50 ms")}
	var sum float64
	for _, r := range rows {
		m := mean(r.xs)
		sum += m
		lines = append(lines, fmt.Sprintf("#   %-34s %10.4f %10.4f", r.name, m, median(r.xs)))
	}
	return append(lines, fmt.Sprintf("#   %-34s %10.4f", "client latency (sum)", sum))
}
