package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. Every span is recorded by the benchmark's own code around
// a call it makes into one layer; none comes from inside the program.
const (
	spanRequest   = "client.request" // one GET/PUT, send to body EOF
	spanWait      = "client.wait"    // request headers written to first response byte
	spanBody      = "client.body"    // first response byte to body EOF
	spanApp       = "core.app"       // node handler up to its response write
	spanVerity    = "dmverity.read"  // rootfs.FS.ReadFile
	spanCryptR    = "dmcrypt.read"   // Persist().ReadAt
	spanCryptW    = "dmcrypt.write"  // Persist().WriteAt
	spanNavigate  = "webext.navigate"
	spanKDSVCEK   = "kds.vcek"
	spanKDSChain  = "kds.chain"
	traceHeader   = "Bench-Trace"
	traceQueryKey = "bench-trace"
)

// spanRef names a span and the trace (one op) it belongs to; the zero
// value means "no parent".
type spanRef struct{ trace, span uint64 }

func (r spanRef) String() string {
	return strconv.FormatUint(r.trace, 16) + "." + strconv.FormatUint(r.span, 16)
}

// parseSpanRef is the inverse of spanRef.String; malformed input yields
// the zero ref, so an untraced request simply has no parent.
func parseSpanRef(s string) spanRef {
	t, sp, ok := strings.Cut(s, ".")
	if !ok {
		return spanRef{}
	}
	trace, err1 := strconv.ParseUint(t, 16, 64)
	id, err2 := strconv.ParseUint(sp, 16, 64)
	if err1 != nil || err2 != nil {
		return spanRef{}
	}
	return spanRef{trace: trace, span: id}
}

// requestRef extracts the parent a client attached to an HTTP request:
// the header where the client builds the request itself, the query where
// the browser does (first-visit).
func requestRef(r *http.Request) spanRef {
	if v := r.Header.Get(traceHeader); v != "" {
		return parseSpanRef(v)
	}
	if r.URL.RawQuery == "" {
		return spanRef{}
	}
	return parseSpanRef(r.URL.Query().Get(traceQueryKey))
}

type refKey struct{}

// withRef carries a parent across in-process calls (Navigate into the
// KDS wrapper).
func withRef(ctx context.Context, r spanRef) context.Context {
	return context.WithValue(ctx, refKey{}, r)
}

func refFrom(ctx context.Context) spanRef {
	r, _ := ctx.Value(refKey{}).(spanRef)
	return r
}

// span is one recorded interval, times in nanoseconds since the tracer's
// epoch.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory while on; off, every call is a cheap
// no-op, so the untraced run shares the traced run's code.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enabled() bool { return t.on.Load() }

// now is the current tracer time, read from the monotonic clock.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// root opens a new trace (one op) and returns its root ref.
func (t *tracer) root() spanRef {
	return spanRef{trace: t.ids.Add(1), span: t.ids.Add(1)}
}

// record stores a finished span under parent; id 0 takes a fresh ID.
func (t *tracer) record(parent spanRef, id uint64, name string, start, end int64) {
	if id == 0 {
		id = t.ids.Add(1)
	}
	s := span{Trace: parent.trace, ID: id, Parent: parent.span, Name: name, Start: start, End: end}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// liveSpan is an open span; end records it. The zero liveSpan (tracer
// off or no parent) ends as a no-op and has the zero ref.
type liveSpan struct {
	t      *tracer
	parent spanRef
	id     uint64
	name   string
	start  int64
}

// begin opens a span under parent. Spans without a trace are dropped:
// they belong to warm-up or set-up traffic, not to a measured op.
func (t *tracer) begin(parent spanRef, name string) liveSpan {
	if parent.trace == 0 || !t.enabled() {
		return liveSpan{}
	}
	return liveSpan{t: t, parent: parent, id: t.ids.Add(1), name: name, start: t.now()}
}

// ref names the open span as a parent for its children.
func (l liveSpan) ref() spanRef {
	if l.t == nil {
		return spanRef{}
	}
	return spanRef{trace: l.parent.trace, span: l.id}
}

func (l liveSpan) end() {
	if l.t != nil {
		l.t.record(l.parent, l.id, l.name, l.start, l.t.now())
	}
}

// take returns the spans recorded so far and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// byTrace groups spans by trace ID.
func byTrace(spans []span) map[uint64][]span {
	out := make(map[uint64][]span)
	for _, s := range spans {
		out[s.Trace] = append(out[s.Trace], s)
	}
	return out
}

// selfTime is parent's duration minus the part of its interval that its
// children cover (overlapping children are counted once).
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		covered += curHi - curLo
	}
	return parent.dur() - time.Duration(covered)
}

// writeSpans writes the run metadata and then one span per line as JSON.
func writeSpans(path string, meta map[string]any, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		_ = f.Close()
		return fmt.Errorf("trace meta: %w", err)
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return fmt.Errorf("trace span: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("trace flush: %w", err)
	}
	return f.Close()
}
