package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"decentmon"
	"decentmon/internal/transport"
)

// spanKind names one call into a layer. Spans are recorded by the
// benchmark around its own calls into the system; nothing inside the
// program is instrumented.
type spanKind uint8

const (
	spanSession spanKind = iota // a feeder's whole session: the root
	spanCoreNewSession
	spanCoreFeed
	spanCoreClose
	spanCoreSnapshot
	spanTransportNewNetwork
	spanTransportSend
	spanDistEncode
	spanDistDecode
	spanDistRPC
	spanAutomatonCompile
	spanServerRegister
	spanServerSubscribe
	spanServerIngest
	spanServerClose
	spanLatticeOracle
	numSpanKinds
)

// spanInfo names each kind and its layer. transport.send spans run on
// monitor goroutines, so they overlap the feeder's calls instead of
// nesting in them; every other call span runs on the session's feeder.
var spanInfo = [numSpanKinds]struct{ name, layer string }{
	spanSession:             {"session", "session"},
	spanCoreNewSession:      {"core.new_session", "core"},
	spanCoreFeed:            {"core.feed", "core"},
	spanCoreClose:           {"core.close", "core"},
	spanCoreSnapshot:        {"core.snapshot", "core"},
	spanTransportNewNetwork: {"transport.new_network", "transport"},
	spanTransportSend:       {"transport.send", "transport"},
	spanDistEncode:          {"dist.record_encode", "dist"},
	spanDistDecode:          {"dist.record_decode", "dist"},
	spanDistRPC:             {"dist.rpc_frame", "dist"},
	spanAutomatonCompile:    {"automaton.compile", "automaton"},
	spanServerRegister:      {"server.register", "server"},
	spanServerSubscribe:     {"server.subscribe", "server"},
	spanServerIngest:        {"server.ingest", "server"},
	spanServerClose:         {"server.close", "server"},
	spanLatticeOracle:       {"lattice.oracle", "lattice"},
}

// span is one recorded call. A session span's id identifies the session;
// the calls it made carry that id as their parent. Spans outside any
// session, and session spans themselves, have parent 0.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxKeptSpans bounds the spans kept for writing out; aggregates cover
// every span. A long stream session records several spans per event.
const maxKeptSpans = 200_000

// tracer keeps spans in memory and per-kind aggregates. A nil *tracer is
// the untraced run: every method is a no-op.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	count  [numSpanKinds]atomic.Int64
	nanos  [numSpanKinds]atomic.Int64

	mu      sync.Mutex
	kept    []span
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root allocates the id of a session span.
func (t *tracer) root() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores one finished span of kind k in the session whose span id
// is root (0: none). The session span itself is recorded under its id.
func (t *tracer) record(k spanKind, root int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.count[k].Add(1)
	t.nanos[k].Add(end.Sub(start).Nanoseconds())
	sp := span{Parent: root, Name: spanInfo[k].name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	if k == spanSession {
		sp.ID, sp.Parent = root, 0
	} else {
		sp.ID = t.nextID.Add(1)
	}
	t.mu.Lock()
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, sp)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// totalNs is the summed duration of one kind of span.
func (t *tracer) totalNs(k spanKind) float64 { return float64(t.nanos[k].Load()) }

// meanNs is the mean duration of one kind of span.
func (t *tracer) meanNs(k spanKind) float64 {
	c := t.count[k].Load()
	if c == 0 {
		return 0
	}
	return float64(t.nanos[k].Load()) / float64(c)
}

// layerTotals returns, per layer, the span count and self time in ms. Call
// spans have no children of their own, so their self time is their
// duration. The "session" layer holds the session spans, which enclose the
// calls.
func (t *tracer) layerTotals() map[string][2]float64 {
	out := map[string][2]float64{}
	for k := spanKind(0); k < numSpanKinds; k++ {
		l := spanInfo[k].layer
		v := out[l]
		v[0] += float64(t.count[k].Load())
		v[1] += float64(t.nanos[k].Load()) / 1e6
		out[l] = v
	}
	return out
}

// writeTo writes the kept spans as JSON lines.
func (t *tracer) writeTo(path string) (int, int64, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	kept, dropped := t.kept, t.dropped
	t.mu.Unlock()
	for i := range kept {
		if err := enc.Encode(&kept[i]); err != nil {
			f.Close()
			return 0, 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, 0, err
	}
	return len(kept), dropped, f.Close()
}

// timedNetwork wraps a monitor network so every Endpoint.Send is a
// transport.send span of the session that owns the network.
type timedNetwork struct {
	decentmon.Network
	tr   *tracer
	root int64
}

func (n *timedNetwork) Endpoint(i int) transport.Endpoint {
	return &timedEndpoint{Endpoint: n.Network.Endpoint(i), n: n}
}

type timedEndpoint struct {
	transport.Endpoint
	n *timedNetwork
}

func (e *timedEndpoint) Send(to int, payload []byte) error {
	start := time.Now()
	err := e.Endpoint.Send(to, payload)
	e.n.tr.record(spanTransportSend, e.n.root, start, time.Now())
	return err
}
