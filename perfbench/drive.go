package main

import (
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"decentmon"
	"decentmon/internal/dist"
	"decentmon/internal/server"
)

// stats accumulates one phase of closed sessions.
type stats struct {
	sessions, failed int
	events           int64
	firstErr         error
	sessionMs        hist
	verdictMs        hist
	blockingMs       hist // traced: per-session sum of the feeder's blocking calls

	// Engine counters from RunResult (in-process sessions).
	msgs, netBytes, tokenHops, searches, boxNodes int64
	delayedSum, delaySamples, collected           int64
	conclusive                                    int64
	knowledgePeak                                 int
	snapshots, snapBytes                          int64

	// Server-side counters (daemon sessions).
	registers, cacheHits int
	backlogMs            hist

	// windows accumulates each window's share of closed sessions' events
	// (see eventsPerSec); start and deadline bound the windows.
	windows         [throughputWindows]float64
	start, deadline time.Time
	wall            time.Duration
	allocBytes      uint64
	peakLiveMiB     float64
}

func (st *stats) fail(err error) {
	st.failed++
	if st.firstErr == nil {
		st.firstErr = err
	}
}

func (st *stats) merge(o *stats) {
	st.sessions += o.sessions
	st.failed += o.failed
	st.events += o.events
	if st.firstErr == nil {
		st.firstErr = o.firstErr
	}
	st.sessionMs.merge(&o.sessionMs)
	st.verdictMs.merge(&o.verdictMs)
	st.blockingMs.merge(&o.blockingMs)
	st.msgs += o.msgs
	st.netBytes += o.netBytes
	st.tokenHops += o.tokenHops
	st.searches += o.searches
	st.boxNodes += o.boxNodes
	st.delayedSum += o.delayedSum
	st.delaySamples += o.delaySamples
	st.collected += o.collected
	st.conclusive += o.conclusive
	st.knowledgePeak = max(st.knowledgePeak, o.knowledgePeak)
	st.snapshots += o.snapshots
	st.snapBytes += o.snapBytes
	st.registers += o.registers
	st.cacheHits += o.cacheHits
	st.backlogMs.merge(&o.backlogMs)
	for k, v := range o.windows {
		st.windows[k] += v
	}
	st.wall += o.wall
}

// rate is events per second of wall time over every merged phase.
func (st *stats) rate() float64 { return float64(st.events) / st.wall.Seconds() }

// throughputWindows is how many slices of the timed phase the throughput
// is measured in.
const throughputWindows = 10

// closeSession records a closed session: its latency, and its events
// spread evenly over its lifetime into the phase's windows, so sessions
// longer than a window still count smoothly.
func (st *stats) closeSession(t0, t1 time.Time, events int) {
	st.sessions++
	st.events += int64(events)
	st.sessionMs.add(ms(t1.Sub(t0)))
	if st.deadline.IsZero() {
		return
	}
	win := st.deadline.Sub(st.start) / throughputWindows
	life := t1.Sub(t0).Seconds()
	for k := range st.windows {
		ws := st.start.Add(time.Duration(k) * win)
		we := ws.Add(win)
		lo, hi := t0, t1
		if ws.After(lo) {
			lo = ws
		}
		if we.Before(hi) {
			hi = we
		}
		if overlap := hi.Sub(lo); overlap > 0 {
			st.windows[k] += float64(events) * overlap.Seconds() / life
		}
	}
}

// windowRates lists the phase's per-window event rates, for the report.
func (st *stats) windowRates() string {
	win := st.deadline.Sub(st.start).Seconds() / throughputWindows
	var b strings.Builder
	for k, v := range st.windows {
		if k > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.0f", v/win)
	}
	return b.String()
}

// eventsPerSec is the median over the phase's windows of the rate at
// which sessions processed events; the median discards windows the host
// stalled.
func (st *stats) eventsPerSec() float64 {
	win := st.deadline.Sub(st.start).Seconds() / throughputWindows
	rates := make([]float64, throughputWindows)
	for k, v := range st.windows {
		rates[k] = v / win
	}
	return percentile(rates, 0.5)
}

// arrival is one verdict as the subscriber saw it.
type arrival struct {
	at         time.Time
	cut        []int
	conclusive bool
}

// verdictLog collects a session's verdict arrivals. Daemon verdicts arrive
// on the client's read loop, in-process ones on a reader goroutine.
type verdictLog struct {
	mu  sync.Mutex
	arr []arrival
}

func (l *verdictLog) add(a arrival) {
	l.mu.Lock()
	l.arr = append(l.arr, a)
	l.mu.Unlock()
}

func (l *verdictLog) take() []arrival {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.arr
	l.arr = nil
	return a
}

// conn is one daemon connection and the verdicts it has received for its
// current session (one session at a time per connection).
type conn struct {
	cl     *server.Client
	tenant string
	log    verdictLog
}

// runner holds a workload's set-up state: the compiled spec, or the
// daemon and its connections.
type runner struct {
	w        *workload
	fx       *fixture
	spec     *decentmon.Spec
	srv      *server.Server
	conns    []*conn
	stateDir string

	// Set between phases, read by the session feeders.
	tr        *tracer
	shards1   bool // in-process replay of a daemon workload: dlmond runs every session with one shard
	snapEvery int  // >0: snapshot the in-process session every snapEvery events
}

// setup performs what a user pays before the first session: compiling the
// property (in-process) or starting the daemon and dialing it, then one
// warm-up session on the short warm-up trace.
func (r *runner) setup() error {
	st := &stats{}
	stamps := make([]time.Time, r.fx.warm.len())
	if !r.w.daemon {
		spec, err := decentmon.Compile(r.w.formula, r.w.props)
		if err != nil {
			return err
		}
		r.spec = spec
		r.localSession(r.fx.warm, st, stamps)
	} else {
		if err := r.startDaemon(r.w.durable, min(r.w.conns, runtime.NumCPU())); err != nil {
			return err
		}
		r.daemonSession(r.conns[0], r.fx.warm, st, stamps)
	}
	if st.failed > 0 {
		return fmt.Errorf("warm-up session: %w", st.firstErr)
	}
	return nil
}

func (r *runner) startDaemon(durable bool, conns int) error {
	cfg := server.Config{}
	if durable {
		if err := os.MkdirAll(stateRoot, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(stateRoot, "state-")
		if err != nil {
			return err
		}
		r.stateDir, cfg.StateDir = dir, dir
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	r.srv = srv
	for i := 0; i < conns; i++ {
		cl, err := server.Dial(srv.Addr())
		if err != nil {
			return err
		}
		c := &conn{cl: cl, tenant: fmt.Sprintf("bench-%d", i)}
		cl.OnVerdict = func(m *dist.RPCMsg) {
			c.log.add(arrival{at: time.Now(), cut: append([]int(nil), m.Cut...), conclusive: m.Conclusive})
		}
		r.conns = append(r.conns, c)
	}
	return nil
}

// stateRoot holds the durable daemon's state directories, inside the
// build directory the benchmark already owns.
var stateRoot = filepath.Join(".bench_build", "perfbench-state")

func (r *runner) teardown() {
	for _, c := range r.conns {
		c.cl.Close()
	}
	r.conns = nil
	if r.srv != nil {
		r.srv.Shutdown()
		r.srv = nil
	}
	if r.stateDir != "" {
		os.RemoveAll(r.stateDir)
		r.stateDir = ""
	}
}

// sessionFn runs one closed session on item it for feeder number worker.
type sessionFn func(worker int, it *item, st *stats, stamps []time.Time)

// phase runs closed-loop sessions on workers feeders until d has passed;
// sessions in flight at the deadline finish and count. Allocation and the
// live-heap peak are read over the whole phase, the peak above the live heap
// that a collection just before the phase leaves.
func (r *runner) phase(d time.Duration, workers int, fn sessionFn) *stats {
	pool := r.fx.pool
	maxEvents := 0
	for _, it := range pool {
		maxEvents = max(maxEvents, it.len())
	}
	runtime.GC()
	base := liveHeap()
	hs := startHeapSampler()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(d)
	per := make([]*stats, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		per[k] = &stats{start: start, deadline: deadline}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			stamps := make([]time.Time, maxEvents)
			for i := k; i == k || time.Now().Before(deadline); i += workers {
				fn(k, pool[i%len(pool)], per[k], stamps)
			}
		}(k)
	}
	wg.Wait()
	total := &stats{start: start, deadline: deadline, wall: time.Since(start)}
	runtime.ReadMemStats(&ms1)
	total.peakLiveMiB = max(hs.stop()-float64(base)/(1<<20), 0)
	total.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	for _, s := range per {
		total.merge(s)
	}
	return total
}

func (r *runner) local(_ int, it *item, st *stats, stamps []time.Time) {
	r.localSession(it, st, stamps)
}

func (r *runner) daemon(k int, it *item, st *stats, stamps []time.Time) {
	r.daemonSession(r.conns[k], it, st, stamps)
}

// localSession replays one trace through decentmon.Session:
// NewSession → Feed every event → Close, with a verdict reader.
func (r *runner) localSession(it *item, st *stats, stamps []time.Time) {
	tr := r.tr
	ctr := tr // core spans; the snapshot probe records only its snapshots
	if r.snapEvery > 0 {
		ctr = nil
	}
	root := tr.root()
	var blocking time.Duration
	n := it.n
	t0 := time.Now()
	opts := []decentmon.SessionOption{decentmon.WithInitialState(it.init)}
	if r.shards1 {
		opts = append(opts, decentmon.WithShards(1))
	}
	if ctr != nil {
		a := time.Now()
		nw := decentmon.NewChanNetwork(n)
		b := time.Now()
		ctr.record(spanTransportNewNetwork, root, a, b)
		blocking += b.Sub(a)
		opts = append(opts, decentmon.WithNetwork(&timedNetwork{Network: nw, tr: ctr, root: root}))
	}
	a := time.Now()
	s, err := decentmon.NewSession(r.spec, n, opts...)
	b := time.Now()
	ctr.record(spanCoreNewSession, root, a, b)
	blocking += b.Sub(a)
	if err != nil {
		st.fail(err)
		return
	}
	var log verdictLog
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range s.Verdicts() {
			log.add(arrival{at: time.Now(), cut: ev.Cut, conclusive: ev.Conclusive})
		}
	}()
	for i := 0; i < it.len(); i++ {
		var e *decentmon.Event
		if e, err = it.event(i); err != nil {
			break
		}
		a := time.Now()
		err = s.Feed(e)
		b := time.Now()
		ctr.record(spanCoreFeed, root, a, b)
		blocking += b.Sub(a)
		stamps[it.key(e.Proc, e.SN)] = b
		if err != nil {
			break
		}
		if r.snapEvery > 0 && (i+1)%r.snapEvery == 0 {
			a := time.Now()
			snap, serr := s.Snapshot(context.Background())
			tr.record(spanCoreSnapshot, root, a, time.Now())
			if serr != nil {
				err = serr
				break
			}
			st.snapshots++
			st.snapBytes += int64(len(snap))
		}
	}
	last := time.Now()
	a = time.Now()
	res, cerr := s.Close()
	b = time.Now()
	ctr.record(spanCoreClose, root, a, b)
	blocking += b.Sub(a)
	<-done
	t1 := time.Now()
	tr.record(spanSession, root, t0, t1)
	if err == nil {
		err = cerr
	}
	if err == nil && !maps.Equal(res.Verdicts, it.want) {
		err = fmt.Errorf("verdicts %v, reference %v", res.VerdictList(), wantList(it.want))
	}
	st.closeSession(t0, t1, it.len())
	if tr != nil {
		st.blockingMs.add(ms(blocking))
	}
	if err != nil {
		st.fail(err)
		return
	}
	arr := log.take()
	r.latencies(it, stamps, t0, last, arr, st)
	st.msgs += res.NetMessages
	st.netBytes += res.NetBytes
	peak := 0
	for _, m := range res.Metrics {
		st.tokenHops += int64(m.TokenHops)
		st.searches += int64(m.SearchesLaunched)
		st.boxNodes += int64(m.BoxNodes)
		st.delayedSum += int64(m.DelayedEventsSum)
		st.delaySamples += int64(m.DelaySamples)
		st.collected += int64(m.KnowledgeCollected)
		peak = max(peak, m.KnowledgePeak)
	}
	st.knowledgePeak = max(st.knowledgePeak, peak)
	for _, a := range arr {
		if a.conclusive {
			st.conclusive++
		}
	}
}

// daemonSession runs one session against dlmond:
// Register → Subscribe → Ingest every event → CloseSession.
func (r *runner) daemonSession(c *conn, it *item, st *stats, stamps []time.Time) {
	events, err := it.eventList()
	if err != nil {
		st.fail(err)
		return
	}
	tr := r.tr
	root := tr.root()
	var blocking time.Duration
	t0 := time.Now()
	sid, hit, err := c.cl.Register(c.tenant, r.w.formula, it.init, it.props)
	b := time.Now()
	tr.record(spanServerRegister, root, t0, b)
	blocking += b.Sub(t0)
	if err != nil {
		st.fail(err)
		return
	}
	st.registers++
	if hit {
		st.cacheHits++
	}
	c.log.take()
	a := time.Now()
	err = c.cl.Subscribe(sid)
	b = time.Now()
	tr.record(spanServerSubscribe, root, a, b)
	blocking += b.Sub(a)
	for _, e := range events {
		if err != nil {
			break
		}
		a := time.Now()
		err = c.cl.Ingest(sid, e)
		b := time.Now()
		tr.record(spanServerIngest, root, a, b)
		blocking += b.Sub(a)
		stamps[it.key(e.Proc, e.SN)] = b
	}
	last := time.Now()
	a = time.Now()
	codes, cerr := c.cl.CloseSession(sid)
	t1 := time.Now()
	tr.record(spanServerClose, root, a, t1)
	blocking += t1.Sub(a)
	tr.record(spanSession, root, t0, t1)
	if err == nil {
		err = cerr
	}
	got := map[decentmon.Verdict]bool{}
	for _, code := range codes {
		got[decentmon.Verdict(code)] = true
	}
	if err == nil && !maps.Equal(got, it.want) {
		err = fmt.Errorf("verdicts %v, reference %v", codes, wantList(it.want))
	}
	st.closeSession(t0, t1, it.len())
	st.backlogMs.add(ms(t1.Sub(last)))
	if tr != nil {
		st.blockingMs.add(ms(blocking))
	}
	if err != nil {
		st.fail(err)
		return
	}
	r.latencies(it, stamps, t0, last, c.log.take(), st)
}

// latencies turns verdict arrivals into detection delays. A conclusive
// verdict is timed from the return of the Feed/Ingest of the last event in
// its cut. An invariant session has no conclusive verdict: its one sample
// is the first terminal verdict, timed from the return of the session's
// last Feed/Ingest. Arrivals are logged in arrival order.
func (r *runner) latencies(it *item, stamps []time.Time, t0, last time.Time, arr []arrival, st *stats) {
	if r.w.invariant {
		if len(arr) > 0 {
			st.verdictMs.add(ms(max(arr[0].at.Sub(last), 0)))
		}
		return
	}
	for _, a := range arr {
		if !a.conclusive {
			continue
		}
		base := last
		if len(a.cut) == len(it.off) {
			base = t0
			for p, sn := range a.cut {
				if sn > 0 {
					if s := stamps[it.key(p, sn)]; s.After(base) {
						base = s
					}
				}
			}
		}
		st.verdictMs.add(ms(max(a.at.Sub(base), 0)))
	}
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func wantList(want map[decentmon.Verdict]bool) []decentmon.Verdict {
	var out []decentmon.Verdict
	for _, v := range []decentmon.Verdict{decentmon.Top, decentmon.Bottom, decentmon.Unknown} {
		if want[v] {
			out = append(out, v)
		}
	}
	return out
}

// liveHeap reads the live heap left by the last collection.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

const liveHeapMetric = "/gc/heap/live:bytes"

// heapSampler samples the runtime's live-heap metric, which the collector
// updates at the end of every cycle, into a histogram in MiB.
type heapSampler struct {
	quit, done chan struct{}
	mib        hist
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			h.mib.add(float64(liveHeap()) / (1 << 20))
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop returns the 99th percentile of the samples in MiB. It is the
// phase's peak, but not set by the one cycle in a run that happened to end
// while more sessions than usual were in flight: over six 15 s dlmond-short
// runs on a 2-vCPU VM, the maximum spread 0.21 of its median and the 99th
// percentile 0.06.
func (h *heapSampler) stop() float64 {
	close(h.quit)
	<-h.done
	return h.mib.quantile(0.99)
}
