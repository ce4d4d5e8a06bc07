// Command perfbench is the repository benchmark: it drives decentmon
// through its public calls (the Session facade in-process, and the dlmond
// client against an in-process daemon on loopback) over seeded workloads,
// checks every verdict against a reference, and prints its metrics as one
// JSON object on the last line of standard output.
//
//	perfbench -workload paper-ring16 -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it prints the end-to-end metrics of an untraced run; with
// -trace 1 it prints the per-layer metrics of a traced run, whose spans go
// to .bench_build/spans/. See NOTES.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"decentmon"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	commit   string
	// corruptReference replaces the first pool trace's reference verdict
	// set with a wrong one (self-test of the correctness gate).
	corruptReference bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics")
	fs.StringVar(&o.commit, "commit", "unknown", "commit or source digest of the measured tree")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	res, err := measure(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// overheadSlices is how many untraced and traced slices the traced run
// alternates.
const overheadSlices = 3

// setupReps is how many times set-up runs; setup_s is the median.
const setupReps = 21

func measure(o options, out io.Writer) (*result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	fx, err := buildFixture(w, o.seed, tr)
	if err != nil {
		return nil, err
	}
	if o.corruptReference {
		fx.pool[0].want = map[decentmon.Verdict]bool{wrongVerdict(fx.pool[0].want): true}
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g trace=%t\n", w.name, o.seed, o.seconds, o.trace)
	env, _ := json.Marshal(map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"go": runtime.Version(), "commit": o.commit,
	})
	fmt.Fprintf(out, "env %s\n", env)

	r := &runner{w: w, fx: fx}
	defer r.teardown()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		r.teardown()
		a := time.Now()
		if err := r.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(a).Seconds())
	}
	workers, fn := 1, sessionFn(r.local)
	if w.daemon {
		workers, fn = len(r.conns), r.daemon
	}
	d := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		st := r.phase(d, workers, fn)
		return endToEnd(out, st, setups), nil
	}
	return r.traced(out, d, workers, fn, tr)
}

// endToEnd reports the untraced run.
func endToEnd(out io.Writer, st *stats, setups []float64) *result {
	events := float64(st.events)
	fmt.Fprintf(out, "sessions=%d failed=%d error_rate=%g events=%d wall_s=%.3f\n",
		st.sessions, st.failed, float64(st.failed)/float64(st.sessions), st.events, st.wall.Seconds())
	fmt.Fprintf(out, "samples: session latency %d, verdict latency %d, set-ups %d\n",
		st.sessionMs.n, st.verdictMs.n, len(setups))
	fmt.Fprintf(out, "events/s by window: %s\n", st.windowRates())
	for _, l := range []struct {
		name string
		h    *hist
	}{{"session", &st.sessionMs}, {"verdict", &st.verdictMs}} {
		fmt.Fprintf(out, "%s latency ms: p50 %.4g p75 %.4g p90 %.4g p99 %.4g\n", l.name,
			l.h.quantile(0.5), l.h.quantile(0.75), l.h.quantile(0.9), l.h.quantile(0.99))
	}
	if st.firstErr != nil {
		fmt.Fprintf(out, "first failure: %v\n", st.firstErr)
	}
	m := map[string]metric{
		"events_per_s":          {st.eventsPerSec(), "events/s"},
		"session_p50_ms":        {st.sessionMs.quantile(0.50), "ms"},
		"session_p90_ms":        {st.sessionMs.quantile(0.90), "ms"},
		"verdict_p50_ms":        {st.verdictMs.quantile(0.50), "ms"},
		"verdict_p90_ms":        {st.verdictMs.quantile(0.90), "ms"},
		"alloc_bytes_per_event": {float64(st.allocBytes) / events, "B/event"},
		"peak_live_heap_mb":     {st.peakLiveMiB, "MiB"},
		"setup_s":               {percentile(setups, 0.50), "s"},
	}
	return &result{Correct: st.failed == 0, Attempted: st.sessions, Failed: st.failed, Metrics: m}
}

// traced runs the workload untraced, traced and at GOMAXPROCS=1, then the
// layer probes, and reports the per-layer metrics.
func (r *runner) traced(out io.Writer, d time.Duration, workers int, fn sessionFn, tr *tracer) (*result, error) {
	part := func(f float64) time.Duration { return time.Duration(f * float64(d)) }
	all := &stats{}
	// Untraced and traced slices alternate, so drift in the host's speed
	// over the run does not read as tracing overhead.
	untraced, traced := &stats{}, &stats{}
	var before, after, srvCtr serverCounters
	var err error
	for i := 0; i < overheadSlices; i++ {
		r.tr = nil
		untraced.merge(r.phase(part(0.3/overheadSlices), workers, fn))
		if r.w.daemon {
			if before, err = r.scrape(); err != nil {
				return nil, err
			}
		}
		r.tr = tr
		traced.merge(r.phase(part(0.3/overheadSlices), workers, fn))
		if r.w.daemon {
			if after, err = r.scrape(); err != nil {
				return nil, err
			}
			srvCtr = srvCtr.add(after.sub(before))
		}
	}
	all.merge(untraced)
	all.merge(traced)

	r.tr = nil
	prev := runtime.GOMAXPROCS(1)
	one := r.phase(part(0.15), workers, fn)
	runtime.GOMAXPROCS(prev)
	all.merge(one)

	r.tr = tr
	defer func() { r.tr = nil }()
	if err := r.probeCompile(); err != nil {
		return nil, err
	}
	codecN, err := r.probeCodec()
	if err != nil {
		return nil, err
	}
	snap := r.probeSnapshot(part(0.05))
	all.merge(snap)
	core, srv, ctr := traced, traced, srvCtr
	if r.w.daemon {
		core = r.probeCore(part(0.1))
		all.merge(core)
	} else {
		if srv, ctr, err = r.probeServer(part(0.1)); err != nil {
			return nil, err
		}
		all.merge(srv)
	}

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ev := float64(core.events)
	put("core.new_session_us", tr.meanNs(spanCoreNewSession)/1e3, "us")
	put("core.feed_ns_per_event", tr.meanNs(spanCoreFeed), "ns")
	put("core.close_ms", tr.meanNs(spanCoreClose)/1e6, "ms")
	put("core.msgs_per_event", float64(core.msgs)/ev, "msgs/event")
	put("core.token_hops_per_event", float64(core.tokenHops)/ev, "hops/event")
	put("core.search_yield", ratio(core.conclusive, core.searches), "ratio")
	put("core.box_nodes_per_event", float64(core.boxNodes)/ev, "nodes/event")
	put("core.delayed_events_mean", ratio(core.delayedSum, core.delaySamples), "events")
	put("core.knowledge_peak_events", float64(core.knowledgePeak), "events")
	put("core.knowledge_collected_per_event", float64(core.collected)/ev, "events/event")
	put("core.verdict_wait_ms", core.verdictMs.mean(), "ms")
	put("core.snapshot_ms", tr.meanNs(spanCoreSnapshot)/1e6, "ms")
	put("core.snapshot_bytes", ratio(snap.snapBytes, snap.snapshots), "B")
	put("core.events_per_s_1proc", one.rate(), "events/s")
	put("transport.new_network_us", tr.meanNs(spanTransportNewNetwork)/1e3, "us")
	put("transport.send_ns", tr.meanNs(spanTransportSend), "ns")
	put("transport.bytes_per_msg", ratio(core.netBytes, core.msgs), "B/msg")
	perOp := func(k spanKind) float64 {
		return tr.totalNs(k) / float64(codecN)
	}
	put("dist.record_encode_ns", perOp(spanDistEncode), "ns")
	put("dist.record_decode_ns", perOp(spanDistDecode), "ns")
	put("dist.rpc_frame_ns", perOp(spanDistRPC), "ns")
	put("automaton.compile_ms", tr.meanNs(spanAutomatonCompile)/1e6, "ms")
	put("server.register_us", tr.meanNs(spanServerRegister)/1e3, "us")
	put("server.subscribe_us", tr.meanNs(spanServerSubscribe)/1e3, "us")
	put("server.close_us", tr.meanNs(spanServerClose)/1e3, "us")
	put("server.ingest_ns_per_event", tr.meanNs(spanServerIngest), "ns")
	put("server.ingest_backlog_ms", srv.backlogMs.mean(), "ms")
	put("server.cache_hit_share", ratio(int64(srv.cacheHits), int64(srv.registers)), "ratio")
	put("server.checkpoints_per_kevent", float64(ctr.checkpoints)/(float64(srv.events)/1e3), "1/kevent")
	put("server.verdict_frames_per_session", float64(ctr.verdicts)/float64(srv.sessions), "frames")
	put("lattice.oracle_ms", tr.meanNs(spanLatticeOracle)/1e6, "ms")
	for layer, v := range tr.layerTotals() {
		if layer == "session" {
			continue
		}
		put(layer+".spans", v[0], "count")
		put(layer+".self_ms", v[1], "ms")
	}
	put("trace.overhead_share", (untraced.rate()-traced.rate())/untraced.rate(), "ratio")
	put("trace.accounted_share", traced.blockingMs.quantile(0.5)/untraced.sessionMs.quantile(0.5), "ratio")

	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", r.w.name, r.fx.seed))
	kept, dropped, err := tr.writeTo(path)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "spans: %d written to %s, %d beyond the cap counted only\n", kept, path, dropped)
	fmt.Fprintf(out, "events/s untraced %.1f traced %.1f gomaxprocs=1 %.1f\n",
		untraced.rate(), traced.rate(), one.rate())
	fmt.Fprintf(out, "session p50 untraced %.3f ms; traced blocking calls p50 %.3f ms\n",
		untraced.sessionMs.quantile(0.5), traced.blockingMs.quantile(0.5))
	fmt.Fprintf(out, "sessions=%d failed=%d error_rate=%g\n", all.sessions, all.failed, ratio(int64(all.failed), int64(all.sessions)))
	if all.firstErr != nil {
		fmt.Fprintf(out, "first failure: %v\n", all.firstErr)
	}
	return &result{Correct: all.failed == 0, Attempted: all.sessions, Failed: all.failed, Metrics: m}, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// percentile interpolates linearly between the order statistics around
// rank q·(n−1).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
